"""Integer compositions viewed as tilings of a 1 x g board.

A composition (b_1, ..., b_n) of g is a tiling of a g-board by rectangles
1 x b_i.  Every stream here, the paper's depth-3 family included, comes
from one walk, `_compositions`, in lexicographic order of the part list
and one at a time (an unrestricted stream has 2**(g-1) items);
`count_compositions` walks the same tree without building tuples.  `sigma`
identifies an m-extension of genus g with the tiling given by its Kunz
coordinates; `sigma_inverse` rebuilds the unique extension of minimal
modulus (number of parts + 1).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .core import MExtension
from .kunz import KunzVector, from_kunz, pseudo_kunz

__all__ = [
    "compositions_fixed_parts",
    "count_compositions",
    "enumerate_compositions",
    "enumerate_depth3_family",
    "format_composition",
    "sigma",
    "sigma_inverse",
]


def _compositions(
    total: int, smallest: int, largest: int, parts: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Compositions of `total` with every part in smallest..largest (and
    exactly `parts` parts if given), lexicographic; () for a total of 0.
    A depth-first walk whose stack holds each open position's untried
    parts, so it needs no recursion and memory grows only with the parts."""

    def choices(left: int, placed: int) -> Iterator[int]:
        lo, hi = smallest, min(largest, left)
        if parts is not None:  # the parts after this one must fit what is left
            after = parts - placed - 1
            lo, hi = max(lo, left - largest * after), min(hi, left - smallest * after)
        return iter(range(lo, hi + 1))

    if total == 0 and not parts:
        yield ()
    buf, left, stack = [], total, [choices(total, 0)]
    while stack:
        p = next(stack[-1], 0)
        if not p:  # every part at this position is tried: take back the one before
            stack.pop()
            left += buf.pop() if buf else 0
        elif p == left:  # the last part
            yield (*buf, p)
        else:
            buf.append(p)
            left -= p
            stack.append(choices(left, len(buf)))


def _part_bound(g: int, max_part: Optional[int]) -> int:
    if g <= 0:
        raise ValueError(f"board size must be positive, got {g}")
    if max_part is not None and max_part < 1:
        raise ValueError(f"max_part must be >= 1, got {max_part}")
    return g if max_part is None or max_part > g else max_part


def enumerate_compositions(g: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All compositions of g, lexicographic, each part <= max_part if given."""
    yield from _compositions(g, 1, _part_bound(g, max_part))


def count_compositions(g: int, max_part: Optional[int] = None, first_part: Optional[int] = None) -> int:
    """Number of compositions of g, each part <= max_part if given, that
    start with `first_part` if given.  Walked without building tuples: the
    stack holds board lengths still to tile, and a length that fits in one
    part is counted as a composition ending there."""
    k = _part_bound(g, max_part)
    if first_part is not None and not 1 <= first_part <= k:
        return 0
    n, stack = 0, [g - (first_part or 0)]  # 0 left: the first part tiles the whole board
    while stack:
        left = stack.pop()
        if left <= k:  # all of it as the last part
            n += 1
        lo = left - k
        if lo <= 1:  # a single cell left over is a last part of 1
            n += left > 1
            lo = 2
        stack.extend(range(lo, left))
    return n


def compositions_fixed_parts(
    g: int, parts: int, max_part: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Compositions of g into exactly `parts` parts, lexicographic."""
    if parts < 1:
        raise ValueError(f"part count must be >= 1, got {parts}")
    yield from _compositions(g, 1, _part_bound(g, max_part), parts)


def enumerate_depth3_family(g: int) -> Iterator[KunzVector]:
    """The paper's depth-3 gapsets: tilings by a {2,3}-prefix, a pivot 3
    (the last 3, so no vector comes twice) and a {1,2}-suffix, as Kunz
    vectors.  With the F(g+1) gapsets of depth <= 2 they make up the lower
    bound F(g+2) - P(g+1) on the gapsets of depth <= 3."""
    for n in range(0, g - 2):  # prefix total; parts of size 2/3 skip n == 1 on their own
        for prefix in _compositions(n, 2, 3):
            for suffix in _compositions(g - 3 - n, 1, 2):
                vec = prefix + (3,) + suffix
                yield KunzVector(len(vec) + 1, vec)


def sigma(ext: MExtension) -> tuple[int, ...]:
    """Tiling of a genus-sized board associated with an m-extension.

    The parts are the Kunz coordinates: board size = genus, number of
    parts = modulus - 1, largest part = depth.
    """
    return pseudo_kunz(ext).coords


def sigma_inverse(parts: Sequence[int]) -> MExtension:
    """The (n+1)-extension whose Kunz coordinates are the n given parts.

    The modulus is forced to number of parts + 1; with that convention the
    map is a bijection between tilings of a g-board and extensions of
    genus g.
    """
    return from_kunz(KunzVector(len(parts) + 1, tuple(parts)))


def format_composition(parts: Sequence[int]) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"

