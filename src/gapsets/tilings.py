"""Integer compositions viewed as tilings of a 1 x g board.

A composition (b_1, ..., b_n) of g is a tiling of a g-board by rectangles
1 x b_i.  Compositions are emitted in lexicographic order of the part
list, incrementally (never materialized), since unrestricted streams have
2**(g-1) items.  `sigma` identifies an m-extension of genus g with the
tiling given by its Kunz coordinates; `sigma_inverse` rebuilds the unique
extension of minimal modulus (number of parts + 1).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .core import MExtension
from .kunz import KunzVector, from_kunz, pseudo_kunz

__all__ = [
    "compositions_fixed_parts",
    "count_compositions",
    "enumerate_compositions",
    "format_composition",
    "sigma",
    "sigma_inverse",
]


def _advance(buf: list[int], k: int, lo: int) -> bool:
    """In-place lexicographic successor with parts bounded by k.

    Positions below lo are frozen (used to restrict the first part).
    Returns False once the stream is exhausted.  Relies on the invariant
    that every part right of the increment point, except the last, equals
    k, so the borrowed suffix sum is computable in O(1).
    """
    p = len(buf) - 2
    while p >= lo and buf[p] == k:
        p -= 1
    if p < lo:
        return False
    suffix = k * (len(buf) - 2 - p) + buf[-1]
    buf[p] += 1
    del buf[p + 1 :]
    buf.extend([1] * (suffix - 1))
    return True


def _start(g: int, max_part: Optional[int], first_part: Optional[int]) -> tuple[Optional[list[int]], int, int]:
    if g <= 0:
        raise ValueError(f"board size must be positive, got {g}")
    if max_part is not None and max_part < 1:
        raise ValueError(f"max_part must be >= 1, got {max_part}")
    k = g if max_part is None or max_part > g else max_part
    if first_part is None:
        return [1] * g, k, 0
    if first_part < 1 or first_part > min(k, g):
        return None, k, 1  # empty shard
    return [first_part] + [1] * (g - first_part), k, 1


def enumerate_compositions(
    g: int, max_part: Optional[int] = None, first_part: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """All compositions of g, lexicographic, each part <= max_part if given.

    `first_part` restricts the stream to compositions starting with that
    value; the sub-streams over all first parts partition the full stream,
    which is what makes sharded counting possible.
    """
    buf, k, lo = _start(g, max_part, first_part)
    if buf is None:
        return
    yield tuple(buf)
    while _advance(buf, k, lo):
        yield tuple(buf)


def count_compositions(
    g: int, max_part: Optional[int] = None, first_part: Optional[int] = None
) -> int:
    """Stream length of `enumerate_compositions`, walked without building tuples."""
    buf, k, lo = _start(g, max_part, first_part)
    if buf is None:
        return 0
    n = 1
    while _advance(buf, k, lo):
        n += 1
    return n


def compositions_fixed_parts(
    g: int, parts: int, max_part: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Compositions of g into exactly `parts` parts, lexicographic."""
    if parts < 1:
        raise ValueError(f"part count must be >= 1, got {parts}")
    k = g if max_part is None else max_part
    if parts == 1:
        if 1 <= g <= k:
            yield (g,)
        return
    lo = max(1, g - k * (parts - 1))
    hi = min(k, g - (parts - 1))
    for first in range(lo, hi + 1):
        for rest in compositions_fixed_parts(g - first, parts - 1, max_part):
            yield (first,) + rest


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

