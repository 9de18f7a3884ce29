"""Exhaustive, exact counting of gapsets by genus, depth and multiplicity.

One engine enumerates the Kunz coordinate vectors of the gapsets of a
genus directly, as a depth-first search that places coordinates left to
right.  Each coordinate is capped by the inequalities k_(i+j) <= k_i + k_j
(i + j < m), which bind on every prefix; the wrap-around inequalities
(i + j > m) are checked once the vector is complete.  A depth filter caps
every coordinate and a multiplicity filter fixes their number, so both
prune the search.  The census output is a histogram by (depth,
multiplicity); every count is a sum over its cells.  Counts are exact and
bounded by 2**63 - 1; the genus is capped accordingly.

Every closed formula and tabulated value elsewhere in the package is
checked against this census.  The composition walk in `tilings` (the
paper's tiling bijection) is in turn the census's brute-force oracle in
the tests.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import GapSet
from .kunz import KunzVector, from_kunz
from .sequences import fibonacci, padovan
from .tilings import count_compositions

__all__ = [
    "MAX_GENUS",
    "CensusQuery",
    "CensusResult",
    "census_histogram",
    "count_depth3_family",
    "count_gapsets",
    "count_gapsets_depth_at_most",
    "count_m_extensions",
    "enumerate_depth3_family",
]

# Counts live in 64 bits; 2**(g-1) m-extensions at genus g forces g < 64.
MAX_GENUS = 63
_MAX_COUNT = (1 << 63) - 1


@dataclass(frozen=True)
class CensusQuery:
    """What to count: a genus with optional depth and multiplicity filters.

    `depth` asks for that exact depth, `max_depth` for all depths up to the
    bound; at most one may be set.  `mult` fixes the multiplicity.
    """

    genus: int
    depth: Optional[int] = None
    max_depth: Optional[int] = None
    mult: Optional[int] = None

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError(f"genus must be >= 0, got {self.genus}")
        if self.genus > MAX_GENUS:
            raise OverflowError(f"genus {self.genus} exceeds the 64-bit count guard ({MAX_GENUS})")
        if self.depth is not None and self.max_depth is not None:
            raise ValueError("depth and max_depth are mutually exclusive")
        for q in (self.depth, self.max_depth):
            if q is not None and q < 0:
                raise ValueError(f"depth filter must be >= 0, got {q}")
        if self.mult is not None and self.mult < 2:
            raise ValueError(f"multiplicity filter must be >= 2, got {self.mult}")

    def selects(self, depth: int, mult: int) -> bool:
        """Whether a gapset of this genus with that depth and multiplicity
        passes the filters."""
        return (
            (self.depth is None or depth == self.depth)
            and (self.max_depth is None or depth <= self.max_depth)
            and (self.mult is None or mult == self.mult)
        )

    def count_in(self, hist: Counter) -> int:
        """Sum of the selected cells of a (depth, multiplicity) histogram
        of this genus, as `census_histogram` returns it."""
        return sum(n for (q, m), n in hist.items() if self.selects(q, m))


@dataclass(frozen=True)
class CensusResult:
    query: CensusQuery
    count: int
    elapsed: float
    shards: int
    items: Optional[tuple[GapSet, ...]] = None


def _gapset_coords(
    g: int, cap: int, parts: Optional[int] = None, first: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Kunz coordinate tuples of the gapsets of genus g with every
    coordinate <= cap, in the lexicographic order of the composition walk.

    `parts` fixes the number of coordinates (multiplicity - 1) and `first`
    the first one.  Coordinates are placed left to right.  Position p is
    capped by k_i + k_(p-i): those inequalities hold whatever the final
    length, so the search stays lexicographic across moduli.  The
    wrap-around pairs depend on the modulus and are checked at the leaf.
    """
    k = [0]  # k[p] is the p-th coordinate

    def grow(rest: int) -> Iterator[tuple[int, ...]]:
        p = len(k)
        if rest == 0:
            if parts is not None and parts != p - 1:
                return  # only at genus 0: no coordinates at all
            # the modulus is p; each wrap-around pair i + j = p + t needs
            # k_t <= k_i + k_j + 1, which only a k_t >= 4 can break
            for t in range(1, p - 1):
                if k[t] > 3:
                    for i in range(t + 1, (p + t) // 2 + 1):
                        if k[i] + k[p + t - i] + 1 < k[t]:
                            return
            yield tuple(k[1:])
            return
        hi = min(cap, rest)
        for i in range(1, p // 2 + 1):
            if k[i] + k[p - i] < hi:
                hi = k[i] + k[p - i]
        lo = 1
        if parts is not None:  # every later slot takes between 1 and cap
            after = parts - p
            hi = min(hi, rest - after)
            lo = max(lo, rest - cap * after)
        if p == 1 and first is not None:
            lo, hi = max(lo, first), min(hi, first)
        for v in range(lo, hi + 1):
            k.append(v)
            yield from grow(rest - v)
            k.pop()

    return grow(g)


def _shard_firsts(g: int, cap: int, parts: Optional[int], jobs: int) -> list[Optional[int]]:
    """First coordinates a census is sharded by; [None] runs it whole."""
    firsts = list(range(1, min(cap, g if parts is None else g - parts + 1) + 1))
    return firsts if jobs > 1 and len(firsts) > 1 else [None]


def _shard_histogram(args: tuple) -> Counter:
    hist: Counter = Counter()
    for c in _gapset_coords(*args):
        hist[max(c, default=0), len(c) + 1] += 1
    return hist


def census_histogram(
    g: int, max_depth: Optional[int] = None, mult: Optional[int] = None, jobs: int = 1
) -> Counter:
    """Number of gapsets of genus g by (depth, multiplicity).

    Optional filters bound the depth and fix the multiplicity.  With
    jobs > 1 the census is sharded by first coordinate and the shards are
    counted in parallel.
    """
    CensusQuery(g, max_depth=max_depth, mult=mult)  # validates the arguments
    cap = g if max_depth is None else max_depth
    parts = None if mult is None else mult - 1
    tasks = [(g, cap, parts, first) for first in _shard_firsts(g, cap, parts, jobs)]
    if len(tasks) == 1:
        return _shard_histogram(tasks[0])
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return sum(pool.map(_shard_histogram, tasks), Counter())


def count_gapsets(query: CensusQuery, jobs: int = 1, collect: bool = False) -> CensusResult:
    """Exact number of gapsets matching the query: a sum over the cells of
    `census_histogram`.

    Item collection always runs single-shard so the lexicographic order
    survives.
    """
    t0 = time.perf_counter()
    g = query.genus
    bound = query.depth if query.depth is not None else query.max_depth
    cap = g if bound is None else bound
    parts = None if query.mult is None else query.mult - 1
    if collect:
        items = tuple(
            _as_gapset(g, c)
            for c in _gapset_coords(g, cap, parts)
            if query.selects(max(c, default=0), len(c) + 1)
        )
        return CensusResult(query, len(items), time.perf_counter() - t0, 1, items)
    total = query.count_in(census_histogram(g, bound, query.mult, jobs))
    if total > _MAX_COUNT:
        raise OverflowError("census count exceeds 64 bits")
    shards = len(_shard_firsts(g, cap, parts, jobs))
    return CensusResult(query, total, time.perf_counter() - t0, shards)


def _as_gapset(g: int, coords: tuple[int, ...]) -> GapSet:
    if not coords:
        return GapSet((), 0, 1, 0, 0)  # the empty gapset: multiplicity 1, depth 0
    ext = from_kunz(KunzVector(len(coords) + 1, coords))
    return GapSet(ext.elements, g, ext.modulus, ext.conductor, ext.depth)


def count_m_extensions(g: int) -> int:
    """Stream length of the unrestricted composition enumeration at genus g.

    Always equals 2**(g-1); the count is obtained by walking the stream, so
    the equality stays a checkable fact.  Genus 64 and above would overflow
    64-bit counts and is rejected (and walking 2**62 items is impractical
    anyway; tests stay near g = 20).
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if g > MAX_GENUS:
        raise OverflowError(f"genus {g} exceeds the 64-bit count guard ({MAX_GENUS})")
    n = count_compositions(g)
    assert n == 1 << (g - 1), "composition stream disagrees with 2**(g-1)"
    return n


def count_gapsets_depth_at_most(g: int, k: int) -> int:
    """Number of gapsets of genus g and depth <= k.

    Includes the empty gapset at g = 0 (depth 0) and the depth-1 ordinary
    gapset at every positive genus, so column sums line up with the
    unfiltered census.
    """
    return count_gapsets(CensusQuery(g, max_depth=k)).count


def _restricted(total: int, allowed: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for p in allowed:
        if p <= total:
            for rest in _restricted(total - p, allowed):
                yield (p,) + rest


def enumerate_depth3_family(g: int) -> Iterator[KunzVector]:
    """A guaranteed-gapset family of depth 3: coordinate vectors built as
    a {2,3}-prefix, a pivot part equal to 3, and a {1,2}-suffix.

    Every emitted vector passes the inequality system and has largest
    coordinate exactly 3.  No vector is emitted twice: the pivot is the
    last 3 of the vector, so it fixes the split into prefix and suffix.
    """
    if g < 3:
        return
    for n in range(0, g - 2):  # prefix total; parts of size 2/3 skip n == 1 on their own
        for prefix in _restricted(n, (2, 3)):
            for suffix in _restricted(g - 3 - n, (1, 2)):
                vec = prefix + (3,) + suffix
                yield KunzVector(len(vec) + 1, vec)


def count_depth3_family(g: int) -> int:
    """Size of the depth-3 family at genus g, by the Padovan-Fibonacci formula.

    The tests check it against the length of `enumerate_depth3_family`.
    """
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    if g < 3:
        return 0
    return fibonacci(g - 2) + sum(padovan(n) * fibonacci(g - 2 - n) for n in range(2, g - 2))
