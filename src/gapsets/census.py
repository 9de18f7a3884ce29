"""Exhaustive, exact counting of gapsets by genus, depth and multiplicity.

One engine enumerates Kunz coordinate vectors as a depth-first search that
places coordinates left to right; each node is a candidate gapset of genus
equal to its coordinate sum, so the search up to genus G passes through
every lower genus too.  Coordinates are capped by k_(i+j) <= k_i + k_j
(i + j < m), which binds on every prefix; the wrap-around pairs (i + j > m)
are checked at the nodes counted, and only at depth 4 or more, the only
depths where one can fail.  Each node is counted in place, by (genus,
depth, modulus), as the search reaches it; the running depth is passed
down, not recomputed.  A cap of 1 or 2 skips the scan of the pairs (each
sums to 2 or more), and a node one genus short has its only child,
k_m = 1, counted in place.  A depth filter caps every coordinate, and one
window bounds their number: a multiplicity m fixes it at m - 1, and an
exact depth q >= 2 caps it, since the conductor is at most 2g, so depth
<= ceil(2g/m).  An exact depth q also cuts every branch still below q with
less than q of the genus left.  The one entry point, `census_histograms`,
returns the (depth, multiplicity) histograms of the gapsets a `CensusQuery`
selects, one per genus.  Counts are exact; `MAX_GENUS` keeps them in 64 bits.

Every closed formula and tabulated value elsewhere in the package is
checked against this census.  The composition walk in `tilings` (the
paper's tiling bijection and depth-3 family) is in turn the census's
brute-force oracle in the tests.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .core import GapSet
from .kunz import kunz_elements

__all__ = [
    "MAX_GENUS",
    "CensusQuery",
    "CensusResult",
    "census_histograms",
    "count_gapsets",
    "count_gapsets_depth_at_most",
]

# Counts live in 64 bits; 2**(g-1) m-extensions at genus g forces g < 64.
MAX_GENUS = 63


@dataclass(frozen=True)
class CensusQuery:
    """What to count: a genus with optional depth and multiplicity filters.

    `depth` asks for that exact depth, `max_depth` for all depths up to the
    bound; at most one may be set.  `mult` fixes the multiplicity.  Every
    field set is an int; anything else is a TypeError.
    """

    genus: int
    depth: Optional[int] = None
    max_depth: Optional[int] = None
    mult: Optional[int] = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if type(value) is not int and (name == "genus" or value is not None):
                raise TypeError(f"{name} must be an int, got {value!r}")
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
        """Whether a gapset with that depth and multiplicity passes the
        filters."""
        return (
            (self.depth is None or depth == self.depth)
            and (self.max_depth is None or depth <= self.max_depth)
            and (self.mult is None or mult == self.mult)
        )

    def count_in(self, hist: Counter) -> int:
        """Sum of the selected cells of a (depth, multiplicity) histogram
        of one genus, as `census_histograms` returns it."""
        return sum(n for (q, m), n in hist.items() if self.selects(q, m))


@dataclass(frozen=True)
class CensusResult:
    count: int
    elapsed: float
    shards: int
    items: Optional[tuple[GapSet, ...]] = None


def _search_bounds(query: CensusQuery) -> tuple[int, int, int]:
    """The search's coordinate cap (the depth bound, else the genus) and
    part-count window (pmin, pmax).  A multiplicity m fixes it at m - 1; an
    exact depth q >= 2 caps it, since a conductor is at most 2g, so depth
    <= ceil(2g/m) and m <= ceil(2G/(q - 1)) - 1 at every genus up to G."""
    bound = query.depth if query.depth is not None else query.max_depth
    cap = query.genus if bound is None else bound
    if query.mult is not None:
        return cap, query.mult - 1, query.mult - 1
    if (query.depth or 0) >= 2:
        return cap, 1, -(-2 * query.genus // (query.depth - 1)) - 2
    return cap, 1, query.genus


def _census(
    query: CensusQuery, low: int, first: Optional[int] = None, items: Optional[list] = None
) -> Counter:
    """Gapsets by (genus, depth, modulus) for each genus from `low` up to
    the query's; only the cells the query selects are complete.  `items`
    (if given) receives the coordinates (k_1, ..., k_(m-1)) of each selected
    gapset, in the lexicographic order of the composition walk.

    Every coordinate is at most the cap; a node counts with pmin to pmax
    parts and grows below pmax; `first` (if set) fixes k_1, and shard 1
    also owns the empty gapset.  Position p is capped by k_i + k_(p-i)
    whatever the final length (scanned for caps of 3 or more); only nodes
    of genus `low` or more pay the wrap-around check.  A node of genus
    G - 1 gets no call: its one child, k_m = 1, is counted in place.
    """
    genus = query.genus
    cap, pmin, pmax = _search_bounds(query)
    exact = query.depth or 0
    reach = genus - exact  # a node still below the exact depth q grows only up to genus G - q
    hist: Counter = Counter()
    k = [0] * (genus + 2)  # k[i] is the coordinate of residue i; k[1:m] the node's

    def wraps(m: int) -> bool:
        # each wrap-around pair i + j = m + t needs k_t <= k_i + k_j + 1: only a k_t >= 4 can fail
        for t in range(1, m - 1):
            if k[t] > 3:
                for i in range(t + 1, (m + t) // 2 + 1):
                    if k[i] + k[m + t - i] + 1 < k[t]:
                        return False
        return True

    def grow(p: int, g: int, d: int) -> None:
        m = p + 1  # the modulus of the nodes placed at position p
        hi = min(cap, genus - g)
        if hi > 2:  # every pair sums to 2 or more, so it cannot lower a cap of 1 or 2
            for i in range(1, p // 2 + 1):
                if k[i] + k[p - i] < hi:
                    hi = k[i] + k[p - i]
        if p < pmin:  # every later slot takes at least 1 ...
            hi = min(hi, genus - g - (pmin - p))
        lo = low - g - cap * (pmax - p)  # ... and at most the cap
        if lo < 1:
            lo = 1
        if p == 1 and first is not None:
            lo, hi = max(lo, first), min(hi, first)
        counted = low if p >= pmin else genus + 1  # nodes placed here count from this genus
        growing = genus if p < pmax else 0  # ... and have children below this one
        for v in range(lo, hi + 1):
            k[p] = v
            h = g + v
            dv = v if v > d else d
            if h >= counted and (dv <= 3 or wraps(m)):
                hist[h, dv, m] += 1
                if items is not None and query.selects(dv, m):
                    items.append(tuple(k[1:m]))
            if h < growing and (dv >= exact or h <= reach):
                if h < genus - 1:
                    grow(m, h, dv)
                else:  # its only child, k_m = 1, counted in place (the hi cut keeps m >= pmin)
                    k[m] = 1
                    if dv <= 3 or wraps(m + 1):
                        hist[genus, dv, m + 1] += 1
                        if items is not None and query.selects(dv, m + 1):
                            items.append(tuple(k[1 : m + 1]))

    if low == 0 and first in (None, 1):  # under any filter: the histograms filter its cell (0, 0, 1)
        hist[0, 0, 1] += 1
        if items is not None and query.selects(0, 1):
            items.append(())
    grow(1, 0, 0)
    return hist


def _shard_firsts(query: CensusQuery, jobs: int) -> list[Optional[int]]:
    """First coordinates a census is sharded by; [None] runs it whole."""
    g = query.genus
    cap, pmin, _ = _search_bounds(query)
    firsts = list(range(1, min(cap, g - pmin + 1) + 1))
    return firsts if jobs > 1 and len(firsts) > 1 else [None]


def census_histograms(query: CensusQuery, jobs: int = 1, low: Optional[int] = None) -> dict[int, Counter]:
    """Number of gapsets the query selects, by (depth, multiplicity), for
    each genus from `low` (default: the query's genus) up to the query's,
    all from one search.  With jobs > 1 it is sharded by first coordinate
    and the shards are counted in parallel, in one pool.
    """
    low = query.genus if low is None else low
    if not 0 <= low <= query.genus:
        raise ValueError(f"low genus must be in 0..{query.genus}, got {low}")
    firsts = _shard_firsts(query, jobs)
    if len(firsts) == 1:
        flat = _census(query, low, firsts[0])
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(firsts))) as pool:
            flat = sum(pool.map(partial(_census, query, low), firsts), Counter())
    hists = {g: Counter() for g in range(low, query.genus + 1)}
    for (g, q, m), n in flat.items():
        if query.selects(q, m):
            hists[g][q, m] = n
    return hists


def count_gapsets(query: CensusQuery, jobs: int = 1, collect: bool = False) -> CensusResult:
    """Exact number of gapsets matching the query: the sum of its
    `census_histograms` histogram.

    Item collection always runs single-shard so the lexicographic order
    survives.
    """
    t0 = time.perf_counter()
    if collect:
        coords: list = []
        _census(query, query.genus, items=coords)
        items = tuple(map(_as_gapset, coords))
        return CensusResult(len(items), time.perf_counter() - t0, 1, items)
    total = sum(census_histograms(query, jobs)[query.genus].values())
    return CensusResult(total, time.perf_counter() - t0, len(_shard_firsts(query, jobs)))


def _as_gapset(coords: tuple[int, ...]) -> GapSet:
    if not coords:
        return GapSet((), 0, 1, 0, 0)  # the empty gapset: multiplicity 1, depth 0
    elements = kunz_elements(coords)
    return GapSet(elements, len(elements), len(coords) + 1, elements[-1] + 1, max(coords))


def count_gapsets_depth_at_most(g: int, k: int) -> int:
    """Number of gapsets of genus g and depth <= k.

    Includes the empty gapset at g = 0 (depth 0) and the depth-1 ordinary
    gapset at every positive genus, so column sums line up with the
    unfiltered census.
    """
    return count_gapsets(CensusQuery(g, max_depth=k)).count

