"""Exhaustive, exact counting of gapsets by genus, depth and multiplicity.

One engine enumerates Kunz coordinate vectors as a depth-first search that
places coordinates left to right; each node is a candidate gapset of genus
equal to its coordinate sum, so the search up to genus G passes through
every lower genus too.  Coordinates are capped by k_(i+j) <= k_i + k_j
(i + j < m), which binds on every prefix.  The wrap-around pairs
k_(i+j-m) <= k_i + k_j + 1 (i + j > m) bind only the node of modulus m
itself, and they set a floor on its last coordinate: of the pairs of one
k_t only (t + 1, m - 1) holds k_(m-1), and a pair without it that fails
rules out every value.  The floor is computed once for all the siblings
the search places at one position, from the coordinates of 4 or more
only, since no smaller k_t can fail a pair.  Each node is counted in
place, as the search reaches it, into one flat list of ints indexed by
(genus, depth, modulus); the running depth is passed down, not
recomputed.  A cap of 1 or 2 skips the scan of the forward pairs (each
sums to 2 or more).  The search's last three levels get no call of
their own: a node one genus short has its only child, k_m = 1, counted
in place; a node two genus short (inside the window, with a cap of 2 or
more) its children k_m = 1, that one's only child, and k_m = 2; and a
node three short (cap 3 or more, window one part wider) its seven tails.
A depth filter caps every coordinate, and one window bounds their
number.  The conductor is at most 2g, so depth <= ceil(2g/m): a
multiplicity m fixes the window at m - 1 and caps every coordinate at
ceil(2G/m), and an exact depth q >= 2 caps the window.  An exact depth q
also cuts every branch still below q with less than q of the genus
left.  Two entry points run it: `census_histograms` returns the (depth,
multiplicity) histograms of the gapsets a `CensusQuery` selects, one per
genus, and `census_coords` their Kunz coordinates, one tuple each.
Counts are exact; `MAX_GENUS` keeps them in 64 bits.  The
census returns counts and coordinates only and imports no other module of
the package: a caller that wants the sets builds them with
`kunz.kunz_elements`.

A sharded census splits the search by its first coordinate: shard k holds
the gapsets with k_1 = k.  The calling process and up to jobs - 1 forked
children each walk the shards they take, one at a time, from a single
pipe of first coordinates into one tally, so the work balances itself;
each child's tally goes into its own row of one shared anonymous map, and
the caller adds the rows cell by cell once it has reaped their children.
No process pool is started, and a platform without `os.fork` runs the
census whole in the calling process.

Every closed formula and tabulated value elsewhere in the package is
checked against this census.  The composition walk in `tilings` (the
paper's tiling bijection and depth-3 family) is in turn the census's
brute-force oracle in the tests.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import Iterable, Optional

__all__ = [
    "MAX_GENUS",
    "CensusQuery",
    "CensusResult",
    "census_coords",
    "census_histograms",
    "count_gapsets",
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


@dataclass(frozen=True)
class CensusResult:
    count: int
    elapsed: float
    shards: int


def _search_bounds(query: CensusQuery) -> tuple[int, int, int, int, int]:
    """The search's coordinate cap (the depth bound, else the genus, and
    never above the genus), part-count window (pmin, pmax), and the lengths
    of the tally's depth and modulus axes.  A conductor is at most 2g, so
    depth <= ceil(2g/m) at every genus g up to G.  A multiplicity m fixes
    the window at m - 1 and caps every coordinate at ceil(2G/m); an exact
    depth q >= 2 caps the window, since m <= ceil(2G/(q - 1)) - 1, and no
    gapset of genus G has more than G parts.  When the depth or the genus
    rules m out, pmin > pmax: nothing is searched.
    Every coordinate is at most the cap, and every modulus at most pmax + 1,
    or 2: the root places k_1 even when the depth rules every multiplicity
    out."""
    bound = query.depth if query.depth is not None else query.max_depth
    cap = query.genus if bound is None else min(bound, query.genus)
    pmin, pmax = (1, query.genus) if query.mult is None else (query.mult - 1, min(query.mult - 1, query.genus))
    if query.mult is not None:
        cap = min(cap, -(-2 * query.genus // query.mult))
    if (query.depth or 0) >= 2:
        pmax = min(pmax, -(-2 * query.genus // (query.depth - 1)) - 2)
    return cap, pmin, pmax, cap + 1, max(pmax, 1) + 2


def _census(
    query: CensusQuery, low: int, firsts: Iterable[Optional[int]] = (None,), items: Optional[list] = None
) -> list[int]:
    """Gapsets by (genus, depth, modulus) for each genus from `low` up to
    the query's, as one flat list: cell (g, q, m) is at index ((g - low) *
    depths + q) * moduli + m, with the axis lengths of `_search_bounds`; only
    the cells the query selects are complete.  `items` (if given, with
    `low` the query's genus) receives the coordinates (k_1, ..., k_(m-1))
    of each selected gapset, in the lexicographic order of the walk.

    Every coordinate is at most the cap; a node counts with pmin to pmax
    parts and grows below pmax.  Each `first` that `firsts` yields is one
    walk into the same tally: None walks every k_1, an int fixes k_1, and
    the walk of None or shard 1 also owns the empty gapset.  Position p is
    capped by k_i + k_(p-i) whatever the final length (scanned for caps of 3
    or more).  `deep` is the stack of the positions whose coordinate is 4 or
    more: a loop pushes its position once its value reaches 4 and pops it
    when done.  `floor(m)` scans only those k_t for the wrap-around pairs of
    modulus m and returns the least k_(m-1) they allow, or a value above any
    cap when a pair without k_(m-1) fails.  The loop at position p calls it
    at most once, for its first node of genus `low` or more, and only with
    `deep` non-empty; each node then counts if its value is at least that
    floor.  A node of genus G - 1 gets no call: its one child, k_m = 1, is
    counted in place, against `floor(m + 1)`.  Nor does a node of genus G - 2
    inside the window with a cap of 2 or more: its children k_m = 1 (with
    that one's only child, k_(m+1) = 1, against `floor(m + 2)`) and k_m = 2
    are counted in place, in walk order, both values of k_m against one
    `floor(m + 1)`.  Nor does a node of genus G - 3 with a cap of 3 or more
    and its grandchildren inside the window: its tails (1), (1,1), (1,1,1),
    (1,2), (2), (2,1) and (3) are, against `floor(m + 1)`, `floor(m + 2)`
    once per k_m < 3 and `floor(m + 3)`.
    """
    genus = query.genus
    cap, pmin, pmax, depths, moduli = _search_bounds(query)
    plane = depths * moduli  # the cells of one genus
    base = low * plane  # cell (h, q, m) is tally[m - base + h * plane + q * moduli]
    child = genus * plane + 1  # ... and cell (G, q, m + 1) tally[m - base + child + q * moduli]
    exact = query.depth or 0
    reach = genus - exact  # a node still below the exact depth q grows only up to genus G - q
    short = genus - 2
    # from this genus on, a node of modulus m has its children counted in place (G - 3 or G - 2 inside the window)
    inners = [short - (cap > 2 and m + 1 < pmax) if cap > 1 and pmin <= m < pmax else genus - 1 for m in range(moduli)]
    tally = [0] * ((genus - low + 1) * plane)
    k = [0] * (genus + 2)  # k[i] is the coordinate of residue i; k[1:m] the node's

    deep: list[int] = []  # the positions t, ascending, with k_t >= 4: only such a k_t can fail a wrap-around pair
    over = genus + 1  # above any cap

    def floor(m: int) -> int:
        # the least k_(m-1) that passes every wrap-around pair i + j = m + t, k_t <= k_i + k_j + 1, given
        # k_1 ... k_(m-2) (`deep` holds no position past m - 2); `over` if a pair without k_(m-1) fails
        least = 0
        for t in deep:
            kt = k[t] - 1
            if t == m - 2:  # the pair (m - 1, m - 1)
                need = (kt + 1) // 2
            else:  # the pair (t + 1, m - 1), then the pairs that hold no k_(m-1)
                need = kt - k[t + 1]
                for i in range(t + 2, (m + t) // 2 + 1):
                    if k[i] + k[m + t - i] < kt:
                        return over
            if need > least:
                least = need
        return least

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
        counted = (low if p >= pmin else genus + 1) - g  # a node placed here counts from this value ...
        if deep and counted <= hi:
            least = floor(m)  # ... and from the floor up
            if least > counted:
                counted = least
        growing = genus if p < pmax else 0  # it has children below this genus
        deeper = lo if lo > 4 else 4  # v only grows: from this value on, p is on `deep`
        at = m - base
        inner = inners[m]
        for v in range(lo, hi + 1):
            k[p] = v
            if v == deeper:
                deep.append(p)
            h = g + v
            dv = v if v > d else d
            if v >= counted:
                tally[at + h * plane + dv * moduli] += 1
                if items is not None and query.selects(dv, m):
                    items.append(tuple(k[1:m]))
            if h < growing and (dv >= exact or h <= reach):
                if h < inner:
                    grow(m, h, dv)
                elif h > short:  # its only child, k_m = 1, counted in place (the hi cut keeps m >= pmin)
                    k[m] = 1
                    if not deep or floor(m + 1) <= 1:
                        tally[at + child + dv * moduli] += 1
                        if items is not None and query.selects(dv, m + 1):
                            items.append(tuple(k[1 : m + 1]))
                elif h == short:  # k_m = 1, its only child k_(m+1) = 1, then k_m = 2
                    cell = at + child + dv * moduli  # (G, dv, m + 1); every forward pair allows a 1 or a 2
                    least = floor(m + 1) if deep else 0  # the least k_m
                    k[m] = 1
                    if low < genus and least <= 1:
                        tally[cell - plane] += 1
                    k[m + 1] = 1  # below an exact depth q, a cell the query does not select: no cut needed
                    if not deep or floor(m + 2) <= 1:
                        tally[cell + 1] += 1
                        if items is not None and query.selects(dv, m + 2):
                            items.append(tuple(k[1 : m + 2]))
                    k[m] = 2
                    dv = dv if dv > 2 else 2
                    if least <= 2:
                        tally[at + child + dv * moduli] += 1
                        if items is not None and query.selects(dv, m + 1):
                            items.append(tuple(k[1 : m + 1]))
                else:  # genus G - 3: the tails (1), (1,1), (1,1,1), (1,2), (2), (2,1) and (3) of k_m, in walk order
                    cell = at + child + dv * moduli  # (G, dv, m + 1)
                    fits = True  # whether the forward pairs allow k_m = 3: only a pair 1 + 1 rules it out
                    for i in range(1, m // 2 + 1):
                        if k[i] + k[m - i] == 2:
                            fits = False
                            break
                    least = floor(m + 1) if deep and (fits or low < genus) else 0  # the least k_m
                    k[m] = k[m + 1] = 1
                    if low <= short and least <= 1:
                        tally[cell - 2 * plane] += 1
                    least1 = floor(m + 2) if deep else 0  # the least k_(m+1) after k_m = 1
                    if low < genus and least1 <= 1:
                        tally[cell + 1 - plane] += 1
                    k[m + 2] = 1
                    if not deep or floor(m + 3) <= 1:
                        tally[cell + 2] += 1
                        if items is not None and query.selects(dv, m + 3):
                            items.append(tuple(k[1 : m + 3]))
                    d2 = dv if dv > 2 else 2
                    cell2 = at + child + d2 * moduli  # (G, max(dv, 2), m + 1)
                    k[m + 1] = 2
                    if least1 <= 2:
                        tally[cell2 + 1] += 1
                        if items is not None and query.selects(d2, m + 2):
                            items.append(tuple(k[1 : m + 2]))
                    k[m], k[m + 1] = 2, 1
                    if low < genus and least <= 2:
                        tally[cell2 - plane] += 1
                    if not deep or floor(m + 2) <= 1:
                        tally[cell2 + 1] += 1
                        if items is not None and query.selects(d2, m + 2):
                            items.append(tuple(k[1 : m + 2]))
                    k[m] = 3
                    if fits and least <= 3:
                        d3 = dv if dv > 3 else 3
                        tally[at + child + d3 * moduli] += 1
                        if items is not None and query.selects(d3, m + 1):
                            items.append(tuple(k[1 : m + 1]))
        if hi >= deeper:
            deep.pop()

    for first in firsts:  # `grow` reads the current one
        if low == 0 and first in (None, 1):  # under any filter: the histograms filter its cell (0, 0, 1)
            tally[1] += 1
            if items is not None and query.selects(0, 1):
                items.append(())
        grow(1, 0, 0)
    return tally


def _shards(query: CensusQuery, jobs: int) -> int:
    """How many shards a census is split into, shard k holding the first
    coordinate k_1 = k; 1 runs it whole, as it does for an empty part-count
    window (pmin > pmax), where the query selects no gapset at any genus
    and a fork costs more than the search, and without `os.fork`, where
    shards would only split one search."""
    cap, pmin, pmax, _, _ = _search_bounds(query)
    shards = min(cap, query.genus - pmin + 1)
    return shards if jobs > 1 and shards > 1 and pmin <= pmax and hasattr(os, "fork") else 1


def _census_shards(query: CensusQuery, low: int, shards: int, workers: int) -> list[int]:
    """The summed tally of shards 1..`shards`, from this process and
    workers - 1 forked children, each making one `_census` call over the
    first coordinates it reads from one pipe, a byte a shard, until the
    pipe is empty; each child writes its tally into its own row of one
    shared map, as 64-bit cells (a cell that does not fit fails the
    child).  A child that fails raises ChildProcessError; on any error,
    this process's own included, every child still running is killed, and
    every child is reaped."""
    from array import array
    from mmap import mmap

    tasks, feed = os.pipe()
    os.write(feed, bytes(range(1, shards + 1)))  # at most MAX_GENUS bytes: one write, below PIPE_BUF
    os.close(feed)  # the readers see the end of the tasks once they are taken
    taken = map(ord, iter(lambda: os.read(tasks, 1), b""))  # lazy: each process's copy reads its own shards
    _, _, _, depths, moduli = _search_bounds(query)
    cells = (query.genus - low + 1) * depths * moduli
    rows = memoryview(mmap(-1, 8 * cells * (workers - 1))).cast("q")  # MAP_SHARED: the children write it
    children: dict[int, slice] = {}  # pid -> its row, until reaped
    try:
        for i in range(workers - 1):
            row = slice(i * cells, (i + 1) * cells)
            pid = os.fork()
            if pid == 0:  # the child's whole life, never returning into the caller's stack
                status = 1
                try:
                    rows[row] = array("q", _census(query, low, taken))
                    status = 0
                except Exception:
                    import traceback

                    traceback.print_exc()  # the parent reports the exit status
                finally:
                    os._exit(status)
            children[pid] = row
        tally = _census(query, low, taken)
        for pid, row in list(children.items()):
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status:
                how = f"exited with status {status}" if status > 0 else f"was killed by signal {-status}"
                raise ChildProcessError(f"census shard worker {pid} {how}")
            tally = list(map(add, tally, rows[row]))
        return tally
    finally:
        os.close(tasks)
        if children:  # only after an error: stop and reap the rest
            from signal import SIGKILL

            for pid in children:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def census_histograms(query: CensusQuery, jobs: int = 1, low: Optional[int] = None) -> dict[int, Counter]:
    """Number of gapsets the query selects, by (depth, multiplicity), for
    each genus from `low` (default: the query's genus) up to the query's,
    all from one search.  With jobs > 1 it is sharded by first coordinate,
    and this process and up to jobs - 1 forked children count the shards.
    """
    low = query.genus if low is None else low
    if not 0 <= low <= query.genus:
        raise ValueError(f"low genus must be in 0..{query.genus}, got {low}")
    shards = _shards(query, jobs)
    if shards == 1:
        tally = _census(query, low)
    else:
        tally = _census_shards(query, low, shards, min(jobs, shards))
    _, _, _, depths, moduli = _search_bounds(query)
    hists = {g: Counter() for g in range(low, query.genus + 1)}
    for index, n in enumerate(tally):  # in (genus, depth, modulus) order, so each Counter's is fixed
        if n:
            g, cell = divmod(index, depths * moduli)
            q, m = divmod(cell, moduli)
            if query.selects(q, m):
                hists[low + g][q, m] = n
    return hists


def census_coords(query: CensusQuery) -> list[tuple[int, ...]]:
    """The Kunz coordinates (k_1, ..., k_(m-1)) of every gapset the query
    selects, in the lexicographic order of the composition walk; the empty
    gapset's are ().  Every coordinate is at least 1."""
    coords: list = []
    _census(query, query.genus, items=coords)
    return coords


def count_gapsets(query: CensusQuery, jobs: int = 1) -> CensusResult:
    """Exact number of gapsets matching the query: the sum of its
    `census_histograms` histogram."""
    t0 = time.perf_counter()
    total = sum(census_histograms(query, jobs)[query.genus].values())
    return CensusResult(total, time.perf_counter() - t0, _shards(query, jobs))

