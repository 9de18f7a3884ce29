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
A fixed multiplicity m >= 4 makes the window one part wide, P = m - 1,
and there the search stops at k_(P-2): once k_(P-1) + k_P is set, every
inequality that holds either is linear in x = k_(P-1), so each node counts
its gapsets as one interval of x per genus.  The bounds that hold no
k_(P-2) are computed once for all the siblings at that position.
A depth filter caps every coordinate, and one window bounds their
number.  The conductor is at most 2g, so depth <= ceil(2g/m): a
multiplicity m fixes the window at m - 1 and caps every coordinate at
ceil(2G/m), and an exact depth q >= 2 caps the window.  An exact depth q
also cuts every branch still below q with less than q of the genus
left.  The tally is the census's one output: `census_histograms` reads
off it the (depth, multiplicity) histograms of the gapsets a `CensusQuery`
selects, one per genus, and `census_coords` records each counted gapset's
Kunz coordinates as the count is made.  Counts are exact; `MAX_GENUS`
keeps them in 64 bits.  The census imports no other module of the
package: `kunz.kunz_elements` builds the sets from the coordinates.

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


class _Recording(list):  # a tally that keeps no count: cell (G, q, m) holds m if the query selects it, else 0
    __slots__ = ("items", "k")

    def __setitem__(self, cell: int, _: int) -> None:
        if m := self[cell]:
            self.items.append(tuple(self.k[1:m]))


def _census(
    query: CensusQuery, low: int, firsts: Iterable[Optional[int]] = (None,), items: Optional[list] = None
) -> list[int]:
    """Gapsets by (genus, depth, modulus) for each genus from `low` up to
    the query's, as one flat list: cell (g, q, m) is at index ((g - low) *
    depths + q) * moduli + m, with the axis lengths of `_search_bounds`; only
    the cells the query selects are complete.  With `items` (and `low` the
    query's genus) the tally is a `_Recording`, which keeps no count: a
    count of a cell (G, q, m) the query selects appends k[1:m] to `items`.
    Every count comes after k holds its gapset, and the `low < genus` and
    `low <= short` guards keep every count in plane G.

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

    A one-part window of P = pmin = pmax >= 3 parts, when no coordinates
    are recorded, has its loop at position P - 2 made by `last_two`, which
    calls nothing: each v = k_(P-2) and genus left r count the x = k_(P-1)
    of one interval, with y = k_P = r - x, into the depth cells max(d, v,
    x, y).  The interval's ends are the forward pairs that hold x or y, the
    cap, and the wrap-around pairs of modulus P + 1: (P, P), (P - 1, P) and
    the pairs (t + 1, P), (t + 2, P - 1) of each k_t on `deep`.  The bounds
    that hold no v, a floor on v from the pairs (t + 3, P - 2), and whether
    a pair that holds none of v, x, y fails (then nothing counts) are
    computed once a loop.
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
    if items is not None:  # low == genus: every count is of a cell (G, q, m), at index q * moduli + m
        tally = _Recording(m if query.selects(q, m) else 0 for q in range(depths) for m in range(moduli))
        tally.items, tally.k = items, k

    deep: list[int] = []  # the positions t, ascending, with k_t >= 4: only such a k_t can fail a wrap-around pair
    over = genus + 1  # above any cap
    # a one-part window of P = pmin >= 3 parts counts its last two coordinates at position P - 2 by intervals
    tail = pmin - 2 if items is None and pmin == pmax >= 3 else 0

    def floor(m: int) -> int:
        # the least k_(m-1) that passes every wrap-around pair i + j = m + t, k_t <= k_i + k_j + 1, given
        # k_1 ... k_(m-2) (`deep` holds no position past m - 2); `over` if a pair without k_(m-1) fails
        least = 0
        top = m - 2
        for t in deep:
            kt = k[t] - 1
            if t == top:  # the pair (m - 1, m - 1)
                need = (kt + 1) // 2
            else:  # the pair (t + 1, m - 1), then the pairs (i, j) that hold no k_(m-1), from (t + 2, m - 2) inward
                need = kt - k[t + 1]
                i, j = t + 2, top
                while i <= j:
                    if k[i] + k[j] < kt:
                        return over
                    i += 1
                    j -= 1
            if need > least:
                least = need
        return least

    def last_two(g: int, d: int, lo: int, hi: int) -> None:
        # the loop at position P - 2 (P = pmin = pmax) over v = k_(P-2) from lo to hi, g and d its parent's
        x_hi = y_hi = cap  # the forward pairs that hold no v: x <= k_i + k_(P-1-i), y <= k_i + k_(P-i)
        for i in range(2, (pmin - 1) // 2 + 1):
            c = k[i] + k[pmin - 1 - i]
            x_hi = c if c < x_hi else x_hi
        for i in range(3, pmin // 2 + 1):
            c = k[i] + k[pmin - i]
            y_hi = c if c < y_hi else y_hi
        x_lo = y_lo = 1
        x4 = y3 = 0  # k_(P-4) - 1 and k_(P-3) - 1 if on `deep`: x >= k_(P-4) - 1 - v and y >= k_(P-3) - 1 - v
        for t in deep:  # the wrap-around pairs i + j = P + 1 + t, k_t <= k_i + k_j + 1
            kt = k[t] - 1
            if t == pmin - 3:  # (P - 2, P) and (P - 1, P - 1)
                y3, c = kt, (kt + 1) // 2
                x_lo = c if c > x_lo else x_lo
                continue
            c = kt - k[t + 1]  # (t + 1, P)
            y_lo = c if c > y_lo else y_lo
            if t == pmin - 4:  # (P - 2, P - 1)
                x4 = kt
                continue
            c = kt - k[t + 2]  # (t + 2, P - 1)
            x_lo = c if c > x_lo else x_lo
            c = kt - k[t + 3] if t + 3 < pmin - 2 else (kt + 1) // 2  # (t + 3, P - 2): a floor on v
            lo = c if c > lo else lo
            for i in range(t + 4, (pmin + 1 + t) // 2 + 1):
                if k[i] + k[pmin + 1 + t - i] < kt:
                    return
        c = (genus - g + 1) // 2  # above it, v > r + 1 for every genus left r <= G - g - v: the pair (P - 1, P)
        hi = c if c < hi else hi
        p = pmin - 2
        at = pmin + 1 - base + g * plane
        for v in range(lo, hi + 1):
            k[p] = v  # at mult 4 and 5, k_1 and k_2 are v itself
            dv = v if v > d else d
            k1 = k[1]
            xh = k1 + v  # (1, P - 2)
            xh = xh if xh < x_hi else x_hi
            yh = k[2] + v if p > 1 else y_hi  # (2, P - 2)
            yh = yh if yh < y_hi else y_hi
            xl = x4 - v
            xl = xl if xl > x_lo else x_lo
            yl = y3 - v
            yl = yl if yl > y_lo else y_lo
            r = low - g - v  # the genus left of the lowest genus counted
            r = r if r > v - 1 else v - 1
            at_r = at + (v + r) * plane
            end = genus - g - v
            while r <= end:
                a = (r - k1 + 1) // 2  # y <= k_1 + x
                a = xl if xl > a else a
                a = r - yh if r - yh > a else a
                b = (2 * r + 1) // 3  # x <= 2y + 1
                b = xh if xh < b else b
                b = r - yl if r - yl < b else b
                x, y = a, r - a
                while x <= b:  # depth max(dv, x, y)
                    q = x if x > y else y
                    tally[at_r + (q if q > dv else dv) * moduli] += 1
                    x += 1
                    y -= 1
                r += 1
                at_r += plane

    def grow(p: int, g: int, d: int) -> None:
        m = p + 1  # the modulus of the nodes placed at position p
        hi = genus - g
        hi = cap if cap < hi else hi
        if hi > 2:  # every pair sums to 2 or more, so it cannot lower a cap of 1 or 2
            i, j = 1, p - 1
            while i <= j:
                if k[i] + k[j] < hi:
                    hi = k[i] + k[j]
                i += 1
                j -= 1
        lo = low - g - cap * (pmax - p)  # every later slot takes at most the cap ...
        if lo < 1:
            lo = 1
        if p == 1 and first is not None:
            lo, hi = max(lo, first), min(hi, first)
        if p < pmin:  # ... and at least 1
            c = genus - g - (pmin - p)
            hi = c if c < hi else hi
            if p == tail:
                return last_two(g, d, lo, hi)
        counted = (low if p >= pmin else genus + 1) - g  # a node placed here counts from this value ...
        if deep and counted <= hi:
            least = floor(m)  # ... and from the floor up
            if least > counted:
                counted = least
        growing = genus if p < pmax else 0  # it has children below this genus
        deeper = lo if lo > 4 else 4  # v only grows: from this value on, p is on `deep`
        at = m - base
        inner = inners[m]
        v = lo
        while v <= hi:
            k[p] = v
            if v == deeper:
                deep.append(p)
            h = g + v
            dv = v if v > d else d
            if v >= counted:
                tally[at + h * plane + dv * moduli] += 1
            if h < growing and (dv >= exact or h <= reach):
                if h < inner:
                    grow(m, h, dv)
                elif h > short:  # its only child, k_m = 1, counted in place (the hi cut keeps m >= pmin)
                    k[m] = 1
                    if not deep or floor(m + 1) <= 1:
                        tally[at + child + dv * moduli] += 1
                elif h == short:  # k_m = 1, its only child k_(m+1) = 1, then k_m = 2
                    cell = at + child + dv * moduli  # (G, dv, m + 1); every forward pair allows a 1 or a 2
                    least = floor(m + 1) if deep else 0  # the least k_m
                    k[m] = 1
                    if low < genus and least <= 1:
                        tally[cell - plane] += 1
                    k[m + 1] = 1  # below an exact depth q, a cell the query does not select: no cut needed
                    if not deep or floor(m + 2) <= 1:
                        tally[cell + 1] += 1
                    k[m] = 2
                    dv = dv if dv > 2 else 2
                    if least <= 2:
                        tally[at + child + dv * moduli] += 1
                else:  # genus G - 3: the tails (1), (1,1), (1,1,1), (1,2), (2), (2,1) and (3) of k_m, in walk order
                    cell = at + child + dv * moduli  # (G, dv, m + 1)
                    fits = True  # whether the forward pairs allow k_m = 3: only a pair 1 + 1 rules it out
                    i, j = 1, m - 1
                    while i <= j:
                        if k[i] + k[j] == 2:
                            fits = False
                            break
                        i += 1
                        j -= 1
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
                    d2 = dv if dv > 2 else 2
                    cell2 = at + child + d2 * moduli  # (G, max(dv, 2), m + 1)
                    k[m + 1] = 2
                    if least1 <= 2:
                        tally[cell2 + 1] += 1
                    k[m], k[m + 1] = 2, 1
                    if low < genus and least <= 2:
                        tally[cell2 - plane] += 1
                    if not deep or floor(m + 2) <= 1:
                        tally[cell2 + 1] += 1
                    k[m] = 3
                    if fits and least <= 3:
                        d3 = dv if dv > 3 else 3
                        tally[at + child + d3 * moduli] += 1
            v += 1
        if hi >= deeper:
            deep.pop()

    for first in firsts:  # `grow` reads the current one
        if low == 0 and first in (None, 1):  # under any filter: the histograms filter its cell (0, 0, 1)
            tally[1] += 1
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

