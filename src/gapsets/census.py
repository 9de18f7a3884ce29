"""Exhaustive, exact counting of gapsets by genus, depth and multiplicity.

One engine enumerates Kunz coordinate vectors as a depth-first search that
places coordinates left to right; each node is a candidate gapset of genus
equal to its coordinate sum, so the search up to genus G passes through
every lower genus too.  Coordinates are capped by k_(i+j) <= k_i + k_j
(i + j < m), which binds on every prefix; the wrap-around pairs (i + j > m)
are checked at the nodes counted, and only at depth 4 or more, the only
depths where one can fail.  Each node is counted in place, as the search
reaches it, into one flat list of ints indexed by (genus, depth,
modulus); the running depth is passed down, not recomputed.  A cap of 1
or 2 skips the scan of the pairs (each sums to 2 or more).  The search's
last two levels get no call of their own: a node one genus short has its
only child, k_m = 1, counted in place, and so does a node two genus short
(inside the window, with a cap of 2 or more) its children k_m = 1, that
one's only child, and k_m = 2.  A depth filter caps every coordinate, and
one window bounds their number.  The conductor is at most 2g, so depth <=
ceil(2g/m): a multiplicity m fixes the window at m - 1 and caps every
coordinate at ceil(2G/m), and an exact depth q >= 2 caps the window.  An
exact depth q also cuts every branch still below q with less than q of
the genus left.  Two entry points run it: `census_histograms`
returns the (depth, multiplicity) histograms of the gapsets a `CensusQuery`
selects, one per genus, and `census_coords` their Kunz coordinates, one
tuple each.  Counts are exact; `MAX_GENUS` keeps them in 64 bits.  The
census returns counts and coordinates only and imports no other module of
the package: a caller that wants the sets builds them with
`kunz.kunz_elements`.

A sharded census splits the search by its first coordinate k_1.  The
calling process and up to jobs - 1 forked children take the shards one at
a time from a single pipe, so the work balances itself; each child sends
its tally back over a pipe of its own, and the tallies add cell by cell.
No process pool is started, and a platform without `os.fork` runs the
census whole in the calling process.

Every closed formula and tabulated value elsewhere in the package is
checked against this census.  The composition walk in `tilings` (the
paper's tiling bijection and depth-3 family) is in turn the census's
brute-force oracle in the tests.
"""

from __future__ import annotations

import marshal
import os
import time
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import NoReturn, Optional

__all__ = [
    "MAX_GENUS",
    "CensusQuery",
    "CensusResult",
    "census_coords",
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


def _search_bounds(query: CensusQuery) -> tuple[int, int, int]:
    """The search's coordinate cap (the depth bound, else the genus, and
    never above the genus) and part-count window (pmin, pmax).  A conductor
    is at most 2g, so depth <= ceil(2g/m) at every genus g up to G.  A
    multiplicity m fixes the window at m - 1 and caps every coordinate at
    ceil(2G/m); an exact depth q >= 2 caps the window, since m <=
    ceil(2G/(q - 1)) - 1.  With both, pmin > pmax when the depth rules m
    out: nothing is searched."""
    bound = query.depth if query.depth is not None else query.max_depth
    cap = query.genus if bound is None else min(bound, query.genus)
    pmin, pmax = (1, query.genus) if query.mult is None else (query.mult - 1, query.mult - 1)
    if query.mult is not None:
        cap = min(cap, -(-2 * query.genus // query.mult))
    if (query.depth or 0) >= 2:
        pmax = min(pmax, -(-2 * query.genus // (query.depth - 1)) - 2)
    return cap, pmin, pmax


def _tally_axes(query: CensusQuery) -> tuple[int, int]:
    """Lengths of the tally's depth and modulus axes.  Every coordinate is
    at most the cap, and every modulus at most pmax + 1, or 2: the root
    places k_1 even when the depth rules every multiplicity out."""
    cap, _, pmax = _search_bounds(query)
    return cap + 1, max(pmax, 1) + 2


def _census(
    query: CensusQuery, low: int, first: Optional[int] = None, items: Optional[list] = None
) -> list[int]:
    """Gapsets by (genus, depth, modulus) for each genus from `low` up to
    the query's, as one flat list: cell (g, q, m) is at index ((g - low) *
    depths + q) * moduli + m, with the axis lengths of `_tally_axes`; only
    the cells the query selects are complete.  `items` (if given) receives
    the coordinates (k_1, ..., k_(m-1)) of each selected gapset, in the
    lexicographic order of the composition walk.

    Every coordinate is at most the cap; a node counts with pmin to pmax
    parts and grows below pmax; `first` (if set) fixes k_1, and shard 1
    also owns the empty gapset.  Position p is capped by k_i + k_(p-i)
    whatever the final length (scanned for caps of 3 or more); only nodes
    of genus `low` or more pay the wrap-around check.  A node of genus
    G - 1 gets no call: its one child, k_m = 1, is counted in place.  Nor
    does a node of genus G - 2 inside the window with a cap of 2 or more:
    its children k_m = 1 (with that one's only child, k_(m+1) = 1) and
    k_m = 2 are counted in place, in walk order.
    """
    genus = query.genus
    cap, pmin, pmax = _search_bounds(query)
    depths, moduli = _tally_axes(query)
    plane = depths * moduli  # the cells of one genus
    base = low * plane  # cell (h, q, m) is tally[m - base + h * plane + q * moduli]
    child = genus * plane + 1  # ... and cell (G, q, m + 1) tally[m - base + child + q * moduli]
    exact = query.depth or 0
    reach = genus - exact  # a node still below the exact depth q grows only up to genus G - q
    short = genus - 2  # a node of this genus has its children counted in place where it can
    tally = [0] * ((genus - low + 1) * plane)
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
        at = m - base
        for v in range(lo, hi + 1):
            k[p] = v
            h = g + v
            dv = v if v > d else d
            if h >= counted and (dv <= 3 or wraps(m)):
                tally[at + h * plane + dv * moduli] += 1
                if items is not None and query.selects(dv, m):
                    items.append(tuple(k[1:m]))
            if h < growing and (dv >= exact or h <= reach):
                if h < short:
                    grow(m, h, dv)
                elif h > short:  # its only child, k_m = 1, counted in place (the hi cut keeps m >= pmin)
                    k[m] = 1
                    if dv <= 3 or wraps(m + 1):
                        tally[at + child + dv * moduli] += 1
                        if items is not None and query.selects(dv, m + 1):
                            items.append(tuple(k[1 : m + 1]))
                elif cap > 1 and pmin <= m < pmax:  # k_m = 1, its only child k_(m+1) = 1, then k_m = 2
                    cell = at + child + dv * moduli  # (G, dv, m + 1); every pair allows a 1 or a 2
                    k[m] = 1
                    if low < genus and (dv <= 3 or wraps(m + 1)):
                        tally[cell - plane] += 1
                        if items is not None and query.selects(dv, m + 1):
                            items.append(tuple(k[1 : m + 1]))
                    k[m + 1] = 1  # below an exact depth q, a cell the query does not select: no cut needed
                    if dv <= 3 or wraps(m + 2):
                        tally[cell + 1] += 1
                        if items is not None and query.selects(dv, m + 2):
                            items.append(tuple(k[1 : m + 2]))
                    k[m] = 2
                    dv = dv if dv > 2 else 2
                    if dv <= 3 or wraps(m + 1):
                        tally[at + child + dv * moduli] += 1
                        if items is not None and query.selects(dv, m + 1):
                            items.append(tuple(k[1 : m + 1]))
                else:
                    grow(m, h, dv)

    if low == 0 and first in (None, 1):  # under any filter: the histograms filter its cell (0, 0, 1)
        tally[1] += 1
        if items is not None and query.selects(0, 1):
            items.append(())
    grow(1, 0, 0)
    return tally


def _shard_firsts(query: CensusQuery, jobs: int) -> list[Optional[int]]:
    """First coordinates a census is sharded by; [None] runs it whole, as
    it does for an empty part-count window (pmin > pmax), where the query
    selects no gapset at any genus and a fork costs more than the search,
    and without `os.fork`, where shards would only split one search."""
    g = query.genus
    cap, pmin, pmax = _search_bounds(query)
    firsts = list(range(1, min(cap, g - pmin + 1) + 1))
    return firsts if jobs > 1 and len(firsts) > 1 and pmin <= pmax and hasattr(os, "fork") else [None]


def _take_shards(query: CensusQuery, low: int, firsts: list[Optional[int]], tasks: int) -> list[int]:
    """The summed tallies of every shard this process takes from the task
    pipe: one byte, a shard's index, per read, until the pipe is empty."""
    depths, moduli = _tally_axes(query)
    tally = [0] * ((query.genus - low + 1) * depths * moduli)
    while index := os.read(tasks, 1):
        tally = list(map(add, tally, _census(query, low, firsts[index[0]])))
    return tally


def _shard_worker(
    query: CensusQuery, low: int, firsts: list[Optional[int]], tasks: int, into: int, inherited: tuple[int, ...]
) -> NoReturn:
    """A forked child's whole life: close the result pipes' read ends it
    inherited, take shards, send their tally as one marshalled list, and
    leave with status 0, or 1 on any failure, without returning into the
    parent's stack."""
    status = 1
    try:
        for fd in inherited:  # with no reader but the parent, a write after its death fails
            os.close(fd)
        payload = memoryview(marshal.dumps(_take_shards(query, low, firsts, tasks)))
        while payload:  # a pipe may take fewer bytes than asked
            payload = payload[os.write(into, payload) :]
        status = 0
    except Exception:
        import traceback

        traceback.print_exc()  # the parent reports the exit status
    finally:
        os._exit(status)


def _census_shards(query: CensusQuery, low: int, firsts: list[Optional[int]], workers: int) -> list[int]:
    """The shards' summed tally, from this process and workers - 1 forked
    children pulling shard indices from one pipe.  A child that fails
    raises ChildProcessError; on any error, this process's own included,
    every child still running is killed, and every child is reaped."""
    tasks, feed = os.pipe()
    os.write(feed, bytes(range(len(firsts))))  # at most MAX_GENUS bytes: one write, below PIPE_BUF
    os.close(feed)  # the readers see the end of the tasks once they are taken
    children: dict[int, int] = {}  # pid -> the read end of its result pipe, until reaped
    try:
        for _ in range(workers - 1):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(out)
                os.close(into)
                raise
            if pid == 0:
                _shard_worker(query, low, firsts, tasks, into, (out, *children.values()))
            os.close(into)
            children[pid] = out
        tally = _take_shards(query, low, firsts, tasks)
        for pid, out in list(children.items()):
            chunks = []
            while chunk := os.read(out, 1 << 16):
                chunks.append(chunk)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            os.close(out)
            if status:
                how = f"exited with status {status}" if status > 0 else f"was killed by signal {-status}"
                raise ChildProcessError(f"census shard worker {pid} {how}")
            tally = list(map(add, tally, marshal.loads(b"".join(chunks))))
        return tally
    finally:
        os.close(tasks)
        if children:  # only after an error: stop and reap the rest
            from signal import SIGKILL

            for pid, out in children.items():
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
                os.close(out)


def census_histograms(query: CensusQuery, jobs: int = 1, low: Optional[int] = None) -> dict[int, Counter]:
    """Number of gapsets the query selects, by (depth, multiplicity), for
    each genus from `low` (default: the query's genus) up to the query's,
    all from one search.  With jobs > 1 it is sharded by first coordinate,
    and this process and up to jobs - 1 forked children count the shards.
    """
    low = query.genus if low is None else low
    if not 0 <= low <= query.genus:
        raise ValueError(f"low genus must be in 0..{query.genus}, got {low}")
    firsts = _shard_firsts(query, jobs)
    if len(firsts) == 1:
        tally = _census(query, low, firsts[0])
    else:
        tally = _census_shards(query, low, firsts, min(jobs, len(firsts)))
    depths, moduli = _tally_axes(query)
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
    return CensusResult(total, time.perf_counter() - t0, len(_shard_firsts(query, jobs)))


def count_gapsets_depth_at_most(g: int, k: int) -> int:
    """Number of gapsets of genus g and depth <= k.

    Includes the empty gapset at g = 0 (depth 0) and the depth-1 ordinary
    gapset at every positive genus, so column sums line up with the
    unfiltered census.
    """
    return count_gapsets(CensusQuery(g, max_depth=k)).count

