"""Host speed, sampled between ops, so that end-to-end times can be
reported at a fixed reference speed.

The benchmark's host is a share of a machine whose CPU speed drifts by
tens of per cent over minutes: the same code reads 35% slower in one run
than in the next, which is more than a run of any length averages out.
The program and a fixed piece of work slow down together, but only when
the work is of the same sort.  Interleaved with ``count --genus 18``, a
composition walk like the census's tracked it to within 4% (range over
nine 20 s windows) while its raw time ranged over 35%; the same walk did
not track ``verify``, ``kunz`` or a cached ``count``, which spend their
time in argparse and json, and an argparse-and-json piece of work did
(7-10% against 17-22% raw).  So there are two pieces of reference work,
and each op replay is scaled by the samples of its sort taken around it
(``workloads.reference_kinds``).

Both are written here and call nothing of the program, so no program
change can make them faster or slower; only the host can.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import time
from typing import Iterator

# Median time of each piece of reference work on the VM where the benchmark
# was written (2-core shared Xeon, CPython 3.11).  Scaled times are what the
# op would have taken at that speed.
REFERENCE_S = {"walk": 0.012, "cli": 0.003}
INTERVAL_S = 0.25  # least time between two samples


def _compositions(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(1, min(n, cap) + 1):
        for rest in _compositions(n - first, cap):
            yield (first,) + rest


def _kunz_ok(c: tuple[int, ...]) -> bool:
    m = len(c) + 1
    for i in range(1, m):
        for j in range(i, m):
            s = i + j
            if s < m and c[i - 1] + c[j - 1] < c[s - 1]:
                return False
            if s > m and c[i - 1] + c[j - 1] + 1 < c[s - m - 1]:
                return False
    return True


def walk_work() -> int:
    """Walk the compositions of 12 and test Kunz-style inequalities on each."""
    return sum(1 for c in _compositions(12, 12) if _kunz_ok(c))


def cli_work() -> int:
    """Build a ten-command argparse parser, parse one command line and
    round-trip a small JSON answer, as every CLI call does."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"], default="text")
    common.add_argument("--jobs", type=int, default=1)
    ap = argparse.ArgumentParser(prog="reference")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name in ("count", "enumerate", "verify", "kunz", "from-kunz", "table", "bounds",
                 "formula", "seq", "oeis"):
        p = sub.add_parser(name, parents=[common], help=name)
        p.add_argument("--genus", type=int)
        p.add_argument("--depth", type=int)
        p.add_argument("--set")
    ns = ap.parse_args(["count", "--genus", "12", "--depth", "3", "--format", "json"])
    text = json.dumps({"genus": ns.genus, "depth": ns.depth, "count": 1234, "cached": False})
    return len(json.loads(text))


WORK = {"walk": walk_work, "cli": cli_work}


class HostSpeed:
    """Times both pieces of reference work between ops, at most every
    INTERVAL_S, and scales each op replay by the samples around it."""

    def __init__(self) -> None:
        self.times: list[float] = []  # when each sample started
        self.samples: dict[str, list[float]] = {kind: [] for kind in WORK}
        self._next = 0.0

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        for kind, work in WORK.items():
            t0 = time.perf_counter()
            work()
            self.samples[kind].append(time.perf_counter() - t0)
        self._next = time.perf_counter() + INTERVAL_S

    def between_ops(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self, kind: str, start: float, end: float) -> float:
        """Factor from a time measured between ``start`` and ``end`` to the
        reference speed, from the last sample before ``start`` and the first
        after ``end``.  The host's speed changes within seconds, so samples
        around the replay track it more closely than the run's median: over
        eleven 20 s windows of the tables ops, the sum of per-op medians
        spread by 0.109 raw, 0.056 against the window's median sample and
        0.020 against the samples around each replay (quartile distance
        over median)."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        around = [self.samples[kind][i] for i in (before, after) if 0 <= i < len(self.times)]
        return REFERENCE_S[kind] / statistics.fmean(around)
