"""Spans at the package's layer boundaries, and fixed-size layer probes.

Spans are recorded only in the traced run.  ``install`` rebinds, from the
outside, the names each module imported from the layer below (and the two
``CountCache`` I/O methods) to wrappers that record a span; leaving the
``with`` block restores the originals, so untraced passes run the
unmodified program.  Inner loops (``coords_violation``, the composition
walkers, per-item ``from_kunz`` in the census) are not wrapped, since a
wrapper there would add a call per candidate; the probes measure them.

A span is (name, start, end, parent index, op id), kept in memory.  Its
layer is the part of the name before the first dot.  Self time is the
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import random
import statistics
import time
from typing import Optional

# module -> names bound in it that belong to a lower layer, with that layer
BOUNDARIES = {
    "gapsets.cli": {
        "census": ["count_gapsets", "count_gapsets_depth_at_most"],
        "core": ["classify_gapset", "classify_m_extension"],
        "formulas": [
            "f_gq", "f_gq3", "f_gq4", "lower_bound_depth3", "upper_bound_ng",
            "upper_bound_ng_closedN",
        ],
        "kunz": ["from_kunz", "kunz_system_violation", "pseudo_apery", "pseudo_kunz"],
        "sequences": ["fibonacci", "fibonacci_k", "padovan", "padovan_fibonacci_convolution"],
        "tilings": ["format_composition"],
    },
    # count_gapsets_depth_at_most reaches count_gapsets through this name
    "gapsets.census": {"census": ["count_gapsets"]},
    "gapsets.formulas": {"sequences": ["fibonacci", "fibonacci_k", "padovan"]},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        self.op: Optional[int] = None

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.op)

        return wrapper

    @contextlib.contextmanager
    def install(self):
        import importlib

        from gapsets import cli

        saved = []
        try:
            for module_name, layers in BOUNDARIES.items():
                module = importlib.import_module(module_name)
                for layer, names in layers.items():
                    for attr in names:
                        saved.append((module, attr, getattr(module, attr)))
                        setattr(module, attr, self.wrap(f"{layer}.{attr}", getattr(module, attr)))
            for attr, span in (("_load", "cli.cache_load"), ("save", "cli.cache_save")):
                saved.append((cli.CountCache, attr, cli.CountCache.__dict__[attr]))
                setattr(cli.CountCache, attr, self.wrap(span, cli.CountCache.__dict__[attr]))
            saved.append((cli, "main", cli.main))
            cli.main = self.wrap("cli.main", cli.main)
            yield self
        finally:
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)


def span_stats(spans: list[tuple]) -> dict:
    """Per-pass layer totals from the spans of one traced pass."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    layer = [name.split(".", 1)[0] for name, *_ in spans]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        own = (t1 - t0) - child_time[i]
        if name == "cli.main" or layer[i] != "cli":
            # cache I/O is reported on its own, not inside cli.self_s
            self_s[layer[i]] = self_s.get(layer[i], 0.0) + own
        if parent is None or layer[parent] != layer[i]:
            calls[layer[i]] = calls.get(layer[i], 0) + 1
        durations.setdefault(name, []).append(t1 - t0)
    return {"self_s": self_s, "calls": calls, "durations": durations}


# ---------------------------------------------------------------------------
# probes: fixed sizes and seeds, independent of the workload seed

PROBE_GENUS = 22
PROBE_FIXED_PARTS = 11
PROBE_CHECK_SAMPLE = 50_000
PROBE_POOL_REPS = 5
PROBE_SEED = 20220815


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def run_probes(census_genus: int, probe_genus: int = PROBE_GENUS) -> dict[str, float]:
    from gapsets import census, kunz, tilings

    g = probe_genus
    out: dict[str, float] = {}

    dt, n = _timed(tilings.count_compositions, g)
    out["tilings.walk_ns_per_composition"] = dt / n * 1e9

    parts = min(PROBE_FIXED_PARTS, g)
    dt, n = _timed(lambda: sum(1 for _ in tilings.compositions_fixed_parts(g, parts)))
    out["tilings.fixed_parts_ns_per_composition"] = dt / n * 1e9

    shard_times = [_timed(tilings.count_compositions, g, None, v)[0] for v in range(1, g + 1)]
    out["tilings.shard_share_max"] = max(shard_times) / sum(shard_times)

    rng = random.Random(PROBE_SEED)
    sample = []
    for _ in range(PROBE_CHECK_SAMPLE):
        bits = rng.getrandbits(g - 1)  # bit i set = a cut after cell i + 1
        comp, run = [], 1
        for i in range(g - 1):
            if bits >> i & 1:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        sample.append(tuple(comp))
    check = kunz.coords_violation
    t0 = time.perf_counter()
    for c in sample:
        check(c)
    out["kunz.check_ns_per_candidate"] = (time.perf_counter() - t0) / len(sample) * 1e9

    small = census.CensusQuery(6)
    diffs = []
    for _ in range(PROBE_POOL_REPS):
        t1 = _timed(census.count_gapsets, small, 1)[0]
        t2 = _timed(census.count_gapsets, small, 2)[0]
        diffs.append(t2 - t1)
    out["census.pool_startup_s"] = statistics.median(diffs)

    # the census-sharded queries, single-process and on two workers
    queries = [census.CensusQuery(census_genus), census.CensusQuery(census_genus, max_depth=4)]
    t_one = sum(_timed(census.count_gapsets, q, 1)[0] for q in queries)
    t_two = sum(_timed(census.count_gapsets, q, 2)[0] for q in queries)
    out["census.parallel_efficiency"] = t_one / (2 * t_two)
    return out


def kunz_probe(objects: list[tuple[int, tuple[int, ...], tuple[int, ...]]]) -> dict[str, list[float]]:
    """Per-call seconds of from_kunz and pseudo_kunz on (m, coords, set) samples."""
    from gapsets import core, kunz

    times: dict[str, list[float]] = {"kunz.from_kunz": [], "kunz.pseudo_kunz": []}
    for m, coords, elements in objects:
        vec = kunz.KunzVector(m, coords)
        ext = core.classify_m_extension(elements, m)
        times["kunz.from_kunz"].append(_timed(kunz.from_kunz, vec)[0])
        times["kunz.pseudo_kunz"].append(_timed(kunz.pseudo_kunz, ext)[0])
    return times
