"""gapsets benchmark: seeded closed-loop CLI workloads, answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root; the program is imported from ``src/``.  One
client calls ``gapsets.cli.main(argv)`` in this process and waits for each
answer (closed loop).  A pass runs every op of the workload once, in seeded
order, with a fresh count cache; passes repeat until the next one would end
after ``--seconds``.  Every answer is checked (see ``oracle.py``).  The
timing metrics are built from each op's latencies over the passes, scaled
to a reference host speed that is sampled between ops (see
``hostspeed.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics:
fixed-size probes of each layer, then untraced and traced passes in turn,
with spans at the layer boundaries (see ``tracing.py``).  Lines before it
are a readable report with sample counts.

``--smoke`` runs every workload at a tiny size in both modes, checks that
every metric named in ``BENCHMARK.json`` is emitted with its unit, and
that a wrong answer injected into one op shows up as a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 7  # fewest set-up processes timed in a run
PROBE_GENUS = {"full": 22, "smoke": 12}
LOCK_SKIP = "is locked; skipping update"


def import_program():
    """gapsets.cli from this checkout's src/, never from anywhere else."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        from gapsets import cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gapsets from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: gapsets was imported from {cli.__file__}, not from {src}")
    return cli


from hostspeed import HostSpeed  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracing import PROBE_SEED, Tracer, kunz_probe, run_probes, span_stats  # noqa: E402
from workloads import CACHE_ARG, SIZES, WORKLOADS, Op, make_ops, reference_kinds  # noqa: E402


@dataclass
class PassResult:
    wall: float
    latencies: list[float]
    failures: list[str]
    starts: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_save_skips: int = 0
    cache_bytes: int = 0
    spans: Optional[list] = None


Tamper = Callable[[Op, str], str]


def run_pass(cli, ops: list[Op], oracle: Oracle, workdir: Path, tracer=None,
             tamper: Optional[Tamper] = None, speed: Optional[HostSpeed] = None) -> PassResult:
    cache = Path(tempfile.mkdtemp(dir=workdir)) / "counts.json"
    res = PassResult(0.0, [], [])
    first_answers: dict = {}
    if tracer is not None:
        tracer.spans = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        argv = [str(cache) if a == CACHE_ARG else a for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            problem = None
        except Exception:  # an op that raises is a failed op, not a failed run
            rc, problem = None, traceback.format_exc(limit=3)
        res.latencies.append(time.perf_counter() - t0)
        res.starts.append(t0)
        text = out.getvalue()
        if tamper is not None:
            text = tamper(op, text)
        if problem is None:
            problem = oracle.check(op, rc, text, first_answers)
        if problem is not None:
            res.failures.append(f"{' '.join(argv)}: {problem}")
        if CACHE_ARG in op.argv and rc == 0:
            try:
                cached = json.loads(text)["cached"]
            except (ValueError, KeyError, TypeError):
                cached = None
            res.cache_hits += cached is True
            res.cache_misses += cached is False
        res.cache_save_skips += LOCK_SKIP in err.getvalue()
        if speed is not None:
            speed.between_ops()
    res.wall = time.perf_counter() - start
    if cache.exists():
        res.cache_bytes = cache.stat().st_size
    shutil.rmtree(cache.parent)
    if tracer is not None:
        res.spans = tracer.spans
    return res


def run_passes(cli, ops, oracle, seconds, workdir, tracer=None, tamper=None, between=None,
               speed=None):
    """Untraced passes, or (untraced, traced) pairs when a tracer is given,
    until the next round would end after ``seconds``; at least one round.
    ``between`` is called after every round."""
    plain, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        plain.append(run_pass(cli, ops, oracle, workdir, tamper=tamper, speed=speed))
        if tracer is not None:
            with tracer.install():
                traced.append(run_pass(cli, ops, oracle, workdir, tracer, tamper))
        if between is not None:
            between()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return plain, traced


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): p99, or where fewer than 1000 samples, the
    highest percentile with at least ten samples beyond it.  Below 20
    samples that percentile would fall under the median, so the maximum
    (p100) is reported instead."""
    n = len(samples)
    ordered = sorted(samples)
    if n < 20:
        return 100.0, ordered[-1]
    pct = min(99.0, 100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100.0 * n))  # nearest rank
    return pct, ordered[rank - 1]


def setup_once(workload: str, seed: int, scale: str) -> float:
    """Wall time of a fresh process that imports gapsets.cli and generates
    the workload's seeded inputs, then exits."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
           "--seed", str(seed), "--scale", scale]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up process failed: {proc.stderr.strip()}")
    return elapsed


@dataclass
class Report:
    attempted: int
    failures: list[str]
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str] = field(default_factory=dict)

    def result_line(self) -> str:
        return json.dumps({
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


# A launcher that ran helpers before exec'ing the interpreter leaves their
# peak in RUSAGE_CHILDREN; a reading at that level means no child of ours.
_CHILDREN_AT_START = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def pool_child_peak_mb() -> float:
    """Peak RSS of this process's largest child so far, in MB, or 0."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kids / 1024 if kids > _CHILDREN_AT_START else 0.0


def median_latencies(passes: list[PassResult]) -> list[float]:
    """Each op's median latency over the run's passes.

    Every pass replays the same ops in the same order, so op i of one pass
    is the same call as op i of the next.  On a shared host whose CPU speed
    drifts from second to second, the median replay is a steadier estimate
    of what the op costs than the fastest one, which depends on whether a
    fast moment happened to fall inside the run.
    """
    return [statistics.median(column) for column in zip(*(p.latencies for p in passes))]


def end_to_end(passes, kids, setup_times, speed: HostSpeed, kinds: list[str]) -> Report:
    """The end-to-end metrics.  Every op replay is scaled to the reference
    host speed by the samples of its kind's reference work taken around it
    (see hostspeed.py); the notes give the times as measured.  Set-up time
    is reported as measured."""
    scaled = [
        [t * speed.scale(kind, t0, t0 + t) for t, t0, kind in zip(p.latencies, p.starts, kinds)]
        for p in passes
    ]
    measured = median_latencies(passes)
    per_op = [statistics.median(column) for column in zip(*scaled)]
    # The tail comes from every replay, not from per-op medians: a
    # percentile near the top of a few hundred medians picks the ops whose
    # few replays happened to run slow.
    replays = [t for row in scaled for t in row]
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pct, tail = tail_percentile(replays)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(per_op), "s"),
        "peak_rss_mb": (own + kids, "MB"),
        "success_rate": (1.0 - len(failures) / attempted, "fraction"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p99_ms": (tail * 1e3, "ms"),
    }
    runs = f"median of {len(passes)} passes"
    ref = ", ".join(f"{kinds.count(kind)} {kind} ops" for kind in sorted(set(kinds)))
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "wall_s": f"{sum(measured):.4g} s measured; scaled for host speed ({ref}, "
                  f"{len(speed.times)} samples); "
                  f"sum over {len(per_op)} ops, each the {runs}; "
                  f"median pass {statistics.median(p.wall for p in passes):.4g} s",
        "peak_rss_mb": f"this process {own:.1f} + largest pool child {kids:.1f}",
        "success_rate": f"error_rate = {len(failures)}/{attempted}",
        "op_p50_ms": f"{statistics.median(measured) * 1e3:.4g} ms measured; "
                     f"n={len(per_op)} ops, each the {runs}",
        "op_p99_ms": f"{tail_percentile([t for p in passes for t in p.latencies])[1] * 1e3:.4g}"
                     f" ms measured; p{pct:.4g} of n={len(replays)} replays "
                     f"({len(passes)} passes x {len(per_op)} ops)",
    }
    return Report(attempted, failures, metrics, notes)


def per_layer(plain, traced, probes, kunz_fallback) -> Report:
    stats = [span_stats(p.spans) for p in traced]
    durations: dict[str, list[float]] = {}
    for s in stats:
        for name, ds in s["durations"].items():
            durations.setdefault(name, []).extend(ds)

    def per_pass(kind, layer):
        return statistics.median(s[kind].get(layer, 0) for s in stats)

    def span_median(name, scale):
        samples = durations.get(name)
        return statistics.median(samples) * scale if samples else 0.0

    m: dict[str, tuple[float, str]] = {
        "tilings.walk_ns_per_composition": (probes["tilings.walk_ns_per_composition"], "ns"),
        "tilings.fixed_parts_ns_per_composition":
            (probes["tilings.fixed_parts_ns_per_composition"], "ns"),
        "tilings.shard_share_max": (probes["tilings.shard_share_max"], "fraction"),
        "kunz.check_ns_per_candidate": (probes["kunz.check_ns_per_candidate"], "ns"),
    }
    notes = {}
    for name in ("kunz.from_kunz", "kunz.pseudo_kunz"):
        samples = durations.get(name) or kunz_fallback[name]
        source = "spans" if durations.get(name) else "probe"
        m[name + "_us"] = (statistics.median(samples) * 1e6, "us")
        notes[name + "_us"] = f"{source}, n={len(samples)}"
    for name in ("core.classify_gapset", "core.classify_m_extension"):
        m[name + "_us"] = (span_median(name, 1e6), "us")
        notes[name + "_us"] = f"spans, n={len(durations.get(name, []))}"
    m.update({
        "census.calls": (per_pass("calls", "census"), "count"),
        "census.self_s": (per_pass("self_s", "census"), "s"),
        "census.pool_startup_s": (probes["census.pool_startup_s"], "s"),
        "census.parallel_efficiency": (probes["census.parallel_efficiency"], "fraction"),
        "formulas.calls": (per_pass("calls", "formulas"), "count"),
        "formulas.self_s": (per_pass("self_s", "formulas"), "s"),
        "sequences.self_s": (per_pass("self_s", "sequences"), "s"),
        "cli.self_s": (per_pass("self_s", "cli"), "s"),
        "cli.cache_load_ms": (span_median("cli.cache_load", 1e3), "ms"),
        "cli.cache_save_ms": (span_median("cli.cache_save", 1e3), "ms"),
        "cli.cache_hits": (statistics.median(p.cache_hits for p in traced), "count"),
        "cli.cache_misses": (statistics.median(p.cache_misses for p in traced), "count"),
        "cli.cache_save_skips": (statistics.median(p.cache_save_skips for p in traced), "count"),
        "cli.cache_bytes": (statistics.median(p.cache_bytes for p in traced), "B"),
        "trace.overhead_frac": (sum(median_latencies(traced)) / sum(median_latencies(plain)) - 1,
                                "fraction"),
    })
    notes["cli.cache_load_ms"] = f"spans, n={len(durations.get('cli.cache_load', []))}"
    notes["cli.cache_save_ms"] = f"spans, n={len(durations.get('cli.cache_save', []))}"
    notes["census.calls"] = f"per pass, median of {len(traced)} traced passes"
    notes["trace.overhead_frac"] = f"{len(traced)} traced vs {len(plain)} untraced passes"
    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    return Report(sum(len(p.latencies) for p in passes), failures, m, notes)


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                  tamper: Optional[Tamper] = None) -> Report:
    cli = import_program()
    ops = make_ops(workload_name, seed, scale)
    oracle = Oracle(ROOT)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="run-"))
    try:
        if not trace:
            setup_times: list[float] = []
            kids: list[float] = []
            start = time.perf_counter()

            def between() -> None:
                # SETUP_REPS set-up processes are spread evenly over the run,
                # each after the first pass that ends past its share of
                # the time, so that they take little time from the passes.
                # Read the children's peak before the first of them, when
                # the only children so far are the first pass's pool workers.
                if not kids:
                    kids.append(pool_child_peak_mb())
                if time.perf_counter() - start >= len(setup_times) * seconds / SETUP_REPS:
                    setup_times.append(setup_once(workload_name, seed, scale))

            speed = HostSpeed()
            speed.sample()
            passes, _ = run_passes(cli, ops, oracle, seconds, workdir, tamper=tamper,
                                   between=between, speed=speed)
            while len(setup_times) < SETUP_REPS:
                setup_times.append(setup_once(workload_name, seed, scale))
            return end_to_end(passes, kids[0], setup_times, speed, reference_kinds(ops))
        census_genus = SIZES[scale]["census_genus"]
        probes = run_probes(census_genus, PROBE_GENUS[scale])
        fallback_ops = make_ops("interactive", PROBE_SEED, scale)
        kunz_fallback = kunz_probe([(*op.kunz, op.elements) for op in fallback_ops if op.kunz])
        tracer = Tracer()
        plain, traced = run_passes(cli, ops, oracle, seconds, workdir, tracer, tamper)
        with open(OUT / f"trace-{workload_name}-{seed}.jsonl", "w", encoding="utf-8") as handle:
            for number, p in enumerate(traced):
                for name, t0, t1, parent, op in p.spans:
                    handle.write(json.dumps([number, name, t0, t1, parent, op]) + "\n")
        return per_layer(plain, traced, probes, kunz_fallback)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_report(name: str, seed: int, report: Report) -> None:
    print(f"workload {name}  seed {seed}  ops attempted {report.attempted}  "
          f"failed {len(report.failures)}")
    for key, (value, unit) in report.metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit:9s} {report.notes.get(key, '')}")
    for line in report.failures[:5]:
        print(f"  FAILED {line}", file=sys.stderr)


# ---------------------------------------------------------------------------
# self-test


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke FAILED: {what}")


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    interactions = json.loads((HERE / "interactions.json").read_text(encoding="utf-8"))
    _require([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload list")
    for m in spec["per_layer"]:
        _require(m["name"] in interactions["per_layer"], f"no interaction record for {m['name']}")
    for mode, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            report = run_benchmark(name, 1, 1, mode, scale="smoke")
            print_report(f"{name} (smoke, trace {int(mode)})", 1, report)
            got = {k: u for k, (v, u) in report.metrics.items()}
            _require(got == want, f"{name} trace {int(mode)}: metrics {got} != {want}")
            _require(not report.failures, f"{name}: {report.failures[:3]}")
            _require(all(math.isfinite(v) for v, _ in report.metrics.values()), "finite values")

    census_op = make_ops("census-big", 1, "smoke")[0]

    def wrong_count(op: Op, text: str) -> str:
        # one census answer comes back one too high, in every pass
        return f"{int(text) + 1}\n" if op == census_op else text

    report = run_benchmark("census-big", 1, 1, False, scale="smoke", tamper=wrong_count)
    rate = report.metrics["success_rate"][0]
    _require(bool(report.failures) and rate < 1.0, "injected wrong answer was not detected")
    print(f"smoke ok: injected wrong answer caught ({len(report.failures)} failed, "
          f"success_rate {rate:.3f})")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    ap.add_argument("--scale", choices=sorted(SIZES), default="full", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        import_program()
        make_ops(args.workload, args.seed, args.scale)
        return 0
    report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print_report(args.workload, args.seed, report)
    print(report.result_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
