"""Command-line front end.

Subcommands: count, enumerate, verify, kunz, from-kunz, table, bounds,
formula, seq, oeis.  Each takes only the flags it reads, and --format
offers only the formats it renders: plain (the default) and json, plus csv
for count; markdown (the default) and csv for table; none for oeis.

Exit codes: 0 success / all checks match, 1 negative verification verdict
or data mismatch, 2 usage error, 3 internal invariant violation (a bounds
sandwich or cache self-check failure points at a bug, not at bad input).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import operator
import os
import sys
import tempfile
from collections import Counter
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence

# perfbench/tracing.py wraps count_gapsets_depth_at_most by name in this module
from .census import (
    CensusQuery,
    census_histogram,
    count_gapsets,
    count_gapsets_depth_at_most,
)
from .core import GapSet, MExtension, classify_gapset, classify_m_extension, invariants
from .formulas import (
    f_gq,
    f_gq3,
    f_gq4,
    lower_bound_depth3,
    upper_bound_ng,
    upper_bound_ng_closedN,
)
from .kunz import KunzVector, from_kunz, kunz_system_violation, pseudo_apery, pseudo_kunz
from .sequences import fibonacci, fibonacci_k, padovan, padovan_fibonacci_convolution
from .tilings import format_composition

try:
    import fcntl
except ImportError:  # not POSIX: cache writes go unlocked
    fcntl = None

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# Ground-truth anchor for the census: the first ten terms of OEIS A007323.
NG_ANCHOR = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118)

# A census beyond this genus (count, enumerate, a table row, bounds, oeis)
# needs --force.
GMAX_GUARD = 22

# A CensusQuery's fields in constructor order: the keys of `count`'s query
# record and of a cache entry; a query's cache key is the tuple of values.
QUERY_FIELDS = tuple(f.name for f in dataclasses.fields(CensusQuery))
query_key = operator.attrgetter(*QUERY_FIELDS)
_record_key = operator.itemgetter(*QUERY_FIELDS)


def bundled_bfile() -> Path:
    """Path of the A007323 fixture shipped with the package."""
    return Path(str(resources.files("gapsets").joinpath("data/b007323.txt")))


# ---------------------------------------------------------------------------
# parsing helpers


def parse_set(text: str) -> tuple[int, ...]:
    """Set literal: comma-separated positive integers, e.g. "1,2,4,7,10"."""
    body = text.strip()
    if not body:
        return ()
    try:
        return tuple(int(tok) for tok in body.split(","))
    except ValueError as exc:
        raise ValueError(f"bad set literal {text!r}") from exc


def format_set(elements: Sequence[int]) -> str:
    return ",".join(str(e) for e in elements)


def parse_kunz(text: str) -> KunzVector:
    """Kunz vector literal "m:k1,k2,...", e.g. "4:4,4,3"."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"bad kunz literal {text!r} (expected m:k1,k2,...)")
    try:
        m = int(head)
        coords = tuple(int(tok) for tok in tail.split(","))
    except ValueError as exc:
        raise ValueError(f"bad kunz literal {text!r}") from exc
    return KunzVector(m, coords)


def format_kunz(v: KunzVector) -> str:
    return f"{v.modulus}:" + ",".join(str(k) for k in v.coords)


def parse_bfile(path: Path) -> dict[int, int]:
    """OEIS b-file as {index: value}: whitespace-separated "index value"
    lines, '#' comments.

    Indices must be strictly increasing; parse errors carry line numbers.
    """
    entries: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'index value', got {raw.rstrip()!r}")
            try:
                idx, val = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer field in {raw.rstrip()!r}") from exc
            if entries and idx <= next(reversed(entries)):
                raise ValueError(f"{path}:{lineno}: index {idx} not strictly increasing")
            entries[idx] = val
    if not entries:
        raise ValueError(f"{path}: no entries")
    return entries


# ---------------------------------------------------------------------------
# count cache


class CountCache:
    """Single-document JSON cache of census counts: one entry per query.

    Unknown schema versions are ignored wholesale (recompute instead of
    migrating).  `save` merges the file's entries into its own under an
    exclusive lock on `<path>.lock`, then replaces the file atomically, so
    neither a crash mid-write nor a concurrent writer loses entries.
    """

    SCHEMA_VERSION = 2

    def __init__(self, path: Path):
        self.path = Path(path)
        self.entries: dict[tuple, int] = self._load()

    def _load(self) -> dict[tuple, int]:
        """The file's entries; none if it is missing, unreadable or of another schema."""
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}
        if not isinstance(doc, dict) or doc.get("schema_version") != self.SCHEMA_VERSION:
            return {}
        entries = {}
        for rec in doc.get("entries", []):
            try:
                entries[_record_key(rec)] = int(rec["count"])
            except (KeyError, TypeError, ValueError):
                continue
        return entries

    def get(self, query: CensusQuery) -> Optional[int]:
        return self.entries.get(query_key(query))

    def put(self, query: CensusQuery, count: int) -> None:
        self.entries[query_key(query)] = count

    def save(self) -> None:
        with open(f"{self.path}.lock", "a") as lock:
            if fcntl is not None:  # without it the replace is still atomic, but unlocked
                fcntl.flock(lock, fcntl.LOCK_EX)
            self.entries = {**self._load(), **self.entries}
            doc = {
                "schema_version": self.SCHEMA_VERSION,
                "entries": [dict(zip(QUERY_FIELDS, key), count=n) for key, n in self.entries.items()],
            }
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, prefix=f".{self.path.name}.")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(doc, handle, indent=1)
                    handle.write("\n")
                os.replace(tmp, self.path)
            except BaseException:
                os.unlink(tmp)
                raise

    def selfcheck(self, jobs: int = 1) -> list[str]:
        """Check every cached entry against one unfiltered census of its
        genus; returns mismatch descriptions."""
        problems = []
        hists: dict[int, Counter] = {}
        for key, cached in self.entries.items():
            label = " ".join(f"{f}={v}" for f, v in zip(QUERY_FIELDS, key))
            try:
                query = CensusQuery(*key)
            except (TypeError, ValueError, OverflowError):
                problems.append(f"{label}: not a census query")
                continue
            if query.genus not in hists:
                hists[query.genus] = census_histogram(query.genus, jobs=jobs)
            fresh = query.count_in(hists[query.genus])
            if fresh != cached:
                problems.append(f"{label}: cached {cached} != recomputed {fresh}")
        return problems


# ---------------------------------------------------------------------------
# output rendering


def _render_markdown(header: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(header) + " |"]
    out.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out) + "\n"


def _render_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell.replace("**", "") for cell in row])
    return buf.getvalue()


def emit(fmt: str, record: dict, lines: Sequence[str], row: Optional[dict] = None) -> None:
    """Print one result in the chosen format: `record` as JSON, `row` as a
    one-row CSV table (None as an empty cell), or the plain `lines`."""
    if fmt == "json":
        print(json.dumps(record))
    elif fmt == "csv":
        sys.stdout.write(_render_csv(list(row), [["" if v is None else str(v) for v in row.values()]]))
    else:
        for line in lines:
            print(line)


def _fgqm(hists: dict[int, Counter]) -> Callable[[int, int, int], int]:
    """The `fgqm` callback of `upper_bound_ng`, as a lookup into per-genus histograms."""
    return lambda g, q, m: hists[g][q, m]


def table_rows(which: str, gmax: int, jobs: int = 1) -> tuple[list[str], list[list[str]]]:
    """Header and cell rows for one of the four tables, fully recomputed.

    Each table runs one census per genus; every cell is a lookup into it.
    """
    if which == "t1":
        header = ["g", "2F_g", "F_{g+2}-P_{g+1}", "n'_{g-1}+n'_{g-2}", "n'_g", "n_g"]
        hists = {g: census_histogram(g, jobs=jobs) for g in range(0, gmax + 1)}
        nprime = {g: CensusQuery(g, max_depth=3).count_in(hist) for g, hist in hists.items()}
        rows = []
        for g in range(0, gmax + 1):
            rows.append(
                [
                    str(g),
                    str(2 * fibonacci(g)) if g >= 2 else "*",
                    str(lower_bound_depth3(g)),
                    str(nprime[g - 1] + nprime[g - 2]) if g >= 2 else "*",
                    str(nprime[g]),
                    str(sum(hists[g].values())),
                ]
            )
        return header, rows

    if which == "t2":
        qmax = (gmax + 1) // 2
        header = ["q\\g"] + [str(g) for g in range(3, gmax + 1)]
        hists = {g: census_histogram(g, mult=4, jobs=jobs) for g in range(3, gmax + 1)}
        rows = []
        for q in range(1, qmax + 1):
            cells = [str(q)]
            for g in range(3, gmax + 1):
                n = hists[g][q, 4]
                cells.append(str(n) if n else "")
            rows.append(cells)
        rows.append(["N(4,g)"] + [str(sum(hists[g].values())) for g in range(3, gmax + 1)])
        return header, rows

    if which == "t3":
        header = ["g", "n_g", "UB M=4", "UB M=3", "UB M=2", "2^(g-1)"]
        hists = {g: census_histogram(g, jobs=jobs) for g in range(1, gmax + 1)}
        fgqm = _fgqm(hists)
        rows = []
        for g in range(1, gmax + 1):
            rows.append(
                [
                    str(g),
                    str(sum(hists[g].values())),
                    str(upper_bound_ng(g, 4, fgqm)),
                    str(upper_bound_ng(g, 3, fgqm)),
                    str(upper_bound_ng(g, 2, fgqm)),
                    str(1 << (g - 1)),
                ]
            )
        return header, rows

    if which == "t4":
        header = ["g\\q"] + [str(q) for q in range(0, 4)] + ["n'_g"] + [
            str(q) for q in range(4, gmax + 1)
        ] + ["n_g"]
        rows = []
        for g in range(0, gmax + 1):
            hist = census_histogram(g, jobs=jobs)
            cells = [str(g)]
            for q in list(range(0, 4)) + [None] + list(range(4, gmax + 1)):
                if q is None:
                    cells.append(str(CensusQuery(g, max_depth=3).count_in(hist)))
                    continue
                if q > g or (q == 0 and g > 0):
                    cells.append("")
                    continue
                n = CensusQuery(g, depth=q).count_in(hist)
                answer = f_gq(g, q)
                # bold marks the entries the closed formulas reach
                cells.append(f"**{n}**" if answer.covered else str(n))
            cells.append(str(sum(hist.values())))
            rows.append(cells)
        return header, rows

    raise ValueError(f"unknown table {which!r}")


# ---------------------------------------------------------------------------
# subcommands


def _over_guard(what: str, value: int, guard: int, force: bool) -> bool:
    """Whether a run is past a desk-scale guard; if so, says how to force it."""
    if value > guard and not force:
        print(f"error: {what} {value} above guard {guard}; pass --force", file=sys.stderr)
        return True
    return False


def _census_query(args: argparse.Namespace) -> Optional[CensusQuery]:
    """The query of count's or enumerate's flags; None if --genus is missing or past the guard."""
    if args.genus is None:
        print("error: --genus is required", file=sys.stderr)
        return None
    if _over_guard("genus", args.genus, GMAX_GUARD, args.force):
        return None
    return CensusQuery(args.genus, args.depth, args.max_depth, args.mult)


def cmd_count(args: argparse.Namespace) -> int:
    cache = CountCache(Path(args.cache)) if args.cache else None

    if args.selfcheck:
        if cache is None:
            print("error: --selfcheck needs --cache", file=sys.stderr)
            return EXIT_USAGE
        problems = cache.selfcheck(jobs=args.jobs)
        for p in problems:
            print(p)
        if problems:
            return EXIT_INTERNAL
        print(f"cache ok: {len(cache.entries)} entries verified")
        return EXIT_OK

    query = _census_query(args)
    if query is None:
        return EXIT_USAGE
    count = cache.get(query) if cache else None
    cached = count is not None
    elapsed_ms, shards = 0.0, 0
    if not cached:
        result = count_gapsets(query, jobs=args.jobs)
        count, elapsed_ms, shards = result.count, result.elapsed * 1000.0, result.shards
        if cache:
            cache.put(query, count)
            cache.save()

    fields = dict(zip(QUERY_FIELDS, query_key(query)))
    record = {
        "query": fields,
        "count": count,
        "elapsed_ms": round(elapsed_ms, 3),
        "shards": shards,
        "cached": cached,
    }
    emit(args.format, record, [str(count)], row={**fields, "count": count})
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    query = _census_query(args)
    if query is None:
        return EXIT_USAGE
    items = count_gapsets(query, collect=True).items
    # a GapSet's fields, in order, are the keys of its JSON record
    record = {"count": len(items), "items": [vars(item) for item in items]}
    emit(args.format, record, [format_set(item.elements) or "(empty)" for item in items])
    return EXIT_OK


def _report_lines(elements: tuple[int, ...], m: Optional[int]) -> tuple[list[str], dict, bool]:
    """Shared verify logic: plain lines, json record, gapset verdict."""
    verdict = classify_gapset(elements)
    ok = isinstance(verdict, GapSet)
    genus, multiplicity, conductor, depth = invariants(elements)
    modulus = m if m is not None else multiplicity

    lines = [f"set: {format_set(elements) or '(empty)'}"]
    record: dict = {"set": list(elements)}
    if ok:
        lines.append("gapset: yes")
        record["gapset"] = True
        record["witness"] = None
    else:
        lines.append(f"gapset: no ({verdict.z} = {verdict.x} + {verdict.y})")
        record["gapset"] = False
        record["witness"] = {"z": verdict.z, "x": verdict.x, "y": verdict.y}

    # the set's own invariants, whatever the verdicts turn out to be
    lines.append(
        f"genus: {genus}; multiplicity: {multiplicity}; conductor: {conductor}; depth: {depth}"
    )
    record.update(genus=genus, multiplicity=multiplicity, conductor=conductor, depth=depth)

    if modulus < 2:
        lines.append("m-extension: n/a (modulus would be 1)")
        record["m_extension"] = None
        return lines, record, ok

    ext = classify_m_extension(elements, modulus)
    if not isinstance(ext, MExtension):
        lines.append(f"m-extension (m={modulus}): no ({ext})")
        record["m_extension"] = {"m": modulus, "ok": False, "reason": ext.reason, "witness": ext.witness}
        return lines, record, ok

    lines.append(f"m-extension (m={modulus}): yes")
    ap = pseudo_apery(ext)
    kv = pseudo_kunz(ext)
    violation = kunz_system_violation(kv)
    lines.append(f"pseudo-Apery: {format_set(ap.w)}")
    lines.append(f"pseudo-Kunz: {format_kunz(kv)}  tiling {format_composition(kv.coords)}")
    if violation is None:
        lines.append("kunz-system: satisfied")
    else:
        lines.append(f"kunz-system: violated at (i,j)=({violation[0]},{violation[1]})")
    record["m_extension"] = {"m": modulus, "ok": True, "reason": None, "witness": None}
    record["apery"] = list(ap.w)
    record["kunz"] = {"m": kv.modulus, "coords": list(kv.coords)}
    record["kunz_system"] = {"ok": violation is None, "violation": list(violation) if violation else None}
    return lines, record, ok


def cmd_verify(args: argparse.Namespace) -> int:
    elements = tuple(sorted(parse_set(args.set)))
    lines, record, ok = _report_lines(elements, args.mult)
    emit(args.format, record, lines)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_kunz(args: argparse.Namespace) -> int:
    elements = tuple(sorted(parse_set(args.set)))
    m = args.mult if args.mult is not None else invariants(elements)[1]
    if m < 2:
        print("error: modulus would be 1; pass --mult", file=sys.stderr)
        return EXIT_USAGE
    ext = classify_m_extension(elements, m)
    if not isinstance(ext, MExtension):
        print(str(ext), file=sys.stderr)
        return EXIT_NEGATIVE
    kv = pseudo_kunz(ext)
    emit(args.format, {"m": kv.modulus, "coords": list(kv.coords)}, [format_kunz(kv)])
    return EXIT_OK


def cmd_from_kunz(args: argparse.Namespace) -> int:
    ext = from_kunz(parse_kunz(args.kunz))
    record = {
        "elements": list(ext.elements),
        "m": ext.modulus,
        "genus": ext.genus,
        "conductor": ext.conductor,
        "depth": ext.depth,
    }
    emit(args.format, record, [format_set(ext.elements)])
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    defaults = {"t1": 10, "t2": 12, "t3": 10, "t4": 18}
    gmax = args.gmax if args.gmax is not None else defaults[args.which]
    floor = {"t1": 0, "t2": 3, "t3": 1, "t4": 4}[args.which]
    if gmax < floor:
        print(f"error: --gmax must be >= {floor} for {args.which}", file=sys.stderr)
        return EXIT_USAGE
    if _over_guard("--gmax", gmax, 40 if args.which == "t2" else GMAX_GUARD, args.force):
        return EXIT_USAGE
    render = _render_csv if args.format == "csv" else _render_markdown
    sys.stdout.write(render(*table_rows(args.which, gmax, jobs=args.jobs)))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    g = args.genus
    if _over_guard("genus", g, GMAX_GUARD, args.force):
        return EXIT_USAGE
    lower = lower_bound_depth3(g)
    hist = census_histogram(g, jobs=args.jobs)
    nprime = CensusQuery(g, max_depth=3).count_in(hist)
    ng = sum(hist.values())
    ms = [args.M] if args.M is not None else [2, 3, 4]
    ubs = {M: upper_bound_ng(g, M, _fgqm({g: hist})) for M in ms}
    closed = upper_bound_ng_closedN(g) if g >= 4 else None
    power = 1 << (g - 1)

    violations = []
    if not (lower <= nprime <= ng):
        violations.append(f"lower {lower} <= n'_g {nprime} <= n_g {ng} fails")
    for M, ub in ubs.items():
        if ng > ub:
            violations.append(f"n_g {ng} exceeds UB(M={M}) {ub}")
    if closed is not None and ng > closed:
        violations.append(f"n_g {ng} exceeds closed-N bound {closed}")
    if ng > power:
        violations.append(f"n_g {ng} exceeds 2^(g-1) {power}")

    record = {
        "genus": g,
        "lower_depth3": lower,
        "n_prime": nprime,
        "n_g": ng,
        "upper": {str(M): ub for M, ub in ubs.items()},
        "upper_closedN": closed,
        "power": power,
        "ok": not violations,
        "violations": violations,
    }
    lines = [
        f"genus {g}",
        f"lower bound (depth<=3 family): {lower}",
        f"n'_g (depth<=3):               {nprime}",
        f"n_g:                           {ng}",
    ]
    lines += [f"upper bound (M={M}):            {ub}" for M, ub in ubs.items()]
    if closed is not None:
        lines.append(f"upper bound (closed N):        {closed}")
    lines.append(f"2^(g-1):                       {power}")
    lines += [f"VIOLATION: {v}" for v in violations] or ["sandwich: ok"]
    emit(args.format, record, lines)
    return EXIT_INTERNAL if violations else EXIT_OK


def cmd_formula(args: argparse.Namespace) -> int:
    answer = {None: f_gq, 3: f_gq3, 4: f_gq4}[args.mult](args.genus, args.depth)
    plain = str(answer.value) if answer.covered else "not covered"
    record = {"covered": answer.covered, "value": answer.value, "branch": answer.branch}
    emit(args.format, record, [f"{plain}  [{answer.branch}]"])
    return EXIT_OK


def cmd_seq(args: argparse.Namespace) -> int:
    name = args.name
    if name == "fibonacci":
        value = fibonacci(args.n)
    elif name == "fibonacci-k":
        if args.k is None:
            print("error: --k is required for fibonacci-k", file=sys.stderr)
            return EXIT_USAGE
        value = fibonacci_k(args.k, args.n)
    elif name == "padovan":
        value = padovan(args.n)
    else:  # convolution
        value = padovan_fibonacci_convolution(args.n)
    emit(args.format, {"name": name, "n": args.n, "k": args.k, "value": value}, [str(value)])
    return EXIT_OK


def cmd_oeis(args: argparse.Namespace) -> int:
    if _over_guard("--gmax", args.gmax, GMAX_GUARD, args.force):
        return EXIT_USAGE
    path = Path(args.bfile) if args.bfile else bundled_bfile()
    try:
        by_index = parse_bfile(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ng = [count_gapsets(CensusQuery(g), jobs=args.jobs).count for g in range(0, args.gmax + 1)]

    # our own census must reproduce the known first terms before it is
    # allowed to judge anybody else's data
    for g, expected in enumerate(NG_ANCHOR[: len(ng)]):
        if ng[g] != expected:
            print(f"internal error: census n_{g} != {expected}", file=sys.stderr)
            return EXIT_INTERNAL

    problems = []
    for g, expected in enumerate(ng):
        idx = g + args.offset
        if idx not in by_index:
            problems.append(f"g={g}: index {idx} missing from {path.name}")
        elif by_index[idx] != expected:
            problems.append(f"g={g}: file has {by_index[idx]}, census says {expected}")
    for line in problems:
        print(line)
    if problems:
        return EXIT_NEGATIVE
    print(f"all match: g=0..{args.gmax} against {path.name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `main` may run many times in one."""
    parser = argparse.ArgumentParser(prog="gapsets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, formats=("plain", "json"), jobs=False, force=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        if jobs:
            p.add_argument("--jobs", type=at_least(1), default=1, help="parallel shards for counting")
        if force:
            p.add_argument("--force", action="store_true", help="bypass desk-scale guards")
        return p

    def query_flags(p):
        """The flags of a CensusQuery, one per field."""
        p.add_argument("--genus", type=int, default=None)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--depth", type=int, default=None, help="exact depth")
        group.add_argument("--max-depth", type=int, default=None, help="depth upper bound")
        p.add_argument("--mult", type=int, default=None, help="exact multiplicity")

    p = command(
        "count", cmd_count, "count gapsets by genus/depth/multiplicity",
        formats=("plain", "json", "csv"), jobs=True, force=True,
    )
    query_flags(p)
    p.add_argument("--cache", default=None, help="path of the JSON count cache")
    p.add_argument("--selfcheck", action="store_true", help="re-verify every cached entry")

    p = command("enumerate", cmd_enumerate, "list the gapsets of a genus", force=True)
    query_flags(p)

    p = command("verify", cmd_verify, "classify one set")
    p.add_argument("--set", required=True, help='set literal, e.g. "1,2,4,7,10"')
    p.add_argument("--mult", type=int, default=None, help="modulus for the m-extension check")

    p = command("kunz", cmd_kunz, "Kunz coordinates of a set")
    p.add_argument("--set", required=True)
    p.add_argument("--mult", type=int, default=None)

    p = command("from-kunz", cmd_from_kunz, "rebuild the set from coordinates")
    p.add_argument("--kunz", required=True, help='vector literal, e.g. "4:4,4,3"')

    p = command(
        "table", cmd_table, "recompute one of the reference tables",
        formats=("markdown", "csv"), jobs=True, force=True,
    )
    p.add_argument("--which", choices=["t1", "t2", "t3", "t4"], required=True)
    p.add_argument("--gmax", type=int, default=None)

    p = command("bounds", cmd_bounds, "bound sandwich for one genus", jobs=True, force=True)
    p.add_argument("--genus", type=at_least(1), required=True)
    p.add_argument("--M", type=int, default=None)

    p = command("formula", cmd_formula, "evaluate a closed-form count")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--mult", type=int, choices=(3, 4), default=None, help="omit for the depth-only formula")

    p = command("seq", cmd_seq, "evaluate a sequence")
    p.add_argument(
        "--name",
        choices=["fibonacci", "fibonacci-k", "padovan", "convolution"],
        required=True,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)

    p = command(
        "oeis", cmd_oeis, "cross-check the census against a b-file",
        formats=(), jobs=True, force=True,
    )
    p.add_argument("--bfile", default=None, help="path; defaults to the bundled A007323 fixture")
    p.add_argument("--gmax", type=at_least(0), default=18)
    p.add_argument("--offset", type=int, default=0, help="file index of genus 0")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
