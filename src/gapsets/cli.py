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
import os
import re
import sys
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

# perfbench/tracing.py wraps count_gapsets_depth_at_most by name in this module
from .census import (
    CensusQuery,
    census_coords,
    census_histograms,
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
from .kunz import KunzVector, from_kunz, kunz_elements, kunz_system_violation, pseudo_apery, pseudo_kunz
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

# from-kunz builds the whole set: a vector of larger genus (coordinate sum) is refused.
FROM_KUNZ_MAX_GENUS = 10**6

# A CensusQuery's fields in constructor order: the keys of `count`'s query
# record and of a cache entry.
QUERY_FIELDS = tuple(f.name for f in dataclasses.fields(CensusQuery))


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
    return ",".join(map(str, elements))


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


# A cache record's line exactly as `save` writes it, and the only line a
# reader takes for a record: the genus an int, each other query field an int
# or null, then the count, every int spelled as `json.dumps` spells it (no -0,
# at most 4300 digits, `int`'s limit); groups: the record prefix, then the count.
_INT = rb"(?:0|-?[1-9][0-9]{0,4299})"
_RECORD = re.compile(
    rb'^(\{"genus": %s, ' % _INT
    + b"".join(b'"%s": (?:null|%s), ' % (f.encode(), _INT) for f in QUERY_FIELDS[1:])
    + rb'"count": )(%s)\}$' % _INT,
    re.MULTILINE,
)


def _record_prefix(query: CensusQuery) -> bytes:
    """A query's cache record up to its count: `json.dumps` of its fields
    and `count`, cut before the count's value."""
    return (json.dumps(vars(query))[:-1] + ', "count": ').encode()


class CountCache:
    """Append-only JSON Lines cache of census counts.

    The file is the header line `{"schema_version": 3}`, then one record per
    line: a query's fields and its `count`.  A line is a record only when
    it is spelled as `save` spells it (`_RECORD`); any other line, a torn
    one included, is skipped, so it is never served and never checked.  A
    later record of a query supersedes every earlier one.  A file without
    the header (another schema, such as the single document of schema 2) is
    ignored wholesale (recompute instead of migrating) and replaced by the
    next save.  `save` appends one record in one write, under an exclusive
    lock on the file itself: a concurrent writer loses nothing, and a crash
    mid-write leaves at most a torn last line.

    A lookup goes through `index`, which maps a query's record prefix (its
    record up to the count) to the count's digits, as one regular
    expression reads them off the file with no JSON parse.
    """

    HEADER = b'{"schema_version": 3}\n'

    def __init__(self, path: Path):
        self.path = Path(path)
        self.index = self._load()

    def _load(self) -> dict[bytes, bytes]:
        """The index of the file's records; empty if the file is missing,
        unreadable or without the header."""
        try:
            data = self.path.read_bytes()
        except OSError:
            return {}
        if not data.startswith(self.HEADER):
            return {}
        return dict(_RECORD.findall(data, len(self.HEADER)))  # the later record of a query wins

    def get(self, query: CensusQuery) -> Optional[int]:
        count = self.index.get(_record_prefix(query))
        return None if count is None else int(count)

    def save(self, query: CensusQuery, count: int) -> None:
        """Append the query's record; `get` answers it at once."""
        prefix = _record_prefix(query)
        data = prefix + b"%d}\n" % count
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND | getattr(os, "O_BINARY", 0), 0o666)
        try:
            if fcntl is not None:  # without it the append goes unlocked; closing the fd unlocks
                fcntl.flock(fd, fcntl.LOCK_EX)
            if os.read(fd, len(self.HEADER)) != self.HEADER:
                os.ftruncate(fd, 0)
                data = self.HEADER + data
            else:  # close a line torn by a crash, so that it spoils no record of ours
                os.lseek(fd, -1, os.SEEK_END)
                if os.read(fd, 1) != b"\n":
                    data = b"\n" + data
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        self.index[prefix] = b"%d" % count

    def selfcheck(self, jobs: int = 1, force: bool = False) -> list[str]:
        """Check every record against one unfiltered census up to the largest
        cached genus, which must pass the guard; returns mismatch
        descriptions, the records that are not census queries first."""
        problems, checks = [], []
        for prefix, cached in self.index.items():
            fields = json.loads(prefix + b"null}")  # the count is `cached`
            del fields["count"]
            label = " ".join(f"{f}={v}" for f, v in fields.items())
            try:
                checks.append((label, CensusQuery(**fields), int(cached)))
            except (ValueError, OverflowError):
                problems.append(f"{label}: not a census query")
        gmax = max((query.genus for _, query, _ in checks), default=0)
        _guard("genus", gmax, GMAX_GUARD, force)
        hists = census_histograms(CensusQuery(gmax), jobs, low=0)
        for label, query, cached in checks:
            if (fresh := query.count_in(hists[query.genus])) != cached:
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
        sys.stdout.write("".join(f"{line}\n" for line in lines))


class TableSpec(NamedTuple):
    """What `table` and `table_rows` know about one table."""

    default_gmax: int
    least_gmax: int
    first_genus: int
    mult: Optional[int]  # the multiplicity the table's census fixes, if any
    guard: int  # a larger --gmax needs --force


TABLES = {
    "t1": TableSpec(10, 0, 0, None, GMAX_GUARD),
    "t2": TableSpec(12, 3, 3, 4, 40),  # multiplicity 4 only: cheap well past the guard
    "t3": TableSpec(10, 1, 1, None, GMAX_GUARD),
    "t4": TableSpec(18, 4, 0, None, GMAX_GUARD),
}


def table_rows(which: str, gmax: int, jobs: int = 1) -> tuple[list[str], list[list[str]]]:
    """Header and cell rows for one of the four tables, fully recomputed.

    Each table runs one census for all its genera; every cell is a lookup into it.
    """
    spec = TABLES[which]
    genera = range(spec.first_genus, gmax + 1)
    hists = census_histograms(CensusQuery(gmax, mult=spec.mult), jobs, low=spec.first_genus)
    ng = {g: sum(hist.values()) for g, hist in hists.items()}
    nprime = {g: CensusQuery(g, max_depth=3).count_in(hist) for g, hist in hists.items()}

    if which == "t1":
        header = ["g", "2F_g", "F_{g+2}-P_{g+1}", "n'_{g-1}+n'_{g-2}", "n'_g", "n_g"]
        rows = [
            [
                str(g),
                str(2 * fibonacci(g)) if g >= 2 else "*",
                str(lower_bound_depth3(g)),
                str(nprime[g - 1] + nprime[g - 2]) if g >= 2 else "*",
                str(nprime[g]),
                str(ng[g]),
            ]
            for g in genera
        ]
    elif which == "t2":
        header = ["q\\g"] + [str(g) for g in genera]
        rows = [
            [str(q)] + [str(hists[g][q, spec.mult] or "") for g in genera]
            for q in range(1, (gmax + 1) // 2 + 1)
        ]
        rows.append([f"N({spec.mult},g)"] + [str(ng[g]) for g in genera])
    elif which == "t3":
        header = ["g", "n_g", "UB M=4", "UB M=3", "UB M=2", "2^(g-1)"]
        rows = [
            [str(g), str(ng[g])]
            + [str(upper_bound_ng(g, M, hists[g])) for M in (4, 3, 2)]
            + [str(1 << (g - 1))]
            for g in genera
        ]
    else:  # t4
        depths = list(range(0, 4)) + [None] + list(range(4, gmax + 1))
        header = ["g\\q"] + ["n'_g" if q is None else str(q) for q in depths] + ["n_g"]
        rows = []
        for g in genera:
            cells = [str(g)]
            for q in depths:
                if q is None:
                    cells.append(str(nprime[g]))
                elif q > g or (q == 0 and g > 0):
                    cells.append("")
                else:
                    n = CensusQuery(g, depth=q).count_in(hists[g])
                    # bold marks the entries the closed formulas reach
                    cells.append(f"**{n}**" if f_gq(g, q).covered else str(n))
            rows.append(cells + [str(ng[g])])
    return header, rows


# ---------------------------------------------------------------------------
# subcommands


def _guard(what: str, value: int, guard: int, force: bool) -> None:
    """Refuse a run past a desk-scale guard, saying how to force it."""
    if value > guard and not force:
        raise ValueError(f"{what} {value} above guard {guard}; pass --force")


def _census_query(args: argparse.Namespace) -> CensusQuery:
    """The query of count's or enumerate's flags, which must name a genus within the guard."""
    if args.genus is None:
        raise ValueError("--genus is required")
    _guard("genus", args.genus, GMAX_GUARD, args.force)
    return CensusQuery(args.genus, args.depth, args.max_depth, args.mult)


def cmd_count(args: argparse.Namespace) -> int:
    cache = CountCache(Path(args.cache)) if args.cache else None

    if args.selfcheck:
        if cache is None or args.format != "plain" or any(getattr(args, f) is not None for f in QUERY_FIELDS):
            raise ValueError("--selfcheck needs --cache and takes no query flags and no --format")
        problems = cache.selfcheck(jobs=args.jobs, force=args.force)
        for p in problems:
            print(p)
        if problems:
            return EXIT_INTERNAL
        print(f"cache ok: {len(cache.index)} entries verified")
        return EXIT_OK

    query = _census_query(args)
    count = cache.get(query) if cache else None
    cached = count is not None
    elapsed_ms, shards = 0.0, 0
    if not cached:
        result = count_gapsets(query, jobs=args.jobs)
        count, elapsed_ms, shards = result.count, result.elapsed * 1000.0, result.shards
        if cache:
            cache.save(query, count)

    fields = vars(query)
    record = {
        "query": fields,
        "count": count,
        "elapsed_ms": round(elapsed_ms, 3),
        "shards": shards,
        "cached": cached,
    }
    emit(args.format, record, [str(count)], row={**fields, "count": count})
    return EXIT_OK


def _gapset_lines(coords: Sequence[tuple[int, ...]], genus: int) -> list[str]:
    """The plain `enumerate` line of each gapset of that genus, read off its
    Kunz coordinates (k_1, ..., k_(m-1)), each at least 1, with no sort:
    row t holds t*m + i for each residue i with k_i > t, rows ascending.
    Every element of a genus-g gapset is at most 2g - 1."""
    names = list(map(str, range(2 * genus + 2)))
    lines = []
    for k in coords:
        m = len(k) + 1
        row = names[1:m]  # row 0: every k_i >= 1
        for t in range(1, max(k, default=1)):
            base = t * m
            row += [names[base + i] for i, ki in enumerate(k, 1) if ki > t]
        lines.append(",".join(row) or "(empty)")
    return lines


def cmd_enumerate(args: argparse.Namespace) -> int:
    query = _census_query(args)
    coords = census_coords(query)
    if args.format == "json":  # a GapSet's fields, in order, are the keys of its JSON record
        items = [vars(GapSet(e, *invariants(e))) for e in map(kunz_elements, coords)]
        emit("json", {"count": len(items), "items": items}, [])
    else:
        emit("plain", {}, _gapset_lines(coords, query.genus))
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
        raise ValueError("modulus would be 1; pass --mult")
    ext = classify_m_extension(elements, m)
    if not isinstance(ext, MExtension):
        print(str(ext), file=sys.stderr)
        return EXIT_NEGATIVE
    kv = pseudo_kunz(ext)
    emit(args.format, {"m": kv.modulus, "coords": list(kv.coords)}, [format_kunz(kv)])
    return EXIT_OK


def cmd_from_kunz(args: argparse.Namespace) -> int:
    vector = parse_kunz(args.kunz)
    if vector.genus > FROM_KUNZ_MAX_GENUS:
        raise ValueError(f"genus {vector.genus} above the from-kunz cap {FROM_KUNZ_MAX_GENUS}")
    ext = from_kunz(vector)
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
    spec = TABLES[args.which]
    gmax = args.gmax if args.gmax is not None else spec.default_gmax
    if gmax < spec.least_gmax:
        raise ValueError(f"--gmax must be >= {spec.least_gmax} for {args.which}")
    _guard("--gmax", gmax, spec.guard, args.force)
    render = _render_csv if args.format == "csv" else _render_markdown
    sys.stdout.write(render(*table_rows(args.which, gmax, jobs=args.jobs)))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    g = args.genus
    _guard("genus", g, GMAX_GUARD, args.force)
    lower = lower_bound_depth3(g)
    hist = census_histograms(CensusQuery(g), args.jobs)[g]
    nprime = CensusQuery(g, max_depth=3).count_in(hist)
    ng = sum(hist.values())
    ms = [args.M] if args.M is not None else [2, 3, 4]
    ubs = {M: upper_bound_ng(g, M, hist) for M in ms}
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
    if args.k is not None and name != "fibonacci-k":
        raise ValueError(f"--k is read only by fibonacci-k, not by {name}")
    if name == "fibonacci":
        value = fibonacci(args.n)
    elif name == "fibonacci-k":
        if args.k is None:
            raise ValueError("--k is required for fibonacci-k")
        value = fibonacci_k(args.k, args.n)
    elif name == "padovan":
        value = padovan(args.n)
    else:  # convolution
        value = padovan_fibonacci_convolution(args.n)
    emit(args.format, {"name": name, "n": args.n, "k": args.k, "value": value}, [str(value)])
    return EXIT_OK


def cmd_oeis(args: argparse.Namespace) -> int:
    _guard("--gmax", args.gmax, GMAX_GUARD, args.force)
    path = Path(args.bfile) if args.bfile else bundled_bfile()
    by_index = parse_bfile(path)
    hists = census_histograms(CensusQuery(args.gmax), args.jobs, low=0)
    ng = [sum(hist.values()) for hist in hists.values()]

    # our own census must reproduce the known first terms before it is
    # allowed to judge anybody else's data
    for g, expected in enumerate(NG_ANCHOR[: len(ng)]):
        if ng[g] != expected:
            print(f"internal error: census n_{g} != {expected}", file=sys.stderr)
            return EXIT_INTERNAL

    problems = []
    for g, expected in enumerate(ng):
        if g not in by_index:
            problems.append(f"g={g}: index {g} missing from {path.name}")
        elif by_index[g] != expected:
            problems.append(f"g={g}: file has {by_index[g]}, census says {expected}")
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


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each subcommand's own parser by name, built
    once per process: `main` may run many times in one."""
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
    p.add_argument("--mult", type=at_least(2), default=None, help="modulus for the m-extension check")

    p = command("kunz", cmd_kunz, "Kunz coordinates of a set")
    p.add_argument("--set", required=True)
    p.add_argument("--mult", type=at_least(2), default=None)

    p = command("from-kunz", cmd_from_kunz, "rebuild the set from coordinates")
    p.add_argument("--kunz", required=True, help='vector literal, e.g. "4:4,4,3"')

    p = command(
        "table", cmd_table, "recompute one of the reference tables",
        formats=("markdown", "csv"), jobs=True, force=True,
    )
    p.add_argument("--which", choices=list(TABLES), required=True)
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

    return parser, sub.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parsers()
    try:
        # a command's own parser reads its flags: the top-level one would
        # classify every argument, then hand them all to it to classify again
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:])
        else:  # no command, -h or an unknown one: the top-level parser says so
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
