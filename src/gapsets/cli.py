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
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .census import CensusQuery, census_coords, census_histograms, count_gapsets
from .core import GapSet, MExtension, as_elements, classify_gapset, classify_m_extension, invariants
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


def count_gapsets_depth_at_most(g: int, k: int) -> int:
    """Number of gapsets of genus g and depth <= k.  No command calls it:
    perfbench/tracing.py wraps it by name in this module, and it goes with
    the wrap (ROADMAP: "Benchmark refresh, then the deletions it unblocks")."""
    return count_gapsets(CensusQuery(g, max_depth=k)).count


def bundled_bfile() -> Path:
    """Path of the A007323 fixture shipped with the package."""
    return Path(__file__).with_name("data") / "b007323.txt"


# ---------------------------------------------------------------------------
# parsing helpers


def parse_set(text: str) -> tuple[int, ...]:
    """Set literal: comma-separated distinct positive integers, e.g. "1,2,4,7,10"; returned ascending."""
    body = text.strip()
    try:
        values = [int(tok) for tok in body.split(",")] if body else []
    except ValueError as exc:
        raise ValueError(f"bad set literal {text!r}") from exc
    return as_elements(values)


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

    A record is one line, after a newline: a query's fields and its
    `count`, spelled as `save` spells it (`_RECORD`), and that spelling is
    the cache's whole schema.  Any other line (torn, of an older format,
    anything else the file held) is skipped: never served, never checked,
    and its query is recomputed once.  A later record of a query supersedes
    every earlier one.  `save` appends one newline-led record in one write,
    under an exclusive lock on the file itself, and never reads, truncates
    or rewrites the file: a concurrent writer loses nothing, and a crash
    mid-write leaves at most a torn last line, which the next record's
    newline closes.

    `get` and `records` read the file at each call, so they see every
    record any writer has saved.  `get` searches the bytes backwards for
    the query's record prefix (its record up to the count) at the start of
    a line and takes the first hit that `_RECORD` reads whole, with no JSON
    parse, so the later record wins and a torn or foreign line is passed
    over.  Only `records` reads every record, for `count --selfcheck` to
    recount.
    """

    def __init__(self, path: Path):
        self.path = Path(path)

    def _load(self) -> bytes:
        """The file's bytes; OSError if it cannot be read, a missing file included."""
        return self.path.read_bytes()

    def get(self, query: CensusQuery) -> Optional[int]:
        try:
            data, start = self._load(), b"\n" + _record_prefix(query)  # a line that starts with the prefix
        except FileNotFoundError:  # no file yet, or no directory, which `save` then reports
            return None
        at = len(data)
        while (at := data.rfind(start, 0, at)) >= 0:
            if record := _RECORD.match(data, at + 1):
                return int(record[2])
        return None

    def save(self, query: CensusQuery, count: int) -> None:
        """Append the query's record, after a newline that closes any line
        a crash left torn; `get` answers it at once."""
        data = b"\n" + _record_prefix(query) + b"%d}" % count
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND | getattr(os, "O_BINARY", 0), 0o666)
        try:
            if fcntl is not None:  # without it the append goes unlocked; closing the fd unlocks
                fcntl.flock(fd, fcntl.LOCK_EX)
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)

    def records(self) -> list[tuple[dict, int]]:
        """Each record's query fields, in QUERY_FIELDS order as its prefix holds them, and count, the
        later record of a query winning.  A path it cannot read, a missing file included, raises OSError."""
        index = dict(_RECORD.findall(self._load(), 1))  # from 1: the lines `get` reads
        return [(dict(zip(QUERY_FIELDS, json.loads(p + b"0}").values())), int(n)) for p, n in index.items()]


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


def emit(fmt: str, record: dict, lines: Sequence[str]) -> None:
    """Print one result in the chosen format: `record` as JSON, or the plain `lines`."""
    if fmt == "json":
        print(json.dumps(record))
    else:  # the trailing "" ends the last line; an empty list prints nothing
        sys.stdout.write("\n".join([*lines, ""]))


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
    nprime = {g: sum(n for (q, _), n in hist.items() if q <= 3) for g, hist in hists.items()}

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
            by_depth = [0] * (g + 1)  # the row's histogram summed over the multiplicities
            for (q, _), n in hists[g].items():
                by_depth[q] += n
            cells = [str(g)]
            for q in depths:
                if q is None:
                    cells.append(str(nprime[g]))
                elif q > g or (q == 0 and g > 0):
                    cells.append("")
                else:
                    n = by_depth[q]
                    # bold marks the entries the closed formulas reach
                    cells.append(f"**{n}**" if f_gq(g, q).covered else str(n))
            rows.append(cells + [str(ng[g])])
    return header, rows


# ---------------------------------------------------------------------------
# subcommands


def _guard(what: str, query: CensusQuery, guard: int, force: bool) -> CensusQuery:
    """The query, if forced or its genus is within a desk-scale guard; a bad query failed as it was built."""
    if query.genus > guard and not force:
        raise ValueError(f"{what} {query.genus} above guard {guard}; pass --force")
    return query


def _census_query(args: argparse.Namespace) -> CensusQuery:
    """The query of count's or enumerate's flags, which must name a genus within the guard."""
    if args.genus is None:
        raise ValueError("--genus is required")
    query = CensusQuery(args.genus, args.depth, args.max_depth, args.mult)
    return _guard("genus", query, GMAX_GUARD, args.force)


def cmd_count(args: argparse.Namespace) -> int:
    cache = CountCache(Path(args.cache)) if args.cache else None

    if args.selfcheck:
        if cache is None or args.format != "plain" or any(getattr(args, f) is not None for f in QUERY_FIELDS):
            raise ValueError("--selfcheck needs --cache and takes no query flags and no --format")
        # recount each record's query as a miss counts it, the records that are not census queries first
        problems, checks = [], []
        for fields, cached in cache.records():
            label = " ".join(f"{f}={v}" for f, v in fields.items())
            try:
                checks.append((label, CensusQuery(**fields), cached))
            except (ValueError, OverflowError):
                problems.append(f"{label}: not a census query")
        _guard("genus", CensusQuery(max((q.genus for _, q, _ in checks), default=0)), GMAX_GUARD, args.force)
        for label, query, cached in checks:
            if (fresh := count_gapsets(query, args.jobs).count) != cached:
                problems.append(f"{label}: cached {cached} != recomputed {fresh}")
        print("\n".join(problems or [f"cache ok: {len(checks)} entries verified"]))
        return EXIT_INTERNAL if problems else EXIT_OK

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
    if args.format == "csv":  # a one-row table: the query's fields (None as an empty cell), then the count
        row = {**fields, "count": count}
        sys.stdout.write(_render_csv(list(row), [["" if v is None else str(v) for v in row.values()]]))
        return EXIT_OK
    record = {
        "query": fields,
        "count": count,
        "elapsed_ms": round(elapsed_ms, 3),
        "shards": shards,
        "cached": cached,
    }
    emit(args.format, record, [str(count)])
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


def _modulus(mult: Optional[int], multiplicity: int) -> Optional[int]:
    """The m-extension check's modulus: --mult, else the set's multiplicity;
    None when that is 1, which has no m-extension."""
    m = multiplicity if mult is None else mult
    return m if m > 1 else None


def cmd_verify(args: argparse.Namespace) -> int:
    elements = parse_set(args.set)
    verdict = classify_gapset(elements)
    ok = isinstance(verdict, GapSet)
    # a GapSet's fields after its elements are the invariants; only a rejected set is measured again
    genus, multiplicity, conductor, depth = list(vars(verdict).values())[1:] if ok else invariants(elements)
    record = {
        "set": list(elements),
        "gapset": ok,
        "witness": None if ok else vars(verdict),  # a GapsetRejection's z, x, y
        # the set's own invariants, whatever the verdicts turn out to be
        "genus": genus, "multiplicity": multiplicity, "conductor": conductor, "depth": depth,
        "m_extension": None,
    }
    lines = [
        f"set: {format_set(elements) or '(empty)'}",
        "gapset: yes" if ok else f"gapset: no ({verdict.z} = {verdict.x} + {verdict.y})",
        f"genus: {genus}; multiplicity: {multiplicity}; conductor: {conductor}; depth: {depth}",
    ]
    if (m := _modulus(args.mult, multiplicity)) is None:
        lines.append("m-extension: n/a (modulus would be 1)")
    elif not isinstance(ext := classify_m_extension(elements, m), MExtension):
        record["m_extension"] = {"m": m, "ok": False, **vars(ext)}  # its reason and witness
        lines.append(f"m-extension (m={m}): no ({ext})")
    else:
        ap, kv = pseudo_apery(ext), pseudo_kunz(ext)
        violation = kunz_system_violation(kv)
        record["m_extension"] = {"m": m, "ok": True, "reason": None, "witness": None}
        record["apery"] = list(ap.w)
        record["kunz"] = {"m": kv.modulus, "coords": list(kv.coords)}
        record["kunz_system"] = {"ok": violation is None, "violation": list(violation) if violation else None}
        lines += [
            f"m-extension (m={m}): yes",
            f"pseudo-Apery: {format_set(ap.w)}",
            f"pseudo-Kunz: {format_kunz(kv)}  tiling {format_composition(kv.coords)}",
            "kunz-system: " + ("satisfied" if violation is None else "violated at (i,j)=(%d,%d)" % violation),
        ]
    emit(args.format, record, lines)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_kunz(args: argparse.Namespace) -> int:
    elements = parse_set(args.set)
    if (m := _modulus(args.mult, invariants(elements)[1])) is None:
        raise ValueError("modulus would be 1; pass --mult")
    if not isinstance(ext := classify_m_extension(elements, m), MExtension):
        print(ext, file=sys.stderr)
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
    _guard("--gmax", CensusQuery(gmax, mult=spec.mult), spec.guard, args.force)
    render = _render_csv if args.format == "csv" else _render_markdown
    sys.stdout.write(render(*table_rows(args.which, gmax, jobs=args.jobs)))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    g = args.genus
    query = _guard("genus", CensusQuery(g), GMAX_GUARD, args.force)
    hist = census_histograms(query, args.jobs)[g]
    ms = [args.M] if args.M is not None else [2, 3, 4]
    record = {
        "genus": g,
        "lower_depth3": lower_bound_depth3(g),
        "n_prime": sum(n for (q, _), n in hist.items() if q <= 3),
        "n_g": sum(hist.values()),
        "upper": {str(M): upper_bound_ng(g, M, hist) for M in ms},
        "upper_closedN": upper_bound_ng_closedN(g) if g >= 4 else None,
        "power": 1 << (g - 1),
    }
    g, lower, nprime, ng, ubs, closed, power = record.values()

    # each upper bound on n_g: its plain line's label, and its name in a violation
    uppers = [(f"upper bound (M={M}):            ", f"UB(M={M})", ub) for M, ub in ubs.items()]
    if closed is not None:
        uppers.append(("upper bound (closed N):        ", "closed-N bound", closed))
    uppers.append(("2^(g-1):                       ", "2^(g-1)", power))
    violations = [] if lower <= nprime <= ng else [f"lower {lower} <= n'_g {nprime} <= n_g {ng} fails"]
    violations += [f"n_g {ng} exceeds {name} {ub}" for _, name, ub in uppers if ng > ub]
    record.update(ok=not violations, violations=violations)

    lines = [
        f"genus {g}",
        f"lower bound (depth<=3 family): {lower}",
        f"n'_g (depth<=3):               {nprime}",
        f"n_g:                           {ng}",
    ]
    lines += [f"{label}{ub}" for label, _, ub in uppers]
    lines += [f"VIOLATION: {v}" for v in violations] or ["sandwich: ok"]
    emit(args.format, record, lines)
    return EXIT_INTERNAL if violations else EXIT_OK


def cmd_formula(args: argparse.Namespace) -> int:
    answer = {None: f_gq, 3: f_gq3, 4: f_gq4}[args.mult](args.genus, args.depth)
    plain = str(answer.value) if answer.covered else "not covered"
    record = {"covered": answer.covered, "value": answer.value, "branch": answer.branch}
    emit(args.format, record, [f"{plain}  [{answer.branch}]"])
    return EXIT_OK


# `seq --name`'s choices and values at (n, k), each function looked up at call time (tracers rebind them)
SEQUENCES = {
    "fibonacci": lambda n, k: fibonacci(n),
    "fibonacci-k": lambda n, k: fibonacci_k(k, n),
    "padovan": lambda n, k: padovan(n),
    "convolution": lambda n, k: padovan_fibonacci_convolution(n),
}


def cmd_seq(args: argparse.Namespace) -> int:
    name, k = args.name, args.k
    if (k is None) == (name == "fibonacci-k"):  # --k goes with fibonacci-k and only with it
        why = "is required for fibonacci-k" if k is None else f"is read only by fibonacci-k, not by {name}"
        raise ValueError(f"--k {why}")
    value = SEQUENCES[name](args.n, k)
    emit(args.format, {"name": name, "n": args.n, "k": k, "value": value}, [str(value)])
    return EXIT_OK


def cmd_oeis(args: argparse.Namespace) -> int:
    query = _guard("--gmax", CensusQuery(args.gmax), GMAX_GUARD, args.force)
    path = Path(args.bfile) if args.bfile else bundled_bfile()
    by_index = parse_bfile(path)
    hists = census_histograms(query, args.jobs, low=0)
    ng = [sum(hist.values()) for hist in hists.values()]

    # our own census must reproduce the known first terms before it is
    # allowed to judge anybody else's data
    for g, expected in enumerate(NG_ANCHOR[: len(ng)]):
        if ng[g] != expected:
            print(f"internal error: census n_{g} != {expected}", file=sys.stderr)
            return EXIT_INTERNAL

    problems = [
        f"g={g}: file has {by_index[g]}, census says {expected}" if g in by_index
        else f"g={g}: index {g} missing from {path.name}"
        for g, expected in enumerate(ng)
        if by_index.get(g) != expected
    ]
    print("\n".join(problems or [f"all match: g=0..{args.gmax} against {path.name}"]))
    return EXIT_NEGATIVE if problems else EXIT_OK


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
    p.add_argument("--M", type=at_least(2), default=None)

    p = command("formula", cmd_formula, "evaluate a closed-form count")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--mult", type=int, choices=(3, 4), default=None, help="omit for the depth-only formula")

    p = command("seq", cmd_seq, "evaluate a sequence")
    p.add_argument("--name", choices=list(SEQUENCES), required=True)
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
