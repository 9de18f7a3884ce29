"""Seeded op lists for the four benchmark workloads.

An op is one CLI invocation: the argv handed to ``gapsets.cli.main`` plus
what the answer checker needs to judge it.  Everything here is generated
before the timed phase from the workload seed, with the benchmark's own
code only; the program sees nothing but argv.

Sizes come in two scales.  ``full`` is what the benchmark measures;
``smoke`` is a tiny version of every workload for the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Optional

WORKLOADS = ("census-big", "census-sharded", "tables", "interactive")

# Placeholder in a count op's argv, replaced by the pass's fresh cache file.
CACHE_ARG = "<cache>"

SIZES = {
    "full": {
        # genus of the deep census queries (census-big and census-sharded)
        "census_genus": 18,
        "t4": 13, "t1": 16, "t3": 16, "t2": 20, "bounds": 16, "oeis": 16,
        "interactive_ops": 500,
        "count_gmax": 14,
        "enumerate_genera": (10, 13),
    },
    "smoke": {
        "census_genus": 12,
        "t4": 8, "t1": 8, "t3": 8, "t2": 10, "bounds": 8, "oeis": 8,
        "interactive_ops": 60,
        "count_gmax": 8,
        "enumerate_genera": (5, 8),
    },
}


@dataclass(frozen=True)
class Op:
    """One CLI call.

    kind selects the checker; the other fields carry what it needs:
    ``query`` is (genus, depth, max_depth, mult) for count and enumerate
    ops, ``elements`` the input set of verify/kunz ops and the expected set
    of from-kunz ops, ``kunz`` the (modulus, coords) of a from-kunz op.
    """

    kind: str
    argv: tuple[str, ...]
    query: Optional[tuple[int, Optional[int], Optional[int], Optional[int]]] = None
    elements: tuple[int, ...] = ()
    kunz: Optional[tuple[int, tuple[int, ...]]] = None


def census_queries(g: int) -> list[tuple[int, Optional[int], Optional[int], Optional[int]]]:
    """The census-big queries at genus g: the capped walk (unfiltered,
    depth <= 4, depth = 2g/5) and the fixed-part-count stream (mult g/2+1)."""
    return [
        (g, None, None, None),
        (g, None, 4, None),
        (g, (2 * g) // 5, None, None),
        (g, None, None, g // 2 + 1),
    ]


def count_argv(query, jobs: Optional[int] = None, fmt: Optional[str] = None) -> tuple[str, ...]:
    g, depth, max_depth, mult = query
    argv = ["count", "--genus", str(g)]
    if depth is not None:
        argv += ["--depth", str(depth)]
    if max_depth is not None:
        argv += ["--max-depth", str(max_depth)]
    if mult is not None:
        argv += ["--mult", str(mult)]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    if fmt is not None:
        argv += ["--format", fmt]
    return tuple(argv)


def table_argvs(scale: str) -> list[tuple[str, ...]]:
    s = SIZES[scale]
    return [
        ("table", "--which", "t4", "--gmax", str(s["t4"])),
        ("table", "--which", "t1", "--gmax", str(s["t1"])),
        ("table", "--which", "t3", "--gmax", str(s["t3"])),
        ("table", "--which", "t2", "--gmax", str(s["t2"])),
        ("bounds", "--genus", str(s["bounds"])),
        ("oeis", "--gmax", str(s["oeis"])),
    ]


def make_ops(name: str, seed: int, scale: str = "full") -> list[Op]:
    """One pass of the workload: its ops in seeded order."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    s = SIZES[scale]
    if name == "census-big":
        ops = [Op("count", count_argv(q, jobs=1), query=q) for q in census_queries(s["census_genus"])]
    elif name == "census-sharded":
        ops = [
            Op("count", count_argv(q, jobs=2), query=q)
            for q in census_queries(s["census_genus"])[:2]
        ]
    elif name == "tables":
        ops = [Op(argv[0], argv) for argv in table_argvs(scale)]
    else:
        return _interactive_ops(rng, s)  # already in seeded order
    rng.shuffle(ops)
    return ops


def reference_kinds(ops: list[Op]) -> list[str]:
    """For each op, the reference work (see hostspeed.py) whose time tracks
    the op's on a drifting host: "cli" for the ops that spend their time in
    argparse, json and small objects (verify, kunz, from-kunz, and a count
    whose query came earlier in the pass, so the cache answers it), "walk"
    for the ops that run a census."""
    seen = set()
    kinds = []
    for op in ops:
        if op.kind in ("verify", "kunz", "from-kunz"):
            kinds.append("cli")
        elif CACHE_ARG in op.argv:
            kinds.append("cli" if op.query in seen else "walk")
            seen.add(op.query)
        else:
            kinds.append("walk")
    return kinds


# ---------------------------------------------------------------------------
# the interactive stream


def materialise(m: int, coords: tuple[int, ...]) -> tuple[int, ...]:
    """The m-extension with the given per-residue counts: class i holds
    i, i+m, ..., i+(k_i - 1)m."""
    return tuple(sorted(i + t * m for i, k in enumerate(coords, start=1) for t in range(k)))


def residue_counts(elements: tuple[int, ...], m: int) -> tuple[int, ...]:
    counts = [0] * m
    for a in elements:
        counts[a % m] += 1
    return tuple(counts[1:])


def sum_witness(elements: tuple[int, ...]) -> Optional[tuple[int, int, int]]:
    """Smallest z in the set, and for it the smallest x, with z = x + y and
    neither x nor y in the set; None when the set is a gapset."""
    members = set(elements)
    for z in sorted(elements):
        for x in range(1, z // 2 + 1):
            if x not in members and z - x not in members:
                return (z, x, z - x)
    return None


def multiplicity(elements: tuple[int, ...]) -> int:
    members = set(elements)
    m = 1
    while m in members:
        m += 1
    return m


def _random_gapset(rng: random.Random, max_genus: int = 30) -> tuple[int, ...]:
    """Gaps of a numerical semigroup with a few random generators."""
    while True:
        m = rng.randint(3, 9)
        gens = sorted({m} | {rng.randint(m + 1, 3 * m) for _ in range(rng.randint(1, 4))})
        d = 0
        for a in gens:
            d = gcd(d, a)
        if d != 1:
            continue
        bound = m * gens[-1]  # above the Frobenius number of any such generator set
        member = [True] + [False] * bound
        for n in range(1, bound + 1):
            member[n] = any(a <= n and member[n - a] for a in gens)
        gaps = tuple(n for n in range(1, bound + 1) if not member[n])
        if 1 <= len(gaps) <= max_genus:
            return gaps


def _random_non_gapset_extension(rng: random.Random) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """An m-extension that is not a gapset, with its modulus and coordinates."""
    while True:
        m = rng.randint(3, 8)
        coords = tuple(rng.randint(1, 5) for _ in range(m - 1))
        elements = materialise(m, coords)
        if sum_witness(elements) is not None:
            return m, coords, elements


def _perturbed(rng: random.Random, gapset: tuple[int, ...]) -> tuple[int, ...]:
    """A gapset with one element removed or one added, if that breaks it."""
    for _ in range(20):
        members = set(gapset)
        if rng.random() < 0.5 and len(gapset) > 1:
            members.discard(rng.choice(gapset))
        else:
            members.add(rng.randint(1, max(gapset) + 6))
        cand = tuple(sorted(members))
        if cand and sum_witness(cand) is not None:
            return cand
    return _random_non_gapset_extension(rng)[2]


def format_set(elements) -> str:
    """The CLI's set literal: comma-separated, no spaces."""
    return ",".join(str(e) for e in elements)


def _queries_of_genus(g: int) -> list[tuple[int, Optional[int], Optional[int], Optional[int]]]:
    depth_filters = [(None, None)] + [(q, None) for q in range(1, g + 1)] + [
        (None, q) for q in range(1, g)
    ]
    return [
        (g, depth, max_depth, mult)
        for depth, max_depth in depth_filters
        for mult in [None] + list(range(2, g + 2))
    ]


def _interactive_ops(rng: random.Random, s: dict) -> list[Op]:
    """The interactive stream.  Its make-up (how many ops of each kind, how
    many distinct count queries per genus, how many enumerates per genus)
    is fixed; the seed picks the queries, sets, vectors and order."""
    n = s["interactive_ops"]
    n_count = round(0.60 * n)
    n_enum = round(0.05 * n)
    n_obj = n - n_count - n_enum

    # Count queries: a third of the count ops are first sightings (a miss
    # and a write), the rest repeat an earlier query (a hit and a read).
    # Distinct queries are spread evenly over genera 3 .. count_gmax; each
    # recurs at least once, and the extra repeats follow a Zipf-like
    # popularity.
    distinct = n_count // 3
    genera = list(range(3, s["count_gmax"] + 1))
    queries = []
    for g in genera:
        k = distinct // len(genera) + (genera.index(g) < distinct % len(genera))
        queries += rng.sample(_queries_of_genus(g), k)
    rng.shuffle(queries)
    reps = [2] * distinct
    weights = [1.0 / (rank + 1) for rank in range(distinct)]
    for i in rng.choices(range(distinct), weights=weights, k=n_count - 2 * distinct):
        reps[i] += 1
    ops = [
        Op("count", count_argv(q, fmt="json") + ("--cache", CACHE_ARG), query=q)
        for q, r in zip(queries, reps)
        for _ in range(r)
    ]

    # Per-object ops in a fixed cycle: verify on gapsets and non-gapsets,
    # and kunz ops each followed by the from-kunz op that must rebuild the
    # kunz op's input set from its coordinates.
    obj_ops: list[Op] = []
    while len(obj_ops) < n_obj:
        gapset = _random_gapset(rng)
        non_gapset = _random_non_gapset_extension(rng)[2]
        for target in (gapset, non_gapset, _random_gapset(rng), _perturbed(rng, gapset)):
            obj_ops.append(Op("verify", ("verify", "--set", format_set(target)), elements=target))
        m = multiplicity(gapset)
        for m, coords, elements in (
            (m, residue_counts(gapset, m), gapset),
            _random_non_gapset_extension(rng),
        ):
            obj_ops.append(Op("kunz", ("kunz", "--set", format_set(elements)), elements=elements))
            vec = f"{m}:" + format_set(coords)
            obj_ops.append(
                Op("from-kunz", ("from-kunz", "--kunz", vec), elements=elements, kunz=(m, coords))
            )
    ops += obj_ops[:n_obj]

    # The largest genus, the costliest op of the stream, takes 2% of it, so
    # that the p99 of the stream's latencies falls among its replays and not
    # on the edge between them and the seed's costliest count misses, where
    # it would move with the seed.  The other enumerates cycle over the
    # smaller genera.
    lo, hi = s["enumerate_genera"]
    n_top = round(0.02 * n)
    ops += [
        Op("enumerate", ("enumerate", "--genus", str(g)), query=(g, None, None, None))
        for g in [lo + i % (hi - lo) for i in range(n_enum - n_top)] + [hi] * n_top
    ]
    # the first sighting of each count query in the shuffled stream is its miss
    rng.shuffle(ops)
    return ops
