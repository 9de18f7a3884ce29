"""Capture the benchmark's goldens from the program at the current commit.

Run from the repository root:

    python3 perfbench/capture_goldens.py

It writes ``perfbench/data/goldens.json``: the sha256 of the full stdout of
every table, bounds, oeis and enumerate op the workloads can issue (both
scales), the per-genus (depth, multiplicity) histogram for the genera the
interactive count queries use, and the filtered counts of the deep census
queries.  Before writing, it checks every unfiltered total against
OEIS A007323.  Goldens are meant to be captured once, at the commit whose
output later commits must reproduce byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from gapsets import cli  # noqa: E402

from oracle import GOLDENS, a007323, digest, histogram_count, parse_histogram, query_key  # noqa: E402
from workloads import SIZES, census_queries, count_argv, table_argvs  # noqa: E402


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"not captured: {what}")


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def main() -> None:
    ng = a007323(ROOT)
    outputs = {}
    counts = {}
    hist_gmax = max(s["count_gmax"] for s in SIZES.values())
    enum_lo = min(s["enumerate_genera"][0] for s in SIZES.values())
    enum_hi = max(s["enumerate_genera"][1] for s in SIZES.values())

    for scale in SIZES:
        for argv in table_argvs(scale):
            outputs[" ".join(argv)] = digest(run(argv))
    for g in range(enum_lo, enum_hi + 1):
        argv = ("enumerate", "--genus", str(g))
        outputs[" ".join(argv)] = digest(run(argv))

    histogram = {}
    for g in range(1, hist_gmax + 1):
        items = json.loads(run(("enumerate", "--genus", str(g), "--format", "json")))["items"]
        require(len(items) == ng[g], f"enumerate --genus {g} disagrees with A007323")
        cells = Counter(f"{it['depth']},{it['multiplicity']}" for it in items)
        histogram[str(g)] = dict(sorted(cells.items()))

    for s in SIZES.values():
        for query in census_queries(s["census_genus"]):
            g = query[0]
            got = int(run(count_argv(query)))
            if query[1:] == (None, None, None):
                require(got == ng[g], f"census n_{g} = {got} disagrees with A007323")
            elif g > hist_gmax:
                counts[query_key(query)] = got
            else:  # the histogram must reproduce the census's filtered counts
                derived = histogram_count(parse_histogram(histogram[str(g)]), query)
                require(got == derived, f"histogram gives {derived} for {query}, census {got}")

    doc = {"outputs": dict(sorted(outputs.items())), "counts": counts, "histogram": histogram}
    GOLDENS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDENS.relative_to(ROOT)}: {len(outputs)} outputs, {len(counts)} counts, "
          f"histogram g=1..{hist_gmax}")


if __name__ == "__main__":
    main()
