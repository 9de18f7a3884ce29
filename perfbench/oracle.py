"""Answer checks for every op the benchmark runs.

Three sources of truth, none of which is the code under test at run time:

* OEIS A007323 for every unfiltered count and every n_g column: the
  package's bundled b-file for g <= 18 and the published terms for
  g = 19 .. 24 kept in ``data/a007323_ext.txt``.
* Goldens captured from the program at the seed commit by
  ``capture_goldens.py``: filtered counts (as a per-genus histogram by
  depth and multiplicity, plus the deep census queries), and the sha256 of
  the full output of every table, bounds, oeis and enumerate op.
* The benchmark's own set arithmetic in ``workloads.py`` for verify, kunz
  and from-kunz: a pairwise-sum gapset check, residue counts and the
  m-extension conditions, never the library's classifiers.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

from workloads import Op, format_set, multiplicity, residue_counts, sum_witness

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "data" / "goldens.json"


def _read_terms(path: Path) -> dict[int, int]:
    terms = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            terms[int(line[0])] = int(line[1])
    return terms


def a007323(root: Path) -> dict[int, int]:
    """n_g for g = 0 .. 24."""
    terms = _read_terms(root / "src" / "gapsets" / "data" / "b007323.txt")
    terms.update(_read_terms(HERE / "data" / "a007323_ext.txt"))
    return terms


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def query_key(query) -> str:
    return ",".join("" if v is None else str(v) for v in query)


def parse_histogram(cells: dict[str, int]) -> dict[tuple[int, int], int]:
    """Golden histogram cells, keyed "depth,mult", as (depth, mult) -> count."""
    return {tuple(int(x) for x in cell.split(",")): n for cell, n in cells.items()}


def histogram_count(cells: dict[tuple[int, int], int], query) -> int:
    """Gapsets of one genus matching a query's depth and multiplicity filters."""
    _, depth, max_depth, mult = query
    return sum(
        n
        for (q, m), n in cells.items()
        if (depth is None or q == depth)
        and (max_depth is None or q <= max_depth)
        and (mult is None or m == mult)
    )


def _m_extension_failure(elements: tuple[int, ...], m: int) -> Optional[str]:
    members = set(elements)
    if any(i not in members for i in range(1, m)):
        return "missing-base"
    if any(a % m == 0 for a in elements):
        return "multiple-of-modulus"
    if any(a > m and a - m not in members for a in elements):
        return "missing-predecessor"
    return None


class Oracle:
    def __init__(self, root: Path):
        self.ng = a007323(root)
        doc = json.loads(GOLDENS.read_text(encoding="utf-8"))
        self.outputs: dict[str, str] = doc["outputs"]
        self.counts: dict[str, int] = doc["counts"]
        # histogram[g][(depth, mult)] = number of gapsets
        self.histogram = {int(g): parse_histogram(cells) for g, cells in doc["histogram"].items()}

    def expected_count(self, query) -> int:
        g, depth, max_depth, mult = query
        if depth is None and max_depth is None and mult is None:
            return self.ng[g]
        if g in self.histogram:
            return histogram_count(self.histogram[g], query)
        return self.counts[query_key(query)]

    def check(self, op: Op, rc: int, out: str, first_answers: dict) -> Optional[str]:
        """None when the op's answer is right, else what is wrong.

        ``first_answers`` maps each count query already answered in this
        pass to its first (uncached) answer, so a cache hit can be compared
        with it; the caller owns it and it is updated here.
        """
        try:
            return getattr(self, "_check_" + op.kind.replace("-", "_"))(op, rc, out, first_answers)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable output ({type(exc).__name__}: {exc})"

    def _check_count(self, op, rc, out, first_answers):
        if rc != 0:
            return f"exit code {rc}"
        expected = self.expected_count(op.query)
        if "--format" not in op.argv:
            got = int(out)
            return None if got == expected else f"count {got} != {expected}"
        record = json.loads(out)
        got = record["count"]
        if got != expected:
            return f"count {got} != {expected}"
        key = op.query
        if record["cached"]:
            if key not in first_answers:
                return "cache hit for a query not yet answered in this pass"
            if got != first_answers[key]:
                return f"cache hit {got} != uncached answer {first_answers[key]}"
        else:
            first_answers.setdefault(key, got)
        return None

    def _check_golden(self, op, rc, out):
        if rc != 0:
            return f"exit code {rc}"
        want = self.outputs[" ".join(op.argv)]
        return None if digest(out) == want else "output differs from the seed golden"

    def _check_ng_column(self, out: str) -> Optional[str]:
        header = None
        for line in out.splitlines():
            cells = [c.strip().replace("**", "") for c in line.strip().strip("|").split("|")]
            if header is None:
                header = cells
                continue
            if "n_g" not in header or not cells[0].isdigit():
                continue
            g = int(cells[0])
            got = int(cells[header.index("n_g")])
            if got != self.ng[g]:
                return f"n_g column at g={g}: {got} != A007323 {self.ng[g]}"
        return None

    def _check_table(self, op, rc, out, first_answers):
        return self._check_golden(op, rc, out) or self._check_ng_column(out)

    def _check_bounds(self, op, rc, out, first_answers):
        g = int(op.argv[op.argv.index("--genus") + 1])
        got = [int(line.split()[-1]) for line in out.splitlines() if line.startswith("n_g:")]
        if got != [self.ng[g]]:
            return f"bounds n_g {got} != A007323 {self.ng[g]}"
        return self._check_golden(op, rc, out)

    def _check_oeis(self, op, rc, out, first_answers):
        return self._check_golden(op, rc, out)

    def _check_enumerate(self, op, rc, out, first_answers):
        g = op.query[0]
        lines = out.splitlines()
        if len(lines) != self.ng[g]:
            return f"enumerate listed {len(lines)} sets, A007323 has {self.ng[g]}"
        return self._check_golden(op, rc, out)

    def _check_verify(self, op, rc, out, first_answers):
        s = op.elements
        witness = sum_witness(s)
        if rc != (0 if witness is None else 1):
            return f"exit code {rc} for a {'gap' if witness is None else 'non-gap'}set"
        m = multiplicity(s)
        conductor = s[-1] + 1
        want = [
            f"set: {format_set(s)}",
            "gapset: yes" if witness is None else "gapset: no ({} = {} + {})".format(*witness),
            f"genus: {len(s)}; multiplicity: {m}; conductor: {conductor}; "
            f"depth: {-(-conductor // m)}",
        ]
        lines = out.splitlines()
        if lines[:3] != want:
            return f"verify report {lines[:3]} != {want}"
        if m < 2:
            return None if lines[3] == "m-extension: n/a (modulus would be 1)" else "m-extension line"
        if _m_extension_failure(s, m) is not None:
            return None if lines[3].startswith(f"m-extension (m={m}): no") else "m-extension verdict"
        coords = residue_counts(s, m)
        apery = [0] + [m + max(a for a in s if a % m == i) for i in range(1, m)]
        system = "kunz-system: satisfied" if witness is None else "kunz-system: violated"
        if (
            lines[3] != f"m-extension (m={m}): yes"
            or lines[4] != f"pseudo-Apery: {format_set(apery)}"
            or not lines[5].startswith(f"pseudo-Kunz: {m}:{format_set(coords)} ")
            or not lines[6].startswith(system)
        ):
            return f"m-extension report {lines[3:]} disagrees with the set"
        return None

    def _check_kunz(self, op, rc, out, first_answers):
        s = op.elements
        m = multiplicity(s)
        if _m_extension_failure(s, m) is not None:
            return None if rc == 1 and not out else f"exit code {rc} for a non-m-extension"
        if rc != 0:
            return f"exit code {rc}"
        want = f"{m}:{format_set(residue_counts(s, m))}"
        return None if out.strip() == want else f"kunz {out.strip()} != {want}"

    def _check_from_kunz(self, op, rc, out, first_answers):
        if rc != 0:
            return f"exit code {rc}"
        want = format_set(op.elements)
        return None if out.strip() == want else f"from-kunz {out.strip()} != input set {want}"
