"""Acceptance suite: every headline claim, checked end to end at full precision.

One test per criterion; each prints a PASS line with the checked range so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist.  All
comparisons are exact (integer equality); there are no tolerances to tune.
"""

import time
from collections import Counter
from pathlib import Path

import pytest

from census_oracles import N_G, census_fgqm, census_hist, composition_histograms, semigroup_tree_histograms
from gapsets.census import MAX_GENUS, CensusQuery, census_histograms, count_gapsets
from gapsets.cli import bundled_bfile, main, parse_bfile
from gapsets.core import GapSet, classify_gapset
from gapsets.formulas import (
    f_gq,
    f_gq3,
    f_gq4,
    lower_bound_depth3,
    upper_bound_ng,
)
from gapsets.kunz import KunzVector, from_kunz, pseudo_kunz, satisfies_kunz_system
from gapsets.sequences import fibonacci, fibonacci_k, padovan, padovan_fibonacci_convolution
from gapsets.tilings import (
    count_compositions,
    enumerate_compositions,
    enumerate_depth3_family,
    sigma,
    sigma_inverse,
)

GMAX = 18

N_PRIME = [1, 1, 2, 4, 6, 11, 20, 33, 57, 99, 168, 287, 487, 824, 1395, 2351, 3954, 6636, 11116]

# exact F(g,q,4) grid for g in [3,12]: {(q, g): count}, everything else 0
FGQ4_GRID = {
    (1, 3): 1,
    (2, 4): 3, (2, 5): 3, (2, 6): 1,
    (3, 5): 1, (3, 6): 5, (3, 7): 5, (3, 8): 3, (3, 9): 1,
    (4, 7): 2, (4, 8): 6, (4, 9): 7, (4, 10): 6, (4, 11): 3, (4, 12): 1,
    (5, 9): 3, (5, 10): 7, (5, 11): 9, (5, 12): 8,
    (6, 11): 3, (6, 12): 9,
}
N4_FOOTER = [1, 3, 4, 6, 7, 9, 11, 13, 15, 18]  # over g = 3..12

# the formula-covered ("bold") entries of the genus-by-depth table, beyond
# the always-covered columns q=1, q=2 and the diagonal q=g
BOLD_EXTRA = {
    (0, 0): 1,
    (4, 3): 1, (5, 3): 3, (5, 4): 0, (6, 4): 2, (6, 5): 0,
    (7, 4): 4, (7, 5): 1, (7, 6): 0,
    (8, 4): 7, (8, 5): 2, (8, 6): 0, (8, 7): 0,
    (9, 5): 5, (9, 6): 2, (9, 7): 0, (9, 8): 0,
    (10, 5): 8, (10, 6): 2, (10, 7): 1, (10, 8): 0, (10, 9): 0,
    (11, 6): 5, (11, 7): 2, (11, 8): 0, (11, 9): 0, (11, 10): 0,
    (12, 6): 10, (12, 7): 2, (12, 8): 2, (12, 9): 0, (12, 10): 0, (12, 11): 0,
    (13, 7): 6, (13, 8): 2, (13, 9): 1, (13, 10): 0, (13, 11): 0, (13, 12): 0,
    (14, 7): 11, (14, 8): 2, (14, 9): 2, (14, 10): 0, (14, 11): 0, (14, 12): 0, (14, 13): 0,
    (15, 8): 7, (15, 9): 2, (15, 10): 2, (15, 11): 0, (15, 12): 0, (15, 13): 0, (15, 14): 0,
    (16, 8): 12, (16, 9): 2, (16, 10): 2, (16, 11): 1, (16, 12): 0, (16, 13): 0, (16, 14): 0,
    (16, 15): 0,
    (17, 9): 7, (17, 10): 2, (17, 11): 2, (17, 12): 0, (17, 13): 0, (17, 14): 0, (17, 15): 0,
    (17, 16): 0,
    (18, 9): 14, (18, 10): 2, (18, 11): 2, (18, 12): 2, (18, 13): 0, (18, 14): 0, (18, 15): 0,
    (18, 16): 0, (18, 17): 0,
}

TABLE1_LOWER = [1, 1, 2, 4, 6, 11, 18, 30, 50, 82, 135]  # g = 0..10
TABLE3_UPPER = {  # g: (M=4, M=3, M=2)
    1: (2, 2, 2), 2: (3, 2, 3), 3: (6, 4, 4), 4: (8, 7, 8), 5: (12, 14, 16),
    6: (28, 27, 30), 7: (50, 58, 62), 8: (112, 111, 126), 9: (216, 239, 249),
    10: (413, 468, 505),
}


@pytest.fixture(scope="module")
def depth_histograms():
    """Depth histogram at each genus of the brute-force census: the
    system-filtered composition walk."""
    hists = []
    for cells in composition_histograms(GMAX):
        hist = Counter()
        for (q, _), n in cells.items():
            hist[q] += n
        hists.append(hist)
    return hists


def test_criterion_01_census_matches_reference_columns():
    t0 = time.perf_counter()
    single = count_gapsets(CensusQuery(GMAX)).count
    elapsed = time.perf_counter() - t0
    assert single == N_G[GMAX]
    assert elapsed < 60.0, f"g={GMAX} census took {elapsed:.1f}s"

    got_ng = [count_gapsets(CensusQuery(g)).count for g in range(0, GMAX + 1)]
    got_np = [count_gapsets(CensusQuery(g, max_depth=3)).count for g in range(0, GMAX + 1)]
    assert got_ng == N_G
    assert got_np == N_PRIME
    print(f"\nPASS criterion 1: n_g and n'_g match for g=0..{GMAX} "
          f"(g={GMAX} single-threaded in {elapsed:.2f}s)")


def test_criterion_02_multiplicity4_grid():
    for g in range(3, 13):
        for q in range(0, g + 1):
            expected = FGQ4_GRID.get((q, g), 0)
            assert census_fgqm(g, q, 4) == expected, (g, q)
    footer = [count_gapsets(CensusQuery(g, mult=4)).count for g in range(3, 13)]
    assert footer == N4_FOOTER
    print("PASS criterion 2: multiplicity-4 grid matches entry-for-entry, "
          f"footer {footer}")


def test_criterion_03_formulas_match_census():
    # one census pass per multiplicity, every genus from the formula's first up to the cap
    for m, formula, low in ((3, f_gq3, 2), (4, f_gq4, 7)):
        for g, hist in census_histograms(CensusQuery(MAX_GENUS, mult=m), low=low).items():
            for q in range(1, g + 1):
                assert formula(g, q).value == hist[q, m], (m, g, q)
    print(f"PASS criterion 3: multiplicity-3 formula (g=2..{MAX_GENUS}) and "
          f"multiplicity-4 formula (g=7..{MAX_GENUS}) agree with the census everywhere")


def test_criterion_04_depth_formula_covers_bold_entries(depth_histograms):
    # every covered (g, q) must equal the census...
    for g in range(0, GMAX + 1):
        for q in range(0, g + 2):
            answer = f_gq(g, q)
            if answer.covered:
                assert answer.value == depth_histograms[g].get(q, 0), (g, q)
    # ...and every bold table entry must be covered with the right value
    covered = 0
    for (g, q), expected in _bold_entries().items():
        answer = f_gq(g, q)
        assert answer.covered, f"bold entry ({g},{q}) not covered"
        assert answer.value == expected, (g, q)
        covered += 1
    print(f"PASS criterion 4: all {covered} bold entries covered and matched; "
          "zero mismatches against the census for g<=18")


def _bold_entries():
    bold = dict(BOLD_EXTRA)
    for g in range(1, GMAX + 1):
        bold[(g, 1)] = 1
        if g >= 2:
            bold[(g, 2)] = fibonacci(g + 1) - 1
        bold[(g, g)] = 1
    return bold


def test_criterion_05_bounds_sandwich(depth_histograms):
    got_lower = [lower_bound_depth3(g) for g in range(0, 11)]
    assert got_lower == TABLE1_LOWER
    for g, (u4, u3, u2) in TABLE3_UPPER.items():
        assert upper_bound_ng(g, 4, census_hist(g)) == u4, g
        assert upper_bound_ng(g, 3, census_hist(g)) == u3, g
        assert upper_bound_ng(g, 2, census_hist(g)) == u2, g
    for g in range(0, GMAX + 1):
        nprime = count_gapsets(CensusQuery(g, max_depth=3)).count
        ng = sum(depth_histograms[g].values())
        assert lower_bound_depth3(g) <= nprime <= ng
        if g >= 1:
            for M in (2, 3, 4):
                assert ng <= upper_bound_ng(g, M, census_hist(g)), (g, M)
    print("PASS criterion 5: lower-bound column (g=0..10) and upper-bound "
          "columns (g=1..10) reproduced; sandwich holds for g=0..18")


def test_criterion_06_bijection_round_trips():
    cases = 0
    for g in range(1, 13):
        for c in enumerate_compositions(g):
            v = KunzVector(len(c) + 1, c)
            assert pseudo_kunz(from_kunz(v)) == v
            a = sigma_inverse(c)
            assert sigma(a) == c
            assert a.genus == g and a.modulus == len(c) + 1 and a.depth == max(c)
            cases += 2
    assert cases == 2 * (2 ** 12 - 1)
    print(f"PASS criterion 6: {cases} round trips through the coordinate and "
          "tiling bijections, zero failures")


def test_criterion_07_gapset_iff_kunz_system():
    disagreements = 0
    checked = 0
    for g in range(1, 13):
        for c in enumerate_compositions(g):
            v = KunzVector(len(c) + 1, c)
            direct = isinstance(classify_gapset(from_kunz(v).elements), GapSet)
            if direct != satisfies_kunz_system(v):
                disagreements += 1
            checked += 1
    assert disagreements == 0
    print(f"PASS criterion 7: definitional check and inequality system agree "
          f"on all {checked} extensions of genus <= 12")


def test_criterion_08_sequence_identities():
    for k in range(2, 61):
        for n in range(2, k + 2):
            assert fibonacci_k(k, n) == 1 << (n - 2)
    for g in range(0, 151):
        assert padovan_fibonacci_convolution(g) == fibonacci(g + 2) - padovan(g + 1)
    for g in range(1, 21):
        for k in range(2, g + 1):
            assert count_compositions(g, k) == fibonacci_k(k, g + 1), (g, k)
        assert count_compositions(g) == 1 << (g - 1)
    print("PASS criterion 8: doubling head (k<=60), convolution identity "
          "(g<=150), and restricted tiling counts (g<=20) all exact")


def test_criterion_09_depth3_family():
    for g in range(0, 21):
        n = 0
        for v in enumerate_depth3_family(g):
            assert satisfies_kunz_system(v), v
            assert v.depth == 3, v
            n += 1
        # with the F(g+1) gapsets of depth <= 2 the family makes up the bound
        assert n == lower_bound_depth3(g) - fibonacci(g + 1)
        assert lower_bound_depth3(g) == padovan_fibonacci_convolution(g)
    print("PASS criterion 9: depth-3 family members all pass the system with "
          "largest coordinate 3, and the family plus the depth <= 2 gapsets "
          "make up the lower bound F(g+2) - P(g+1) for g<=20")


def test_criterion_10_oeis_cross_check(capsys):
    code = main(["oeis", "--gmax", "18"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "all match" in out
    print("PASS criterion 10: bundled A007323 fixture matches the census "
          "for g<=18 with exit code 0")


def test_extra_fibonacci_like_growth():
    # Bras-Amoros's conjecture n_g >= n_(g-1) + n_(g-2), and the same for the
    # depth <= 3 column n'_g (margins 0, 1, 0, 1, 3, ... 526); criterion 01
    # ties both lists to the census
    for seq in (N_G, N_PRIME):
        assert all(seq[g] >= seq[g - 1] + seq[g - 2] for g in range(2, GMAX + 1)), seq
    print(f"PASS extra: n_g and n'_g are at least Fibonacci-like for 2 <= g <= {GMAX}")


@pytest.mark.slow
def test_extra_a007323_and_fibonacci_like_growth_to_genus_24():
    # opt-in (pytest -m slow), about 4.5 s: one census to g = 24 against the
    # bundled b-file and the published terms 19..24 the benchmark ships, and
    # its every (depth, multiplicity) cell to g = 22 against the semigroup
    # tree (about 3 s of it)
    terms = parse_bfile(bundled_bfile())
    terms |= parse_bfile(Path(__file__).parents[1] / "perfbench" / "data" / "a007323_ext.txt")
    hists = census_histograms(CensusQuery(24), low=0)
    ng = [sum(hists[g].values()) for g in range(25)]
    nprime = [sum(n for (q, _), n in hists[g].items() if q <= 3) for g in range(25)]
    assert ng == [terms[g] for g in range(25)]
    for seq in (ng, nprime):
        assert all(seq[g] >= seq[g - 1] + seq[g - 2] for g in range(2, 25)), seq
    for g, hist in enumerate(semigroup_tree_histograms(22)):
        assert hists[g] == +hist, g
    print("PASS extra: n_g matches A007323 and n_g, n'_g are at least Fibonacci-like for g <= 24; "
          "every (genus, depth, multiplicity) cell matches the semigroup tree for g <= 22")


def test_extra_finite_monotone_growth():
    # the asymptotic statements are out of reach; the finite shadow is not
    # criterion 01 ties N_G to the census
    assert all(N_G[g] < N_G[g + 1] for g in range(1, GMAX)), "n_g must grow"
    print("PASS extra: n_g strictly increases for 1 <= g <= 18")
