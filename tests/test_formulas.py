import pytest

from census_oracles import census_fgqm, census_hist
from gapsets.census import CensusQuery, census_histograms, count_gapsets
from gapsets.core import GapSet, classify_gapset
from gapsets.formulas import (
    DepthWindow,
    depth_window,
    f_gq,
    f_gq3,
    f_gq4,
    lower_bound_depth3,
    upper_bound_ng,
    upper_bound_ng_closedN,
)
from gapsets.kunz import KunzVector, from_kunz


def census_fgq(g, q):
    return count_gapsets(CensusQuery(g, depth=q)).count


def test_f_gq3_examples():
    assert f_gq3(12, 6).value == 1
    assert f_gq3(5, 3).value == 2
    assert f_gq3(7, 5) == f_gq3(7, 5)
    assert (f_gq3(7, 5).value, f_gq3(7, 5).branch) == (1, "q=(2g+1)/3")
    assert not f_gq3(1, 1).covered


def test_f_gq4_examples():
    assert (f_gq4(8, 4).value, f_gq4(8, 4).branch) == (6, "q=g/2")
    assert f_gq4(12, 5).value == 8
    assert f_gq4(12, 4).value == 1
    assert f_gq4(11, 5).value == 9
    assert not f_gq4(6, 3).covered  # small genus belongs to the census


def test_f_gq_examples():
    assert f_gq(16, 8).value == 12
    assert f_gq(15, 8).value == 7
    assert f_gq(16, 11).value == 1
    assert f_gq(10, 10).value == 1
    assert f_gq(0, 0).value == 1
    assert f_gq(9, 4).covered is False
    assert f_gq(6, 3).covered is False
    for g, q in ((-1, 3), (5, -1)):
        assert (f_gq(g, q).value, f_gq(g, q).branch) == (None, "outside-domain")


def test_f_gq_depth_two_matches_census():
    from gapsets.sequences import fibonacci

    for g in range(2, 19):
        answer = f_gq(g, 2)
        assert answer.value == fibonacci(g + 1) - 1
        assert answer.value == census_fgq(g, 2)


def test_f_gq_item3_spot_check():
    # at genus 23 the window (2g+4)/5 < q <= (g-1)/2 is exactly q = 11, and
    # the depth window rules out every multiplicity except 4 there
    answer = f_gq(23, 11)
    assert (answer.value, answer.branch) == (17, "item-3")
    for m in range(2, 25):
        w = depth_window(23, m)
        if m != 4 and w.lo <= 11 <= w.hi:
            assert census_fgqm(23, 11, m) == 0
    assert census_fgqm(23, 11, 4) == 17


def test_f_gq_past_the_paper_range():
    # every covered cell with q >= 3 for g = 19..50; the part-count window
    # and the exact-depth pruning make each a small search, so this also
    # checks both
    cells = 0
    for g in range(19, 51):
        for q in range(3, g + 2):
            answer = f_gq(g, q)
            if answer.covered:
                hist = census_histograms(CensusQuery(g, depth=q))[g]
                assert answer.value == sum(hist.values()), (g, q, answer.branch)
                cells += 1
    assert cells == 678


def test_lower_bound_examples():
    assert lower_bound_depth3(0) == 1
    assert lower_bound_depth3(6) == 18
    assert lower_bound_depth3(10) == 135
    with pytest.raises(ValueError, match="^genus must be >= 0, got -1$"):
        lower_bound_depth3(-1)


def test_lower_bound_column():
    assert [lower_bound_depth3(g) for g in range(0, 11)] == [1, 1, 2, 4, 6, 11, 18, 30, 50, 82, 135]


def test_upper_bound_examples():
    assert upper_bound_ng(10, 4, census_hist(10)) == 413
    assert upper_bound_ng(7, 3, census_hist(7)) == 58
    assert upper_bound_ng(5, 2, census_hist(5)) == 16
    with pytest.raises(ValueError, match="^genus must be >= 1, got 0$"):
        upper_bound_ng(0, 2, census_hist(0))
    with pytest.raises(ValueError, match="^M must be >= 2, got 1$"):
        upper_bound_ng(5, 1, census_hist(5))


def test_upper_bound_general_M():
    # beyond the specialized shapes the bound must still dominate the census
    for g in range(1, 13):
        ng = count_gapsets(CensusQuery(g)).count
        for M in (5, 6):
            assert ng <= upper_bound_ng(g, M, census_hist(g))


def test_upper_bound_past_the_largest_multiplicity():
    # a genus-g gapset has multiplicity at most g + 1, so a larger M adds no term
    hist = census_hist(16)
    assert upper_bound_ng(16, 10**12, hist) == upper_bound_ng(16, 17, hist)
    for g in range(1, 17):
        # from M = 2g on, every depth past 1 is counted exactly, so the bound is n_g
        hist = census_hist(g)
        assert upper_bound_ng(g, max(5, 2 * g), hist) == sum(hist.values()) == upper_bound_ng(g, 10**12, hist)


def test_upper_bound_closedN_examples():
    assert upper_bound_ng_closedN(10) == 419
    assert upper_bound_ng_closedN(4) == 11
    with pytest.raises(ValueError):
        upper_bound_ng_closedN(3)


def test_upper_bound_closedN_dominates_census():
    for g in range(4, 19):
        assert upper_bound_ng_closedN(g) >= count_gapsets(CensusQuery(g)).count


def test_depth_window_examples():
    assert depth_window(12, 4) == DepthWindow(4, 6)
    assert depth_window(5, 2) == DepthWindow(5, 5)
    assert depth_window(11, 3) == DepthWindow(6, 8)
    with pytest.raises(ValueError, match="^genus must be >= 1, got 0$"):
        depth_window(0, 3)
    with pytest.raises(ValueError, match="^multiplicity must be >= 2, got 1$"):
        depth_window(5, 1)


def test_depth_window_is_well_formed():
    for g in range(1, 40):
        for m in range(2, 12):
            w = depth_window(g, m)
            assert w.lo <= w.hi


def test_lower_window_edge_is_attained():
    # someone of multiplicity m really has depth ceil(g/(m-1)): the nearly
    # flat coordinate vector witnesses it
    for m in range(2, 9):
        for g in range(m - 1, 21):
            lo = -(-g // (m - 1))
            eps = (m - 1) * lo - g
            coords = (lo,) * (m - 1 - eps) + (lo - 1,) * eps
            witness = from_kunz(KunzVector(m, coords))
            assert witness.depth == lo
            got = classify_gapset(witness.elements)
            assert isinstance(got, GapSet)
            assert got.multiplicity == m and got.genus == g


def test_sandwich_with_census():
    for g in range(0, 16):
        nprime = count_gapsets(CensusQuery(g, max_depth=3)).count
        ng = count_gapsets(CensusQuery(g)).count
        assert lower_bound_depth3(g) <= nprime <= ng
        if g >= 1:
            for M in (2, 3, 4):
                assert ng <= upper_bound_ng(g, M, census_hist(g))
            assert ng <= 1 << (g - 1)
        if g >= 4:
            # the parametrized bounds sit below the trivial one from here on
            for M in (2, 3, 4):
                assert upper_bound_ng(g, M, census_hist(g)) <= 1 << (g - 1)
