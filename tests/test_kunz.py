import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsets.core import GapSet, classify_gapset, classify_m_extension
from gapsets.kunz import (
    AperySet,
    KunzVector,
    coords_violation,
    from_kunz,
    kunz_elements,
    kunz_system_violation,
    pseudo_apery,
    pseudo_kunz,
    satisfies_kunz_system,
)
from gapsets.tilings import enumerate_compositions


def ext(values, m):
    out = classify_m_extension(values, m)
    assert hasattr(out, "modulus"), out
    return out


def test_apery_worked_examples():
    assert pseudo_apery(ext((1, 2, 4, 7, 10), 3)) == AperySet(3, (0, 13, 5))
    assert pseudo_apery(ext((1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14), 4)) == AperySet(4, (0, 17, 18, 15))
    for m in range(2, 9):
        assert pseudo_apery(ext(range(1, m), m)) == AperySet(m, tuple([0] + list(range(m + 1, 2 * m))))


def test_kunz_worked_examples():
    assert pseudo_kunz(ext((1, 2, 4, 7, 10), 3)) == KunzVector(3, (4, 1))
    assert pseudo_kunz(ext((1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14), 4)) == KunzVector(4, (4, 4, 3))
    for m in range(2, 9):
        assert pseudo_kunz(ext(range(1, m), m)) == KunzVector(m, (1,) * (m - 1))


def test_from_kunz_worked_examples():
    assert from_kunz(KunzVector(4, (4, 4, 3))).elements == (1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14)
    assert from_kunz(KunzVector(5, (1, 3, 3, 2))).elements == (1, 2, 3, 4, 7, 8, 9, 12, 13)
    for m in range(2, 9):
        assert from_kunz(KunzVector(m, (1,) * (m - 1))).elements == tuple(range(1, m))


def test_kunz_vector_validation():
    with pytest.raises(ValueError, match="^all coordinates must be positive$"):
        KunzVector(3, (1, 0))
    with pytest.raises(ValueError, match="^all coordinates must be positive$"):
        KunzVector(4, (2, -1, 1))
    with pytest.raises(ValueError, match="^expected 2 coordinates for modulus 3, got 3$"):
        KunzVector(3, (1, 1, 1))
    with pytest.raises(ValueError, match="^modulus must be > 1$"):
        KunzVector(1, ())
    with pytest.raises(ValueError, match="^modulus must be > 1$"):
        AperySet(1, (0,))
    for w in [(0, 5), (1, 5, 7)]:
        with pytest.raises(ValueError, match="^w must have one entry per residue, starting with 0$"):
            AperySet(3, w)
    # the census builds its gapsets with kunz_elements alone: it checks the same rule
    for coords in [(0,), (1, 0), (3, -2, 1)]:
        with pytest.raises(ValueError, match="^all coordinates must be positive$"):
            kunz_elements(coords)


def test_system_worked_examples():
    assert satisfies_kunz_system(KunzVector(4, (4, 4, 3)))
    assert kunz_system_violation(KunzVector(5, (1, 3, 3, 2))) == (1, 1)
    assert kunz_system_violation(KunzVector(3, (4, 1))) == (2, 2)


def test_system_middle_pair_generates_no_constraint():
    # i + j equal to the modulus is skipped; a variant that instead wraps
    # to the last coordinate must disagree with the true predicate
    def mutated(coords):
        m = len(coords) + 1
        for i in range(1, m):
            for j in range(i, m):
                s = i + j
                if s < m:
                    if coords[i - 1] + coords[j - 1] < coords[s - 1]:
                        return False
                else:  # wrongly includes s == m via index -1
                    if coords[i - 1] + coords[j - 1] + 1 < coords[s - m - 1]:
                        return False
        return True

    def count(g, check):
        return sum(1 for c in enumerate_compositions(g) if check(c))

    true_counts = [count(g, lambda c: coords_violation(c) is None) for g in (8, 9, 10)]
    assert true_counts == [67, 118, 204]
    mutated_counts = [count(g, mutated) for g in (8, 9, 10)]
    assert mutated_counts != true_counts


def test_round_trip_exhaustive_small():
    for g in range(1, 11):
        for coords in enumerate_compositions(g):
            v = KunzVector(len(coords) + 1, coords)
            a = from_kunz(v)
            assert pseudo_kunz(a) == v
            assert a.genus == sum(coords) == v.genus
            assert a.depth == max(coords) == v.depth


def test_residue_class_structure():
    # elements of each residue class form an initial run i, i+m, ...
    for g in range(1, 10):
        for coords in enumerate_compositions(g):
            a = from_kunz(KunzVector(len(coords) + 1, coords))
            m = a.modulus
            for i, k in enumerate(coords, start=1):
                run = [x for x in a.elements if x % m == i]
                assert run == [i + t * m for t in range(k)]


coords_strategy = st.integers(min_value=2, max_value=8).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(min_value=1, max_value=6), min_size=m - 1, max_size=m - 1),
    )
)


@given(coords_strategy)
def test_round_trip_random(mc):
    m, coords = mc
    v = KunzVector(m, tuple(coords))
    a = from_kunz(v)
    assert pseudo_kunz(a) == v
    assert a.genus == v.genus and a.depth == v.depth


@given(coords_strategy)
def test_kunz_coords_are_residue_maxima(mc):
    # k_i counts residue class i; equivalently (w_i - i) / m for the
    # pseudo-Apery value w_i = m + (largest element of class i)
    m, coords = mc
    a = from_kunz(KunzVector(m, tuple(coords)))
    w = pseudo_apery(a).w
    assert pseudo_kunz(a).coords == tuple((w[i] - i) // m for i in range(1, m))


@given(coords_strategy)
def test_system_agrees_with_direct_classification(mc):
    m, coords = mc
    v = KunzVector(m, tuple(coords))
    assert satisfies_kunz_system(v) == isinstance(classify_gapset(from_kunz(v).elements), GapSet)


def test_cor_33_exhaustive_small_grid():
    # genus/depth formulas over every vector with modulus <= 7, coords <= 4;
    # x is in the set exactly when x is not a multiple of m and x // m < k_(x mod m)
    for m in range(2, 8):
        for coords in itertools.product(range(1, 5), repeat=m - 1):
            runs = tuple(x for x in range(1, m * max(coords)) if x % m and x // m < coords[x % m - 1])
            a = from_kunz(KunzVector(m, coords))
            assert a.elements == kunz_elements(coords) == runs
            assert a.genus == sum(coords)
            assert a.depth == max(coords)
            assert (a.modulus, a.conductor) == (m, runs[-1] + 1)
