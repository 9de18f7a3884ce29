import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsets.core import (
    GapSet,
    GapsetRejection,
    MExtension,
    MExtensionRejection,
    as_elements,
    classify_gapset,
    classify_m_extension,
)


def test_as_elements_sorts_and_validates():
    assert as_elements([7, 1, 4]) == (1, 4, 7)
    assert as_elements([]) == ()
    with pytest.raises(ValueError):
        as_elements([0, 1])
    with pytest.raises(ValueError):
        as_elements([2, 2])
    # the least offender is named, a non-positive one before a repeat
    with pytest.raises(ValueError, match=r"positive integers, got -2$"):
        as_elements([3, 0, 5, 5, -2])
    with pytest.raises(ValueError, match=r"^repeated element 2$"):
        as_elements([4, 2, 7, 4, 2])


def test_rejects_with_smallest_witness():
    verdict = classify_gapset((1, 2, 4, 7, 10))
    assert verdict == GapsetRejection(z=10, x=5, y=5)
    assert str(verdict) == "not a gapset: 10 = 5 + 5 with neither summand in the set"


def test_one_must_belong():
    verdict = classify_gapset((2, 3))
    assert verdict == GapsetRejection(z=2, x=1, y=1)


def test_ordinary_gapsets():
    for g in range(1, 12):
        got = classify_gapset(range(1, g + 1))
        assert isinstance(got, GapSet)
        assert (got.genus, got.multiplicity, got.conductor, got.depth) == (g, g + 1, g + 1, 1)


def test_hyperelliptic_gapsets():
    for g in range(1, 12):
        got = classify_gapset(range(1, 2 * g, 2))
        assert isinstance(got, GapSet)
        assert (got.genus, got.multiplicity, got.conductor, got.depth) == (g, 2, 2 * g, g)


def test_worked_example_invariants():
    got = classify_gapset((1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14))
    assert isinstance(got, GapSet)
    assert got.genus == 11
    assert got.conductor == 15
    assert got.depth == 4
    assert got.multiplicity == 4


def test_empty_set_conventions():
    got = classify_gapset(())
    assert got == GapSet((), genus=0, multiplicity=1, conductor=0, depth=0)


def test_genus_conductor_bounds():
    # non-empty gapsets: depth in [1, g], conductor in [g+1, 2g]
    sets = [(1,), (1, 2), (1, 3), (1, 2, 3), (1, 2, 5), (1, 2, 3, 4, 6, 11)]
    for s in sets:
        got = classify_gapset(s)
        assert isinstance(got, GapSet)
        assert 1 <= got.depth <= got.genus
        assert got.genus + 1 <= got.conductor <= 2 * got.genus


def test_m_extension_accepts():
    ext = classify_m_extension((1, 2, 4, 7, 10), 3)
    assert isinstance(ext, MExtension)
    assert (ext.genus, ext.conductor, ext.depth) == (5, 11, 4)


def test_m_extension_base_interval_only():
    for m in range(2, 9):
        ext = classify_m_extension(range(1, m), m)
        assert isinstance(ext, MExtension)
        assert ext.depth == 1
        assert isinstance(classify_gapset(ext.elements), GapSet)


def test_m_extension_rejections():
    assert classify_m_extension((1, 2, 6), 3) == MExtensionRejection("multiple-of-modulus", 6)
    assert classify_m_extension((1, 4), 3) == MExtensionRejection("missing-base", 2)
    assert classify_m_extension((1, 2, 8), 3) == MExtensionRejection("missing-predecessor", 8)
    with pytest.raises(ValueError):
        classify_m_extension((1,), 1)


def test_extension_but_not_gapset():
    ext = classify_m_extension((1, 2, 4, 7, 10), 3)
    assert isinstance(ext, MExtension)
    assert not isinstance(classify_gapset(ext.elements), GapSet)


def test_gapset_and_extension():
    ext = classify_m_extension((1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14), 4)
    assert isinstance(ext, MExtension)
    assert isinstance(classify_gapset(ext.elements), GapSet)


def test_shallow_extensions_are_gapsets_exhaustive():
    # every m-extension that fits below 2m is a gapset: all subsets of
    # [m+1, 2m-1] glued onto the base interval, for m up to 10
    for m in range(2, 11):
        upper = list(range(m + 1, 2 * m))
        for r in range(len(upper) + 1):
            for extra in itertools.combinations(upper, r):
                ext = classify_m_extension(tuple(range(1, m)) + extra, m)
                assert isinstance(ext, MExtension)
                assert ext.depth <= 2
                assert isinstance(classify_gapset(ext.elements), GapSet)


@given(st.sets(st.integers(min_value=1, max_value=40), max_size=14))
def test_classification_is_deterministic(values):
    frozen = tuple(sorted(values))
    assert classify_gapset(frozen) == classify_gapset(frozen)


@given(st.sets(st.integers(min_value=1, max_value=40), max_size=14))
def test_rejection_witness_is_minimal(values):
    verdict = classify_gapset(tuple(sorted(values)))
    if isinstance(verdict, GapsetRejection):
        assert verdict.x + verdict.y == verdict.z
        assert verdict.x not in values and verdict.y not in values
        # no violating decomposition below the reported one
        for z in sorted(values):
            for x in range(1, z // 2 + 1):
                if x not in values and (z - x) not in values:
                    assert (z, x) == (verdict.z, verdict.x)
                    return
