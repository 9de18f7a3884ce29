import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsets.core import classify_m_extension
from gapsets.tilings import (
    compositions_fixed_parts,
    count_compositions,
    enumerate_compositions,
    format_composition,
    sigma,
    sigma_inverse,
)


def test_stream_of_three():
    assert list(enumerate_compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]


def test_stream_counts():
    assert sum(1 for _ in enumerate_compositions(5)) == 16
    assert sum(1 for _ in enumerate_compositions(5, max_part=2)) == 8


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_compositions(0))
    with pytest.raises(ValueError):
        list(enumerate_compositions(-2))
    with pytest.raises(ValueError):
        list(enumerate_compositions(4, max_part=0))
    # the fixed-part stream rejects the same boards and part bounds, with the same message
    for g, max_part in [(0, None), (-2, None), (5, 0), (5, -1)]:
        with pytest.raises(ValueError) as full:
            list(enumerate_compositions(g, max_part=max_part))
        with pytest.raises(ValueError) as fixed:
            list(compositions_fixed_parts(g, 1, max_part=max_part))
        assert str(fixed.value) == str(full.value)
    for parts in (0, -1):
        with pytest.raises(ValueError, match="part count must be >= 1"):
            list(compositions_fixed_parts(5, parts))


def test_lexicographic_and_exact():
    for g in range(1, 11):
        for k in (None, 2, 3, g):
            stream = list(enumerate_compositions(g, k))
            assert stream == sorted(stream)
            assert len(stream) == len(set(stream))
            bound = g if k is None else k
            for c in stream:
                assert sum(c) == g and all(1 <= p <= bound for p in c)


def test_count_matches_stream():
    for g in range(1, 13):
        for k in (None, 2, 3, 5):
            stream = list(enumerate_compositions(g, k))
            for v in [None] + list(range(-1, g + 3)):  # every first part, in range or not
                assert count_compositions(g, k, v) == sum(1 for c in stream if v is None or c[0] == v)


def test_fixed_parts():
    assert list(compositions_fixed_parts(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions_fixed_parts(5, 3, max_part=2)) == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
    for g in range(1, 10):
        by_parts = sum(len(list(compositions_fixed_parts(g, p))) for p in range(1, g + 1))
        assert by_parts == 1 << (g - 1)


def test_streams_past_the_recursion_limit():
    g = 3000  # deeper than CPython's default recursion limit
    assert list(compositions_fixed_parts(g, g)) == [(1,) * g]
    assert next(enumerate_compositions(g)) == (1,) * g


def test_sigma_worked_examples():
    a = classify_m_extension((1, 2, 4, 7, 10), 3)
    assert sigma(a) == (4, 1)
    b = classify_m_extension((1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14), 4)
    assert sigma(b) == (4, 4, 3)
    for g in range(1, 8):
        ordinary = classify_m_extension(range(1, g + 1), g + 1)
        assert sigma(ordinary) == (1,) * g


def test_sigma_inverse_worked_examples():
    assert sigma_inverse((4, 1)).elements == (1, 2, 4, 7, 10)
    assert sigma_inverse((1, 3, 3, 2)).elements == (1, 2, 3, 4, 7, 8, 9, 12, 13)
    for g in range(1, 10):
        hyper = sigma_inverse((g,))
        assert hyper.elements == tuple(range(1, 2 * g, 2))
        assert hyper.modulus == 2


def test_invariant_dictionary():
    # board size = genus, parts + 1 = modulus, largest part = depth
    for g in range(1, 11):
        for c in enumerate_compositions(g):
            a = sigma_inverse(c)
            assert a.genus == g
            assert a.modulus == len(c) + 1
            assert a.depth == max(c)
            assert sigma(a) == c


def test_doubling_identity():
    # with a(g) = 2**(g-1): 4(a(g) + a(g+1)) = 3 a(g+2), exactly
    for g in range(1, 61):
        a_g, a_g1, a_g2 = 1 << (g - 1), 1 << g, 1 << (g + 1)
        assert 4 * (a_g + a_g1) == 3 * a_g2


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=10))
def test_round_trip_random(parts):
    c = tuple(parts)
    assert sigma(sigma_inverse(c)) == c


def test_composition_text_format():
    assert format_composition((4, 1)) == "(4,1)"
