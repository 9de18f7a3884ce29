from collections import Counter

import pytest

from gapsets.census import (
    CensusQuery,
    census_histogram,
    count_depth3_family,
    count_gapsets,
    count_gapsets_depth_at_most,
    count_m_extensions,
    enumerate_depth3_family,
)
from gapsets.core import classify_gapset, GapSet
from gapsets.kunz import KunzVector, coords_violation, from_kunz, satisfies_kunz_system
from gapsets.sequences import fibonacci, fibonacci_k, padovan
from gapsets.tilings import enumerate_compositions

NG = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806, 8045, 13467]


def q(g, depth=None, max_depth=None, mult=None):
    return CensusQuery(g, depth=depth, max_depth=max_depth, mult=mult)


def test_headline_counts():
    assert count_gapsets(q(10)).count == 204
    assert count_gapsets(q(10, max_depth=3)).count == 168
    assert count_gapsets(q(12, depth=6, mult=4)).count == 9
    assert count_gapsets(q(18, depth=4)).count == 1739


def test_genus_zero_conventions():
    assert count_gapsets(q(0)).count == 1
    assert count_gapsets(q(0, depth=0)).count == 1
    assert count_gapsets(q(0, depth=1)).count == 0
    assert count_gapsets(q(0, max_depth=5)).count == 1
    assert count_gapsets(q(0, mult=2)).count == 0


def test_query_validation():
    with pytest.raises(ValueError):
        CensusQuery(-1)
    with pytest.raises(ValueError):
        CensusQuery(4, depth=2, max_depth=3)
    with pytest.raises(ValueError):
        CensusQuery(4, mult=1)
    with pytest.raises(OverflowError):
        count_gapsets(CensusQuery(64))


def test_m_extension_counts():
    assert count_m_extensions(1) == 1
    assert count_m_extensions(8) == 128
    assert count_m_extensions(20) == 524288
    with pytest.raises(ValueError):
        count_m_extensions(0)
    with pytest.raises(OverflowError):
        count_m_extensions(64)


def test_depth_at_most():
    assert count_gapsets_depth_at_most(9, 2) == 55  # Fibonacci(10)
    assert count_gapsets_depth_at_most(4, 2) == 5
    assert count_gapsets_depth_at_most(18, 3) == 11116
    assert count_gapsets_depth_at_most(0, 0) == 1
    assert count_gapsets_depth_at_most(3, 0) == 0


def test_depth_two_census_is_fibonacci():
    for g in range(0, 15):
        assert count_gapsets_depth_at_most(g, 2) == fibonacci(g + 1)


def test_depth_bounded_census_below_k_step_fibonacci():
    for g in range(1, 19):
        hist = Counter()
        for c in enumerate_compositions(g):
            if coords_violation(c) is None:
                hist[max(c)] += 1
        running = 0
        for k in range(1, g + 1):
            running += hist[k]
            if k >= 2:
                assert running <= fibonacci_k(k, g + 1)
            if g <= 12:
                assert count_gapsets_depth_at_most(g, k) == running


def test_partition_consistency():
    # depth counts partition the census; (depth, mult) counts refine it
    for g in range(1, 15):
        by_depth = Counter()
        by_depth_mult = Counter()
        for c in enumerate_compositions(g):
            if coords_violation(c) is None:
                by_depth[max(c)] += 1
                by_depth_mult[(max(c), len(c) + 1)] += 1
        assert sum(by_depth.values()) == NG[g]
        assert sum(by_depth.values()) == count_gapsets(q(g)).count
        assert census_histogram(g) == by_depth_mult
        for depth, n in by_depth.items():
            assert count_gapsets(q(g, depth=depth)).count == n
            assert sum(v for (d, _), v in by_depth_mult.items() if d == depth) == n
        for (depth, mult), n in by_depth_mult.items():
            assert count_gapsets(q(g, depth=depth, mult=mult)).count == n
        for max_depth in range(0, g + 1):
            for mult in range(2, g + 2):
                n = sum(v for (d, m), v in by_depth_mult.items() if d <= max_depth and m == mult)
                assert count_gapsets(q(g, max_depth=max_depth, mult=mult)).count == n


def test_no_gapsets_between_two_thirds_and_genus():
    for g in range(6, 19):
        lo = -(-2 * g // 3) + 1
        for depth in range(lo, g):
            assert count_gapsets(q(g, depth=depth)).count == 0


def test_depth_window_over_census():
    for g in range(1, 15):
        for c in enumerate_compositions(g):
            if coords_violation(c) is None:
                m = len(c) + 1
                depth = max(c)
                assert -(-g // (m - 1)) <= depth <= -(-2 * g // m)


def test_sharded_equals_unsharded():
    for g in (9, 12, 14):
        assert count_gapsets(q(g), jobs=2).count == count_gapsets(q(g)).count
        assert census_histogram(g, jobs=2) == census_histogram(g)
    assert census_histogram(14, max_depth=5, mult=5, jobs=2) == census_histogram(14, max_depth=5, mult=5)
    r = count_gapsets(q(13), jobs=3)
    assert r.count == NG[13]
    assert r.shards == 13


def test_pool_never_larger_than_the_shard_count(monkeypatch):
    from gapsets import census

    asked = []

    class InProcessPool:  # records the pool size; starts no process
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    expected = census_histogram(10, jobs=1)
    monkeypatch.setattr(census, "ProcessPoolExecutor", InProcessPool)
    assert census_histogram(10, jobs=10_000) == expected
    assert len(asked) == 1 and 1 <= asked[0] <= len(census._shard_firsts(10, 10, None, 10_000))


def test_collect_matches_count_and_order():
    res = count_gapsets(q(7), collect=True)
    assert res.count == len(res.items) == NG[7]
    assert all(isinstance(item, GapSet) for item in res.items)
    # every item independently verified by the definitional check
    for item in res.items:
        assert classify_gapset(item.elements) == item
    res0 = count_gapsets(q(0), collect=True)
    assert res0.items == (GapSet((), 0, 1, 0, 0),)
    # under every filter, the items are the brute-force filtered walk in its order
    for g in range(1, 13):
        walk = [c for c in enumerate_compositions(g) if coords_violation(c) is None]
        sets = {c: from_kunz(KunzVector(len(c) + 1, c)).elements for c in walk}
        depth_filters = [(None, None)] + [(k, None) for k in range(0, g + 1)] + [
            (None, k) for k in range(0, g + 1)
        ]
        for depth, max_depth in depth_filters:
            for mult in [None] + list(range(2, g + 2)):
                want = [
                    sets[c]
                    for c in walk
                    if (depth is None or max(c) == depth)
                    and (max_depth is None or max(c) <= max_depth)
                    and (mult is None or len(c) + 1 == mult)
                ]
                res = count_gapsets(q(g, depth, max_depth, mult), collect=True)
                assert [item.elements for item in res.items] == want


def test_depth3_family_examples():
    assert count_depth3_family(3) == 1
    assert [v.coords for v in enumerate_depth3_family(3)] == [(3,)]
    assert count_depth3_family(6) == 5
    assert count_depth3_family(10) + fibonacci(11) == 135


def test_depth3_family_members_are_depth3_gapsets():
    for g in range(3, 16):
        count = 0
        seen = set()
        for v in enumerate_depth3_family(g):
            count += 1
            assert v.coords not in seen
            seen.add(v.coords)
            assert v.genus == g
            assert v.depth == 3
            assert satisfies_kunz_system(v)
        assert count == count_depth3_family(g)


def test_depth3_family_identity():
    for g in range(0, 19):
        assert count_depth3_family(g) + fibonacci(g + 1) == fibonacci(g + 2) - padovan(g + 1)
        assert count_depth3_family(g) + fibonacci(g + 1) <= count_gapsets_depth_at_most(g, 3)
