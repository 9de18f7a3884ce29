import os
import select
from collections import Counter
from itertools import count

import pytest

from gapsets.census import (
    CensusQuery,
    census_coords,
    census_histograms,
    count_gapsets,
    count_gapsets_depth_at_most,
)
from gapsets.core import classify_gapset, GapSet
from gapsets.formulas import lower_bound_depth3
from gapsets.kunz import coords_violation, kunz_elements, satisfies_kunz_system
from gapsets.sequences import fibonacci, fibonacci_k, padovan
from gapsets.tilings import enumerate_compositions, enumerate_depth3_family

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
    with pytest.raises(TypeError):
        CensusQuery(5.0)
    for bad in ({"genus": None}, {"genus": 5, "depth": 2.0}, {"genus": 5, "mult": "3"}):
        with pytest.raises(TypeError):
            CensusQuery(**bad)
    with pytest.raises(OverflowError):
        count_gapsets(CensusQuery(64))
    for low in (-1, 5):
        with pytest.raises(ValueError):
            census_histograms(CensusQuery(4), low=low)


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
        assert census_histograms(q(g))[g] == by_depth_mult
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


def test_no_gapsets_of_a_multiplicity_the_depth_rules_out():
    # depth <= ceil(2g/m): depth 25 at g = 60 needs m <= 5, depth 12 at g = 30 needs m <= 6
    assert count_gapsets(q(60, depth=25, mult=6)).count == 0
    assert count_gapsets(q(30, depth=12, mult=8)).count == 0


def test_an_empty_window_forks_nothing(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    for query in (q(30, depth=12, mult=8), q(12, depth=30)):  # the depth rules every multiplicity out
        r = count_gapsets(query, jobs=2)
        assert (r.count, r.shards) == (0, 1), query


def test_depth_window_over_census():
    for g in range(1, 15):
        for c in enumerate_compositions(g):
            if coords_violation(c) is None:
                m = len(c) + 1
                depth = max(c)
                assert -(-g // (m - 1)) <= depth <= -(-2 * g // m)


def one_pass_filters(G):
    """The filters the one-pass histograms are checked under."""
    return [{}, {"max_depth": 4}, {"depth": 5}, {"mult": 4}, {"mult": G // 2 + 1}]


def test_sharded_equals_unsharded():
    for g in (9, 12, 14):
        assert count_gapsets(q(g), jobs=2).count == count_gapsets(q(g)).count
        assert census_histograms(q(g), jobs=2)[g] == census_histograms(q(g))[g]
    assert census_histograms(q(14, max_depth=5, mult=5), jobs=2)[14] == census_histograms(q(14, max_depth=5, mult=5))[14]
    for f in one_pass_filters(16) + [{"depth": 4, "mult": 5}]:  # every genus from 0, the empty gapset's shard included
        whole = census_histograms(q(16, **f), low=0)
        for jobs in (2, 3):
            assert census_histograms(q(16, **f), jobs=jobs, low=0) == whole, (f, jobs)
    r = count_gapsets(q(13), jobs=3)
    assert r.count == NG[13]
    assert r.shards == 13


def test_shards_run_in_process_without_fork(monkeypatch):
    expected = {f"{f}": census_histograms(q(14, **f), low=0) for f in one_pass_filters(14)}
    from gapsets import census

    monkeypatch.delattr(os, "fork")  # a platform without fork: any fork would raise AttributeError
    entered = []
    real_shards = census._census_shards
    monkeypatch.setattr(census, "_census_shards", lambda *args: entered.append(args) or real_shards(*args))
    for f in one_pass_filters(14):
        assert census_histograms(q(14, **f), jobs=3, low=0) == expected[f"{f}"], f
    assert entered == []  # each search ran whole
    assert count_gapsets(q(13), jobs=3).shards == 1
    assert_no_child_left()


def test_one_pass_equals_the_per_genus_loop():
    exact = [{"depth": d, **m} for d in range(15) for m in ({}, {"mult": 3}, {"mult": 4})]  # each is pruned
    for G, filters in ((12, one_pass_filters(12)), (16, one_pass_filters(16)), (14, exact)):
        for f in filters:
            per_genus = {g: census_histograms(q(g, **f))[g] for g in range(G + 1)}
            assert census_histograms(q(G, **f), low=0) == per_genus, (G, f)
    for f in ({"depth": 5}, {"depth": 4, "mult": 4}):
        assert census_histograms(q(14, **f), jobs=2, low=0) == census_histograms(q(14, **f), low=0), f


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # waitpid finds no child at all, running or unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """`os.fork` wrapped to record, in this process, the pid of every child
    it starts."""
    started = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return started


def test_forks_never_outnumber_the_shards(forks):
    from gapsets import census

    expected = census_histograms(q(10), jobs=1)[10]
    assert forks == []
    assert census_histograms(q(10), jobs=10_000)[10] == expected
    assert len(forks) == len(census._shard_firsts(q(10), 10_000)) - 1  # the caller counts too
    assert_no_child_left()


def test_one_fork_group_per_command(forks, monkeypatch, capsys):
    from gapsets import census
    from gapsets.cli import main

    groups = []
    real_shards = census._census_shards

    def shards(*args):
        groups.append(len(forks))
        return real_shards(*args)

    monkeypatch.setattr(census, "_census_shards", shards)
    for argv in (["table", "--which", "t1", "--gmax", "12", "--jobs", "2"], ["oeis", "--gmax", "12", "--jobs", "2"]):
        forks.clear()
        groups.clear()
        assert main(argv) == 0
        assert groups == [0] and len(forks) == 1, argv  # one sharded census, which forked one child
    capsys.readouterr()
    assert_no_child_left()


@pytest.fixture
def failing_census(monkeypatch):
    """Makes `_census` raise in this process (`"parent"`) or only in its
    forked children (`"child"`).  The other side holds its first shard
    until the failing side has taken one, then counts as usual.  Returns
    the signalling pipe, for the test to close."""
    from gapsets import census

    real_census = census._census
    parent = os.getpid()

    def make(where, error=RuntimeError):
        failed_r, failed_w = os.pipe()

        def fake(*args, **kwargs):
            if (os.getpid() == parent) == (where == "parent"):
                os.write(failed_w, b"!")
                raise error("injected census failure")
            ready, _, _ = select.select([failed_r], [], [], 10)
            if not ready:
                raise TimeoutError("the failing side took no shard")
            return real_census(*args, **kwargs)

        monkeypatch.setattr(census, "_census", fake)
        return failed_r, failed_w

    return make


def test_a_failing_child_raises_and_every_child_is_reaped(failing_census, capfd):
    fds = failing_census("child")
    try:
        with pytest.raises(ChildProcessError, match="exited with status 1"):
            census_histograms(q(12), jobs=2)
    finally:
        for fd in fds:
            os.close(fd)
    assert "injected census failure" in capfd.readouterr().err  # the child's traceback
    assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_failing_parent_kills_and_reaps_every_child(failing_census, error):
    fds = failing_census("parent", error)
    try:
        with pytest.raises(error, match="injected census failure"):
            census_histograms(q(12), jobs=3)
    finally:
        for fd in fds:
            os.close(fd)
    assert_no_child_left()


def test_collect_matches_count_and_order():
    # every gapset built from its coordinates, each field, independently verified by the definitional check
    for g in range(13):
        coords = census_coords(q(g))
        assert len(coords) == NG[g]
        for k in coords:
            item = classify_gapset(kunz_elements(k))
            assert isinstance(item, GapSet) and item.genus == g
            assert (item.multiplicity, item.depth) == (len(k) + 1, max(k, default=0))
    assert census_coords(q(0)) == [()] and classify_gapset(kunz_elements(())) == GapSet((), 0, 1, 0, 0)
    # under every filter, the coordinates are the brute-force filtered walk in its order
    for g in range(1, 13):
        walk = [c for c in enumerate_compositions(g) if coords_violation(c) is None]
        depth_filters = [(None, None)] + [(k, None) for k in range(0, g + 1)] + [
            (None, k) for k in range(0, g + 1)
        ]
        for depth, max_depth in depth_filters:
            for mult in [None] + list(range(2, g + 2)):
                want = [
                    c
                    for c in walk
                    if (depth is None or max(c) == depth)
                    and (max_depth is None or max(c) <= max_depth)
                    and (mult is None or len(c) + 1 == mult)
                ]
                assert census_coords(q(g, depth, max_depth, mult)) == want


def family_size(g):
    """The depth-3 family's size as the paper states it: the depth <= 3
    lower bound less the F(g+1) gapsets of depth <= 2."""
    return lower_bound_depth3(g) - fibonacci(g + 1)


def test_depth3_family_examples():
    assert family_size(3) == 1
    assert [v.coords for v in enumerate_depth3_family(3)] == [(3,)]
    assert sum(1 for _ in enumerate_depth3_family(6)) == family_size(6) == 5
    assert sum(1 for _ in enumerate_depth3_family(10)) + fibonacci(11) == 135


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
        assert count == family_size(g)


def test_depth3_family_identity():
    for g in range(0, 19):
        size = sum(1 for _ in enumerate_depth3_family(g))
        assert size + fibonacci(g + 1) == fibonacci(g + 2) - padovan(g + 1)
        assert size + fibonacci(g + 1) <= count_gapsets_depth_at_most(g, 3)


def test_filtered_histogram_is_the_selected_cells():
    for g in range(0, 13):
        full = census_histograms(q(g))[g]
        queries = [q(g, depth=d) for d in range(0, g + 1)] + [
            q(g, max_depth=d, mult=m) for d in range(0, g + 1) for m in (None, 2, 3, 4, g + 2)
        ]
        for query in queries:
            want = Counter({cell: n for cell, n in full.items() if query.selects(*cell)})
            assert census_histograms(query)[g] == want, query


def test_every_filter_at_either_end_of_low():
    # the tally's axes fit every window, those that rule every multiplicity out or hold one part included
    full = census_histograms(q(10), low=0)
    for g in range(11):
        depth_filters = [{}] + [{name: d} for name in ("depth", "max_depth") for d in range(g + 2)]
        for f in depth_filters:
            for mult in [None, *range(2, g + 3)]:
                query = q(g, mult=mult, **f)
                want = {h: Counter({c: n for c, n in full[h].items() if query.selects(*c)}) for h in range(g + 1)}
                assert census_histograms(query, low=0) == want, query
                assert census_histograms(query, low=g) == {g: want[g]}, query
    assert census_histograms(q(10, max_depth=10**9), low=0) == full  # the depth axis stops at the genus


def test_mult_histograms_are_the_selected_cells():
    # a multiplicity m caps every coordinate at ceil(2G/m), the depth bound at genus G
    full = census_histograms(q(18), low=0)
    for G in range(0, 19):
        for m in range(2, G + 2):
            for g, hist in census_histograms(q(G, mult=m), low=0).items():
                assert hist == Counter({(d, k): n for (d, k), n in full[g].items() if k == m}), (G, m, g)


def semigroup_tree_histograms(gmax):
    """(depth, multiplicity) histograms by genus from the tree of numerical
    semigroups: a node's children remove one of its minimal generators
    above its Frobenius number.  No Kunz coordinates, no compositions."""
    hists = [Counter() for _ in range(gmax + 1)]

    def grow(gaps, frobenius):
        m = next(s for s in count(1) if s not in gaps)
        conductor = frobenius + 1
        hists[len(gaps)][-(-conductor // m), m] += 1
        if len(gaps) == gmax:
            return
        # a generator is at most conductor + m - 1; x > frobenius lies in S
        for x in range(max(frobenius + 1, 1), conductor + m + 1):
            if all(a in gaps or x - a in gaps for a in range(1, x // 2 + 1)):
                grow(gaps | {x}, x)

    grow(frozenset(), -1)
    return hists


def test_semigroup_tree_agrees_with_the_census():
    tree = semigroup_tree_histograms(16)
    for g, hist in enumerate(tree):
        assert +hist == census_histograms(q(g))[g], g
        # the depth and multiplicity filters, each pruning the search its own way
        shapes = [q(g, max_depth=3), q(g, max_depth=4), q(g, mult=max(2, g // 2 + 1))]
        for f in shapes + [q(g, depth=d) for d in range(g + 1)]:
            assert sum(census_histograms(f)[g].values()) == f.count_in(hist), f
    assert census_histograms(q(16), low=0) == {g: +hist for g, hist in enumerate(tree)}
    # one filtered pass from genus 0, whose last two levels are counted in place, cell by cell
    for f in one_pass_filters(16):
        query = q(16, **f)
        want = {g: Counter({c: n for c, n in hist.items() if query.selects(*c)}) for g, hist in enumerate(tree)}
        assert census_histograms(query, low=0) == want, f
