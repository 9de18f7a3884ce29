import errno
import os
import select
import signal
from collections import Counter
from operator import add

import pytest

from census_oracles import N_G, composition_histograms, semigroup_tree_histograms
from gapsets.census import CensusQuery, census_coords, census_histograms, count_gapsets
from gapsets.cli import count_gapsets_depth_at_most
from gapsets.core import classify_gapset, GapSet
from gapsets.formulas import lower_bound_depth3
from gapsets.kunz import coords_violation, kunz_elements, satisfies_kunz_system
from gapsets.sequences import fibonacci, fibonacci_k, padovan
from gapsets.tilings import enumerate_compositions, enumerate_depth3_family


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
    for bad in ({"depth": -1}, {"max_depth": -1}):
        with pytest.raises(ValueError, match="depth filter must be >= 0, got -1"):
            CensusQuery(5, **bad)
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
    # no command calls it, yet the benchmark's tracer wraps it: it must still count
    assert count_gapsets_depth_at_most(9, 2) == 55  # Fibonacci(10)
    assert count_gapsets_depth_at_most(4, 2) == 5
    assert count_gapsets_depth_at_most(18, 3) == 11116
    assert count_gapsets_depth_at_most(0, 0) == 1
    assert count_gapsets_depth_at_most(3, 0) == 0


def test_depth_two_census_is_fibonacci():
    for g in range(0, 15):
        assert count_gapsets(q(g, max_depth=2)).count == fibonacci(g + 1)


def test_depth_bounded_census_below_k_step_fibonacci():
    walk = composition_histograms(18)
    for g in range(1, 19):
        for k in range(1, g + 1):
            running = sum(n for (depth, _), n in walk[g].items() if depth <= k)
            if k >= 2:
                assert running <= fibonacci_k(k, g + 1)
            if g <= 12:
                assert count_gapsets(q(g, max_depth=k)).count == running


def test_partition_consistency():
    # depth counts partition the census; (depth, mult) counts refine it
    walk = composition_histograms(18)
    for g in range(1, 15):
        by_depth_mult = walk[g]
        by_depth = Counter()
        for (depth, _), n in by_depth_mult.items():
            by_depth[depth] += n
        assert sum(by_depth.values()) == N_G[g]
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


def test_a_multiplicity_above_the_genus_plus_one_searches_nothing(capsys):
    # no gapset of genus G has more than G parts: the window is empty, and the tally's modulus axis stays small
    from gapsets import census
    from gapsets.cli import main

    query = q(5, mult=10**9)
    assert census._search_bounds(query)[4] <= 5 + 3
    assert count_gapsets(query).count == 0
    assert census_histograms(query, low=0) == {g: Counter() for g in range(6)}
    assert census_coords(query) == []
    assert main(["count", "--genus", "5", "--mult", "1000000000"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_an_empty_window_forks_nothing(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    for query in (q(30, depth=12, mult=8), q(12, depth=30)):  # the depth rules every multiplicity out
        r = count_gapsets(query, jobs=2)
        assert (r.count, r.shards) == (0, 1), query


def test_depth_window_over_census():
    walk = composition_histograms(18)
    for g in range(1, 15):
        for depth, m in walk[g]:
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
    assert r.count == N_G[13]
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
    assert len(forks) == census._shards(q(10), 10_000) - 1  # the caller counts too
    assert_no_child_left()
    forks.clear()
    r = count_gapsets(q(63, mult=2), jobs=2)  # shards k_1 = 1..63: the pipe's largest byte is MAX_GENUS
    assert (r.count, r.shards, len(forks)) == (1, 63, 1)
    assert_no_child_left()


def test_shard_walks_add_up_to_the_whole_walk():
    # any order and any split of the first coordinates counts each cell once; the empty gapset goes with shard 1
    from gapsets.census import _census

    for f in ({}, {"max_depth": 4}, {"depth": 5}, {"mult": 4}):
        for low in (0, 14):
            query = q(14, **f)
            whole = _census(query, low)
            assert _census(query, low, range(1, 15)) == whole, (f, low)
            assert _census(query, low, reversed(range(1, 15))) == whole, (f, low)
            odd, even = _census(query, low, range(1, 15, 2)), _census(query, low, range(2, 15, 2))
            assert list(map(add, odd, even)) == whole, (f, low)
            if low == 0:  # cell (0, 0, 1): the empty gapset only
                assert (odd[1], even[1]) == (1, 0), f


def test_one_census_walk_per_process(forks, monkeypatch):
    from gapsets import census

    calls = []
    real_census = census._census
    monkeypatch.setattr(census, "_census", lambda *args: calls.append(os.getpid()) or real_census(*args))
    assert count_gapsets(q(14), jobs=3).count == N_G[14]
    assert calls == [os.getpid()] and len(forks) == 2  # every shard this process took, in one walk
    assert_no_child_left()


def test_one_pipe_per_census(forks, monkeypatch):
    pipes = []
    real_pipe = os.pipe
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(None) or real_pipe())
    assert count_gapsets(q(14), jobs=3).count == N_G[14]
    assert (len(pipes), len(forks)) == (1, 2)  # the tasks pipe only: the children's tallies come back through shared memory
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
    """Makes `_census` fail in this process (`"parent"`) or only in its
    forked children (`"child"`): the failing side hands its true tally to
    `fail`, which raises, kills its process or returns a tally of its own.
    Each process makes one `_census` call, so the other side holds its walk
    until the failing side has started its own, then counts as usual.
    Returns the signalling pipe, for the test to close."""
    from gapsets import census

    real_census = census._census
    parent = os.getpid()

    def make(where, fail):
        failed_r, failed_w = os.pipe()

        def fake(*args, **kwargs):
            if (os.getpid() == parent) == (where == "parent"):
                os.write(failed_w, b"!")
                return fail(real_census(*args, **kwargs))
            ready, _, _ = select.select([failed_r], [], [], 10)
            if not ready:
                raise TimeoutError("the failing side started no walk")
            return real_census(*args, **kwargs)

        monkeypatch.setattr(census, "_census", fake)
        return failed_r, failed_w

    return make


def raising(error):
    def fail(tally):
        raise error("injected census failure")

    return fail


def killed(tally):
    os.kill(os.getpid(), signal.SIGKILL)


def too_wide(tally):  # a count no 64-bit cell holds
    return [2**63] + tally[1:]


def test_a_failing_child_raises_and_every_child_is_reaped(failing_census, capfd):
    from gapsets.cli import main

    for fail, message, printed in (
        (raising(RuntimeError), "exited with status 1", "injected census failure"),  # the child's traceback
        (killed, "was killed by signal 9", ""),
        (too_wide, "exited with status 1", "OverflowError"),  # failed loudly, not truncated
    ):
        before = open_fds()
        fds = failing_census("child", fail)
        try:
            with pytest.raises(ChildProcessError, match=message):
                census_histograms(q(12), jobs=2)
        finally:
            for fd in fds:
                os.close(fd)
        err = capfd.readouterr().err
        assert printed in err and ("Traceback" in err) == bool(printed), message
        assert_no_child_left()
        fds = failing_census("child", fail)
        try:  # on the command line: ChildProcessError is an OSError, so exit 2 with no result printed
            assert main(["count", "--genus", "12", "--jobs", "2"]) == 2
        finally:
            for fd in fds:
                os.close(fd)
        out, err = capfd.readouterr()
        assert out == "" and "error: census shard worker" in err and message in err, message
        assert_no_child_left()
        assert open_fds() == before


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_failing_parent_kills_and_reaps_every_child(failing_census, error):
    fds = failing_census("parent", raising(error))
    try:
        with pytest.raises(error, match="injected census failure"):
            census_histograms(q(12), jobs=3)
    finally:
        for fd in fds:
            os.close(fd)
    assert_no_child_left()


def open_fds():
    return set(os.listdir("/dev/fd"))


def test_a_failed_fork_closes_its_pipe_and_reaps_every_child(monkeypatch, capsys):
    from gapsets.cli import main

    real_fork = os.fork
    calls = []

    def fork():  # the second fork of each census fails, after the first started a child
        calls.append(None)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, "injected fork failure")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    before = open_fds()
    with pytest.raises(OSError) as failed:
        census_histograms(q(14), jobs=3)
    assert failed.value.errno == errno.EAGAIN and len(calls) == 2
    assert_no_child_left()
    assert open_fds() == before
    calls.clear()
    assert main(["count", "--genus", "14", "--jobs", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "injected fork failure" in err
    assert_no_child_left()
    assert open_fds() == before


def test_collect_matches_count_and_order():
    # every gapset built from its coordinates, each field, independently verified by the definitional check
    for g in range(13):
        coords = census_coords(q(g))
        assert len(coords) == N_G[g]
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
    # past the brute-force range: the coordinates are the gapsets the histograms count, each once, in walk order
    for g in range(13, 17):
        for f in one_pass_filters(g) + [{"depth": d} for d in range(g + 1)]:
            coords = census_coords(q(g, **f))
            assert Counter((max(c, default=0), len(c) + 1) for c in coords) == census_histograms(q(g, **f))[g], (g, f)
            assert all(a < b for a, b in zip(coords, coords[1:])), (g, f)


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
        assert size + fibonacci(g + 1) <= count_gapsets(q(g, max_depth=3)).count


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
    # the tally's axes fit every window, those that rule every multiplicity out or hold one part included;
    # the lows G - 3 to G - 1 split the tails a node three genus short counts in place
    full = census_histograms(q(10), low=0)
    for g in range(11):
        depth_filters = [{}] + [{name: d} for name in ("depth", "max_depth") for d in range(g + 2)]
        for f in depth_filters:
            for mult in [None, *range(2, g + 3)]:
                query = q(g, mult=mult, **f)
                want = {h: Counter({c: n for c, n in full[h].items() if query.selects(*c)}) for h in range(g + 1)}
                for low in sorted({0, *range(max(g - 3, 0), g + 1)}):
                    assert census_histograms(query, low=low) == {h: want[h] for h in range(low, g + 1)}, (query, low)
    assert census_histograms(q(10, max_depth=10**9), low=0) == full  # the depth axis stops at the genus


def test_mult_histograms_are_the_selected_cells():
    # a multiplicity m caps every coordinate at ceil(2G/m), the depth bound at genus G
    full = census_histograms(q(20), low=0)
    for G in range(0, 21):
        for m in range(2, G + 2):
            for g, hist in census_histograms(q(G, mult=m), low=0).items():
                assert hist == Counter({(d, k): n for (d, k), n in full[g].items() if k == m}), (G, m, g)


def test_semigroup_tree_agrees_with_the_census():
    tree = semigroup_tree_histograms(16)
    for g, hist in enumerate(tree):
        assert +hist == census_histograms(q(g))[g], g
        # the depth and multiplicity filters, each pruning the search its own way
        shapes = [q(g, max_depth=3), q(g, max_depth=4), q(g, mult=max(2, g // 2 + 1))]
        for f in shapes + [q(g, depth=d) for d in range(g + 1)]:
            assert sum(census_histograms(f)[g].values()) == sum(n for c, n in hist.items() if f.selects(*c)), f
    assert census_histograms(q(16), low=0) == {g: +hist for g, hist in enumerate(tree)}
    # one filtered pass from genus 0, whose last three levels are counted in place, cell by cell
    for f in one_pass_filters(16):
        query = q(16, **f)
        want = {g: Counter({c: n for c, n in hist.items() if query.selects(*c)}) for g, hist in enumerate(tree)}
        assert census_histograms(query, low=0) == want, f


def test_semigroup_tree_agrees_with_every_small_multiplicity_cell_to_genus_63():
    # the tree cut at multiplicity 5 visits only those semigroups (about 0.6 s)
    tree = semigroup_tree_histograms(63, max_mult=5)
    for m in range(2, 6):
        hists = census_histograms(q(63, mult=m), low=0)
        for g, hist in enumerate(tree):
            assert hists[g] == Counter({c: n for c, n in hist.items() if c[1] == m}), (g, m)
    # one-genus runs, where `low` prunes the search
    for g, m in [(63, 5), (63, 2), (50, 4), (41, 3), (37, 5)]:
        assert census_histograms(q(g, mult=m)) == {g: Counter({c: n for c, n in tree[g].items() if c[1] == m})}


def test_the_last_coordinate_paired_with_itself_bounds_it_from_below():
    # (4, 8, 3) fails only the wrap-around pair (3, 3): k_2 = 8 > 2 k_3 + 1
    assert coords_violation((4, 8, 3)) == (3, 3) and sum((4, 8, 3)) == 15
    assert coords_violation((4, 8, 4)) is None
    for mult in (4, None):
        assert (4, 8, 3) not in census_coords(q(15, mult=mult))
        assert (4, 8, 4) in census_coords(q(16, mult=mult))


def test_each_tail_of_a_node_three_genus_short_has_its_own_check():
    # each vector fails one check of one tail that a node of genus G - 3 counts in place: a forward pair
    # 1 + 1 rules out (3), and a wrap-around pair (2,1), (1,1,1) or (1,2); a one-part window grows them instead
    for v, pair in [((1, 3), (1, 1)), ((4, 1, 2, 1), (2, 4)), ((4, 1, 1, 1), (2, 4)), ((4, 1, 1, 2), (3, 3))]:
        assert coords_violation(v) == pair
        for mult in (None, len(v) + 1):
            assert v not in census_coords(q(sum(v), mult=mult)), (v, mult)


def failing_pairs(c):
    """Every pair (i, j), i <= j, of the Kunz system that the coordinates c fail."""
    m, k = len(c) + 1, (0, *c)
    return [(i, j) for i in range(1, m) for j in range(i, m) if i + j != m and k[(i + j) % m] > k[i] + k[j] + (i + j > m)]


def test_each_interval_bound_of_the_last_two_coordinates_has_its_own_check():
    # with P = m - 1 >= 3 parts, each node (k_1, ..., v = k_(P-2)) counts x = k_(P-1), y = k_P by one interval;
    # each vector fails only the pair that gives one bound, so its cell counts it if that bound is missing
    oracle = composition_histograms(18)
    for c, pair in [
        ((2, 2, 4, 1), (4, 4)),  # x <= 2y + 1
        ((2, 4, 1), (3, 3)),  # ... at mult 4
        ((2, 4, 1, 1), (3, 4)),  # v <= x + y + 1
        ((4, 1, 1), (2, 3)),  # ... at mult 4, where v is k_1
        ((2, 4, 1, 1, 2), (4, 4)),  # k_(P-3) <= 2x + 1
        ((2, 4, 1, 2, 1), (3, 5)),  # k_(P-3) <= v + y + 1
        ((2, 4, 1, 1, 2, 1), (3, 6)),  # k_t <= k_(t+1) + y + 1, t = P - 4
        ((4, 1, 1, 1, 2, 2, 1), (2, 7)),  # ... t = P - 6
        ((2, 4, 1, 1, 1, 2), (4, 5)),  # k_t <= v + x + 1, t = P - 4
        ((2, 4, 1, 1, 2, 1, 2), (4, 6)),  # k_t <= k_(t+2) + x + 1, t = P - 5
        ((4, 1, 1, 1, 2, 2), (4, 4)),  # k_t <= 2v + 1, t = P - 5
        ((4, 1, 1, 1, 1, 2, 2), (4, 5)),  # k_t <= k_(t+3) + v + 1, t = P - 6
        ((4, 1, 1, 1, 1, 2, 2, 2), (5, 5)),  # a pair that holds none of v, x, y
        ((1, 3, 1), (1, 1)),  # x <= k_1 + v at mult 4, where v is k_1
        ((1, 2, 1, 3, 1), (1, 3)),  # x <= k_1 + v
        ((1, 1, 1, 2, 3, 1), (2, 3)),  # x <= k_i + k_(P-1-i), i >= 2
        ((1, 1, 3), (1, 2)),  # y <= k_1 + x at mult 4
        ((1, 1, 2, 1, 3), (1, 4)),  # y <= k_1 + x
        ((1, 1, 2, 3), (2, 2)),  # y <= k_2 + v at mult 5, where v is k_2
        ((1, 1, 1, 2, 3), (2, 3)),  # y <= k_2 + v
        ((1, 1, 1, 2, 2, 3), (3, 3)),  # y <= k_i + k_(P-i), i >= 3
    ]:
        assert failing_pairs(c) == [pair], c
        g, cell = sum(c), (max(c), len(c) + 1)
        for G, low in [(g, g), (g + 2, 0)]:  # genus g alone, and a pass over every genus to g + 2
            assert census_histograms(q(G, mult=cell[1]), low=low)[g][cell] == oracle[g][cell], (c, G, low)
    # x, y <= the cap: gapsets whose one deepest coordinate is x or y, under a depth bound one below it
    for c in [(2, 3, 1), (1, 2, 3), (1, 2, 2, 3, 1), (1, 1, 2, 2, 3), (1, 1, 1, 2, 2, 2, 3, 1), (1, 1, 1, 2, 2, 2, 2, 3)]:
        assert failing_pairs(c) == [], c
        query = q(sum(c), max_depth=max(c) - 1, mult=len(c) + 1)
        assert census_histograms(query) == {query.genus: Counter({x: n for x, n in oracle[query.genus].items() if query.selects(*x)})}, c
    # every m >= 4 under every depth filter that binds (a max_depth of ceil(2G/m) or more binds nothing), from
    # genus 0 and at genus G alone, against the selected cells of the walk without a multiplicity
    for G in (14, 16):
        full = census_histograms(q(G), low=0)
        for m in range(4, G + 3):
            bound = -(-2 * G // m)
            for f in [{}] + [{"depth": d} for d in range(bound + 2)] + [{"max_depth": d} for d in range(bound)]:
                query = q(G, mult=m, **f)
                for low in (0, G):
                    want = {h: Counter({c: n for c, n in full[h].items() if query.selects(*c)}) for h in range(low, G + 1)}
                    assert census_histograms(query, low=low) == want, (query, low)
    for m in (4, 9):
        assert census_histograms(q(16, mult=m), jobs=2, low=0) == census_histograms(q(16, mult=m), low=0), m


def test_each_pair_of_a_wrap_around_scan_has_its_own_check():
    # each vector fails one pair of a scan that walks its pairs (i, j) from both ends inward: the wrap-around
    # pairs of `floor`, from (t + 2, m - 2), and the forward pairs that cap a coordinate, from (1, p - 1); no
    # multiplicity is fixed, so no node counts its last two coordinates by intervals
    oracle = composition_histograms(18)
    for c, pair in [
        ((4, 1, 1, 2, 1, 2), (3, 5)),  # the first wrap-around pair
        ((4, 1, 1, 1, 2, 2), (4, 4)),  # the middle pair, i = j
        ((4, 1, 1, 1, 1, 2, 2), (4, 5)),  # the last pair of a scan of odd m + t
        ((1, 3, 1), (1, 1)),  # the middle forward pair
        ((1, 1, 3), (1, 2)),  # the first forward pair
    ]:
        assert failing_pairs(c) == [pair], c
        g, cell = sum(c), (max(c), len(c) + 1)
        assert c not in census_coords(q(g)), c
        for low in (g, 0):  # genus g alone, and a pass from genus 0
            assert census_histograms(q(g), low=low)[g][cell] == oracle[g][cell], (c, low)
