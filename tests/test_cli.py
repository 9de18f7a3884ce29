import contextlib
import io
import json
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_kunz import coords_strategy

from gapsets import cli
from gapsets.cli import (
    CountCache,
    bundled_bfile,
    main,
    parse_bfile,
    parse_kunz,
    parse_set,
)
from gapsets.census import CensusQuery
from gapsets.core import GapSet, classify_gapset
from gapsets.kunz import KunzVector, from_kunz


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_helpers():
    assert parse_set("1,2,4,7,10") == (1, 2, 4, 7, 10)
    assert parse_set("") == ()
    with pytest.raises(ValueError):
        parse_set("1,x")
    v = parse_kunz("4:4,4,3")
    assert (v.modulus, v.coords) == (4, (4, 4, 3))
    with pytest.raises(ValueError):
        parse_kunz("4,4,3")


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "--genus", "10")
    assert code == 0 and out.strip() == "204"
    code, out, _ = run(capsys, "count", "--genus", "10", "--max-depth", "3")
    assert code == 0 and out.strip() == "168"
    code, out, _ = run(capsys, "count", "--genus", "12", "--depth", "6", "--mult", "4")
    assert code == 0 and out.strip() == "9"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--genus", "9", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 118
    assert record["query"]["genus"] == 9


def test_count_conflicting_depth_flags(capsys):
    code, _, _ = run(capsys, "count", "--genus", "5", "--depth", "2", "--max-depth", "3")
    assert code == 2


def test_count_missing_genus(capsys):
    code, _, err = run(capsys, "count")
    assert code == 2 and "--genus" in err


def test_count_bad_range(capsys):
    code, _, _ = run(capsys, "count", "--genus", "-3")
    assert code == 2


def test_count_guard(capsys):
    code, out, err = run(capsys, "count", "--genus", "40")
    assert code == 2 and out == "" and "--force" in err
    code, out, _ = run(capsys, "count", "--genus", "64", "--force")
    assert code == 2  # past the 64-bit count guard even when forced
    code, out, err = run(capsys, "bounds", "--genus", "40")
    assert code == 2 and out == "" and "--force" in err


def test_count_cache_round_trip(tmp_path, capsys):
    cache_path = tmp_path / "cache.json"
    code, out, _ = run(capsys, "count", "--genus", "8", "--cache", str(cache_path))
    assert code == 0 and out.strip() == "67"
    doc = json.loads(cache_path.read_text())
    assert doc["schema_version"] == 2
    assert doc["entries"][0]["count"] == 67
    # second run hits the cache
    code, out, _ = run(capsys, "count", "--genus", "8", "--cache", str(cache_path), "--format", "json")
    assert code == 0 and json.loads(out)["cached"] is True


def test_cache_unknown_schema_ignored(tmp_path, capsys):
    cache_path = tmp_path / "cache.json"
    entry = {"g": 8, "depth": "any", "mult": "any", "count": 1, "at": 0}
    # schema 1: the format before entries were keyed by the query's fields
    docs = [{"schema_version": version, "entries": [entry]} for version in (99, 1)]
    # schema 2 without an entry list
    docs += [{"schema_version": 2, "entries": entries} for entries in (5, None, "genus")]
    for doc in docs:
        cache_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "count", "--genus", "8", "--cache", str(cache_path))
        assert (code, out.strip(), err) == (0, "67", ""), doc  # recomputed, not the bogus 1


def test_selfcheck_reports_non_integer_fields(tmp_path, capsys):
    cache_path = tmp_path / "cache.json"
    entries = [
        {"genus": 5.0, "depth": None, "max_depth": None, "mult": None, "count": 12},
        {"genus": 6, "depth": None, "max_depth": 2.5, "mult": None, "count": 12},
        {"genus": 7, "depth": None, "max_depth": None, "mult": None, "count": 39},
    ]
    cache_path.write_text(json.dumps({"schema_version": 2, "entries": entries}))
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert code == 3
    assert out.splitlines() == [
        "genus=5.0 depth=None max_depth=None mult=None: not a census query",
        "genus=6 depth=None max_depth=2.5 mult=None: not a census query",
    ]
    # a float as the largest genus once reached range() inside the census
    cache_path.write_text(json.dumps({"schema_version": 2, "entries": entries[:1]}))
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert code == 3
    assert out.splitlines() == ["genus=5.0 depth=None max_depth=None mult=None: not a census query"]


def test_cache_never_serves_an_entry_selfcheck_rejects(tmp_path, capsys):
    cache_path = tmp_path / "cache.json"
    floats = {"genus": 8.0, "depth": None, "max_depth": None, "mult": None, "count": 1}
    bools = {"genus": 8, "depth": None, "max_depth": True, "mult": None, "count": 5}
    cache_path.write_text(json.dumps({"schema_version": 2, "entries": [floats, bools]}))
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert code == 3 and out.splitlines() == [
        "genus=8.0 depth=None max_depth=None mult=None: not a census query",
        "genus=8 depth=None max_depth=True mult=None: not a census query",
    ]
    # 8.0 and true hash as 8 and 1, yet each count is recomputed, not served
    for flags, count in ((), 67), (("--max-depth", "1"), 1):
        code, out, _ = run(capsys, "count", "--genus", "8", *flags, "--cache", str(cache_path), "--format", "json")
        assert code == 0 and (json.loads(out)["count"], json.loads(out)["cached"]) == (count, False)
    # and the saves wrote a clean file
    assert json.loads(cache_path.read_text())["entries"] == [
        {**floats, "genus": 8, "count": 67},
        {**bools, "max_depth": 1, "count": 1},
    ]
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert (code, out) == (0, "cache ok: 2 entries verified\n")


def test_cache_concurrent_writers_keep_both_entries(tmp_path):
    cache_path = tmp_path / "cache.json"
    first, second = CountCache(cache_path), CountCache(cache_path)
    first.put(CensusQuery(8), 67)
    second.put(CensusQuery(9, max_depth=3), 105)
    first.save()
    second.save()
    fresh = CountCache(cache_path)
    assert fresh.get(CensusQuery(8)) == 67
    assert fresh.get(CensusQuery(9, max_depth=3)) == 105


def test_cache_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    cache_path = tmp_path / "cache.json"
    cache = CountCache(cache_path)
    cache.put(CensusQuery(8), 67)
    cache.save()

    def boom(*args, **kwargs):
        raise RuntimeError("serialisation failed")

    cache.put(CensusQuery(9), 118)
    monkeypatch.setattr(cli.json, "dump", boom)
    monkeypatch.setattr(cli.json, "dumps", boom)
    with pytest.raises(RuntimeError):
        cache.save()
    monkeypatch.undo()
    assert CountCache(cache_path).get(CensusQuery(8)) == 67
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []  # no temp file left


def test_cache_failed_replace_removes_the_temp_file(tmp_path, monkeypatch):
    cache_path = tmp_path / "cache.json"
    cache = CountCache(cache_path)
    cache.put(CensusQuery(8), 67)
    cache.save()

    def boom(*args, **kwargs):
        raise OSError("replace failed")

    cache.put(CensusQuery(9), 118)
    monkeypatch.setattr(cli.os, "replace", boom)
    with pytest.raises(OSError, match="replace failed"):
        cache.save()
    monkeypatch.undo()
    fresh = CountCache(cache_path)
    assert fresh.get(CensusQuery(8)) == 67
    assert fresh.get(CensusQuery(9)) is None
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".cache.json.")] == []


def test_cache_selfcheck(tmp_path, capsys):
    from gapsets.census import count_gapsets

    cache_path = tmp_path / "cache.json"
    cache = CountCache(cache_path)
    for g in (4, 6, 9):
        cache.put(CensusQuery(g), count_gapsets(CensusQuery(g)).count)
    cache.save()
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert code == 0 and "3 entries verified" in out
    # poison one entry: selfcheck must fail with exit 3
    doc = json.loads(cache_path.read_text())
    doc["entries"][0]["count"] += 1
    cache_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert code == 3 and "!=" in out


def test_selfcheck_takes_no_query_flags(tmp_path, capsys):
    cache_path = tmp_path / "cache.json"
    cache = CountCache(cache_path)
    cache.put(CensusQuery(7), 39)
    cache.save()
    flags = (("--genus", "7"), ("--depth", "2"), ("--max-depth", "3"), ("--mult", "3"),
             ("--format", "json"), ("--format", "csv"))
    for flag, value in flags:
        code, out, err = run(capsys, "count", "--selfcheck", "--cache", str(cache_path), flag, value)
        assert code == 2 and out == "" and "error:" in err, flag


def test_selfcheck_guard(tmp_path, capsys):
    # what `count --genus 30 --mult 3 --force --cache PATH` writes
    cache_path = tmp_path / "cache.json"
    entry = {"genus": 30, "depth": None, "max_depth": None, "mult": 3, "count": 11}
    cache_path.write_text(json.dumps({"schema_version": 2, "entries": [entry]}))
    code, out, err = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert code == 2 and out == "" and "--force" in err


def test_cache_selfcheck_random_queries(tmp_path, capsys):
    import random

    from gapsets.census import count_gapsets

    rng = random.Random(20240811)
    cache_path = tmp_path / "cache.json"
    cache = CountCache(cache_path)
    seen = 0
    while seen < 100:
        g = rng.randint(0, 12)
        kind = rng.choice(["any", "exact", "atmost"])
        depth = rng.randint(0, g + 1) if kind == "exact" else None
        max_depth = rng.randint(1, g + 1) if kind == "atmost" and g >= 1 else None
        mult = rng.choice([None, rng.randint(2, max(2, g + 1))])
        query = CensusQuery(g, depth=depth, max_depth=max_depth, mult=mult)
        if cache.get(query) is not None:
            continue
        cache.put(query, count_gapsets(query).count)
        seen += 1
    cache.save()
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert code == 0 and "100 entries verified" in out


def test_verify_examples(capsys):
    code, out, _ = run(capsys, "verify", "--set", "1,2,4,7,10", "--mult", "3")
    assert code == 1
    assert "gapset: no (10 = 5 + 5)" in out
    assert "m-extension (m=3): yes" in out
    assert "pseudo-Kunz: 3:4,1" in out
    assert "violated at (i,j)=(2,2)" in out

    code, out, _ = run(capsys, "verify", "--set", "1,2,3,5,6,7,9,10,11,13,14")
    assert code == 0
    assert "gapset: yes" in out
    assert "genus: 11" in out and "conductor: 15" in out and "depth: 4" in out

    code, out, _ = run(capsys, "verify", "--set", "2,3")
    assert code == 1 and "2 = 1 + 1" in out

    # the empty set is a gapset (genus 0) but no m-extension
    code, out, _ = run(capsys, "verify", "--set", "")
    assert code == 0
    assert "gapset: yes" in out and "n/a" in out
    assert "genus: 0; multiplicity: 1; conductor: 0; depth: 0" in out

    # a gapset checked against a modulus it does not extend: the set's own
    # invariants still print
    code, out, _ = run(capsys, "verify", "--set", "1,3", "--mult", "3")
    assert code == 0
    assert "gapset: yes" in out
    assert "genus: 2; multiplicity: 2; conductor: 4; depth: 2" in out
    assert "m-extension (m=3): no" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--set", "1,2,4,7,10", "--mult", "3", "--format", "json")
    assert code == 1
    record = json.loads(out)
    assert record["witness"] == {"z": 10, "x": 5, "y": 5}
    assert record["kunz"] == {"m": 3, "coords": [4, 1]}
    assert record["kunz_system"] == {"ok": False, "violation": [2, 2]}


def test_kunz_and_from_kunz(capsys):
    code, out, _ = run(capsys, "kunz", "--set", "1,2,4,7,10")
    assert code == 0 and out.strip() == "3:4,1"
    code, out, _ = run(capsys, "from-kunz", "--kunz", "3:4,1")
    assert code == 0 and out.strip() == "1,2,4,7,10"
    code, out, _ = run(capsys, "from-kunz", "--kunz", "5:1,3,3,2")
    assert code == 0 and out.strip() == "1,2,3,4,7,8,9,12,13"
    code, _, _ = run(capsys, "from-kunz", "--kunz", "3:0,1")
    assert code == 2


def test_from_kunz_refuses_a_genus_above_the_cap(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "from_kunz", lambda v: built.append(v.genus) or from_kunz(KunzVector(2, (1,))))
    cap = cli.FROM_KUNZ_MAX_GENUS
    for literal in (f"2:{cap + 1}", f"3:{cap},1", "2:1000000000"):
        code, out, err = run(capsys, "from-kunz", "--kunz", literal)
        assert code == 2 and out == "" and err.startswith("error:") and str(cap) in err, literal
    assert built == []  # the set was never built
    assert run(capsys, "from-kunz", "--kunz", f"2:{cap}")[0] == 0 and built == [cap]


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus", "3")
    assert code == 0
    # one gapset per passing composition, in composition order
    assert out.splitlines() == ["1,2,3", "1,2,5", "1,2,4", "1,3,5"]
    code, out, _ = run(capsys, "enumerate", "--genus", "4", "--format", "json")
    record = json.loads(out)
    assert record["count"] == 7 and len(record["items"]) == 7
    code, _, _ = run(capsys, "enumerate", "--genus", "23")
    assert code == 2  # guard without --force


def test_table_t4(capsys):
    code, out, _ = run(capsys, "table", "--which", "t4", "--gmax", "18")
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert "11116" in last and "13467" in last
    assert "**4180**" in last  # depth-2 entry is formula-covered


def test_table_t2(capsys):
    code, out, _ = run(capsys, "table", "--which", "t2", "--gmax", "12", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == '"N(4,g)",1,3,4,6,7,9,11,13,15,18'


def test_table_t3(capsys):
    code, out, _ = run(capsys, "table", "--which", "t3", "--gmax", "10")
    assert code == 0
    assert "| 10 | 204 | 413 | 468 | 505 | 512 |" in out


def test_table_t1(capsys):
    code, out, _ = run(capsys, "table", "--which", "t1", "--gmax", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "0,*,1,*,1,1"
    assert lines[-1] == "10,110,135,156,168,204"


def test_table_guard(capsys):
    code, _, err = run(capsys, "table", "--which", "t4", "--gmax", "40")
    assert code == 2 and "--force" in err
    code, out, err = run(capsys, "oeis", "--gmax", "40")
    assert code == 2 and out == "" and "--force" in err
    code, out, err = run(capsys, "oeis", "--gmax", "-1")
    assert code == 2 and out == "" and "--gmax" in err


def test_table_csv_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--which", "t2", "--format", "csv")
    _, second, _ = run(capsys, "table", "--which", "t2", "--format", "csv")
    assert first == second


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--genus", "10")
    assert code == 0 and "sandwich: ok" in out
    for needle in ("135", "168", "204", "413", "468", "505", "512"):
        assert needle in out
    code, out, _ = run(capsys, "bounds", "--genus", "2", "--format", "json")
    record = json.loads(out)
    assert code == 0 and record["n_g"] == 2 == record["power"]


def test_bounds_with_a_huge_M_returns_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "bounds", "--genus", "16", "--M", "1000000000000")
    assert code == 0 and "sandwich: ok" in out
    assert "upper bound (M=1000000000000):            4806" in out  # n_16: every depth past 1 counted
    assert time.perf_counter() - start < 30  # the loop over M stops at multiplicity g + 1


def test_formula_command(capsys):
    code, out, _ = run(capsys, "formula", "--genus", "8", "--depth", "4", "--mult", "4")
    assert code == 0 and out.startswith("6")
    code, out, _ = run(capsys, "formula", "--genus", "16", "--depth", "8")
    assert code == 0 and out.startswith("12")
    code, out, _ = run(capsys, "formula", "--genus", "9", "--depth", "4")
    assert code == 0 and "not covered" in out
    code, _, _ = run(capsys, "formula", "--genus", "9", "--depth", "4", "--mult", "5")
    assert code == 2


def test_seq_command(capsys):
    code, out, _ = run(capsys, "seq", "--name", "fibonacci", "--n", "10")
    assert code == 0 and out.strip() == "55"
    code, out, _ = run(capsys, "seq", "--name", "fibonacci-k", "--k", "4", "--n", "11")
    assert code == 0 and out.strip() == "401"
    code, out, _ = run(capsys, "seq", "--name", "padovan", "--n", "7")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "seq", "--name", "convolution", "--n", "10")
    assert code == 0 and out.strip() == "135"
    code, _, _ = run(capsys, "seq", "--name", "fibonacci-k", "--n", "11")
    assert code == 2
    for name in ("fibonacci", "padovan", "convolution"):  # --k is read only by fibonacci-k
        code, out, err = run(capsys, "seq", "--name", name, "--n", "5", "--k", "3", "--format", "json")
        assert code == 2 and out == "" and "error:" in err, name


def test_bfile_parser(tmp_path):
    entries = parse_bfile(bundled_bfile())
    assert entries[0] == 1
    assert entries[6] == 23
    assert list(entries) == list(range(19))

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no entries"):
        parse_bfile(empty)

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 x\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        parse_bfile(bad)

    shuffled = tmp_path / "order.txt"
    shuffled.write_text("3 4\n1 1\n")
    with pytest.raises(ValueError, match="strictly increasing"):
        parse_bfile(shuffled)


def test_oeis_match(capsys):
    code, out, _ = run(capsys, "oeis", "--gmax", "12")
    assert code == 0 and "all match" in out


def test_oeis_corrupted_value(tmp_path, capsys):
    lines = bundled_bfile().read_text().splitlines()
    corrupted = [line if not line.startswith("6 ") else "6 24" for line in lines]
    path = tmp_path / "b007323.txt"
    path.write_text("\n".join(corrupted) + "\n")
    code, out, _ = run(capsys, "oeis", "--bfile", str(path), "--gmax", "10")
    assert code == 1
    assert "g=6" in out and "23" in out


def test_oeis_missing_index(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("0 1\n1 1\n2 2\n")
    code, out, _ = run(capsys, "oeis", "--bfile", str(path), "--gmax", "4")
    assert code == 1 and "missing" in out


def test_oeis_index_is_the_genus(capsys):
    code, out, err = run(capsys, "oeis", "--gmax", "4", "--offset", "1")  # no such flag
    assert code == 2 and out == "" and "--offset" in err


def test_usage_error_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--genus", "8"),
        ("table", "--which", "t1", "--gmax", "4"),
        ("bounds", "--genus", "4"),
        ("oeis", "--gmax", "4"),
    ],
)
def test_jobs_below_one_rejected(capsys, argv):
    for jobs in ("0", "-4"):
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        assert code == 2 and out == "" and "--jobs" in err


def test_unwritable_cache_is_a_usage_error(tmp_path, capsys):
    cache_path = tmp_path / "missing" / "c.json"  # its directory does not exist
    code, out, err = run(capsys, "count", "--genus", "5", "--cache", str(cache_path))
    assert code == 2 and out == "" and "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "kunz"])
@pytest.mark.parametrize("mult", ["0", "1", "-3"])
def test_explicit_mult_below_two_rejected(capsys, command, mult):
    code, out, err = run(capsys, command, "--set", "1,2", "--mult", mult)
    assert code == 2 and out == "" and "argument --mult" in err


def cli_run(*argv):
    """Exit code and stdout of one CLI call (capsys does not mix with Hypothesis)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def kunz_literal(m, coords):
    return f"{m}:" + ",".join(map(str, coords))


@given(coords_strategy)
def test_cli_round_trip_from_kunz_kunz_verify(mc):
    m, coords = mc
    elements = from_kunz(KunzVector(m, tuple(coords))).elements
    text = ",".join(map(str, elements))

    code, out = cli_run("from-kunz", "--kunz", kunz_literal(m, coords), "--format", "json")
    assert code == 0 and json.loads(out)["elements"] == list(elements)

    code, out = cli_run("kunz", "--set", text)
    assert code == 0 and out.strip() == kunz_literal(m, coords)

    code, _ = cli_run("verify", "--set", text)
    assert code == (0 if isinstance(classify_gapset(elements), GapSet) else 1)


@given(coords_strategy, st.data())
def test_cli_malformed_literal_exits_2(mc, data):
    m, coords = mc
    tokens = [str(m)] + [str(k) for k in coords]
    i = data.draw(st.integers(min_value=0, max_value=len(tokens) - 1))
    tokens[i] = data.draw(st.sampled_from(["x", "", "1.5", "+"]))
    assert cli_run("from-kunz", f"--kunz={tokens[0]}:{','.join(tokens[1:])}")[0] == 2
    assert cli_run("from-kunz", f"--kunz={','.join(tokens)}")[0] == 2  # no colon
    assert cli_run("verify", f"--set={','.join(tokens)}")[0] == 2
    assert cli_run("kunz", f"--set={','.join(tokens)}")[0] == 2
