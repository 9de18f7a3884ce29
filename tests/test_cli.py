import contextlib
import dataclasses
import io
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_kunz import coords_strategy

from gapsets import cli
from gapsets.cli import (
    CountCache,
    bundled_bfile,
    format_set,
    main,
    parse_bfile,
    parse_kunz,
    parse_set,
)
from gapsets.census import CensusQuery, census_coords
from gapsets.core import GapSet, classify_gapset
from gapsets.kunz import KunzVector, from_kunz, kunz_elements


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cache(path, records):
    """A schema-3 count cache: the header line, then one JSON record a line."""
    path.write_bytes(CountCache.HEADER + "".join(json.dumps(rec) + "\n" for rec in records).encode())


def read_cache(path):
    """The records of a schema-3 count cache, in file order, after its header."""
    header, *lines = path.read_bytes().splitlines(keepends=True)
    assert header == CountCache.HEADER
    return [json.loads(line) for line in lines]


def read_lines(path):
    """The lines of a schema-3 count cache after its header, without their newlines."""
    return path.read_bytes()[len(CountCache.HEADER) :].splitlines()


def canonical(genus, count, **fields):
    """A cache record's line as `save` spells it, when every value is an int or None."""
    return json.dumps({"genus": genus, "depth": None, "max_depth": None, "mult": None, **fields, "count": count})


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
    assert read_cache(cache_path) == [{"genus": 8, "depth": None, "max_depth": None, "mult": None, "count": 67}]
    # second run hits the cache, and leaves the file as it was
    before = cache_path.read_bytes()
    code, out, _ = run(capsys, "count", "--genus", "8", "--cache", str(cache_path), "--format", "json")
    assert code == 0 and json.loads(out)["cached"] is True
    assert cache_path.read_bytes() == before
    # the log is the cache's one file: no lock file beside it
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_cache_unknown_schema_ignored(tmp_path, capsys):
    cache_path = tmp_path / "cache.json"
    entry = {"g": 8, "depth": "any", "mult": "any", "count": 1, "at": 0}
    # schema 1: the format before entries were keyed by the query's fields
    docs = [{"schema_version": version, "entries": [entry]} for version in (99, 1)]
    # schema 2 without an entry list, and a valid schema-2 document
    docs += [{"schema_version": 2, "entries": entries} for entries in (5, None, "genus")]
    record = {"genus": 8, "depth": None, "max_depth": None, "mult": None, "count": 1}
    docs.append({"schema_version": 2, "entries": [record]})
    texts = [json.dumps(doc) for doc in docs] + ["", '{"schema_ver']  # and an empty file, a torn header
    for text in texts:
        cache_path.write_text(text)
        code, out, err = run(capsys, "count", "--genus", "8", "--cache", str(cache_path))
        assert (code, out.strip(), err) == (0, "67", ""), text  # recomputed, not the bogus 1
        assert read_cache(cache_path) == [{**record, "count": 67}], text  # and the file replaced


def test_selfcheck_reports_non_integer_fields(tmp_path, capsys, monkeypatch):
    cache_path = tmp_path / "cache.json"
    entries = [
        {"genus": 5.0, "depth": None, "max_depth": None, "mult": None, "count": 12},
        {"genus": 6, "depth": None, "max_depth": 2.5, "mult": None, "count": 12},
        {"genus": 7, "depth": None, "max_depth": None, "mult": None, "count": 39},
    ]
    # a field or a count that is not an int is not spelled as `save` spells a record: it is
    # skipped like a torn line, so it is neither checked nor reported
    write_cache(cache_path, entries)
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert (code, out) == (0, "cache ok: 1 entries verified\n")
    # a float as the largest genus once reached range() inside the census
    write_cache(cache_path, entries[:1])
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert (code, out) == (0, "cache ok: 0 entries verified\n")
    write_cache(cache_path, [{**entries[2], "genus": g, "count": n} for g, n in ((6, 23.9), (7, "39"), (1, True))])
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert (code, out) == (0, "cache ok: 0 entries verified\n")

    # records spelled as `save` spells them, of fields no CensusQuery takes
    refused = {
        canonical(-1, 0): "genus=-1 depth=None max_depth=None mult=None",
        canonical(30, 1, mult=1): "genus=30 depth=None max_depth=None mult=1",
        canonical(30, 5, depth=3, max_depth=4): "genus=30 depth=3 max_depth=4 mult=None",
        canonical(64, 1): "genus=64 depth=None max_depth=None mult=None",
    }
    asked = []
    census_histograms = cli.census_histograms

    def spy(query, *args, **kwargs):
        asked.append(query)
        return census_histograms(query, *args, **kwargs)

    monkeypatch.setattr(cli, "census_histograms", spy)
    for lines, gmax in [([line], 0) for line in refused] + [([*refused, canonical(7, 39)], 7)]:
        cache_path.write_bytes(CountCache.HEADER + "".join(line + "\n" for line in lines).encode())
        asked.clear()
        code, out, err = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
        assert (code, err) == (3, ""), lines
        assert out.splitlines() == [f"{refused[line]}: not a census query" for line in lines if line in refused]
        assert asked == [CensusQuery(gmax)], lines  # the census runs to the largest genus of a census query


def test_cache_never_serves_an_entry_selfcheck_rejects(tmp_path, capsys):
    cache_path = tmp_path / "cache.json"
    floats = {"genus": 8.0, "depth": None, "max_depth": None, "mult": None, "count": 1}
    bools = {"genus": 8, "depth": None, "max_depth": True, "mult": None, "count": 5}
    counts = [{**floats, "genus": g, "count": n} for g, n in ((6, 23.9), (7, "39"), (1, True))]
    write_cache(cache_path, [floats, bools, *counts])
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert (code, out) == (0, "cache ok: 0 entries verified\n")  # none of these lines is a record
    # 8.0 and true hash as 8 and 1, and int() reads 23.9, "39" and true as 23, 39 and 1 (each
    # the census count), yet each count is recomputed, not served
    asks = [(["8"], 67), (["8", "--max-depth", "1"], 1), (["6"], 23), (["7"], 39), (["1"], 1)]
    for flags, count in asks:
        code, out, _ = run(capsys, "count", "--genus", *flags, "--cache", str(cache_path), "--format", "json")
        assert code == 0 and (json.loads(out)["count"], json.loads(out)["cached"]) == (count, False)
    # and the saves appended clean records, the only ones a load reads
    assert read_cache(cache_path) == [
        floats,
        bools,
        *counts,
        {**floats, "genus": 8, "count": 67},
        {**bools, "max_depth": 1, "count": 1},
        *({**rec, "count": int(rec["count"])} for rec in counts),
    ]
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert (code, out) == (0, "cache ok: 5 entries verified\n")


def test_cache_later_record_supersedes(tmp_path):
    cache_path = tmp_path / "cache.json"
    record, bounded = canonical(8, 67), canonical(8, 62, max_depth=3)
    for foreign in ["", *FOREIGN_LINES]:  # no line, then a line of each kind `save` never writes
        lines = [record, canonical(8, 1, max_depth=3), bounded] + ([foreign] if foreign else [])
        cache_path.write_bytes(CountCache.HEADER + "".join(line + "\n" for line in lines).encode())
        cache = CountCache(cache_path)
        # a later record supersedes an earlier one; a later foreign line supersedes nothing
        assert cache.get(CensusQuery(8, max_depth=3)) == 62, foreign
        assert cache.get(CensusQuery(8)) == 67, foreign
        assert cache.get(CensusQuery(8, depth=0)) is None, foreign


def test_cache_skips_list_and_object_fields(tmp_path, capsys):
    # such a line is not spelled as `save` spells a record, so it is skipped like a torn line
    cache_path = tmp_path / "cache.json"
    record = {"genus": 7, "depth": None, "max_depth": None, "mult": None, "count": 39}
    write_cache(cache_path, [{**record, "genus": [8]}, {**record, "mult": {"m": 3}}, record])
    code, out, err = run(capsys, "count", "--genus", "8", "--cache", str(cache_path), "--format", "json")
    assert (code, err) == (0, "") and (json.loads(out)["count"], json.loads(out)["cached"]) == (67, False)
    code, out, err = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert (code, out, err) == (0, "cache ok: 2 entries verified\n", "")


# Every query shape a key can take: the genus an int, the other fields an int or null.
GRID_QUERIES = [
    CensusQuery(g, depth, max_depth, mult)
    for g in (0, 9, 63)
    for depth, max_depth in ((None, None), (0, None), (None, 0), (12, None), (None, 15))
    for mult in (None, 2, 13)
]


def test_saved_records_load_without_json(tmp_path, monkeypatch):
    cache_path = tmp_path / "cache.json"
    cache = CountCache(cache_path)
    queries = GRID_QUERIES + [CensusQuery(9, max_depth=10**30, mult=10**4299)]  # 31 and 4300 digits
    counts = ([0, 7, 2**63 - 1] * len(queries))[: len(queries) - 1] + [10**4299]  # 4300 digits: int's limit
    for query, count in zip(queries, counts):
        cache.save(query, count)
    for line, query, count in zip(read_lines(cache_path), queries, counts, strict=True):
        assert cli._RECORD.fullmatch(line), line
        assert json.loads(line) == {**dict(zip(cli.QUERY_FIELDS, dataclasses.astuple(query))), "count": count}

    def boom(*args, **kwargs):
        raise RuntimeError("json.loads called")

    monkeypatch.setattr(cli.json, "loads", boom)
    fresh = CountCache(cache_path)
    assert [fresh.get(query) for query in queries] == counts


# A line of each kind `save` never writes, each about a query that canonical lines also answer.
FOREIGN_LINES = [
    canonical(8, 60)[:30],  # torn
    json.dumps({"count": 61, "genus": 8, "depth": None, "max_depth": None, "mult": None}),  # key order
    json.dumps({"genus": 8, "depth": None, "max_depth": None, "mult": None, "count": 62}, separators=(",", ":")),
    canonical(8.0, 63),
    canonical(8, 64, max_depth=True),
    canonical("8", 65),
    canonical(8, 23.9),
    canonical(8, "67"),
    canonical(8, 66, depth=0).replace('"depth": 0', '"depth": -0'),  # json.loads reads -0 as 0
    canonical(8, 66).replace('"genus": 8', '"genus": 08'),  # not JSON
    canonical(8, 0).replace('"count": 0', '"count": 1' + "0" * 4300),  # past int's digit limit: skipped
    canonical(9, 117, max_depth=[3]),
    "[8, null, null, null, 67]",
    " " + canonical(7, 38),
    canonical(7, 37) + " ",
    "",
]


def records_of(body):
    """What a cache body after the header answers, by query key: a line is a record exactly
    when JSON reads it as an int genus, other fields each an int or None, and an int count
    (no bool), and `canonical` of those gives the line back; the later record of a query wins."""
    answers = {}
    for line in body.split("\n"):
        try:
            rec = json.loads(line)
        except ValueError:  # torn, not JSON, or past int's digit limit
            continue
        if type(rec) is not dict or rec.keys() != {*cli.QUERY_FIELDS, "count"}:
            continue
        genus, *fields = (rec[f] for f in cli.QUERY_FIELDS)
        if type(genus) is int and type(rec["count"]) is int and all(v is None or type(v) is int for v in fields):
            if canonical(genus, rec["count"], **dict(zip(cli.QUERY_FIELDS[1:], fields))) == line:
                answers[genus, *fields] = rec["count"]
    return answers


def test_cache_reads_only_the_records_save_writes(tmp_path, monkeypatch):
    import random

    def boom(*args, **kwargs):
        raise RuntimeError("json.loads called")

    rng = random.Random(20261019)
    keys = [(8, {}), (8, {"depth": 0}), (8, {"max_depth": 3}), (7, {}), (9, {"max_depth": 3}), (9, {"mult": 4})]
    queries = [CensusQuery(g, **fields) for g, fields in keys] + [CensusQuery(10), CensusQuery(8, mult=3)]
    cache_path = tmp_path / "cache.json"
    for trial in range(300):
        lines = [canonical(g, rng.randrange(200), **fields) for g, fields in rng.choices(keys, k=rng.randrange(8))]
        foreign = trial % (len(FOREIGN_LINES) + 1)  # every other trial's lines are all canonical
        if foreign < len(FOREIGN_LINES):
            lines.insert(rng.randrange(len(lines) + 1), FOREIGN_LINES[foreign])
        body = "".join(line + "\n" for line in lines)
        if foreign == 0 and rng.random() < 0.5:  # a torn last line has no newline
            body = body[:-1]
        cache_path.write_bytes(CountCache.HEADER + body.encode())
        expected = records_of(body)
        with monkeypatch.context() as patch:
            patch.setattr(cli.json, "loads", boom)
            cache = CountCache(cache_path)
            for query in queries:
                assert cache.get(query) == expected.get(dataclasses.astuple(query)), (lines, query)
        assert len(cache.index) == len(expected), lines  # and it took no other line for a record


def test_cache_hit_parses_no_json(tmp_path, capsys, monkeypatch):
    cache_path = tmp_path / "cache.json"
    for flags in (["8"], ["9", "--max-depth", "3"], ["8"]):
        run(capsys, "count", "--genus", *flags, "--cache", str(cache_path))

    def boom(*args, **kwargs):
        raise RuntimeError("json.loads called")

    monkeypatch.setattr(cli.json, "loads", boom)
    code, out, err = run(capsys, "count", "--genus", "9", "--max-depth", "3", "--cache", str(cache_path))
    assert (code, out, err) == (0, "99\n", "")


def test_cache_save_answers_at_once_and_after_a_reload(tmp_path):
    cache_path = tmp_path / "cache.json"
    for lines in ([canonical(8, 1)], [canonical(8, 1), canonical(8.0, 2)]):  # without a foreign line, then with one
        cache_path.write_bytes(CountCache.HEADER + "".join(line + "\n" for line in lines).encode())
        cache = CountCache(cache_path)
        assert cache.get(CensusQuery(8)) == 1
        cache.save(CensusQuery(8), 67)
        assert cache.get(CensusQuery(8)) == 67
        assert CountCache(cache_path).get(CensusQuery(8)) == 67


def test_cache_concurrent_writers_keep_both_entries(tmp_path):
    cache_path = tmp_path / "cache.json"
    first, second = CountCache(cache_path), CountCache(cache_path)
    first.save(CensusQuery(8), 67)
    second.save(CensusQuery(9, max_depth=3), 105)
    fresh = CountCache(cache_path)
    assert fresh.get(CensusQuery(8)) == 67
    assert fresh.get(CensusQuery(9, max_depth=3)) == 105


def test_cache_lock_is_on_the_log_itself(tmp_path):
    fcntl = pytest.importorskip("fcntl")
    cache_path = tmp_path / "cache.json"
    CountCache(cache_path).save(CensusQuery(7), 39)
    done, report = os.pipe()
    held = open(cache_path, "rb")
    fcntl.flock(held, fcntl.LOCK_EX)
    pid = os.fork()
    if pid == 0:  # the child saves one record, then reports on the pipe
        status = 1
        try:
            os.close(done)
            held.close()  # its copy of the locked file would keep the lock past the parent's close
            CountCache(cache_path).save(CensusQuery(8), 67)
            os.write(report, b"done")
            status = 0
        finally:
            os._exit(status)
    os.close(report)
    try:
        try:
            assert select.select([done], [], [], 0.3)[0] == []  # the save waits on the log's lock
        finally:
            held.close()  # releases the lock
        assert select.select([done], [], [], 10)[0] == [done]
        assert os.read(done, 4) == b"done"
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(done)
        status = os.waitpid(pid, 0)[1]
    assert os.waitstatus_to_exitcode(status) == 0
    fresh = CountCache(cache_path)
    assert (fresh.get(CensusQuery(7)), fresh.get(CensusQuery(8))) == (39, 67)


def test_cache_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    cache_path = tmp_path / "cache.json"
    cache = CountCache(cache_path)
    cache.save(CensusQuery(8), 67)

    def boom(*args, **kwargs):
        raise RuntimeError("serialisation failed")

    monkeypatch.setattr(cli.json, "dump", boom)
    monkeypatch.setattr(cli.json, "dumps", boom)
    with pytest.raises(RuntimeError):
        cache.save(CensusQuery(9), 118)
    monkeypatch.undo()
    assert cache.get(CensusQuery(9)) is None  # a failed save answers nothing
    assert CountCache(cache_path).get(CensusQuery(8)) == 67
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]  # and no other file


def test_cache_torn_append_keeps_every_whole_record(tmp_path, monkeypatch):
    cache_path = tmp_path / "cache.json"
    cache = CountCache(cache_path)
    cache.save(CensusQuery(8), 67)
    write = cli.os.write

    def torn(fd, data):  # a crash mid-write: half the bytes reach the file
        write(fd, data[: len(data) // 2])
        raise OSError("write failed")

    monkeypatch.setattr(cli.os, "write", torn)
    with pytest.raises(OSError, match="write failed"):
        cache.save(CensusQuery(9), 118)
    monkeypatch.undo()
    fresh = CountCache(cache_path)
    assert fresh.get(CensusQuery(8)) == 67
    assert fresh.get(CensusQuery(9)) is None
    # the next save's record is not glued to the torn line
    fresh.save(CensusQuery(10), 204)
    fresh = CountCache(cache_path)
    assert (fresh.get(CensusQuery(8)), fresh.get(CensusQuery(9)), fresh.get(CensusQuery(10))) == (67, None, 204)


def test_cache_miss_needs_no_rename(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise OSError("replace failed")

    cache_path = tmp_path / "cache.json"
    monkeypatch.setattr(cli.os, "replace", boom)
    code, out, err = run(capsys, "count", "--genus", "8", "--cache", str(cache_path))
    assert (code, out, err) == (0, "67\n", "")
    assert CountCache(cache_path).get(CensusQuery(8)) == 67


def test_cache_selfcheck(tmp_path, capsys):
    from gapsets.census import count_gapsets

    cache_path = tmp_path / "cache.json"
    cache = CountCache(cache_path)
    for g in (4, 6, 9):
        cache.save(CensusQuery(g), count_gapsets(CensusQuery(g)).count)
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert code == 0 and "3 entries verified" in out
    # poison one entry: selfcheck must fail with exit 3
    records = read_cache(cache_path)
    records[0]["count"] += 1
    write_cache(cache_path, records)
    code, out, _ = run(capsys, "count", "--selfcheck", "--cache", str(cache_path))
    assert code == 3 and "!=" in out


def test_selfcheck_takes_no_query_flags(tmp_path, capsys):
    cache_path = tmp_path / "cache.json"
    CountCache(cache_path).save(CensusQuery(7), 39)
    flags = (("--genus", "7"), ("--depth", "2"), ("--max-depth", "3"), ("--mult", "3"),
             ("--format", "json"), ("--format", "csv"))
    for flag, value in flags:
        code, out, err = run(capsys, "count", "--selfcheck", "--cache", str(cache_path), flag, value)
        assert code == 2 and out == "" and "error:" in err, flag


def test_selfcheck_guard(tmp_path, capsys):
    # what `count --genus 30 --mult 3 --force --cache PATH` writes
    cache_path = tmp_path / "cache.json"
    entry = {"genus": 30, "depth": None, "max_depth": None, "mult": 3, "count": 11}
    write_cache(cache_path, [entry])
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
        cache.save(query, count_gapsets(query).count)
        seen += 1
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


def enumerate_queries():
    """Every filter shape for g <= 10, and the unfiltered census for g <= 14."""
    for g in range(11):
        for depth, max_depth in [(None, None)] + [(q, None) for q in range(g + 2)] + [(None, q) for q in range(g + 1)]:
            for mult in [None, *range(2, g + 3)]:
                yield CensusQuery(g, depth, max_depth, mult)
    for g in range(15):
        yield CensusQuery(g)


def query_flags(query):
    """The `enumerate` flags that ask for the query."""
    values = zip(cli.QUERY_FIELDS, dataclasses.astuple(query))
    return [arg for name, v in values if v is not None for arg in ("--" + name.replace("_", "-"), str(v))]


def test_enumerate_lines_match_the_definitional_path(capsys):
    # the plain listing, read row by row off the coordinates, against each gapset's sorted elements;
    # each JSON record against the definitional check of its elements
    queries = list(enumerate_queries())
    assert len(queries) == 1313
    for query in queries:
        sets = [kunz_elements(k) for k in census_coords(query)]
        expected = "".join((format_set(elements) or "(empty)") + "\n" for elements in sets)
        assert run(capsys, "enumerate", *query_flags(query)) == (0, expected, ""), query
        code, out, err = run(capsys, "enumerate", *query_flags(query), "--format", "json")
        doc = json.loads(out)
        assert (code, err, doc["count"]) == (0, "", len(sets)), query
        assert [tuple(item["elements"]) for item in doc["items"]] == sets, query
        for item in doc["items"]:
            assert {**item, "elements": tuple(item["elements"])} == vars(classify_gapset(item["elements"])), query


def test_cli_import_loads_no_process_pool():
    # a sharded census forks its workers itself: neither importing the CLI nor --jobs 2 loads a pool
    src = Path(__file__).resolve().parents[1] / "src"
    path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    pools = "{'multiprocessing', 'concurrent.futures'}"
    probes = [
        f"import sys, gapsets.cli; print(sorted({pools} & set(sys.modules)))",
        "import io, sys, contextlib, gapsets.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = gapsets.cli.main(['count', '--genus', '12', '--jobs', '2'])\n"
        f"print(code, out.getvalue().strip(), sorted({pools} & set(sys.modules)))",
    ]
    got = [
        subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60).stdout
        for probe in probes
    ]
    assert got == ["[]\n", "0 592 []\n"]


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
    "argv, code, stream, text",
    [
        (["count", "--bogus"], 2, "err", "usage: gapsets count"),
        (["count", "--bogus"], 2, "err", "error: unrecognized arguments: --bogus"),
        (["frobnicate"], 2, "err", "error: argument command: invalid choice: 'frobnicate'"),
        ([], 2, "err", "error: the following arguments are required: command"),
        (["-h"], 0, "out", "usage: gapsets [-h]"),
        (["count", "-h"], 0, "out", "usage: gapsets count [-h]"),
    ],
)
def test_dispatch(capsys, argv, code, stream, text):
    # a known command's own parser reads its flags; anything else goes through the top-level one
    got, out, err = run(capsys, *argv)
    assert got == code and text in {"out": out, "err": err}[stream]
    assert (out if stream == "err" else err) == ""


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
