"""CLI output must stay byte-identical on a fixed command set.

`data/cli_goldens.json` holds the stdout and exit code of every command in
COMMANDS, captured from a reference build of the program.  To capture them
again (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from gapsets.cli import main

GOLDENS = Path(__file__).resolve().parent / "data" / "cli_goldens.json"

COMMANDS = [
    "table --which t1 --gmax 12",
    "table --which t3 --gmax 12",
    "table --which t4 --gmax 12",
    "table --which t2 --gmax 14 --format csv",
    "bounds --genus 12",
    "bounds --genus 12 --format json",
    "oeis --gmax 12",
    "enumerate --genus 8 --format json",
    "enumerate --genus 9 --mult 4",
    "count --genus 0 --format csv",
    "count --genus 12 --depth 5 --format csv",
    "count --genus 12 --depth 0 --format csv",
    "count --genus 12 --max-depth 3 --mult 5 --format csv",
    "count --genus 12 --max-depth 0 --format csv",
    "count --genus 13 --mult 4 --format csv",
    "count --genus 13 --depth 7 --mult 3 --format csv",
    "count --genus 11 --mult 13 --format csv",
    "count --genus 11 --depth 12 --format csv",
    "enumerate --genus 23",
    "table --which t4 --gmax 40",
    "verify --set 1,2,3,5,6,7,9,10,11,13,14",
    "verify --set 1,2,3,5,6,7,9,10,11,13,14 --format json",
    "verify --set 1,2,4,7,10 --mult 3",
    "verify --set 1,2,4,7,10 --mult 3 --format json",
    "verify --set=",
    "verify --set= --format json",
    "kunz --set 1,2,4,7,10",
    "kunz --set 1,2,4,7,10 --mult 3 --format json",
    "kunz --set 1,2,4,7,10 --mult 4",
    "from-kunz --kunz 5:1,3,3,2",
    "from-kunz --kunz 5:1,3,3,2 --format json",
    "formula --genus 16 --depth 8",
    "formula --genus 9 --depth 4",
    "formula --genus 8 --depth 4 --mult 4",
    "formula --genus 16 --depth 8 --format json",
    "seq --name fibonacci-k --k 4 --n 11",
    "seq --name fibonacci-k --k 4 --n 11 --format json",
    "enumerate --genus 11 --depth 12",
    "table --which t4 --gmax 12 --format csv",
    "bounds --genus 12 --M 5",
    "enumerate --genus 12",
    "enumerate --genus 0",
    "enumerate --genus 13 --depth 5",
    "enumerate --genus 0 --format json",
    "enumerate --genus 9 --depth 5 --mult 3 --format json",
    "verify --set 2,3 --mult 3",
    "verify --set 1,2,3 --mult 3 --format json",
    "verify --set 1,2,7 --mult 3",
    "verify --set 1,2,7 --mult 3 --format json",
    "kunz --set 1,2,7 --mult 3",
]


def run(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    return code, out.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command):
    golden = json.loads(GOLDENS.read_text(encoding="utf-8"))[command]
    assert run(command) == (golden["exit_code"], golden["stdout"])


if __name__ == "__main__":
    doc = {}
    for command in COMMANDS:
        code, stdout = run(command)
        doc[command] = {"exit_code": code, "stdout": stdout}
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} goldens to {GOLDENS}", file=sys.stderr)
