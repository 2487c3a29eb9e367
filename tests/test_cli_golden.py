"""Byte-for-byte golden output of one command per CLI verb.

``tests/data/cli_golden.json`` holds the exit code and exact stdout of each
command below, in text and ``--json`` form.  A refactor that keeps the
exact algebra must keep this output; a deliberate output change re-records
the file with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

from nhq.cli import main
from nhq.schedler import clear_straighten_cache
from nhq.trace import clear_trace_cache

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "cli_golden.json")

# Quiver files are named relative to tests/data.
COMMANDS = [
    ["bracket", "-q", "jordan.json", "[x.x.x']+2*[x]", "[x'.x'.x]-h*[x'.x']"],
    ["bracket", "-q", "a3p.json", "[a2.a1.a0]", "[a0'.a1'.a2'] + [a0'.a0]"],
    ["dbracket", "-q", "a3p.json", "a1.a0 - 2*h*a0", "a0'.a1'"],
    ["qmul", "-q", "a3p.json", "(a0',1)(a1',2)(a2',3)", "(a2',1)(a2,2)"],
    ["qcomm", "-q", "jordan.json", "(x',1)(x,2)", "(x,1)(x',2)(x,3)"],
    ["trace", "-q", "a3p.json", "--dim", "0=1,1=2,2=1,inf=1", "[a2.a1.a0] + 1/2*[a0.a0']"],
    ["qtrace", "-q", "jordan.json", "--dim", "v=2", "(x',1)(x,2)(x,3)(x',4)"],
    ["moment", "-q", "a3p.json", "--lambda", "0=1,inf=-2"],
    ["verify", "dirac", "--cases", "5", "--seed", "3"],
    ["verify", "ideal", "-q", "jordan.json", "--dim", "v=2"],
    ["solve-chi", "-q", "a3p.json", "--dim", "0=1,1=1,2=1,inf=1", "--r", "0=1,1=1,2=1,inf=0"],
    ["kernel", "-q", "jordan.json", "--dim", "v=2"],
    ["kernel", "-q", "a3p.json", "--dim", "0=2,1=2,2=2,inf=1"],
    ["solve-chi", "-q", "a2.json", "--dim", "1=2,2=3", "--r", "1=1,2=-2", "--lambda", "1=3,2=-2"],
    ["verify", "qmoment", "-q", "jordan.json"],
    ["verify", "qmoment"],
    ["verify", "gauge", "-q", "a2.json"],
    ["verify", "gauge", "-q", "a2.json", "--dim", "1=1,2=2"],
    ["bracket", "-q", "jordan.json", "[x]", "[x']"],
    ["bracket", "-q", "two_loop.json", "[x.y'.x.y'] + 2*[y.y.y]", "[x'.y.x'.y.x'.y] - h*[y'.y'] + [y'.x.y'.x]"],
    [
        "bracket", "-q", "jordan.json",
        "3*[x.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'] + h*[x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x']",
        "[x'.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'] - [x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x'.x.x']",
    ],
    # a quantum trace of one configuration (scaled) and of a sum of two
    ["qtrace", "-q", "two_loop.json", "--dim", "v=2", "2*h*(x,1)(y,2)(x',3)(y',4)"],
    ["qtrace", "-q", "two_loop.json", "--dim", "v=2", "(x,1)(y,2)(x',3)(y',4) - 1/2*(y,1)(y,2)"],
    # the remaining verify suites, each at a small fixed seed
    ["verify", "pbw", "--seed", "1"],
    ["verify", "lie", "--cases", "5", "--seed", "3"],
    ["verify", "trace-hom", "--cases", "4", "--seed", "3"],
    ["verify", "cubic", "--cases", "3", "--seed", "7"],
    ["verify", "invariance", "--cases", "4", "--seed", "3"],
    ["verify", "poisson", "-q", "jordan.json"],
    # both dimension vectors, both parameter sets
    ["verify", "ideal", "-q", "a2.json"],
]


def _variants():
    for argv in COMMANDS:
        yield argv
        yield argv + ["--json"]


def _run(argv):
    argv = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]
    clear_straighten_cache()
    clear_trace_cache()
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _load():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_command():
    assert [entry["argv"] for entry in _load()] == list(_variants())


@pytest.mark.parametrize("argv", list(_variants()), ids=" ".join)
def test_cli_output_matches_golden(argv):
    entry = next(e for e in _load() if e["argv"] == argv)
    assert _run(argv) == {"exit": entry["exit"], "stdout": entry["stdout"]}


if __name__ == "__main__":
    records = [{"argv": argv, **_run(argv)} for argv in _variants()]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    sys.exit(0)
