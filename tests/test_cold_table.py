"""``tools/cold_table.py`` runs a cold ``solve_chi`` cell in a process of
its own and prints one JSON line for it."""

import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "cold_table.py")


def test_the_cold_table_prints_one_json_line_per_cell():
    done = subprocess.run(
        [sys.executable, TOOL, "a2:1,1:2", "--repeat", "2"], capture_output=True, text=True, timeout=120, check=True
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert record["cell"] == "a2:1,1:2" and record["generators"] == 4
        assert record["status"] == "solved" and record["seconds"] >= 0 and record["peak_rss_mb"] > 0
        # both caches start empty in the cell's process, and the trace
        # cache holds no more than its bounds
        for name in ("straighten_cache", "trace_cache"):
            info = record[name]
            assert info["misses"] > 0 and 0 < info["currsize"] <= info["maxsize"]
            assert 0 < info["weight"] <= info["maxweight"]
        # every contraction runs a plan: the cell's contractions are the
        # plan cache's hits and misses, fewer plans than contractions
        plans = record["plan_cache"]
        assert 0 < plans["misses"] == plans["currsize"] < plans["hits"] + plans["misses"]
        assert 0 < plans["weight"] <= plans["maxweight"]
    assert json.loads(lines[0])["straighten_cache"] == json.loads(lines[1])["straighten_cache"]
