"""Cold ``solve_chi`` cells, each in a process of its own.

    python3 tools/cold_table.py two_loop:3:4 jordan:3:8 --repeat 3

Run it from anywhere; it imports nhq from the ``src/`` of the checkout it
sits in.  A cell is ``quiver:dim:max_len``: a quiver of ``nhq.sampling``
(``jordan``, ``a2``, ``a3p`` or ``two_loop``), its dimension vector with
one comma-separated entry per vertex, and the longest generator cycle.
Each run of a cell is a fresh Python process with both caches empty, as
an ``nhq solve-chi`` command is, and prints one JSON line: the cell, its
generator count, the solve's status (``solved`` or ``failed``, the class
name of an exception it raised, or ``timeout``), the seconds the solve
took, the process's peak RSS (``ru_maxrss``) in MB at its end, and the
``cache_info()`` of the straighten and trace caches and of the
contraction plans there: the plans' hits count the contractions that
reused a plan.  With no cell
it runs the cold table of ROADMAP.md.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.abspath(__file__)
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
TABLE = (
    "a3p:3,3,3,2:4",
    "jordan:3:4",
    "two_loop:2:4",
    "two_loop:3:4",
    "two_loop:2:5",
    "jordan:3:6",
    "a3p:2,2,2,1:6",
    "two_loop:2:6",
    "two_loop:3:5",
    "jordan:3:8",
)


def solve(cell: str) -> dict:
    """One cold ``solve_chi`` of ``cell``, in this process."""
    sys.path.insert(0, SRC)
    from nhq import repspace, sampling, schedler
    from nhq.trace import enumerate_generators, solve_chi

    name, dim, max_len = cell.split(":")
    quiver = getattr(sampling, name)()
    dim, max_len = tuple(map(int, dim.split(","))), int(max_len)
    record = {"cell": cell, "generators": sum(1 for _ in enumerate_generators(quiver, max_len))}
    start = time.perf_counter()
    try:
        report, _ = solve_chi(quiver, dim, None, max_len)
        record["status"] = report.status
    except Exception as error:  # the record names it; the table goes on
        record["status"], record["error"] = type(error).__name__, str(error)
    record["seconds"] = round(time.perf_counter() - start, 3)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["peak_rss_mb"] = round(rss / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)
    record["straighten_cache"] = schedler._normal_form.cache_info()._asdict()
    record["trace_cache"] = repspace._packed_trace.cache_info()._asdict()
    record["plan_cache"] = repspace._plans.cache_info()._asdict()
    return record


def run(cell: str, timeout) -> dict:
    """One cold run of ``cell`` in a fresh process."""
    try:
        done = subprocess.run(
            [sys.executable, HERE, "--in-process", cell], capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"cell": cell, "status": "timeout", "seconds": timeout}
    if done.returncode:
        return {"cell": cell, "status": "error", "stderr": done.stderr.strip().splitlines()[-1:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cells", nargs="*", default=TABLE, help="quiver:dim:max_len, e.g. two_loop:3:4")
    parser.add_argument("--repeat", type=int, default=1, help="runs of each cell")
    parser.add_argument("--timeout", type=float, default=None, help="seconds one run may take")
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.in_process:
        print(json.dumps(solve(args.cells[0])))
        return 0
    for cell in args.cells:
        for _ in range(args.repeat):
            print(json.dumps(run(cell, args.timeout)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
