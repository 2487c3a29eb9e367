"""Benchmark of nhq: four seeded workloads of checked exact-algebra ops.

    python3 perfbench/run.py --workload necklace --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the benchmark imports nhq from ``src/``
there and nowhere else.  Each run starts fresh worker processes
(``worker.py``) one after another, each single-threaded and with nhq's
module caches cold, as in every ``nhq`` command.

A workload is a sequence of rounds; every round runs the same mix of op
shapes (see ``workloads.py``).  ``--trace 0`` measures the end-to-end
metrics: one worker runs a closed loop of checked ops, one caller, for a
number of rounds set by ``--seconds``.  Next to every op the worker times
a small fixed kernel (``worker.machine_speed``), and each op's time is
scaled to the machine speed at which that kernel takes ``REFERENCE_S``:
the shared machine the benchmark was written on changed speed by up to
2x over tens of seconds, and the kernel follows those changes.  So the
times are milliseconds at a fixed reference speed; the raw wall-clock
figures are printed beside them.  ``ops_per_s`` is ops over the sum of
the op times, ``op_p50_ms`` and ``op_p90_ms`` their quantiles,
``setup_s`` the median scaled set-up time of this and a few set-up-only
workers, ``peak_rss_mb`` the timed worker's ``ru_maxrss`` at its end.
``--trace 1`` runs the first ``CHECK_ROUNDS`` rounds twice, untraced and
traced by ``layers.py``, and reports the per-layer metrics and the tracing
overhead.  ``--workload all`` runs every workload in turn.

Every op checks its identity; oracles in ``workloads.py`` check a subset,
CLI ops compare their output with ``golden.json`` byte for byte, and the
digest of the results of the first ``CHECK_ROUNDS`` rounds is compared
with the one recorded for the seed (and printed for any seed).  Failed ops
print their replay record.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("necklace", "pbw", "qtrace", "reduction")
SETUP_ONLY_WORKERS = 5
# the time of worker.machine_speed at the reference speed; about its time
# on the two-core Xeon machine the benchmark was written on
REFERENCE_S = 0.0005
SPEED_WINDOW = 10
# The timed worker runs a fixed number of rounds, about --seconds of work
# at the rates nhq ran on that machine, so every run measures the same ops
# whatever the load: in a time-bounded run a fast spell ran more rounds,
# more of them with warm caches, which doubled the effect of the spell.
ROUNDS_PER_S = {"necklace": 0.8, "pbw": 3.0, "qtrace": 0.6, "reduction": 1.3}
# rounds every timed run runs at least, at least 100 ops so that p90 has ten
# ops beyond it; a traced run runs them twice, and their results are hashed
# into the golden digest
CHECK_ROUNDS = {"necklace": 9, "pbw": 4, "qtrace": 8, "reduction": 6}
WORKER_TIMEOUT_S = 170

UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def worker(workload, seed, rounds, trace=0, setup_only=False) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--rounds", str(rounds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "nhq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "nhq_commit": git_commit(),
        "nhq_source_sha256": src.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def golden_digest(workload, seed):
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def check_digest(workload, seed, run, notes) -> bool:
    """Compare the digest of the checked rounds' results with the recording."""
    expected = golden_digest(workload, seed)
    notes.append(f"{workload} digest seed={seed} rounds={CHECK_ROUNDS[workload]} {run['digest']}")
    if expected is None:
        notes.append(f"{workload} digest: no recording for this seed, compare by hand")
        return True
    if run["digest"] != expected:
        notes.append(f"{workload} digest MISMATCH: recorded {expected}")
        return False
    return True


def scaled_durations(run) -> list:
    """Op times at the reference speed.  The kernel is timed before every op
    and after the last; an op's speed is the median of the SPEED_WINDOW
    kernel times around it, since one kernel time alone is noisier than the
    drift it has to follow."""
    speeds = run["speeds"]
    half = SPEED_WINDOW // 2
    out = []
    for i, d in enumerate(run["durations"]):
        lo = max(0, min(i - half + 1, len(speeds) - SPEED_WINDOW))
        out.append(d * REFERENCE_S / statistics.median(speeds[lo:lo + SPEED_WINDOW]))
    return out


def timed_run(workload, seed, seconds, notes):
    rounds = max(CHECK_ROUNDS[workload], round(seconds * ROUNDS_PER_S[workload]))
    setups = [worker(workload, seed, rounds, setup_only=True) for _ in range(SETUP_ONLY_WORKERS)]
    run = worker(workload, seed, rounds)
    times = scaled_durations(run)
    setup_s = statistics.median(w["setup_s"] * REFERENCE_S / w["setup_speed"] for w in setups + [run])
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw = run["durations"]
    notes.append(f"{workload} ops={len(times)} fail_frac={run['failed'] / len(times)} ({run['failed']}/{len(times)}) "
                 f"setup_s samples={len(setups) + 1}")
    notes.append(f"{workload} wall clock: ops_per_s={len(raw) / sum(raw):.4g} "
                 f"op_p50_ms={statistics.median(raw) * 1000:.4g} "
                 f"op_p90_ms={statistics.quantiles(raw, n=10)[8] * 1000:.4g} "
                 f"setup_s={statistics.median(w['setup_s'] for w in setups + [run]):.4g}; "
                 f"kernel median {statistics.median(run['speeds']) * 1000:.4g} ms (reference {REFERENCE_S * 1000:g} ms)")
    ok = check_digest(workload, seed, run, notes)
    return metrics, len(times), run["failed"], run["failures"], ok


def traced_run(workload, seed, notes):
    plain = worker(workload, seed, CHECK_ROUNDS[workload])
    traced = worker(workload, seed, CHECK_ROUNDS[workload], trace=1)
    metrics = dict(traced["layers"])
    metrics["bench.trace_overhead_frac"] = sum(scaled_durations(traced)) / sum(scaled_durations(plain)) - 1
    ok = traced["digest"] == plain["digest"]
    if not ok:
        notes.append(f"{workload} traced digest {traced['digest']} != untraced {plain['digest']}")
    ok = check_digest(workload, seed, plain, notes) and ok
    attempted = len(plain["durations"]) + len(traced["durations"])
    failed = plain["failed"] + traced["failed"]
    return metrics, attempted, failed, plain["failures"] + traced["failures"], ok


def unit_of(name) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nhq", "__init__.py")):
        print(f"error: run from a checkout of nhq; no src/nhq under {ROOT}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        notes = []
        try:
            if args.trace:
                metrics, attempted, failed, failures, ok = traced_run(name, args.seed, notes)
            else:
                metrics, attempted, failed, failures, ok = timed_run(name, args.seed, args.seconds, notes)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for line in notes:
            print(line)
        for record in failures:
            print("failure " + json.dumps(record, sort_keys=True))
        result["correct"] = result["correct"] and ok and failed == 0
        result["attempted"] += attempted
        result["failed"] += failed
        for metric, value in metrics.items():
            print(f"{name} {metric} {value} {unit_of(metric)}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result["metrics"][key] = {"value": value, "unit": unit_of(metric)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
