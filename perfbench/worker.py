"""One benchmark run of one workload, in a fresh single-threaded process.

The clock starts at the top of this file, before nhq is imported, so
``setup_s`` covers the import, quiver loading and input construction.
Then the ops run as a closed loop with one caller: each op starts when the
previous one returned.  Only ``Op.call`` (the public call and its identity
check) is timed; the machine-speed kernel, oracles, digests and failure
records run between timings.  Prints one JSON line.  Started by
``run.py``; see there for the options.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDEN = os.path.join(HERE, "golden.json")
MAX_FAILURE_RECORDS = 20


def _describe(exc: BaseException) -> str:
    return "raised " + "".join(traceback.format_exception_only(type(exc), exc)).strip()


def machine_speed() -> float:
    """Least time of three runs of a fixed pure-Python kernel, in seconds.

    The kernel does in small what nhq does in large (tuple rotations and
    comparisons, dict updates, ``Fraction`` sums) and needs nothing from
    nhq, so no change to nhq moves it.  Timed next to each op, it turns the
    op's time into the time at a fixed reference speed: over 200 s of
    alternating it with single ops of every workload, on a machine whose
    speed changed by 2x, each op's time grew as the kernel's to the power
    0.8 to 1.1.  The garbage collector is off while it runs, so nhq's heap
    does not reach into the measure.
    """
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            base = tuple((i * 7919) % 13 for i in range(48))
            seen, acc = {}, Fraction(0)
            for k in range(48):
                rot = base[k:] + base[:k]
                key = min(rot[i:] + rot[:i] for i in range(0, 48, 5))
                seen[key] = seen.get(key, 0) + 1
                acc += Fraction(key[0] + 1, k + 1)
            best = min(best, time.perf_counter() - t)
        return best
    finally:
        gc.enable()


def run_ops(workloads, rounds, args, tracer):
    from run import CHECK_ROUNDS

    digest = hashlib.sha256()
    durations, speeds, failures = [], [], []
    failed = 0
    ops = [op for r in rounds for op in r]
    digest_ops = sum(len(r) for r in rounds[:CHECK_ROUNDS[args.workload]])
    for i, op in enumerate(ops):
        speeds.append(machine_speed())
        t = time.perf_counter()
        try:
            result, residual = op.call()
        except Exception as exc:  # a failed op is recorded, the run goes on
            result, residual = None, _describe(exc)
        durations.append(time.perf_counter() - t)

        # Untimed: the oracle, the digest and failure records; layer
        # statistics of this part are rolled back.
        mark = tracer.checkpoint() if tracer else None
        if residual is None and op.oracle is not None:
            try:
                residual = op.oracle(result)
            except Exception as exc:
                residual = "oracle " + _describe(exc)
        if i < digest_ops:
            text = "" if result is None else workloads.render(result, op.quiver)
            digest.update(f"{i}\t{op.kind}\t{text}\n".encode())
        if residual is not None:
            failed += 1
            if len(failures) < MAX_FAILURE_RECORDS:
                failures.append(replay_record(workloads, args, i, op, residual))
        if tracer:
            tracer.rollback(mark)
    speeds.append(machine_speed())
    return {
        "durations": durations,
        "speeds": speeds,
        "failed": failed,
        "failures": failures,
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def replay_record(workloads, args, index, op, residual) -> dict:
    """What is needed to replay a failed op."""
    import nhq

    return {
        "workload": args.workload,
        "seed": args.seed,
        "op": index,
        "kind": op.kind,
        "quiver": None if op.quiver is None else nhq.serialize_quiver(op.quiver),
        "dim": op.dim,
        "operands": [workloads.render(x, op.quiver) for x in op.operands],
        "residual": residual,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True, help="rounds of ops to run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nhq", "__init__.py")):
        print(f"error: no nhq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import nhq

    if not os.path.abspath(nhq.__file__).startswith(SRC + os.sep):
        print(f"error: imported nhq from {nhq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    rounds = workloads.build(args.workload, args.seed, args.rounds, golden["cli"])
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "setup_speed": statistics.median(machine_speed() for _ in range(9))}
    if not args.setup_only:
        try:
            out.update(run_ops(workloads, rounds, args, tracer))
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
