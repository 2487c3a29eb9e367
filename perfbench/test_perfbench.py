"""Self-test of the benchmark: tracing changes no result, counts repeat,
and the oracles reach every shape.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload's first round runs three times, each in a fresh worker:
once untraced and twice traced.  All three must give the same digest, and the
two traced runs the same ``.calls`` count for every layer.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import CHECK_ROUNDS, WORKLOADS  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")


def _worker(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", "3", "--rounds", "1", "--trace", str(trace)],
        cwd=os.path.dirname(HERE), env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_keeps_results_and_counts(workload):
    plain = _worker(workload, 0)
    first = _worker(workload, 1)
    second = _worker(workload, 1)
    assert plain["failed"] == first["failed"] == 0
    assert plain["digest"] == first["digest"] == second["digest"]
    counts = lambda run: {k: v for k, v in run["layers"].items() if not k.endswith("_s")}
    assert counts(first) == counts(second)
    assert any(counts(first).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracles_check_every_shape(workload):
    sys.path.insert(0, SRC)
    import workloads

    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    ops = [op for r in workloads.build(workload, 3, CHECK_ROUNDS[workload], golden["cli"]) for op in r]
    for kind in {op.kind for op in ops if op.oracle is not None}:
        shapes = {op.shape for op in ops if op.kind == kind}
        assert {op.shape for op in ops if op.kind == kind and op.oracle is not None} == shapes


def test_uninstall_restores_every_binding():
    sys.path.insert(0, SRC)
    import nhq
    import nhq.cli  # loads every nhq module that binds a traced name
    import layers

    def snapshot():
        mods = [m for n, m in sys.modules.items() if n == "nhq" or n.startswith("nhq.")]
        out = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
        for cls in (nhq.HBarPolynomial, nhq.WeylElement, nhq.linear.LinearCombination):
            out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
        return out

    before = snapshot()
    tracer = layers.Tracer()
    tracer.install()
    assert nhq.repspace.weyl_mul is not before[("nhq.repspace", "weyl_mul")]
    assert nhq.trace.weyl_mul is nhq.repspace.weyl_mul
    # necklace_bracket's own binding of bracket_sign stays unwrapped
    assert nhq.necklace.bracket_sign is before[("nhq.necklace", "bracket_sign")]
    assert nhq.schedler.bracket_sign is not before[("nhq.schedler", "bracket_sign")]
    tracer.uninstall()
    assert snapshot() == before
