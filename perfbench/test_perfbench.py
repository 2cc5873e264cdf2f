"""Tests of the benchmark itself: span arithmetic, tracer hygiene, smoke runs."""

import json
import sys
from pathlib import Path

import pytest

import run
from spans import Span, Tracer, count_beneath, raised_outermost, self_times

DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_is_duration_minus_direct_children():
    tree = [
        Span("weyl.m_matrix", 0.0, 10.0, -1, True, 0),
        Span("cocycle.matrix", 1.0, 4.0, 0, False, 0),
        Span("weyl.m_half", 5.0, 9.0, 0, True, 3),
        Span("cocycle.matrix", 6.0, 7.0, 2, False, 0),
        Span("weyl.m_matrix", 7.5, 8.5, 2, True, 0),
    ]
    totals = self_times(tree)
    assert totals["weyl.m_matrix"]["self_s"] == (10.0 - 3.0 - 4.0) + 1.0
    assert totals["weyl.m_half"]["self_s"] == 4.0 - 1.0 - 1.0
    assert totals["cocycle.matrix"]["self_s"] == 3.0 + 1.0
    assert totals["cocycle.matrix"]["calls"] == 2
    assert totals["weyl.m_half"]["work"] == 3
    # the nested m_matrix lies inside the outer one and is not counted again
    assert totals["weyl.m_matrix"]["inclusive_s"] == 10.0
    assert count_beneath(tree, "cocycle.matrix", "weyl.m_half") == 1
    # one error escaped through three raising weyl spans
    assert raised_outermost(tree, "weyl.") == 1


def _bindings():
    """Identity of every attribute of every qplattice module and class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "qplattice" or name.startswith("qplattice."):
            for key, value in list(vars(module).items()):
                out[name, key] = id(value)
                if isinstance(value, type):
                    out[name, key, "class"] = {k: id(v) for k, v in vars(value).items()}
    return out


def _free_lyapunov(qp):
    strip = qp.fold_to_strip(qp.free_laplacian())
    return qp.top_lyapunov(qp.transfer_cocycle(strip, 3.0), 10, samples=2)


def test_tracer_wraps_imported_names_and_restores_every_original():
    import qplattice as qp
    import qplattice.cli
    import qplattice.weyl

    before = _bindings()
    original = qp.linalg.principal_angles
    tracer = Tracer()
    with tracer.install("qplattice"):
        # names bound by import in cli.py and weyl.py are wrapped as well
        assert qplattice.weyl.principal_angles is not original
        assert qplattice.weyl.principal_angles is qp.linalg.principal_angles
        assert qplattice.cli.lyapunov_spectrum is qp.cocycle.lyapunov_spectrum
        _free_lyapunov(qp)
    names = [s.name for s in tracer.spans]
    assert {"cocycle.lyapunov_spectrum", "cocycle.matrices", "operators.potential"} <= set(names)
    work = [s.work for s in tracer.spans if s.name == "cocycle.lyapunov_spectrum"]
    assert work == [10 * 2]
    assert _bindings() == before

    recorded = len(tracer.spans)
    _free_lyapunov(qp)  # an untraced call reaches the unwrapped function
    assert len(tracer.spans) == recorded

    with pytest.raises(RuntimeError):
        with tracer.install("qplattice"):
            raise RuntimeError("abandon the traced block")
    assert _bindings() == before


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_smoke(workload, tmp_path):
    before = _bindings()
    result, record = run.run(workload, seed=7, seconds=0, trace=1, workdir=str(tmp_path))
    assert _bindings() == before
    # the harness reports a failed check with its value and limit; whether the
    # program passes is the benchmark's finding, not this test's
    assert result["correct"] == (result["failed"] == 0)
    assert bool(record["failures"]) == (result["failed"] > 0)
    assert not any(f["value"] <= f["limit"]
                   for f in record["failures"] + record["known_defects"])
    assert result["attempted"] == 2 * sum(record["operations_per_pass"].values())
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert {m["name"] for m in DECLARED["end_to_end"]} <= set(record["end_to_end"])
    assert all(m["value"] > 0 for name, m in record["end_to_end"].items()
               if name in {d["name"] for d in DECLARED["end_to_end"]})
