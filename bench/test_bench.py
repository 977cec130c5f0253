"""Tests of the benchmark harness itself.

    python3 -m pytest bench -q

Two runs of one seed must give identical counters and result digests, and
different seeds must give different op lists.
"""

import functools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402
import checks  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, bench.SRC)

OPS_PER_WORKLOAD = 40  # a prefix of the shuffled op list keeps the test short


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_runs_of_one_seed_agree(workload):
    ops = workloads.generate(workload, 3)[:OPS_PER_WORKLOAD]
    first = bench.run_pass(ops, trace=True, check=True)
    second = bench.run_pass(ops, trace=True, check=True)
    assert first["failed"] == {} and second["failed"] == {}
    assert first["digests"] == second["digests"]
    assert None not in first["digests"]
    counters = lambda layers: {k: v for k, v in layers.items() if not k.endswith("_s")}
    assert counters(first["layers"]) == counters(second["layers"])
    assert first["layers"]["trace.spans"] > 0


def test_memoized_entry_point_stays_traced(monkeypatch):
    import detthick as dt

    cached = functools.cache(dt.zset_general)
    for mod in spans._modules()[1].values():
        if getattr(mod, "zset_general", None) is dt.zset_general:
            monkeypatch.setattr(mod, "zset_general", cached)
    monkeypatch.setattr(dt, "zset_general", cached)
    tracer = spans.Tracer()
    tracer.install()
    try:
        X = dt.power_gens(2, 2, 4)
        dt.ext_graded(X, 1, 4, 4)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert layers["zset.calls"] > 0 and layers["zset.labels"] > 0
    assert layers["ideals.gens"] == len(X.gens)


def test_missing_hook_target_is_an_error(monkeypatch):
    monkeypatch.setitem(spans._HOOKS, "zset.no_such_function", lambda *a: None)
    with pytest.raises(RuntimeError, match="zset.no_such_function"):
        spans.Tracer().install()


def test_calibration_scale_follows_the_local_loop_time():
    steady, slow = [0.001] * 40, [0.002] * 40
    factors = calib.scales(steady + slow, 79)
    assert factors[0] == pytest.approx(calib.REF_NOMINAL_S / 0.001)
    assert factors[-1] == pytest.approx(calib.REF_NOMINAL_S / 0.002)
    spiked = steady[:20] + [0.05] + steady[21:]
    assert calib.scales(spiked, 39) == calib.scales(steady, 39)


def test_hook_content_dimensions():
    assert checks.hook_content_dim((), 3) == 1
    assert checks.hook_content_dim((1,), 4) == 4
    assert checks.hook_content_dim((2, 1), 3) == 8
    assert checks.hook_content_dim((1, 1, 1), 3) == 1
    assert checks.hook_content_dim((-1, -2), 2) == 2  # a translate of (1, 0)
    assert checks.hook_content_dim((2, 2), 3) == 6
