"""Tests of the benchmark itself: tracing, self-time arithmetic, flop model.

Run with: python -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import flops
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]


def test_wrappers_restored_after_traced_run(tmp_path):
    from selfpredict.scenarios import ScenarioConfig, run_scenario

    before = tracing.snapshot()
    tracer = tracing.Tracer()
    cfg = ScenarioConfig(scenario="fig5_failure_mode", n_runs=2, k=2, t_end=2.0,
                         n_records=2, out_dir=str(tmp_path))
    tracing.traced_run(run_scenario, cfg, tracer)
    after = tracing.snapshot()
    assert all(after[key] is before[key] for key in tracing.TARGETS)
    spans = tracer.summary()
    assert spans[tracing.ROOT]["calls"] == 1
    assert spans["bidirectional.rhs"]["calls"] == tracer.counts["bidirectional.solve_ivp.nfev"]


def test_wrappers_restored_when_the_run_raises(tmp_path):
    from selfpredict import UnknownScenarioError
    from selfpredict.scenarios import ScenarioConfig, run_scenario

    before = tracing.snapshot()
    cfg = ScenarioConfig(scenario="no_such_scenario", out_dir=str(tmp_path))
    with pytest.raises(UnknownScenarioError):
        tracing.traced_run(run_scenario, cfg, tracing.Tracer())
    after = tracing.snapshot()
    assert all(after[key] is before[key] for key in tracing.TARGETS)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and c [5, 9]; a has child b [2, 3];
    # a second call of b [9.5, 9.75] sits directly under root.
    names = ["root", "a", "b", "c", "b"]
    parents = [-1, 0, 1, 0, 0]
    starts = [0.0, 1.0, 2.0, 5.0, 9.5]
    ends = [10.0, 4.0, 3.0, 9.0, 9.75]
    agg = tracing.self_times(names, parents, starts, ends)
    assert agg["root"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 4.0 - 0.25}
    assert agg["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert agg["b"] == {"calls": 2, "total_s": 1.25, "self_s": 1.25}
    assert agg["c"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0}


def test_tracer_nests_spans():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    outer()
    # outer opens at 0, inner spans [1, 2] and [3, 4], outer closes at 5
    assert tracer.parents == [-1, 0, 0]
    assert tracer.summary()["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}


def test_kernel_flop_model_matches_hand_count():
    # n=3, k=2, semi gradient, optimal predictor, no target
    hand_flops = (
        36      # P @ phi: 2*3*3*2
        + 6     # d * phi
        + 6     # d * P phi
        + 24    # phi^T (d phi): 2*2*3*2
        + 24    # phi^T (d P phi)
        + 72    # eigh of 2x2: 9 * 2**3
        + 4     # v * inv
        + 16    # v^T rhs: 2*2*2*2
        + 16    # (v * inv) @ (...)
        + 24    # dphi @ pred: 2*3*2*2
        + 6     # subtract
        + 24    # (...) @ pred^T
        + 6     # times 2
        + 6     # times eta
        + 6     # phi += delta
        + 6     # |phi|
        + 6     # max
    )
    hand_bytes = 8 * (
        (9 + 6 + 6)             # P @ phi
        + 2 * (3 + 6 + 6)       # two row scalings by d
        + 2 * (6 + 6 + 4)       # two k x n @ n x k products
        + 12                    # eigh: cov in, w and v out
        + 12                    # v * inv
        + 2 * (4 + 4 + 4)       # two k x k products
        + 2 * (6 + 4 + 6)       # two n x k @ k x k products
        + 18                    # subtract
        + 2 * 12                # two scalings
        + 18                    # phi += delta
        + 12                    # |phi|
        + 6                     # max
    )
    assert flops.kernel_step(3, 2) == (hand_flops, hand_bytes)


def test_rhs_flop_model_matches_hand_count():
    # n=3, k=1: P v (18), v^T P v twice (6 + 6), v (v^T P v) (6), subtract (3),
    # times pred^T (6)
    assert flops.flow_rhs(3, 1)[0] == 18 + 6 + 6 + 6 + 3 + 6
    # the pair: two legs of the above without the duplicate pred, plus fwd
    assert flops.bidir_rhs(3, 1)[0] == 2 * (18 + 6 + 6 + 3 + 6) + 6


def test_layer_metrics_cover_the_declared_per_layer_names():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    computed_in_run = {"scenarios.tasks", "scenarios.artifact_bytes",
                       "scenarios.pool_efficiency", "bench.trace_overhead_frac",
                       "bench.focus_share"}
    assert set(tracing.layer_metrics({}, {})) == names - computed_in_run
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "flow_paired_n3",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
