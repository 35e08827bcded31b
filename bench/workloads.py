"""The benchmark's workloads and the output checks every repetition must pass.

Run lengths (iters, n_runs) are sized so that one repetition takes a few
seconds on a 2-CPU machine; the scenario, chain size, width and worker count
follow what each workload is meant to stress.  The check thresholds are the
acceptance suite's own (tests/test_acceptance.py criteria 1, 3 and 6 and the
ratio ceiling in tests/test_dynamics.py); none is new.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

CRIT1_MAX_COSINE = 0.05
CRIT1_MAX_DRIFT = 5e-2
MONOTONE_SLACK = 1e-8
RATIO_CEILING_SLACK = 1e-9


def _check_lockstep_n20(summary: dict) -> list:
    semi = summary["variants"]["semi_optimal"]["final"]
    full = summary["variants"]["full_optimal"]["final"]
    problems = []
    if not semi["median_max_abs_cosine"] <= CRIT1_MAX_COSINE:
        problems.append(f"semi_optimal median cosine {semi['median_max_abs_cosine']!r} "
                        f"above {CRIT1_MAX_COSINE}")
    if not semi["median_covariance_drift"] <= CRIT1_MAX_DRIFT:
        problems.append(f"semi_optimal median drift {semi['median_covariance_drift']!r} "
                        f"above {CRIT1_MAX_DRIFT}")
    if not full["median_max_abs_cosine"] > semi["median_max_abs_cosine"]:
        problems.append("full_optimal median cosine does not exceed semi_optimal's")
    return problems


def _check_flow_single_n20(summary: dict) -> list:
    curve = summary["variants"]["symmetric"]["median_curve"]["f_ratio"]
    problems = []
    worst = min(b - a for a, b in zip(curve, curve[1:]))
    if not worst >= -MONOTONE_SLACK:
        problems.append(f"symmetric median f_ratio drops by {worst!r}")
    if not max(curve) <= 1.0 + RATIO_CEILING_SLACK:
        problems.append(f"symmetric median f_ratio {max(curve)!r} above 1 + {RATIO_CEILING_SLACK}")
    return problems


def _check_flow_paired_n3(summary: dict) -> list:
    single = summary["variants"]["single"]["final"]["median_f_ratio"]
    bidir = summary["variants"]["bidir"]["final"]["median_f_ratio"]
    if not bidir > single:
        return [f"bidir final ratio {bidir!r} does not exceed single {single!r}"]
    return []


# focus: the (span, field) pairs whose share of the traced wall time shows
# that the workload stresses what it is meant to (bench.focus_share).
# BENCHMARK.json lists the workloads that are measured for every change;
# the others stay runnable by name (see GLOSSARY.md).
WORKLOADS = {
    "lockstep_n20": {
        "scenario": "fig2_collapse",
        "params": {"n_states": 20, "k": 2, "n_runs": 25, "iters": 3000},
        "workers": 1,
        "variants": 3,
        "focus": [("dynamics.run_discrete_batch", "self_s")],
        "check": _check_lockstep_n20,
    },
    "lockstep_n160_pool": {
        "scenario": "appendix_target_beta",
        "params": {"n_states": 160, "k": 8, "n_runs": 50, "iters": 150},
        "workers": 2,
        "variants": 5,
        "focus": [("metrics.normalizer", "total_s"), ("markov.chain_gen", "total_s")],
        "check": None,
    },
    "flow_single_n20": {
        "scenario": "fig4_trace_ratio",
        "params": {"n_states": 20, "k": 2, "n_runs": 15},
        "workers": 1,
        "variants": 2,
        "focus": [("dynamics.solve_ivp", "total_s")],
        "check": _check_flow_single_n20,
    },
    "flow_paired_n3": {
        "scenario": "fig5_failure_mode",
        "params": {"k": 2, "n_runs": 15},
        "workers": 1,
        "variants": 2,
        "focus": [("dynamics.solve_ivp", "total_s"), ("bidirectional.solve_ivp", "total_s")],
        "check": _check_flow_paired_n3,
    },
}


def trials(spec: dict) -> int:
    return spec["variants"] * spec["params"]["n_runs"]


def inspect_artifacts(scenario_dir: Path, spec: dict) -> tuple[str, int, list]:
    """Digest, total size and problems of one repetition's artifacts.

    The digest covers every file's name and bytes, so equal digests mean
    byte-identical artifacts.  Problems list every failed output check:
    a non-finite record anywhere, or the workload's own check.
    """
    digest = hashlib.sha256()
    size = 0
    problems = []
    for path in sorted(scenario_dir.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        size += len(data)
        if path.suffix == ".csv":
            for line in data.decode().splitlines()[1:]:
                fields = line.split(",")[1:]
                if not all(math.isfinite(float(v)) for v in fields if v):
                    problems.append(f"{path.name}: non-finite record {line}")
                    break
    summary = json.loads((scenario_dir / "summary.json").read_text())
    if len(summary["variants"]) != spec["variants"]:
        problems.append(f"expected {spec['variants']} variants, got {len(summary['variants'])}")
    elif spec["check"] is not None:
        problems += spec["check"](summary)
    return digest.hexdigest(), size, problems
