"""Where byte-identity ends: the BLAS kernel type and thread count.

Artifacts are byte-identical for one BLAS build, one kernel type and one thread count
(criterion 12).  Across kernel types and thread counts the BLAS products round
differently, so the artifacts move by rounding only.  This test runs criterion 12's
reduced scenarios in subprocesses under forced OpenBLAS kernel types
(OPENBLAS_CORETYPE) and thread counts (OPENBLAS_NUM_THREADS) and bounds how far each
number moves.

Tolerances, elementwise |a - b| <= TOL * max(|b|, 1) per CSV column: measured on a
2-vCPU x86-64 host with numpy's scipy-openblas 0.3.31 (DYNAMIC_ARCH), over every pair
of SkylakeX, Haswell, Sandybridge and Prescott kernels at 1 thread and Haswell at 2
threads, the largest moves were f 4.1e-14, f_ratio 4.1e-14, f_tilde 1.3e-14,
covariance_drift 3.1e-14, max_abs_cosine 7.2e-15 and residual 6.0e-14, each at
appendix_finite_lr's diverging eta_10 cell or fig5's flows.  Each bound is about 10
times its measurement.  summary.json holds medians and final values of these columns
and example1's catalog residuals; its numbers take the loosest column bound.  Run ids,
grid points and every other entry must agree exactly.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from helpers import REDUCED_SCENARIOS, blas_corename

TOL = {"f": 5e-13, "f_ratio": 5e-13, "f_tilde": 2e-13, "covariance_drift": 4e-13,
       "max_abs_cosine": 1e-13, "residual": 6e-13}
# (OPENBLAS_CORETYPE, OPENBLAS_NUM_THREADS): two kernel types, and one of them at two threads
RUNS = [("Haswell", 1), ("SandyBridge", 1), ("Haswell", 2)]
SCRIPT = textwrap.dedent("""
    import json, sys
    from helpers import blas_corename
    from selfpredict.scenarios import ScenarioConfig, run_scenario
    for scenario, overrides in json.loads(sys.argv[2]).items():
        run_scenario(ScenarioConfig(scenario=scenario, master_seed=0, n_runs=30,
                                    out_dir=sys.argv[1], **overrides))
    print(blas_corename())
""")


def run_reduced(out: Path, coretype: str, threads: int) -> str:
    """Write the reduced scenarios into out under the forced kernel type and thread count;
    returns the kernel type the subprocess's BLAS reported."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(out), json.dumps(REDUCED_SCENARIOS)],
                          env=env, capture_output=True, text=True, check=True, timeout=300)
    return proc.stdout.split()[-1]


def flat(node, key=""):
    """(path, leaf) of every leaf of a JSON tree."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from flat(v, f"{key}/{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from flat(v, f"{key}[{i}]")
    else:
        yield key, node


def within(a, b, tol):
    """Elementwise: a equals b (NaN, an empty field, equals NaN), or is within tol * max(|b|, 1)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        close = np.abs(a - b) <= tol * np.maximum(np.abs(b), 1.0)
    return (a == b) | (np.isnan(a) & np.isnan(b)) | close


def moved_too_far(a: Path, b: Path) -> list:
    """Every artifact of tree a that is missing from b or moved past its bound."""
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files and files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    bad = []
    for rel in files:
        if rel.suffix == ".csv":
            heads = [(root / rel).read_text().split("\n", 1)[0].split(",") for root in (a, b)]
            x, y = (np.genfromtxt(root / rel, delimiter=",", skip_header=1, ndmin=2)
                    for root in (a, b))
            assert heads[0] == heads[1] and x.shape == y.shape, rel
            bad += [f"{rel}:{name}" for name, u, v in zip(heads[0], x.T, y.T)
                    if not within(u, v, TOL.get(name, 0.0)).all()]
        else:
            x, y = (dict(flat(json.loads((root / rel).read_text()))) for root in (a, b))
            assert x.keys() == y.keys(), rel
            bad += [f"{rel}:{key}" for key in x
                    if not (x[key] == y[key] or isinstance(x[key], float)
                            and within(x[key], y[key], max(TOL.values())))]
    return bad


def test_kernel_types_and_threads_move_artifacts_by_rounding_only(tmp_path):
    if blas_corename() is None:
        pytest.skip("numpy's BLAS has no scipy_openblas_get_corename64_ (not a DYNAMIC_ARCH "
                    "scipy-openblas), so a forced kernel type can be neither set nor confirmed")
    outs = []
    for coretype, threads in RUNS:
        out = tmp_path / f"{coretype}_{threads}"
        got = run_reduced(out, coretype, threads)
        if got.lower() != coretype.lower():
            pytest.skip(f"OPENBLAS_CORETYPE={coretype} ran the {got} kernels on this CPU")
        outs.append(out)
    for other in outs[1:]:
        assert moved_too_far(outs[0], other) == []
