#!/usr/bin/env python3
"""Record the collapse-ablation margins used by the acceptance tests.

The ablation check needs a threshold for how much the full-gradient and
noisy-predictor arms must exceed the semi-gradient baseline.  Inventing one
would bake in an expectation the data may not support, so this script runs
the three arms once at the acceptance population size and freezes the
observed medians.  The margin for each arm is half the observed gap to the
baseline: large enough to fail if the separation collapses, slack enough to
survive numerical drift on a rerun.

Writes tests/data/ablation_margins.json.  Rerun only when the dynamics or
the seeding scheme changes, and commit the result.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from selfpredict import (
    DynamicsConfig,
    gen_symmetric,
    orthonormal_init,
    run_discrete_batch,
    stream_rng,
    stream_seed,
    uniform_distribution,
)
from selfpredict.dynamics import eigen_stack
from selfpredict.scenarios import SIGMA_GRID
from selfpredict.seeding import STREAM_INIT_LEFT, STREAM_MATRIX, STREAM_NOISE

OUT_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / "ablation_margins.json"

MASTER_SEED = 0
N_RUNS = 100
N_STATES = 20
K = 2
ETA = 1e-3
ITERS = 10_000


def final_cosines(gradient_mode: str, predictor_mode: str, sigma: float) -> np.ndarray:
    tms = [gen_symmetric(N_STATES, stream_seed(MASTER_SEED, i, STREAM_MATRIX))
           for i in range(N_RUNS)]
    phi0 = np.stack([
        orthonormal_init(N_STATES, K, stream_seed(MASTER_SEED, i, STREAM_INIT_LEFT))
        for i in range(N_RUNS)])
    cfg = DynamicsConfig(eta=ETA, iters=ITERS, record_every=ITERS,
                         gradient_mode=gradient_mode,
                         predictor_mode=predictor_mode, sigma=sigma)
    rngs = None
    if predictor_mode == "noisy":
        rngs = [stream_rng(MASTER_SEED, i, STREAM_NOISE) for i in range(N_RUNS)]
    # the symmetric chains step in their eigenbasis, as the scenario runner steps them
    spectra, psi0 = eigen_stack(tms, phi0)
    records, _ = run_discrete_batch(psi0, spectra, uniform_distribution(N_STATES),
                                    cfg, rngs)
    return np.array([rs[-1].bundle.max_abs_cosine for rs in records])


def main() -> None:
    sigma_top = max(SIGMA_GRID)
    arms = {
        "semi_optimal": final_cosines("semi", "optimal", 0.0),
        "full_optimal": final_cosines("full", "optimal", 0.0),
        "semi_noisy": final_cosines("semi", "noisy", sigma_top),
    }
    medians = {name: float(np.median(v)) for name, v in arms.items()}
    base = medians["semi_optimal"]
    payload = {
        "master_seed": MASTER_SEED,
        "n_runs": N_RUNS,
        "n_states": N_STATES,
        "k": K,
        "eta": ETA,
        "iters": ITERS,
        "noise_sigma": sigma_top,
        "medians": medians,
        "margins": {
            "full_optimal": (medians["full_optimal"] - base) / 2.0,
            "semi_noisy": (medians["semi_noisy"] - base) / 2.0,
        },
    }
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT_PATH}")
    for name, med in medians.items():
        print(f"  {name}: median final max_abs_cosine = {med:.6f}")


if __name__ == "__main__":
    main()
