"""Range checks: every width, alpha, seed, epsilon and tolerance goes through
errors.require_number, so each call below raises InvalidInputError before any work."""

import math

import numpy as np
import pytest

from selfpredict import (InvalidInputError, gen_doubly_stochastic, gen_symmetric,
                         integrate_ode_batch, normalizers, orthonormal_init, prediction_loss,
                         predictor_gradient, semi_gradient_step, sinkhorn_normalize,
                         solve_predictor, trace_objective, uniform_distribution)
from selfpredict.scenarios import ScenarioConfig, _resolve

N = 3  # also the fixed chain's size, so k = N + 1 is past fig5's width as well
TM = gen_symmetric(N, 0)
PHI = orthonormal_init(N, 2, 0)
PRED = np.eye(2)
D = uniform_distribution(N)
RAW = np.random.default_rng(0).random((N, N))

WIDTH = {  # every site of the rule 1 <= k <= n
    "_check_rep": lambda k: trace_objective(np.ones((N, k)), TM),
    "_stack_shape": lambda k: integrate_ode_batch(np.ones((1, N, k)), TM, t_end=1.0, n_records=1),
    "orthonormal_init": lambda k: orthonormal_init(N, k, 0),
    "normalizers": lambda k: normalizers(TM, k),
    "ScenarioConfig": lambda k: ScenarioConfig("fig2_collapse", n_states=N, k=k),
    "fig5": lambda k: _resolve(ScenarioConfig("fig5_failure_mode", n_states=8, k=k)),
}
SEED = {
    "orthonormal_init": lambda s: orthonormal_init(N, 2, s),
    "gen_symmetric": lambda s: gen_symmetric(N, s),
    "gen_doubly_stochastic": lambda s: gen_doubly_stochastic(N, s),
}
EPSILON = {
    "prediction_loss": lambda e: prediction_loss(PHI, PRED, TM, D, "cosine_eps", epsilon=e),
    "predictor_gradient": lambda e: predictor_gradient(PHI, PRED, TM, D, "cosine_eps", epsilon=e),
    "semi_gradient_step": lambda e: semi_gradient_step(PHI, PRED, TM, D, 0.1, "cosine_eps",
                                                       epsilon=e),
    "solve_predictor": lambda e: solve_predictor(PHI, TM, D, "cosine_eps", epsilon=e),
}
TOLERANCE = {
    "sinkhorn_normalize tol": lambda t: sinkhorn_normalize(RAW, tol=t),
    "sinkhorn_normalize max_iters": lambda t: sinkhorn_normalize(RAW, max_iters=t),
    "solve_predictor tol": lambda t: solve_predictor(PHI, TM, D, tol=t),
    "integrate_ode_batch rel_tol": lambda t: integrate_ode_batch(PHI[None], TM, rel_tol=t),
    "integrate_ode_batch abs_tol": lambda t: integrate_ode_batch(PHI[None], TM, abs_tol=t),
}
CASES = [
    *((site, call, k) for site, call in WIDTH.items() for k in (0, N + 1)),
    *(("alpha", lambda a: gen_doubly_stochastic(N, 0, alpha=a), a)
      for a in (True, -0.1, 1.1, math.nan)),
    *((site, call, s) for site, call in SEED.items() for s in (-1, 1.5, True, None)),
    *((site, call, e) for site, call in EPSILON.items() for e in (math.nan, math.inf, 0.0, -1.0)),
    *((site, call, t) for site, call in TOLERANCE.items() for t in (math.nan, 0, -1)),
]


@pytest.mark.parametrize("call, value", [pytest.param(call, value, id=f"{site}-{value!r}")
                                         for site, call, value in CASES])
def test_out_of_range_argument_raises_invalid_input(call, value):
    # seed None used to draw OS entropy, alpha True ran as 1.0, epsilon NaN returned NaN,
    # and tol NaN iterated until NonConvergenceError or InnerSolveFailureError
    with pytest.raises(InvalidInputError):
        call(value)


def test_the_widths_edges_pass():
    for call in WIDTH.values():
        call(1)
        call(N)
