"""Argument checks.  Every width, alpha, seed, epsilon and tolerance goes through
errors.require_number, so each range case below raises InvalidInputError before any
work.  The typed raises that no other test reaches have one case each (TYPED)."""

import json
import math

import numpy as np
import pytest

from selfpredict import (BidirState, DynamicsConfig, InvalidInputError, ShapeMismatchError,
                         UnknownScenarioError, cli, gen_doubly_stochastic, gen_symmetric,
                         integrate_ode_batch, normalizers, orthonormal_init, prediction_loss,
                         predictor_gradient, run_discrete_batch, semi_gradient_step,
                         sinkhorn_normalize, solve_predictor, trace_objective,
                         uniform_distribution, validate_distribution)
from selfpredict.bidirectional import integrate_flows_batch
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


def config_main(tmp_path, body):
    """cli.main on a --config file holding body."""
    path = tmp_path / "run.json"
    path.write_text(body)
    return cli.main(["--config", str(path)])


TYPED = {  # site: (call, error type, message fragment)
    "cli.main: a config that is not an object": (
        lambda tmp: config_main(tmp, "[1, 2]"), InvalidInputError, "JSON object"),
    "cli.main: no scenario": (
        lambda tmp: config_main(tmp, '{"n_runs": 2}'), UnknownScenarioError, "no scenario"),
    "_pair_loss_grad: unknown loss_kind": (
        lambda tmp: prediction_loss(PHI, PRED, TM, D, "hinge"), InvalidInputError, "loss_kind"),
    "_integrate: flows of different shapes": (
        lambda tmp: integrate_flows_batch([(PHI[None], TM), (PHI[None, :, :1], TM)]),
        ShapeMismatchError, "share the representation shape"),
    "_rep_stack: left and right stacks differ": (
        lambda tmp: run_discrete_batch(BidirState(PHI[None], PHI[None, :, :1]), TM, D,
                                       DynamicsConfig()),
        ShapeMismatchError, "stacks differ"),
    "_rep_stack: a chain that is not a TransitionMatrix": (
        lambda tmp: run_discrete_batch(PHI[None], [TM.entries], D, DynamicsConfig()),
        InvalidInputError, "TransitionMatrix instances"),
    "validate_distribution: 2-D": (
        lambda tmp: validate_distribution(D[None]), InvalidInputError, "one-dimensional"),
    "validate_distribution: non-finite": (
        lambda tmp: validate_distribution([math.nan, 0.5, 0.5]), InvalidInputError, "finite"),
    "metrics._matrix: not square": (
        lambda tmp: trace_objective(PHI, RAW[:, :2]), InvalidInputError, "square matrix"),
}


@pytest.mark.parametrize("site", TYPED)
def test_each_typed_raise_is_reached(tmp_path, capsys, site):
    call, error, fragment = TYPED[site]
    if site.startswith("cli."):  # the CLI prints the error as JSON and exits 2
        assert call(tmp_path) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == error.__name__ and fragment in payload["message"]
    else:
        with pytest.raises(error, match=fragment):
            call(tmp_path)
