"""Argument checks.  Every width, alpha, seed, epsilon and tolerance goes through
errors.require_number, so each range case below raises InvalidInputError before any
work.  Every array argument goes through one gate per kind: markov._matrix (a square
matrix), metrics._check_rep (an (n, k) representation), dynamics._stack_shape (a stack),
markov.validate_distribution and markov._chain (a TransitionMatrix), the first four
converting with markov._floats, which refuses complex, object, string, ragged and
non-finite input.  A property (HOSTILE) calls every public callable that takes an array
or a chain with hostile values and asserts a SelfPredictError or an all-finite result.
The typed raises that no other test reaches have one case each (TYPED).  A flow past its
work bounds (t_end, rel_tol), noise that is not one Generator per run, and a run_offset
that is not a count are refused before any step or integration."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfpredict import (BidirState, DegenerateCovarianceError, DynamicsConfig,
                         InvalidInputError, SelfPredictError, ShapeMismatchError,
                         StepSizeUnderflowError, TransitionMatrix, UnknownScenarioError,
                         bidir_ode_rhs, bidir_optimal_predictors, cli, collapse_metrics,
                         covariance_solve, flow_residual, full_gradient_step,
                         gen_doubly_stochastic, gen_symmetric, integrate_ode, integrate_ode_batch,
                         n_step_matrix, noisy_predictor, normalizers, ode_rhs, optimal_predictor,
                         orthonormal_init, prediction_loss, predictor_gradient,
                         reference_normalizer, run_discrete, run_discrete_batch,
                         semi_gradient_step, sinkhorn_normalize, solve_predictor, spectral,
                         svd_trace_objective, trace_objective, uniform_distribution,
                         validate_distribution)
from selfpredict import dynamics
from selfpredict.bidirectional import integrate_flows_batch
from selfpredict.dynamics import MAX_T_END, MIN_REL_TOL, Trajectories
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
    "integrate_ode_batch t_end": lambda t: integrate_ode_batch(PHI[None], TM, t_end=t),
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


class Integrated(Exception):
    """Raised by a stand-in integrator: the call passed its checks."""


FLOW_BOUNDS = [  # (site, call, value): the flows' work bounds, past which a flow would run
    *((site, call, t) for t in (2 * MAX_T_END, 1e308) for site, call in (
        ("integrate_ode_batch t_end", TOLERANCE["integrate_ode_batch t_end"]),
        ("ScenarioConfig t_end", lambda t: ScenarioConfig("fig4_trace_ratio", t_end=t)))),
    *(("integrate_ode_batch rel_tol", lambda t: integrate_ode_batch(PHI[None], TM, rel_tol=t,
                                                                    abs_tol=t), t)
      for t in (MIN_REL_TOL / 2, 1e-300)),
]


@pytest.mark.parametrize("call, value", [pytest.param(call, value, id=f"{site}-{value!r}")
                                         for site, call, value in FLOW_BOUNDS])
def test_a_flow_past_its_work_bound_is_refused_before_integrating(monkeypatch, call, value):
    # t_end=1e308 integrated until killed (the work grows with t_end), and so did
    # rel_tol=1e-300 at t_end=10
    monkeypatch.setattr(dynamics, "solve_ivp", lambda *a: pytest.fail("a flow was integrated"))
    with pytest.raises(InvalidInputError, match="t_end|rel_tol"):
        call(value)


def test_the_flow_bounds_edges_pass(monkeypatch):
    def stand_in(*args):
        raise Integrated

    monkeypatch.setattr(dynamics, "solve_ivp", stand_in)
    with pytest.raises(Integrated):
        integrate_ode_batch(PHI[None], TM, t_end=MAX_T_END, rel_tol=MIN_REL_TOL)
    assert ScenarioConfig("fig4_trace_ratio", t_end=MAX_T_END).t_end == MAX_T_END


NOISY = DynamicsConfig(predictor_mode="noisy", sigma=0.1, iters=2)
NOISE = {  # name: a factory of noise_rngs for a stack of two runs
    "none": lambda: None,
    "ints": lambda: [1, 1],
    "a generator expression": lambda: (np.random.default_rng(i) for i in range(2)),
    "one Generator, not a sequence": lambda: np.random.default_rng(0),
    "one Generator short": lambda: [np.random.default_rng(0)],
    "one not a Generator": lambda: [np.random.default_rng(0), np.random.RandomState(1)],
}


@pytest.mark.parametrize("name", NOISE)
def test_noise_generators_are_checked_before_the_first_step(monkeypatch, name):
    # [1] raised AttributeError from inside the step, a generator expression TypeError
    monkeypatch.setattr(dynamics, "covariance_solve_batch", lambda *a: pytest.fail("a step ran"))
    with pytest.raises(InvalidInputError, match="sequence of 2 numpy Generators"):
        run_discrete_batch(np.stack([PHI, PHI]), TM, D, NOISY, NOISE[name]())


@pytest.mark.parametrize("rng", [5, None, np.random.RandomState(0)], ids=repr)
def test_noisy_predictor_takes_a_generator_only(rng):
    # rng=5 raised AttributeError
    with pytest.raises(InvalidInputError, match="rng must be a numpy Generator"):
        noisy_predictor(PHI, TM, D, 0.1, rng)


FAILING = {  # driver: (a call whose one run fails, naming it from run_offset; its error)
    "run_discrete_batch": (lambda offset: run_discrete_batch(
        np.zeros((1, N, 2)), TM, D, DynamicsConfig(iters=2), run_offset=offset),
        DegenerateCovarianceError),
    "integrate_ode_batch": (lambda offset: integrate_ode_batch(
        PHI[None] * 1e200, TM, t_end=10.0, run_offset=offset), StepSizeUnderflowError),
}


@pytest.mark.parametrize("offset", ["x", 2.5, -3, None, True])
@pytest.mark.parametrize("driver", FAILING)
def test_run_offset_is_checked_before_a_failing_run(driver, offset):
    # "x" turned the run's error into a TypeError while its message was built, and 2.5
    # and -3 named "run 2.5" and "run -3"
    call, error = FAILING[driver]
    with pytest.raises(error, match="run 7"):
        call(7)
    with pytest.raises(InvalidInputError, match="run_offset"):
        call(offset)


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
    "_integrate: no flows": (
        lambda tmp: integrate_flows_batch([]), ShapeMismatchError, "share the representation shape"),
    "_rep_stack: left and right stacks differ": (
        lambda tmp: run_discrete_batch(BidirState(PHI[None], PHI[None, :, :1]), TM, D,
                                       DynamicsConfig()),
        ShapeMismatchError, "stacks differ"),
    "_rep_stack: a chain that is not a TransitionMatrix": (
        lambda tmp: run_discrete_batch(PHI[None], [TM.entries], D, DynamicsConfig()),
        InvalidInputError, "expected a TransitionMatrix"),
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


PAIR = BidirState(PHI, orthonormal_init(N, 2, 1))
SHORT = dict(t_end=0.1, n_records=1)
HOSTILE = {  # name: (call, its valid keyword arguments; those named in ARRAYS get hostile values)
    "TransitionMatrix.from_entries": (TransitionMatrix.from_entries, dict(entries=TM.entries)),
    "sinkhorn_normalize": (sinkhorn_normalize, dict(raw=RAW)),
    "validate_distribution": (validate_distribution, dict(d=D)),
    "n_step_matrix": (n_step_matrix, dict(tm=TM, n_steps=2)),
    "spectral": (spectral, dict(tm=TM, kind="svd")),
    "normalizers": (normalizers, dict(tm=TM, k=2)),
    "reference_normalizer": (reference_normalizer, dict(tm=TM, k=2)),
    "trace_objective": (trace_objective, dict(phi=PHI, p=TM)),
    "svd_trace_objective": (svd_trace_objective, dict(left=PAIR.left, right=PAIR.right, p=TM)),
    "collapse_metrics": (collapse_metrics, dict(phi=PHI, phi_init=PAIR.right)),
    "covariance_solve": (covariance_solve, dict(cov=PHI.T @ PHI, rhs=PRED)),
    "optimal_predictor": (optimal_predictor, dict(phi=PHI, p=TM, d=D, phi_target=PHI)),
    "noisy_predictor": (lambda **kw: noisy_predictor(sigma=0.1, rng=np.random.default_rng(0),
                                                     **kw),
                        dict(phi=PHI, p=TM, d=D, phi_target=PHI)),
    "prediction_loss": (prediction_loss, dict(phi=PHI, pred=PRED, p=TM, d=D, phi_target=PHI)),
    "predictor_gradient": (predictor_gradient,
                           dict(phi=PHI, pred=PRED, p=TM, d=D, phi_target=PHI)),
    "semi_gradient_step": (lambda **kw: semi_gradient_step(eta=0.1, **kw),
                           dict(phi=PHI, pred=PRED, p=TM, d=D, phi_target=PHI)),
    "full_gradient_step": (lambda **kw: full_gradient_step(eta=0.1, **kw),
                           dict(phi=PHI, pred=PRED, p=TM, d=D)),
    "solve_predictor": (solve_predictor, dict(phi=PHI, p=TM, d=D, phi_target=PHI)),
    "ode_rhs": (ode_rhs, dict(phi=PHI, p=TM)),
    "flow_residual": (flow_residual, dict(phi=PHI, p=TM)),
    "run_discrete": (lambda **kw: run_discrete(config=DynamicsConfig(iters=2), **kw),
                     dict(phi0=PHI, tm=TM, d=D)),
    "run_discrete (a pair)": (lambda **kw: run_discrete(config=DynamicsConfig(iters=2), **kw),
                              dict(phi0=PAIR, tm=TM, d=D)),
    "run_discrete_batch": (lambda **kw: run_discrete_batch(config=DynamicsConfig(iters=2), **kw),
                           dict(phi0_stack=PHI[None], tms=[TM], d=D)),
    "integrate_ode": (lambda **kw: integrate_ode(**kw, **SHORT), dict(phi0=PHI, tm=TM)),
    "integrate_ode (a pair)": (lambda **kw: integrate_ode(**kw, **SHORT), dict(phi0=PAIR, tm=TM)),
    "integrate_ode_batch": (lambda **kw: integrate_ode_batch(**kw, **SHORT),
                            dict(phi0_stack=PHI[None], tms=TM)),
    "bidir_optimal_predictors": (bidir_optimal_predictors, dict(state=PAIR, tm=TM, d=D)),
    "bidir_ode_rhs": (bidir_ode_rhs, dict(state=PAIR, tm=TM)),
}
ARRAYS = ("entries", "raw", "d", "tm", "tms", "phi", "p", "left", "right", "phi_init", "cov",
          "rhs", "phi_target", "pred", "phi0", "phi0_stack", "state")
KINDS = ("nan", "inf", "-inf", "complex", "object", "string", "0-d", "empty", "ragged",
         "a row short", "an axis more", "none")


def hostile(valid, kind: str, i: int):
    """A hostile stand-in of kind for an argument whose valid value is valid (a chain stands
    in by its entries, a pair by one member's value, or its left member's for the pair)."""
    if isinstance(valid, BidirState):
        side, i = ("left", "right", None)[i % 3], i // 3
        if side is None:
            return hostile(valid.left, kind, i)
        return dataclasses.replace(valid, **{side: hostile(getattr(valid, side), kind, i)})
    base = valid.entries if isinstance(valid, TransitionMatrix) else np.asarray(
        [t.entries for t in valid] if isinstance(valid, list) else valid)
    if kind in ("nan", "inf", "-inf"):
        out = base.copy()
        out.flat[i % out.size] = float(kind)
        return out
    return {"complex": lambda: base + 1j, "object": lambda: base.astype(object),
            "string": lambda: base.astype(str), "0-d": lambda: np.array(0.5),
            "empty": lambda: np.empty((0,) * base.ndim),
            "ragged": lambda: [base.tolist(), base.tolist()[:-1]],
            "a row short": lambda: base[:-1], "an axis more": lambda: base[..., None],
            "none": lambda: None}[kind]()


def all_finite(x) -> bool:
    """Every number in a result (arrays, records, dataclasses and tuples of them) is finite."""
    if x is None or isinstance(x, str):
        return True
    if isinstance(x, Trajectories):
        return all_finite(x.columns)
    if dataclasses.is_dataclass(x):
        return all(all_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return all(all_finite(v) for v in x)
    return bool(np.isfinite(np.asarray(x, dtype=float)).all())


@pytest.mark.parametrize("name", HOSTILE)
def test_the_hostile_calls_pass_on_valid_arguments(name):
    call, kwargs = HOSTILE[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all_finite(call(**kwargs))


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(HOSTILE)), data=st.data(), kind=st.sampled_from(KINDS),
       i=st.integers(0, 2 ** 16))
def test_hostile_arrays_end_in_a_typed_error_or_a_finite_result(name, data, kind, i):
    # trace_objective(phi + 1j, tm) returned the real part's answer, normalizers(np.eye(3), 2)
    # raised AttributeError, and a NaN phi came back as a NaN objective
    call, kwargs = HOSTILE[name]
    arg = data.draw(st.sampled_from([a for a in kwargs if a in ARRAYS]), label="argument")
    kwargs = {**kwargs, arg: hostile(kwargs[arg], kind, i)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**kwargs)
        except SelfPredictError:
            return
    assert all_finite(result), (name, arg, kind)
