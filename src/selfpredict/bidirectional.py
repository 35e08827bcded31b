"""Paired forward and backward representation dynamics.

A single representation trained on forward prediction can only capture
spectral structure that a symmetric compression sees.  Training two
representations jointly, one predicting successors of the other and one
predicting predecessors, aligns the pair with the chain's singular
subspaces instead, so it reaches the singular value ceiling on chains
where the single dynamics provably cannot.

Everything here assumes a doubly stochastic chain under the uniform state
distribution; that is what makes the reversed process a chain with the same
stationary weights.  Routines raise NotDoublyStochasticError or
InvalidInputError when the assumption fails.  integrate_bidir_batch steps a
stack of pairs through the same stacked integrator as the single flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotDoublyStochasticError, ShapeMismatchError
from .markov import TransitionMatrix, n_step_matrix, validate_distribution
from .metrics import _max_abs_cosine, _norm, normalizers
from .dynamics import (DynamicsConfig, _check_horizon, _rep_stack, _trajectories,
                       covariance_solve)
from .rk45 import solve_ivp

ORTHONORMAL_TOL = 1e-8
UNIFORM_TOL = 1e-12


@dataclass(frozen=True)
class BidirState:
    """The two representations: left predicts forward, right predicts backward."""

    left: np.ndarray
    right: np.ndarray

    @property
    def k(self) -> int:
        return self.left.shape[1]


def _check_state(state: BidirState, n: int) -> BidirState:
    lv = np.asarray(state.left, dtype=float)
    rv = np.asarray(state.right, dtype=float)
    if lv.ndim != 2 or rv.ndim != 2 or lv.shape != rv.shape:
        raise ShapeMismatchError(
            f"left and right must share a 2d shape, got {np.shape(state.left)} and {np.shape(state.right)}")
    if lv.shape[0] != n:
        raise ShapeMismatchError(f"representations have {lv.shape[0]} rows, chain has {n} states")
    if not 1 <= lv.shape[1] <= n:
        raise InvalidInputError(f"need 1 <= k <= n, got k={lv.shape[1]}")
    return BidirState(lv, rv)


def _require_doubly_stochastic(tm: TransitionMatrix) -> None:
    if not isinstance(tm, TransitionMatrix):
        raise InvalidInputError("expected a TransitionMatrix")
    if not tm.is_doubly_stochastic:
        raise NotDoublyStochasticError(
            "bidirectional dynamics need unit column sums so the reversed chain is stochastic")


def _require_uniform(d, n: int) -> np.ndarray:
    v = validate_distribution(d, n)
    if np.abs(v - 1.0 / n).max() > UNIFORM_TOL:
        raise InvalidInputError("bidirectional dynamics are defined for the uniform distribution")
    return v


def bidir_optimal_predictors(state: BidirState, tm: TransitionMatrix, d):
    """Optimal forward and backward predictors at orthonormal representations.

    Under the module preconditions (doubly stochastic chain, uniform d,
    both representations orthonormal within 1e-8) the normal equations
    collapse to fwd = left^T P right, and the backward predictor is its
    transpose, returned as exactly that by construction.
    """
    _require_doubly_stochastic(tm)
    st = _check_state(state, tm.n)
    _require_uniform(d, tm.n)
    k = st.k
    for name, v in (("left", st.left), ("right", st.right)):
        err = np.abs(v.T @ v - np.eye(k)).max()
        if err > ORTHONORMAL_TOL:
            raise InvalidInputError(
                f"{name} representation deviates from orthonormal by {err:.3e}")
    fwd = st.left.T @ tm.entries @ st.right
    return fwd, fwd.T.copy()


def _pair_flow(a, left, right):
    """Both legs of the paired flow (see bidir_ode_rhs) for (..., n, k) stacks."""
    pr, pl = a @ right, a.swapaxes(-1, -2) @ left
    fwd = left.swapaxes(-1, -2) @ pr
    bwd = fwd.swapaxes(-1, -2)
    return (pr - left @ fwd) @ bwd, (pl - right @ bwd) @ fwd


def bidir_ode_rhs(state: BidirState, tm: TransitionMatrix) -> BidirState:
    """Continuous-time flow of the pair under their optimal predictors.

    left' = (I - L L^T) P R fwd^T and right' = (I - R R^T) P^T L fwd with
    fwd = L^T P R (the backward predictor is fwd^T, hence the bare fwd in
    the second leg).
    """
    _require_doubly_stochastic(tm)
    st = _check_state(state, tm.n)
    return BidirState(*_pair_flow(tm.entries, st.left, st.right))


def _pair_metrics(a, left, right, c0_left, c0_right):
    """f, f_tilde, drift, cosine and flow residual of (..., n, k) stacks of pairs."""
    lt, rt = left.swapaxes(-1, -2), right.swapaxes(-1, -2)
    pred, cross = lt @ a @ left, lt @ a @ right
    cl, cr = lt @ left, rt @ right
    d_left, d_right = _pair_flow(a, left, right)
    return (np.sum(pred * pred, axis=(-2, -1)), np.sum(cross * cross, axis=(-2, -1)),
            np.maximum(np.abs(cl - c0_left).max(axis=(-2, -1)),
                       np.abs(cr - c0_right).max(axis=(-2, -1))),
            np.maximum(_max_abs_cosine(cl), _max_abs_cosine(cr)),
            np.hypot(_norm(d_left, axis=(-2, -1)), _norm(d_right, axis=(-2, -1))))


def integrate_bidir_batch(state0: BidirState, tms, t_end: float = 100.0, n_records: int = 100,
                          rel_tol: float = 1e-9, abs_tol: float = 1e-9, run_offset: int = 0):
    """integrate_ode_batch for the pair: state0 and the returned final state
    hold (m, n, k) stacks, and every chain in tms must be doubly stochastic."""
    left, tms = _rep_stack(state0.left, tms)
    right, _ = _rep_stack(state0.right, tms)
    if left.shape != right.shape:
        raise ShapeMismatchError(f"left and right stacks differ: {left.shape} and {right.shape}")
    for tm in tms:
        _require_doubly_stochastic(tm)
    _check_horizon(t_end, n_records)
    m, n, k = left.shape
    a = np.stack([t.entries for t in tms])
    svd_norms = np.array([normalizers(t, k).svd_norm for t in tms])

    def rhs(y):
        pair = y.reshape(m, 2 * n, k)
        return np.concatenate(_pair_flow(a, pair[:, :n], pair[:, n:]), axis=1).reshape(m, -1)

    t_eval = np.linspace(0.0, t_end, n_records + 1)
    sol = solve_ivp(rhs, t_end, np.concatenate([left, right], axis=1).reshape(m, -1),
                    t_eval, rel_tol, abs_tol, run_offset)
    pair = sol.y.reshape(m, -1, 2 * n, k)
    lv, rv = pair[:, :, :n], pair[:, :, n:]
    c0 = [(v.swapaxes(-1, -2) @ v)[:, None] for v in (left, right)]
    f, f_tilde, drift, cos, resid = _pair_metrics(a[:, None], lv, rv, *c0)
    records = _trajectories(t_eval.tolist(), f, f_tilde / svd_norms[:, None], drift, cos,
                            resid, f_tilde)
    return records, BidirState(lv[:, -1], rv[:, -1])


def integrate_bidir(state0: BidirState, tm: TransitionMatrix, t_end: float = 100.0,
                    n_records: int = 100, rel_tol: float = 1e-9, abs_tol: float = 1e-9):
    """Integrate the paired flow; returns (records, final BidirState).

    Records carry f for the left representation alone, f_tilde for the pair,
    and f_ratio = f_tilde over the singular value ceiling, which this flow
    drives to one.  Wraps integrate_bidir_batch.
    """
    _require_doubly_stochastic(tm)
    st = _check_state(state0, tm.n)
    records, final = integrate_bidir_batch(BidirState(st.left[None], st.right[None]), tm,
                                           t_end, n_records, rel_tol, abs_tol)
    return records[0], BidirState(final.left[0], final.right[0])


def run_discrete_bidir(state0: BidirState, tm: TransitionMatrix, d, config: DynamicsConfig):
    """Discrete lockstep training of the pair with per-step optimal predictors.

    Both updates are computed from the same pre-step pair and applied
    together.  Predictors come from the k-by-k normal equations (the
    uniform weight cancels), so mild orthonormality drift along the run is
    handled rather than assumed away.  Only the plain configuration is
    supported: semi gradient, optimal predictor, squared loss, no target.
    """
    _require_doubly_stochastic(tm)
    st = _check_state(state0, tm.n)
    _require_uniform(d, tm.n)
    if (config.gradient_mode, config.predictor_mode, config.loss_kind) != ("semi", "optimal", "squared") \
            or config.target_beta is not None:
        raise InvalidInputError(
            "run_discrete_bidir supports semi gradient, optimal predictor, squared loss only")
    tm_run = n_step_matrix(tm, config.n_step) if config.n_step > 1 else tm
    a = tm_run.entries
    n, k = st.left.shape
    svd_norm = normalizers(tm_run, k).svd_norm
    left = st.left.copy()
    right = st.right.copy()
    c0_left = left.T @ left
    c0_right = right.T @ right
    steps, snapshots = [0.0], [(left.copy(), right.copy())]
    scale = 2.0 * config.eta / n
    for step in range(1, config.iters + 1):
        pr = a @ right
        pl = a.T @ left
        fwd = covariance_solve(left.T @ left, left.T @ pr)
        bwd = covariance_solve(right.T @ right, right.T @ pl)
        d_left = scale * ((pr - left @ fwd) @ fwd.T)
        d_right = scale * ((pl - right @ bwd) @ bwd.T)
        left += d_left
        right += d_right
        if step % config.record_every == 0 or step == config.iters:
            steps.append(float(step))
            snapshots.append((left.copy(), right.copy()))
    lefts, rights = (np.stack(s)[None] for s in zip(*snapshots))
    f, f_tilde, drift, cos, resid = _pair_metrics(a, lefts, rights, c0_left, c0_right)
    records = _trajectories(steps, f, f_tilde / svd_norm, drift, cos, resid, f_tilde)
    return records[0], BidirState(left, right)
