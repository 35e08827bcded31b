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
InvalidInputError when the assumption fails.

Each member is the single dynamics' learner with its partner as the live
target, so a pair runs as two adjacent runs of one dynamics stack, the left
member against P and the right one against P^T, through the single dynamics'
lockstep kernel (blow-up guard included) and flow integration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotDoublyStochasticError, ShapeMismatchError
from .markov import TransitionMatrix, validate_distribution
from .metrics import _check_rep, normalizers  # noqa: F401 (bench/tracing.py wraps it)
from . import dynamics
from .dynamics import DynamicsConfig, _discrete, _flow, _integrate, _rep_stack
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
    if np.shape(state.left) != np.shape(state.right):
        raise ShapeMismatchError(
            f"left and right must share a shape, got {np.shape(state.left)} and {np.shape(state.right)}")
    return BidirState(_check_rep(state.left, n, "left"), _check_rep(state.right, n, "right"))


def _pair_chains(tms) -> list:
    """P and P^T for each doubly stochastic chain: a stacked pair's left and right chains."""
    for t in tms:
        _require_doubly_stochastic(t)
    return [c for t in tms for c in
            (t, t if t.is_bitwise_symmetric else TransitionMatrix.from_entries(t.entries.T))]


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


def bidir_ode_rhs(state: BidirState, tm: TransitionMatrix) -> BidirState:
    """Continuous-time flow of the pair under their optimal predictors.

    left' = (I - L L^T) P R fwd^T and right' = (I - R R^T) P^T L fwd with
    fwd = L^T P R (the backward predictor is fwd^T, hence the bare fwd in
    the second leg): the single flow of each member against the other.
    """
    _require_doubly_stochastic(tm)
    st = _check_state(state, tm.n)
    pair = np.stack([st.left, st.right])
    return BidirState(*_flow(np.stack([tm.entries, tm.entries.T]), pair, pair[::-1]))


def integrate_bidir_batch(state0: BidirState, tms, t_end: float = 100.0, n_records: int = 100,
                          rel_tol: float = 1e-9, abs_tol: float = 1e-9, run_offset: int = 0):
    """integrate_ode_batch for the pair: state0 and the returned final state
    hold (m, n, k) stacks, and every chain in tms must be doubly stochastic."""
    return integrate_flows_batch([(state0, tms)], t_end, n_records, rel_tol, abs_tol,
                                 run_offset)[0]


def integrate_flows_batch(flows, t_end: float = 100.0, n_records: int = 100,
                          rel_tol: float = 1e-9, abs_tol: float = 1e-9, run_offset: int = 0):
    """integrate_ode_batch and integrate_bidir_batch of several stacks in one loop.

    flows holds (state0, tms) entries: an (m, n, k) stack for the single flow, a
    BidirState of them for the pair.  Returns each entry's (records, final state)
    as its driver does; errors name an entry's run from run_offset and its flow.
    Beside a pair a single run rides as a twin pair (see dynamics._integrate), so
    its records move by integrator rounding from integrate_ode_batch's.
    """
    stacks = [(*_pair_stack(st, tms), 2) if isinstance(st, BidirState) else (st, tms, 1)
              for st, tms in flows]
    paired = any(r == 2 for *_, r in stacks)
    results = _integrate(stacks, t_end, n_records, rel_tol, abs_tol, run_offset,
                         solve_ivp if paired else dynamics.solve_ivp)
    return [(rec, BidirState(final[0::2], final[1::2]) if r == 2 else final)
            for (rec, final), (*_, r) in zip(results, stacks)]


def _pair_stack(state0: BidirState, tms):
    """The (2m, n, k) stack of m pairs, members adjacent, and its chains."""
    left, tms = _rep_stack(state0.left, tms)
    right, _ = _rep_stack(state0.right, tms)
    if left.shape != right.shape:
        raise ShapeMismatchError(f"left and right stacks differ: {left.shape} and {right.shape}")
    return np.stack([left, right], axis=1).reshape(-1, *left.shape[1:]), _pair_chains(tms)


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
    together.  Predictors come from the k-by-k normal equations, so mild
    orthonormality drift along the run is handled rather than assumed away.
    The pair trains as a two-run stack of run_discrete_batch's kernel, so a
    divergent pair is rescaled as one and reports inf only where a value is
    not representable.  Only the plain configuration is supported: semi
    gradient, optimal predictor, squared loss, no target.
    """
    _require_doubly_stochastic(tm)
    st = _check_state(state0, tm.n)
    d = _require_uniform(d, tm.n)
    if (config.gradient_mode, config.predictor_mode, config.loss_kind) != ("semi", "optimal", "squared") \
            or config.target_beta is not None:
        raise InvalidInputError(
            "run_discrete_bidir supports semi gradient, optimal predictor, squared loss only")
    records, final = _discrete(np.stack([st.left, st.right]), _pair_chains([tm]), d, config, r=2)
    return records[0], BidirState(*final)
