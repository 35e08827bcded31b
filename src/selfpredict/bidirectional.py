"""Paired forward and backward representation dynamics.

A single representation trained on forward prediction only captures spectral
structure that a symmetric compression sees.  Training two representations
jointly, one predicting successors of the other and one predecessors, aligns the
pair with the chain's singular subspaces, so it reaches the singular value ceiling
on chains where the single dynamics provably cannot.  Everything here assumes a
doubly stochastic chain under the uniform state distribution, which makes the
reversed process a chain with the same stationary weights; routines raise
NotDoublyStochasticError or InvalidInputError when that fails.

A pair (BidirState) is an input of the single dynamics' drivers, which run it as
two adjacent runs of one stack, each member with the other as its live target,
left against P and right against P^T.  run_discrete_bidir, integrate_bidir and
integrate_bidir_batch are those drivers under the pair's names; this module keeps
the pair's closed forms and the runner's flow entry point.
"""

from __future__ import annotations

import numpy as np

from .markov import TransitionMatrix
from .metrics import normalizers  # noqa: F401 (bench/tracing.py wraps it)
from . import dynamics
from .dynamics import (FLOW_N_RECORDS, FLOW_T_END, FLOW_TOL, BidirState, _each, _flow, _integrate,
                       _rep_stack, _require_uniform)
from .dynamics import (integrate_ode as integrate_bidir,  # noqa: F401 (the drivers' pair names)
                       integrate_ode_batch as integrate_bidir_batch,
                       run_discrete as run_discrete_bidir)
from .errors import InvalidInputError
from .rk45 import solve_ivp

ORTHONORMAL_TOL = 1e-8


def bidir_optimal_predictors(state: BidirState, tm: TransitionMatrix, d):
    """Optimal forward and backward predictors at orthonormal representations.

    Under the module preconditions (doubly stochastic chain, uniform d,
    both representations orthonormal within 1e-8) the normal equations
    collapse to fwd = left^T P right, and the backward predictor is its
    transpose, returned as exactly that by construction.
    """
    (left, right), (tm, _), _ = _rep_stack(_each(state, lambda v: np.asarray(v)[None]), [tm])
    _require_uniform(d, tm.n)
    for name, v in (("left", left), ("right", right)):
        err = np.abs(v.T @ v - np.eye(v.shape[1])).max()
        if err > ORTHONORMAL_TOL:
            raise InvalidInputError(
                f"{name} representation deviates from orthonormal by {err:.3e}")
    fwd = left.T @ tm.entries @ right
    return fwd, fwd.T.copy()


def bidir_ode_rhs(state: BidirState, tm: TransitionMatrix) -> BidirState:
    """Continuous-time flow of the pair under their optimal predictors.

    left' = (I - L L^T) P R fwd^T and right' = (I - R R^T) P^T L fwd with
    fwd = L^T P R (the backward predictor is fwd^T, hence the bare fwd in
    the second leg): the single flow of each member against the other.
    """
    pair, tms, _ = _rep_stack(_each(state, lambda v: np.asarray(v)[None]), [tm])
    return BidirState(*_flow(np.stack([t.entries for t in tms]), pair, pair[::-1]))


def integrate_flows_batch(flows, t_end: float = FLOW_T_END, n_records: int = FLOW_N_RECORDS,
                          rel_tol: float = FLOW_TOL, abs_tol: float = FLOW_TOL, run_offset: int = 0):
    """integrate_ode_batch of several (state0, tms) entries, an (m, n, k) stack or a
    BidirState of them, in one loop: each entry's (records, final state), errors naming
    an entry's run from run_offset and its flow.  Beside a pair a single run rides as a
    twin pair (dynamics._integrate), which moves its records by integrator rounding.  A
    loop with a pair uses this module's solve_ivp, so bench/tracing.py tells the flows apart.
    """
    flows = list(flows)
    solve = solve_ivp if any(isinstance(s, BidirState) for s, _ in flows) else dynamics.solve_ivp
    return _integrate(flows, t_end, n_records, rel_tol, abs_tol, run_offset, solve)
