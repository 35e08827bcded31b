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
target, so a pair (BidirState) is an input of the single dynamics' drivers,
which run it as two adjacent runs of one stack, the left member against P and
the right one against P^T, through the same lockstep kernel (blow-up guard
included) and flow integration.  run_discrete_bidir, integrate_bidir and
integrate_bidir_batch are those drivers under the pair's names; this module
keeps the pair's own closed forms and the runner's flow entry point.
"""

from __future__ import annotations

import numpy as np

from .markov import TransitionMatrix
from .metrics import normalizers  # noqa: F401 (bench/tracing.py wraps it)
from . import dynamics
from .dynamics import (BidirState, _check_state, _flow, _integrate, _require_doubly_stochastic,
                       _require_uniform)
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


def integrate_flows_batch(flows, t_end: float = 100.0, n_records: int = 100,
                          rel_tol: float = 1e-9, abs_tol: float = 1e-9, run_offset: int = 0):
    """integrate_ode_batch of several (state0, tms) entries in one loop.

    state0 is an (m, n, k) stack for the single flow or a BidirState of them for
    the pair.  Returns each entry's (records, final state) as integrate_ode_batch
    does; errors name an entry's run from run_offset and its flow.  Beside a pair a
    single run rides as a twin pair (see dynamics._integrate), so its records move
    by integrator rounding from integrate_ode_batch's.  A loop with a pair uses
    this module's solve_ivp, so bench/tracing.py's spans tell the flows apart.
    """
    flows = list(flows)
    solve = solve_ivp if any(isinstance(s, BidirState) for s, _ in flows) else dynamics.solve_ivp
    return _integrate(flows, t_end, n_records, rel_tol, abs_tol, run_offset, solve)
