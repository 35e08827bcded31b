"""The stacked Dormand-Prince 5(4) integrator behind the continuous flows.

scipy's solve_ivp(method="RK45") is the oracle: the stacked integrator
follows its step control, so sampled states agree to far below the
tolerance.  scipy is imported here only; the package itself never loads it
for the flows.
"""

import signal
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from selfpredict import (
    BidirState,
    StepSizeUnderflowError,
    gen_doubly_stochastic,
    gen_symmetric,
    integrate_bidir,
    integrate_bidir_batch,
    integrate_ode,
    integrate_ode_batch,
    orthonormal_init,
)
from selfpredict import dynamics, rk45
from selfpredict.dynamics import _flow

GENERATORS = {"symmetric": gen_symmetric, "doubly_stochastic": gen_doubly_stochastic}


def single_rhs(a):
    """The single-representation flow in the stacked (m, n*k) layout."""
    def rhs(y):
        v = y.reshape(a.shape[0], a.shape[1], -1)
        return _flow(a, v, v).reshape(len(y), -1)
    return rhs


def scipy_states(a, v0, t_eval, tol):
    def rhs(_t, y):
        v = y.reshape(v0.shape)
        return _flow(a, v, v).ravel()
    return scipy_solve_ivp(rhs, (0.0, t_eval[-1]), v0.ravel(), method="RK45",
                           t_eval=t_eval, rtol=tol, atol=tol)


@pytest.mark.parametrize("tol", [1e-9, 1e-11])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 8, 20])
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_matches_scipy_rk45(kind, n, k, tol):
    tm = GENERATORS[kind](n, 10 * n + k)
    v0 = orthonormal_init(n, k, n + k)
    t_eval = np.linspace(0.0, 20.0, 11)
    ref = scipy_states(tm.entries, v0, t_eval, tol)
    sol = rk45.solve_ivp(single_rhs(tm.entries[None]), 20.0, v0.reshape(1, -1),
                         t_eval, tol, tol)
    assert ref.success
    assert np.abs(sol.y[0] - ref.y.T).max() <= 100 * tol
    # Same step control: the two integrators evaluate the flow as often,
    # give or take one rejected step.
    assert abs(sol.nfev - ref.nfev) <= 6
    # The public driver lands on the same final state.
    _, final = integrate_ode(v0, tm, t_end=20.0, n_records=10, rel_tol=tol, abs_tol=tol)
    assert np.abs(final.ravel() - ref.y[:, -1]).max() <= 100 * tol


@pytest.mark.parametrize("tol", [1e-9, 1e-11])
@pytest.mark.parametrize("n", [3, 8])
def test_paired_flow_matches_scipy_rk45(n, tol):
    tm = gen_doubly_stochastic(n, n)
    a = tm.entries
    left, right = orthonormal_init(n, 2, 1), orthonormal_init(n, 2, 2)

    def rhs(_t, y):
        lv, rv = y.reshape(2, n, 2)
        return np.concatenate([_flow(a, lv, rv).ravel(), _flow(a.T, rv, lv).ravel()])

    ref = scipy_solve_ivp(rhs, (0.0, 20.0), np.concatenate([left.ravel(), right.ravel()]),
                          method="RK45", rtol=tol, atol=tol)
    _, final = integrate_bidir(BidirState(left, right), tm, t_end=20.0, n_records=4,
                               rel_tol=tol, abs_tol=tol)
    got = np.concatenate([final.left.ravel(), final.right.ravel()])
    assert np.abs(got - ref.y[:, -1]).max() <= 100 * tol


def test_single_run_is_bitwise_the_same_alone_and_in_a_stack():
    n, k = 8, 2
    tms = [gen_doubly_stochastic(n, s) for s in range(5)]
    left = np.stack([orthonormal_init(n, k, 10 + s) for s in range(5)])
    right = np.stack([orthonormal_init(n, k, 20 + s) for s in range(5)])
    stacked, final = integrate_ode_batch(left, tms, t_end=30.0, n_records=15)
    alone, final_alone = integrate_ode(left[2], tms[2], t_end=30.0, n_records=15)
    assert stacked[2] == alone
    assert np.array_equal(final[2], final_alone)
    stacked, final = integrate_bidir_batch(BidirState(left, right), tms, t_end=30.0,
                                           n_records=15)
    alone, final_alone = integrate_bidir(BidirState(left[2], right[2]), tms[2],
                                         t_end=30.0, n_records=15)
    assert stacked[2] == alone
    assert np.array_equal(final.left[2], final_alone.left)
    assert np.array_equal(final.right[2], final_alone.right)


def test_rhs_calls_equal_nfev(monkeypatch):
    calls = []
    solver = dynamics.solve_ivp

    def counted(fun, *args, **kwargs):
        def fun_counted(y):
            calls.append(len(y))
            return fun(y)
        sol = solver(fun_counted, *args, **kwargs)
        calls.append(("nfev", sol.nfev))
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    tms = [gen_symmetric(6, s) for s in range(3)]
    phi0 = np.stack([orthonormal_init(6, 2, s) for s in range(3)])
    integrate_ode_batch(phi0, tms, t_end=10.0, n_records=5)
    assert calls[-1] == ("nfev", len(calls) - 1)
    assert set(calls[:-1]) == {3}


def test_import_loads_no_scipy():
    code = ("import sys, selfpredict; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


@contextmanager
def time_limit(seconds):
    def expire(*_):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("scale", [1e100, 1e200])
def test_overflowing_flows_end_in_step_underflow(scale):
    tm = gen_symmetric(6, 0)
    phi = orthonormal_init(6, 2, 0) * scale
    with time_limit(30):
        with pytest.raises(StepSizeUnderflowError, match="run 0"):
            integrate_ode(phi, tm, t_end=10.0)
        with pytest.raises(StepSizeUnderflowError, match="run 0"):
            integrate_bidir(BidirState(phi, orthonormal_init(6, 2, 1) * scale), tm, t_end=10.0)


def test_underflow_names_the_run_in_its_chunk():
    tms = [gen_symmetric(6, s) for s in range(3)]
    phi0 = np.stack([orthonormal_init(6, 2, s) for s in range(3)])
    phi0[1] *= 1e200
    with time_limit(30):
        with pytest.raises(StepSizeUnderflowError, match="run 26"):
            integrate_ode_batch(phi0, tms, t_end=10.0, run_offset=25)
