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
from hypothesis import Phase, given, settings, strategies as st
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
from selfpredict import dynamics, rk45, scenarios
from selfpredict.dynamics import _flow
from selfpredict.scenarios import ScenarioConfig, run_scenario
from selfpredict.seeding import STREAM_INIT_LEFT, STREAM_INIT_RIGHT, stream_seed

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
    sol = rk45.solve_ivp(single_rhs(tm.entries[None]), v0.reshape(1, -1), t_eval, tol)
    assert ref.success
    assert np.abs(sol.y[0] - ref.y.T).max() <= 100 * tol
    # Same step control: the two integrators evaluate the flow as often,
    # give or take one rejected step.
    assert abs(sol.nfev - ref.nfev) <= 6
    # The public driver lands on the same final state.
    _, final = integrate_ode(v0, tm, t_end=20.0, n_records=10, tol=tol)
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
    _, final = integrate_bidir(BidirState(left, right), tm, t_end=20.0, n_records=4, tol=tol)
    got = np.concatenate([final.left.ravel(), final.right.ravel()])
    assert np.abs(got - ref.y[:, -1]).max() <= 100 * tol


def counted_steps(monkeypatch, module):
    """nfev of every solve_ivp call made through module, in call order."""
    nfevs, solver = [], module.solve_ivp

    def counted(*args, **kwargs):
        sol = solver(*args, **kwargs)
        nfevs.append(sol.nfev)
        return sol

    monkeypatch.setattr(module, "solve_ivp", counted)
    return nfevs


def test_single_run_is_bitwise_the_same_alone_and_in_a_stack(monkeypatch):
    # Scaled states move at a different speed and take a different number of
    # steps, so each run shares the stack with runs that leave it before and after.
    n, k, m = 8, 2, 5
    tms = [gen_doubly_stochastic(n, s) for s in range(m)]
    scale = np.array([1.0, 1.6, 0.7, 1.3, 0.9])[:, None, None]
    left = scale * np.stack([orthonormal_init(n, k, 10 + s) for s in range(m)])
    right = scale * np.stack([orthonormal_init(n, k, 20 + s) for s in range(m)])
    for t_end in (4.0, 30.0):
        # Both flows integrate through dynamics.solve_ivp, so each is counted in turn.
        single = counted_steps(monkeypatch, dynamics)
        stacked, final = integrate_ode_batch(left, tms, t_end=t_end, n_records=15)
        for i in range(m):
            alone, final_alone = integrate_ode(left[i], tms[i], t_end=t_end, n_records=15)
            assert stacked[i] == alone
            assert np.array_equal(final[i], final_alone)
        monkeypatch.undo()
        pair = counted_steps(monkeypatch, dynamics)
        paired, final_pairs = integrate_bidir_batch(BidirState(left, right), tms, t_end=t_end,
                                                    n_records=15)
        for i in range(m):
            alone, final_alone = integrate_bidir(BidirState(left[i], right[i]), tms[i],
                                                 t_end=t_end, n_records=15)
            assert paired[i] == alone
            assert np.array_equal(final_pairs.left[i], final_alone.left)
            assert np.array_equal(final_pairs.right[i], final_alone.right)
        monkeypatch.undo()
        for nfevs in (single, pair):  # the stack's call, then one call per run alone
            alone = nfevs[1:]
            assert len(alone) == m and len(set(alone)) >= 3  # runs finish before and after others
            assert nfevs[0] == max(alone)  # the stack steps until its slowest run finishes


def member_rhs(y, a):
    """Each member's flow against the other member of its row, a row's w members in the
    stacked (m, w*n*k) layout on their (m, w, n, n) chains (dynamics._integrate's rhs)."""
    v = y.reshape(*a.shape[:3], -1)
    return _flow(a, v, v[:, ::-1]).reshape(len(y), -1)


@given(k=st.sampled_from([1, 2, 3]), n=st.sampled_from([3, 6]), data=st.data())
@settings(max_examples=12, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_a_twin_row_integrates_each_member_as_that_member_alone(k, n, data):
    # A twin (two identical members on one chain) among pair rows of scaled states, which
    # step at their own speeds, so rows leave the stack and write grid points in any mix.
    rows = data.draw(st.integers(1, 30), label="rows")
    twin = data.draw(st.integers(0, rows - 1), label="twin")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    tms = [gen_doubly_stochastic(n, seed + i) for i in range(rows)]
    a = np.stack([(t.entries, t.entries.T) for t in tms])
    scale = np.random.default_rng(seed).uniform(0.7, 1.6, (rows, 2, 1, 1))
    v0 = scale * np.stack([[orthonormal_init(n, k, 2 * (seed + i) + j) for j in (0, 1)]
                           for i in range(rows)])
    a[twin, 1], v0[twin, 1] = a[twin, 0], v0[twin, 0]
    t_eval = np.linspace(0.0, 20.0, 21)
    stack = rk45.solve_ivp(member_rhs, v0.reshape(rows, -1), t_eval, 1e-9, (a,), members=2)
    alone = rk45.solve_ivp(member_rhs, v0[twin, :1].reshape(1, -1), t_eval, 1e-9,
                           (a[twin, None, :1],))
    for member in stack.y[twin].reshape(len(t_eval), 2, -1).swapaxes(0, 1):
        assert np.array_equal(member, alone.y[0])


def test_rhs_calls_equal_nfev(monkeypatch):
    calls = []
    solver = dynamics.solve_ivp

    def counted(fun, *args, **kwargs):
        def fun_counted(y, *operands):
            calls.append(len(y))
            assert all(len(a) == len(y) for a in operands)  # per-run operands move with rows
            return fun(y, *operands)
        sol = solver(fun_counted, *args, **kwargs)
        calls.append(("nfev", sol.nfev))
        return sol

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    tms = [gen_symmetric(6, s) for s in range(3)]
    phi0 = np.stack([orthonormal_init(6, 2, s) for s in range(3)])
    integrate_ode_batch(phi0, tms, t_end=10.0, n_records=5)
    assert calls[-1] == ("nfev", len(calls) - 1)
    # The first call sees every run; finished runs leave, so calls never grow,
    # and these runs take different numbers of steps, so the last call is smaller.
    sizes = calls[:-1]
    assert sizes[0] == 3
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] < 3


def test_import_loads_no_scipy(tmp_path):
    # nor does a scenario run load scipy, or numpy.ma (np.median's NaN check imports it),
    # nor does a run left serial, by --workers or by the worker cap, load the process pool
    code = ("import sys, selfpredict\n"
            "def loaded():\n"
            "    print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'multiprocessing') or m.split('.')[:2] == ['numpy', 'ma'] "
            "or m == 'concurrent.futures.process'))\n"
            "loaded()\n"
            "from selfpredict.scenarios import ScenarioConfig, run_scenario\n"
            f"run_scenario(ScenarioConfig('fig5_failure_mode', n_runs=3, t_end=2.0, "
            f"n_records=4, out_dir={str(tmp_path)!r}))\n"
            "loaded()\n"
            # one chunk is one task, so four workers still run it serially
            f"run_scenario(ScenarioConfig('appendix_target_beta', n_runs=2, n_states=5, k=2, "
            f"iters=10, record_every=10, beta=0.5, workers=4, out_dir={str(tmp_path)!r}))\n"
            "loaded()")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["[]", "[]", "[]"]
    assert (tmp_path / "fig5_failure_mode" / "summary.json").exists()
    assert (tmp_path / "appendix_target_beta" / "beta_0.5.csv").exists()


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


@pytest.mark.parametrize("stream, flow", [(STREAM_INIT_LEFT, "single"),
                                          (STREAM_INIT_RIGHT, "pair")])
def test_underflow_names_the_run_and_flow_in_a_mixed_chunk(tmp_path, monkeypatch, stream, flow):
    # fig5 integrates its single runs (as twins) and its pairs in one stack per
    # chunk.  27 runs make two chunks; run 26 is row 1 of the second chunk's
    # singles and row 3 of its stack.  Its left init reaches both flows, whose
    # singles come first; its right init reaches the pair alone.
    big = stream_seed(0, 26, stream)
    init = scenarios.orthonormal_init
    monkeypatch.setattr(scenarios, "orthonormal_init",
                        lambda n, k, seed: init(n, k, seed) * (1e200 if seed == big else 1.0))
    cfg = ScenarioConfig("fig5_failure_mode", n_runs=27, t_end=10.0, n_records=5,
                         out_dir=str(tmp_path))
    with time_limit(30):
        with pytest.raises(StepSizeUnderflowError, match=f"in run 26 of the {flow} flow:"):
            run_scenario(cfg)


def test_repeated_grid_points_are_each_written():
    # The grid's steps do not depend on it, so a grid with repeats writes every
    # copy of a point as the grid of distinct points writes that point.
    y0 = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
    grid = np.array([0.0, 0.0, 0.0, 0.25, 0.25, 0.6, 1.0, 1.0])
    distinct, where = np.unique(grid, return_inverse=True)
    with time_limit(30):
        rep, dis = (rk45.solve_ivp(lambda y: -y * (1.0 + y * y), y0, g, 1e-9)
                    for g in (grid, distinct))
    assert rep.nfev == dis.nfev
    assert np.array_equal(rep.y, dis.y[:, where])


def test_tiny_horizon_records_every_grid_point():
    # linspace puts 21 distinct points among these 101, three of them 0; the flow
    # moves phi by far less than an ulp, so every record is the initial one.
    t_eval = np.linspace(0.0, 1e-322, 101)
    assert len(np.unique(t_eval)) == 21 and np.count_nonzero(t_eval == 0.0) == 3
    with time_limit(30):
        records, _ = integrate_ode(orthonormal_init(6, 2, 0), gen_symmetric(6, 0),
                                   t_end=1e-322, n_records=100)
    assert [r.step_or_time for r in records] == t_eval.tolist()
    assert all(r.bundle == records[0].bundle for r in records)
