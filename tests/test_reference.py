"""Whole runs of the lockstep kernel against the plain loops in reference.py."""

import numpy as np
from hypothesis import given, settings, strategies as st

import reference
from selfpredict import (
    BidirState,
    DynamicsConfig,
    gen_doubly_stochastic,
    gen_symmetric,
    orthonormal_init,
    run_discrete_batch,
    run_discrete_bidir,
    uniform_distribution,
)

COLUMNS = ("f", "f_ratio", "f_tilde", "covariance_drift", "max_abs_cosine", "residual")
# Every column is built from sums of O(1) products, which can cancel: drift,
# cosine and residual are differences, and f passes through zero where phi^T P phi
# changes sign.  So besides the 1e-10 relative bound a column may differ at
# the rounding floor of those terms.
ROUNDING_FLOOR = 1e-13
# Mode settings and the largest step size drawn.  The full gradient collapses
# the columns, and near collapse the covariance amplifies rounding, so its steps
# stay small enough that 300 of them end well short of that.
SINGLE_MODES = {
    "semi": (dict(), 0.5),
    "full": (dict(gradient_mode="full"), 0.01),
    "slow_target": (dict(target_beta=0.5), 0.5),
    "noisy": (dict(predictor_mode="noisy", sigma=0.05), 0.5),
}


def chain(kind, n, seed):
    return (gen_symmetric if kind == "symmetric" else gen_doubly_stochastic)(n, seed)


def columns(records):
    return {name: np.array([np.nan if getattr(r.bundle, name) is None else getattr(r.bundle, name)
                            for r in records]) for name in COLUMNS}


def assert_records_match(records, steps, want):
    assert [r.step_or_time for r in records] == steps
    got = columns(records)
    for name, col in want.items():
        np.testing.assert_allclose(got[name], col, rtol=1e-10, atol=ROUNDING_FLOOR, err_msg=name)


def assert_state_matches(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())


def horizon(data, n):
    """k, iters and record_every of one example; k < n keeps the residual off its floor."""
    k = data.draw(st.integers(1, n - 1), label="k")
    iters = data.draw(st.integers(1, 300), label="iters")
    return k, iters, data.draw(st.integers(1, iters), label="record_every")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), mode=st.sampled_from(sorted(SINGLE_MODES)),
       kind=st.sampled_from(["symmetric", "doubly_stochastic"]), uniform=st.booleans(),
       n=st.integers(3, 8), seed=st.integers(0, 2**31))
def test_single_runs_match_reference(data, mode, kind, uniform, n, seed):
    kwargs, top_eta = SINGLE_MODES[mode]
    eta = data.draw(st.floats(top_eta / 50, top_eta), label="eta")
    k, iters, record_every = horizon(data, n)
    m = 2
    tms = [chain(kind, n, seed + i) for i in range(m)]
    d = uniform_distribution(n) if uniform else np.random.default_rng(seed).dirichlet(np.ones(n))
    phi0 = np.stack([orthonormal_init(n, k, seed + 7 + i) for i in range(m)])
    cfg = DynamicsConfig(eta=eta, iters=iters, record_every=record_every, **kwargs)
    noisy = mode == "noisy"
    rngs = [np.random.default_rng(seed + 3 + i) for i in range(m)] if noisy else None
    records, final = run_discrete_batch(phi0, tms, d, cfg, rngs)
    for i in range(m):
        steps, want, phi = reference.single_run(
            phi0[i], tms[i].entries, d, eta, iters, record_every, cfg.gradient_mode,
            cfg.target_beta, cfg.sigma, np.random.default_rng(seed + 3 + i) if noisy else None)
        assert all(r.bundle.f_tilde is None for r in records[i])
        assert_records_match(records[i], steps, want)
        assert_state_matches(final[i], phi)


# Both members of a pair are semi-gradient learners, so the pair draws eta as the
# semi mode does.  Larger steps let some pairs diverge (n=3 and eta=2, where
# 2 eta / n = 4/3, is one case): the residual reaches 1e12, and there the numpy
# reference sits further from 60-digit arithmetic than the kernel does, by more
# than the bound.  test_divergent_pair_is_guarded checks a diverging pair against
# 60-digit arithmetic instead.
@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["symmetric", "doubly_stochastic"]),
       n=st.integers(3, 8), eta=st.floats(SINGLE_MODES["semi"][1] / 50, SINGLE_MODES["semi"][1]),
       seed=st.integers(0, 2**31))
def test_pairs_match_reference(data, kind, n, eta, seed):
    k, iters, record_every = horizon(data, n)
    tm = chain(kind, n, seed)
    st0 = BidirState(orthonormal_init(n, k, seed + 1), orthonormal_init(n, k, seed + 2))
    cfg = DynamicsConfig(eta=eta, iters=iters, record_every=record_every)
    records, final = run_discrete_bidir(st0, tm, uniform_distribution(n), cfg)
    steps, want, left, right = reference.pair_run(st0.left, st0.right, tm.entries, eta,
                                                  iters, record_every)
    assert_records_match(records, steps, want)
    assert_state_matches(final.left, left)
    assert_state_matches(final.right, right)
