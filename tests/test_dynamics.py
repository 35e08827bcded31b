import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from helpers import central_fd, rel_err
from selfpredict import dynamics
from selfpredict import (
    BidirState,
    DegenerateCovarianceError,
    DynamicsConfig,
    InnerSolveFailureError,
    InvalidInputError,
    NonFiniteStateError,
    NotSymmetricError,
    ShapeMismatchError,
    TransitionMatrix,
    collapse_metrics,
    covariance_solve,
    fixed_example_2x2,
    flow_residual,
    full_gradient_step,
    gen_doubly_stochastic,
    gen_symmetric,
    integrate_bidir,
    integrate_bidir_batch,
    integrate_ode,
    integrate_ode_batch,
    n_step_matrix,
    noisy_predictor,
    ode_rhs,
    optimal_predictor,
    orthonormal_init,
    prediction_loss,
    predictor_gradient,
    reference_normalizer,
    run_discrete,
    run_discrete_batch,
    semi_gradient_step,
    solve_predictor,
    spectral,
    stream_seed,
    svd_trace_objective,
    trace_objective,
    uniform_distribution,
)


def random_instance(seed, n=5, k=2):
    rng = np.random.default_rng(seed)
    tm = gen_symmetric(n, seed)
    phi = orthonormal_init(n, k, seed + 1)
    pred = rng.standard_normal((k, k))
    return tm, phi, pred, uniform_distribution(n)


class TestOrthonormalInit:
    def test_orthonormal_within_tolerance(self):
        phi = orthonormal_init(20, 5, 0)
        assert np.abs(phi.T @ phi - np.eye(5)).max() <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(orthonormal_init(9, 3, 4), orthonormal_init(9, 3, 4))

    def test_k_bounds(self):
        with pytest.raises(InvalidInputError):
            orthonormal_init(3, 4, 0)
        with pytest.raises(InvalidInputError):
            orthonormal_init(3, 0, 0)

    @pytest.mark.parametrize("n, k, name", [(3.5, 2, "n"), (3, 2.0, "k"), (3, True, "k"),
                                            (np.nan, 1, "n"), (None, 1, "n")])
    def test_sizes_are_integers(self, n, k, name):
        # 3.5 used to raise a TypeError from numpy
        with pytest.raises(InvalidInputError, match=f"^{name} must be"):
            orthonormal_init(n, k, 0)
        assert np.array_equal(orthonormal_init(np.int64(4), np.int32(2), 0), orthonormal_init(4, 2, 0))


class TestSingleRunChecks:
    """The single-run functions check numbers and shapes with the drivers' checks."""

    @pytest.mark.parametrize("args", [(0, -1, 0), (-1, 0, 0), (0, 0, -1), (0, 1.5, 0),
                                      (True, 0, 0), (0, 0, None)])
    def test_stream_seed_parts(self, args):
        # (0, -1, 0) used to raise a ValueError from numpy
        with pytest.raises(InvalidInputError):
            stream_seed(*args)
        assert stream_seed(np.int64(3), np.int32(1), 2) == stream_seed(3, 1, 2)

    @pytest.mark.parametrize("call", [
        lambda phi, pred, tm, d: prediction_loss(phi, pred, tm, d),
        lambda phi, pred, tm, d: predictor_gradient(phi, pred, tm, d),
        lambda phi, pred, tm, d: semi_gradient_step(phi, pred, tm, d, 0.1),
        lambda phi, pred, tm, d: full_gradient_step(phi, pred, tm, d, 0.1),
    ])
    def test_pred_is_k_by_k(self, call):
        tm, phi, pred, d = random_instance(0)
        for bad in (np.eye(3), np.ones((2, 3)), np.ones(2)):
            with pytest.raises(ShapeMismatchError, match="pred must be"):
                call(phi, bad, tm, d)
        assert np.all(np.isfinite(call(phi, pred, tm, d)))

    @pytest.mark.parametrize("call", [
        lambda phi, tm, d, t: optimal_predictor(phi, tm, d, t),
        lambda phi, tm, d, t: noisy_predictor(phi, tm, d, 0.1, np.random.default_rng(0), t),
        lambda phi, tm, d, t: prediction_loss(phi, np.eye(2), tm, d, phi_target=t),
        lambda phi, tm, d, t: predictor_gradient(phi, np.eye(2), tm, d, phi_target=t),
        lambda phi, tm, d, t: semi_gradient_step(phi, np.eye(2), tm, d, 0.1, phi_target=t),
        lambda phi, tm, d, t: solve_predictor(phi, tm, d, phi_target=t),
    ])
    def test_phi_target_has_phis_columns(self, call):
        # only optimal_predictor used to check; the rest ended in a numpy broadcast error
        tm, phi, _, d = random_instance(0)
        with pytest.raises(ShapeMismatchError, match="phi_target"):
            call(phi, tm, d, orthonormal_init(5, 1, 9))

    @pytest.mark.parametrize("eta", [np.nan, np.inf, 0.0, -0.1, True, None, "0.1"])
    def test_step_sizes_are_positive_finite_numbers(self, eta):
        # eta=nan used to return NaN silently
        tm, phi, pred, d = random_instance(0)
        for step in (semi_gradient_step, full_gradient_step):
            with pytest.raises(InvalidInputError, match="eta"):
                step(phi, pred, tm, d, eta)

    @pytest.mark.parametrize("loss_kind", ["squared", "l1", "cosine_eps"])
    def test_a_step_needs_rows_summing_to_one(self, loss_kind):
        # the semi step used to weight rows by d times p's row sums, the full step by d alone
        tm, phi, pred, d = random_instance(0)
        steps = [lambda a: semi_gradient_step(phi, pred, a, d, 0.1, loss_kind),
                 lambda a: full_gradient_step(phi, pred, a, d, 0.1)][:1 + (loss_kind == "squared")]
        for step in steps:
            with pytest.raises(InvalidInputError, match="rows to sum to 1"):
                step(1.5 * tm.entries)
            assert np.array_equal(step(tm.entries.copy()), step(tm))


class TestOptimalPredictor:
    def test_eigenvector_gives_eigenvalue(self):
        tm = fixed_example_2x2()
        basis = spectral(tm, "eigen").right_vectors
        d = uniform_distribution(2)
        assert np.allclose(optimal_predictor(basis[:, :1], tm, d), [[1.0]], atol=1e-12)
        assert np.allclose(optimal_predictor(basis[:, 1:], tm, d), [[-0.8]], atol=1e-12)

    def test_mixed_unit_vector(self):
        # coordinates (0.6, 0.8) in the eigenbasis: predictor is the
        # eigenvalue average 0.36 * 1 + 0.64 * (-0.8)
        tm = fixed_example_2x2()
        basis = spectral(tm, "eigen").right_vectors
        phi = 0.6 * basis[:, :1] + 0.8 * basis[:, 1:]
        pred = optimal_predictor(phi, tm, uniform_distribution(2))
        assert np.allclose(pred, [[0.36 - 0.512]], atol=1e-12)

    def test_full_eigenbasis_gives_diagonal(self):
        tm = fixed_example_2x2()
        basis = spectral(tm, "eigen").right_vectors
        pred = optimal_predictor(basis, tm, uniform_distribution(2))
        assert np.allclose(pred, np.diag([1.0, -0.8]), atol=1e-12)

    def test_rank_deficient_is_finite(self):
        tm = fixed_example_2x2()
        phi = np.array([[1.0, 0.0], [0.0, 0.0]])
        pred = optimal_predictor(phi, tm, uniform_distribution(2))
        assert np.all(np.isfinite(pred))

    def test_zero_representation_is_degenerate(self):
        with pytest.raises(DegenerateCovarianceError):
            optimal_predictor(np.zeros((3, 2)), gen_symmetric(3, 0), uniform_distribution(3))

    def test_nonuniform_weights_change_solution(self):
        tm = gen_symmetric(4, 2)
        phi = orthonormal_init(4, 2, 0)
        uniform = optimal_predictor(phi, tm, uniform_distribution(4))
        skewed = optimal_predictor(phi, tm, [0.7, 0.1, 0.1, 0.1])
        assert not np.allclose(uniform, skewed)


class TestCovarianceSolve:
    def test_solves_full_rank(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T + np.eye(4)
        rhs = rng.standard_normal((4, 2))
        x = covariance_solve(cov, rhs)
        assert np.allclose(cov @ x, rhs, atol=1e-10)

    def test_zero_covariance_raises(self):
        with pytest.raises(DegenerateCovarianceError):
            covariance_solve(np.zeros((2, 2)), np.ones((2, 1)))


def eigh_pinv_solve(cov, rhs):
    """The spectral pseudoinverse solve the batched solve must reproduce."""
    w, v = np.linalg.eigh(cov)
    keep = np.abs(w) > dynamics.COV_CUTOFF * np.abs(w).max(axis=-1, keepdims=True)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return (v * inv[..., None, :]) @ (v.swapaxes(-1, -2) @ rhs)


def psd_entry(rng, kind, k, scale):
    """One k x k covariance: well conditioned, rank deficient, or near the cutoff."""
    if kind in ("duplicate_column", "zero_column"):
        x = rng.standard_normal((k + 3, k))
        x[:, -1] = x[:, 0] if kind == "duplicate_column" else 0.0
        return scale * (x.T @ x) / (k + 3)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    if kind == "well_conditioned":
        w = 10.0 ** rng.uniform(0.0, 2.0, k)
    else:  # one eigenvalue 1e-14..1e-10 of the largest: under or just over the cutoff
        w = np.ones(k)
        w[0] = 10.0 ** rng.uniform(-14.0, -10.0)
    cov = (q * (scale * w)) @ q.T
    return 0.5 * (cov + cov.T)


class TestCovarianceSolveBatch:
    KINDS = ("well_conditioned", "duplicate_column", "zero_column", "near_cutoff")

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6),
           kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
           scale_exp=st.integers(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_matches_eigh_pseudoinverse(self, seed, k, kinds, scale_exp):
        rng = np.random.default_rng(seed)
        cov = np.stack([psd_entry(rng, kind, k, 10.0 ** scale_exp) for kind in kinds])
        rhs = rng.standard_normal((len(kinds), k, k))
        got = dynamics.covariance_solve_batch(cov, rhs)
        want = eigh_pinv_solve(cov, rhs)
        for kind, g, w in zip(kinds, got, want):
            if kind == "well_conditioned":
                # the certified Cholesky path (or eigh, if a neighbour broke the factorization)
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
            else:
                # the bound cannot certify these, so they take eigh itself
                assert np.array_equal(g, w)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), log_cond=st.floats(0.0, 16.0))
    @settings(max_examples=200, deadline=None)
    def test_certified_runs_truncate_nothing(self, seed, k, log_cond):
        # whatever the conditioning, a run that did not go through eigh is one
        # where eigh would keep every eigenvalue, by the 1e3 margin
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        w = 10.0 ** -rng.uniform(0.0, log_cond, k)
        cov = (q * w) @ q.T
        cov = 0.5 * (cov + cov.T)[None]
        rhs = rng.standard_normal((1, k, 1))
        if not np.array_equal(dynamics.covariance_solve_batch(cov, rhs), eigh_pinv_solve(cov, rhs)):
            ev = np.linalg.eigvalsh(cov[0])
            assert ev.min() > 0.5 * dynamics.CERTIFY_MARGIN * dynamics.COV_CUTOFF * ev.max()

    def test_single_solve_is_a_stack_of_one(self):
        rng = np.random.default_rng(4)
        cov = np.stack([psd_entry(rng, "well_conditioned", 3, 1.0) for _ in range(4)])
        rhs = rng.standard_normal((4, 3, 2))
        batch = dynamics.covariance_solve_batch(cov, rhs)
        for c, r, b in zip(cov, rhs, batch):
            assert np.allclose(covariance_solve(c, r), b, rtol=1e-13, atol=0.0)

    def test_non_finite_input_names_run_and_step(self):
        cov = np.stack([np.eye(2)] * 4)
        cov[2, 1, 0] = np.nan  # eigh and Cholesky read the lower triangle
        with pytest.raises(NonFiniteStateError, match="run 7 at step 3"):
            dynamics.covariance_solve_batch(cov, np.ones((4, 2, 2)), lambda i: f"run {5 + i} at step 3")
        rhs = np.ones((4, 2, 2))
        rhs[1] = np.inf
        with pytest.raises(NonFiniteStateError, match="run 1"):
            dynamics.covariance_solve_batch(np.stack([np.eye(2)] * 4), rhs)

    def test_a_singular_run_leaves_the_others_bitwise(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((6, 3, 3))
        cov, rhs = g @ g.swapaxes(-1, -2), rng.standard_normal((6, 3, 2))
        singular = cov.copy()
        singular[2] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(singular)  # the stacked inverse fails for every run
        got = dynamics.covariance_solve_batch(singular, rhs)
        want = dynamics.covariance_solve_batch(cov, rhs)
        others = [0, 1, 3, 4, 5]
        assert got[others].tobytes() == want[others].tobytes()
        alone = dynamics.covariance_solve_batch(singular[2:3], rhs[2:3])
        assert got[2].tobytes() == alone[0].tobytes()

    def test_zero_covariance_names_run(self):
        cov = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)])
        with pytest.raises(DegenerateCovarianceError, match="run 11"):
            dynamics.covariance_solve_batch(cov, np.ones((3, 2, 1)), lambda i: f"run {10 + i}")

    def test_a_pair_stack_names_the_pair(self):
        # rows 2i and 2i + 1 are pair i's members
        cov = np.stack([np.eye(2)] * 4)
        cov[3, 1, 0] = np.nan
        with pytest.raises(NonFiniteStateError, match="in pair 6 at step 3$"):
            dynamics.covariance_solve_batch(cov, np.ones((4, 2, 2)),
                                             lambda i: f"pair {5 + i // 2} at step 3")
        cov = np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2)])
        with pytest.raises(DegenerateCovarianceError, match="in pair 10$"):
            dynamics.covariance_solve_batch(cov, np.ones((4, 2, 1)), lambda i: f"pair {10 + i // 2}")


class TestKernelStepOracle:
    """One lockstep step against the single-run step functions and optimal_predictor, which
    run the kernel's step on a one-run dense stack: bitwise on the dense path."""

    @pytest.mark.parametrize("mode", ["semi", "full", "slow_target", "noisy_sigma0"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_one_step_matches_oracle(self, mode, seed):
        rng = np.random.default_rng(seed)
        m, n, k, eta = 3, 6, 2, 0.05
        phi0 = np.stack([orthonormal_init(n, k, seed + 10 + i) for i in range(m)])
        cfg = DynamicsConfig(eta=eta, iters=1, record_every=1,
                             gradient_mode="full" if mode == "full" else "semi",
                             predictor_mode="noisy" if mode == "noisy_sigma0" else "optimal",
                             target_beta=0.5 if mode == "slow_target" else None)
        cases = [
            # non-symmetric chains and a non-uniform d exercise P^T and the column weights
            ([gen_doubly_stochastic(n, seed + i) for i in range(m)], rng.dirichlet(np.ones(n))),
            # symmetric chains under uniform d take the eigenbasis, the weight folded into lambda
            ([gen_symmetric(n, seed + i) for i in range(m)], uniform_distribution(n)),
        ]
        for (tms, d), eigen in zip(cases, (False, True)):
            assert dynamics._eigenbasis(tms, d) == eigen
            rngs = [np.random.default_rng(i) for i in range(m)] if mode == "noisy_sigma0" else None
            _, final = run_discrete_batch(phi0, tms, d, cfg, rngs)
            for i in range(m):
                pred = optimal_predictor(phi0[i], tms[i], d)
                if mode == "full":
                    want = full_gradient_step(phi0[i], pred, tms[i], d, eta)
                else:
                    want = semi_gradient_step(phi0[i], pred, tms[i], d, eta, phi_target=phi0[i])
                if eigen:  # the eigenbasis rounds differently from dense P
                    assert np.abs(final[i] - want).max() <= 1e-12 * np.abs(want).max()
                else:
                    assert np.array_equal(final[i], want)


class TestDiagnosticViews:
    """trace_objective, svd_trace_objective, collapse_metrics and flow_residual are the
    record code at one run, so they equal a one-run driver's records bit for bit."""

    def assert_views(self, rec, state, phi0, tm):
        b = rec.bundle
        if isinstance(state, BidirState):
            assert b.f == trace_objective(state.left, tm)
            assert b.f_tilde == svd_trace_objective(state.left, state.right, tm)
            metrics = [collapse_metrics(v, v0) for v, v0 in zip((state.left, state.right), phi0)]
            assert b.covariance_drift == max(c.covariance_drift for c in metrics)
            assert b.max_abs_cosine == max(c.max_abs_cosine for c in metrics)
        else:
            assert b.f == trace_objective(state, tm)
            assert b.residual == flow_residual(state, tm)
            assert (b.covariance_drift, b.max_abs_cosine) == dataclasses.astuple(
                collapse_metrics(state, phi0))

    @pytest.mark.parametrize("pair", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_views_equal_the_records(self, pair, seed):
        n, k = 6, 3
        tm = gen_doubly_stochastic(n, seed)  # not symmetric: the kernel steps on dense P
        phi0 = orthonormal_init(n, k, seed + 10)
        if pair:
            phi0 = BidirState(phi0, orthonormal_init(n, k, seed + 20))
            d = uniform_distribution(n)
        else:
            d = np.random.default_rng(seed).dirichlet(np.ones(n))
        members = (phi0.left, phi0.right) if pair else phi0
        cfg = DynamicsConfig(eta=0.05, iters=5, record_every=5)
        for records, final in (run_discrete(phi0, tm, d, cfg),
                               integrate_ode(phi0, tm, t_end=1.0, n_records=2)):
            self.assert_views(records[0], phi0, members, tm)
            self.assert_views(records[-1], final, members, tm)


class TestNonFiniteState:
    @pytest.mark.parametrize("run_offset", [0, 7])
    def test_a_pair_is_named_by_its_index(self, run_offset):
        # pair 1 is stack rows 2 and 3; it used to read "run 2", where the flows say
        # "run 1 of the pair flow"
        n, tms = 6, [gen_doubly_stochastic(6, s) for s in (30, 31)]
        left, right = (np.stack([orthonormal_init(n, 2, s) for s in seeds])
                       for seeds in ((40, 41), (50, 51)))
        left[1] *= 1e200
        right[1] *= 1e200
        with pytest.raises(NonFiniteStateError,
                           match=f"non-finite predictor solve in pair {run_offset + 1} at step 1$"):
            run_discrete_batch(BidirState(left, right), tms, uniform_distribution(n),
                               DynamicsConfig(iters=3), run_offset=run_offset)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["eigen", "dense", "eigen_pair", "dense_pair"])
    def test_a_hostile_initial_state_ends_in_the_typed_error_alone(self, case):
        # the initial covariance overflowed outside the kernel's errstate, so a
        # RuntimeWarning came first and, under -W error, escaped in place of the error
        n = 6
        d = np.arange(1.0, n + 1) / 21.0 if case == "dense" else uniform_distribution(n)
        tm = gen_doubly_stochastic(n, 0) if case == "dense_pair" else gen_symmetric(n, 0)
        phi = orthonormal_init(n, 2, 0) * 1e200
        state = BidirState(phi, orthonormal_init(n, 2, 1) * 1e200) if "pair" in case else phi
        assert dynamics._eigenbasis([tm], d) == case.startswith("eigen")
        with pytest.raises(NonFiniteStateError, match="at step 1$"):
            run_discrete(state, tm, d, DynamicsConfig(iters=3))

    def test_a_hostile_noisy_run_is_rescaled(self, monkeypatch):
        # eta=50, sigma=1 overflows a noisy run by step 100: the guard rescales it, so each
        # later record is inf where its value overflowed and holds no NaN
        tm, phi, _, d = random_instance(0, n=20)
        cfg = DynamicsConfig(eta=50.0, iters=3000, record_every=100,
                             predictor_mode="noisy", sigma=1.0)
        calls = []
        record_batch = dynamics._record_batch

        def spy(records, step, psi, slog, c0, lam, *rest):
            calls.append((psi[0].copy(), slog[0], c0[0], lam[0, :, 0]))
            record_batch(records, step, psi, slog, c0, lam, *rest)

        monkeypatch.setattr(dynamics, "_record_batch", spy)
        records, _ = run_discrete(phi, tm, d, cfg, noise_rng=np.random.default_rng(0))
        assert [slog > 0 for _, slog, *_ in calls] == [False] + [True] * 30
        assert all(record_matches_mpmath(rec.bundle, *call)  # f overflowed
                   for rec, call in zip(records[1:], calls[1:]))
        assert all(0.0 <= rec.bundle.max_abs_cosine <= 1.0 for rec in records)

    @pytest.mark.parametrize("iters", [3, 5])  # the NaN step is the last one, or not
    @pytest.mark.parametrize("noisy", [False, True])
    def test_a_nan_state_raises_at_its_step(self, monkeypatch, iters, noisy):
        # the guard names the run at the step its state turns NaN, the last step included,
        # and says so: an overflow past the rescale reads "outgrew the blow-up guard"
        step = dynamics._step

        def nan_step(*args):
            apply, op, normal, increment, scratch = step(*args)
            count = iter(range(1, iters + 1))

            def poisoned(pred):
                g = increment(pred)
                if next(count) == 3:
                    g[1, 0, 0] = np.nan
                return g
            return apply, op, normal, poisoned, scratch

        monkeypatch.setattr(dynamics, "_step", nan_step)
        n = 6
        tms = [gen_symmetric(n, s) for s in range(3)]
        phi0 = np.stack([orthonormal_init(n, 2, s) for s in range(3)])
        mode = dict(predictor_mode="noisy", sigma=0.1) if noisy else {}
        rngs = [np.random.default_rng(s) for s in range(3)] if noisy else None
        with pytest.raises(NonFiniteStateError, match="^run 1 at step 3 turned non-finite$"):
            run_discrete_batch(phi0, tms, uniform_distribution(n),
                               DynamicsConfig(iters=iters, **mode), rngs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    # the state overflows at step 9 (eta=1e100) or 2 (1e308) of 50, or at the last step
    @pytest.mark.parametrize("eta, iters", [(1e100, 50), (1e308, 50), (1e308, 1)])
    @pytest.mark.parametrize("uniform", [True, False])  # eigenbasis, dense
    def test_a_step_past_the_guard_raises_without_a_warning(self, eta, iters, uniform):
        # one step outgrows the guard's 2**-256 rescale
        n = 20
        d = uniform_distribution(n) if uniform else np.arange(1.0, n + 1) / (n * (n + 1) / 2)
        with pytest.raises(NonFiniteStateError, match="run 0 at step"):
            run_discrete(orthonormal_init(n, 2, 1), gen_symmetric(n, 0), d,
                         DynamicsConfig(eta=eta, iters=iters))


    def test_a_step_that_outgrows_the_guard_raises_at_that_step(self):
        # it used to run on, its step-8 max_abs_cosine NaN
        with pytest.raises(NonFiniteStateError, match="run 0 at step 4 outgrew the blow-up guard"):
            run_discrete(orthonormal_init(20, 2, 1), gen_symmetric(20, 0), uniform_distribution(20),
                         DynamicsConfig(eta=1e100, iters=8, record_every=1))

    @settings(max_examples=60, deadline=None)
    @given(log_eta=st.floats(0.0, 300.0), iters=st.integers(1, 30), n=st.integers(3, 11),
           pair=st.booleans(), eigen=st.booleans(), seed=st.integers(0, 2**16),
           sigma=st.one_of(st.none(), st.floats(0.0, 100.0)))
    def test_hostile_step_sizes_raise_or_record_no_nan(self, log_eta, iters, n, pair, eigen, seed,
                                                       sigma):
        pair = pair and sigma is None  # a pair trains on the optimal predictor
        tm = (gen_symmetric if eigen or not pair else gen_doubly_stochastic)(n, seed)
        d = uniform_distribution(n) if eigen or pair else np.arange(1.0, n + 1) / (n * (n + 1) / 2)
        phi0 = orthonormal_init(n, 2, seed + 1)
        state = BidirState(phi0, orthonormal_init(n, 2, seed + 2)) if pair else phi0
        noisy = {} if sigma is None else dict(predictor_mode="noisy", sigma=sigma)
        cfg = DynamicsConfig(eta=10.0 ** log_eta, iters=iters, record_every=1, **noisy)
        rng = None if sigma is None else np.random.default_rng(seed)
        try:
            records, _ = run_discrete(state, tm, d, cfg, rng)
        except NonFiniteStateError:
            return
        for rec in records:
            assert not any(np.isnan(v) for v in dataclasses.astuple(rec.bundle) if v is not None)


class TestExactIdentities:
    def test_identity_prediction_is_lossless(self):
        from selfpredict import TransitionMatrix
        tm = TransitionMatrix.from_entries(np.eye(4))
        phi = orthonormal_init(4, 2, 0)
        d = uniform_distribution(4)
        assert prediction_loss(phi, np.eye(2), tm, d) == 0.0
        stepped = semi_gradient_step(phi, np.eye(2), tm, d, eta=0.1)
        assert np.allclose(stepped, phi, atol=1e-16)

    def test_noisy_predictor_sigma_zero_is_exact(self):
        tm, phi, _, d = random_instance(3)
        rng = np.random.default_rng(0)
        a = noisy_predictor(phi, tm, d, 0.0, rng)
        b = optimal_predictor(phi, tm, d)
        assert np.array_equal(a, b)

    def test_noisy_predictor_statistics(self):
        tm, phi, _, d = random_instance(5)
        base = optimal_predictor(phi, tm, d)
        rng = np.random.default_rng(123)
        sigma = 0.3
        draws = np.stack([noisy_predictor(phi, tm, d, sigma, rng) for _ in range(20_000)])
        err = draws.mean(axis=0) - base
        assert np.abs(err).max() <= 4.5 * sigma / np.sqrt(20_000)
        noise = (draws - base).std()
        assert abs(noise - sigma) / sigma <= 0.05


class TestGradientOracles:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_semi_step_matches_fd_with_frozen_target(self, seed):
        tm, phi, pred, d = random_instance(seed)
        frozen = phi.copy()
        stepped = semi_gradient_step(phi, pred, tm, d, eta=1.0, phi_target=frozen)
        analytic = phi - stepped  # the gradient, since eta = 1

        def loss(x):
            return prediction_loss(x, pred, tm, d, phi_target=frozen)

        assert rel_err(analytic, central_fd(loss, phi)) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_step_matches_fd_with_live_target(self, seed):
        tm, phi, pred, d = random_instance(seed)
        stepped = full_gradient_step(phi, pred, tm, d, eta=1.0)
        analytic = phi - stepped

        def loss(x):
            return prediction_loss(x, pred, tm, d, phi_target=x)

        assert rel_err(analytic, central_fd(loss, phi)) <= 1e-6

    @pytest.mark.parametrize("loss_kind", ["squared", "l1", "cosine_eps"])
    def test_predictor_gradient_matches_fd(self, loss_kind):
        tm, phi, pred, d = random_instance(7)
        analytic = predictor_gradient(phi, pred, tm, d, loss_kind)

        def loss(x):
            return prediction_loss(phi, x, tm, d, loss_kind)

        assert rel_err(analytic, central_fd(loss, pred)) <= 1e-6

    @pytest.mark.parametrize("loss_kind", ["l1", "cosine_eps"])
    def test_general_semi_step_matches_fd(self, loss_kind):
        tm, phi, pred, d = random_instance(11)
        frozen = phi.copy()
        stepped = semi_gradient_step(phi, pred, tm, d, eta=1.0,
                                     loss_kind=loss_kind, phi_target=frozen)
        analytic = phi - stepped

        def loss(x):
            return prediction_loss(x, pred, tm, d, loss_kind, phi_target=frozen)

        assert rel_err(analytic, central_fd(loss, phi)) <= 1e-6


class TestHomogeneity:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), scale=st.floats(0.1, 10.0))
    def test_semi_optimal_step_is_degree_one(self, seed, scale):
        tm, phi, _, d = random_instance(seed % 1000)
        pred = optimal_predictor(phi, tm, d)
        base = semi_gradient_step(phi, pred, tm, d, eta=0.05)
        pred_scaled = optimal_predictor(scale * phi, tm, d)
        scaled = semi_gradient_step(scale * phi, pred_scaled, tm, d, eta=0.05)
        assert np.allclose(scaled, scale * base, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("beta", [None, 1.0])
    def test_a_noisy_run_is_degree_one_bitwise(self, beta):
        # the noise is added to a predictor of degree 0, so the blow-up guard's exact
        # power-of-two rescale commutes with a noisy run as with an optimal one
        n, k = 8, 2
        tms = [gen_symmetric(n, s) for s in (3, 4)]
        phi0 = np.stack([orthonormal_init(n, k, s) for s in (5, 6)])
        cfg = DynamicsConfig(eta=0.05, iters=300, record_every=300, predictor_mode="noisy",
                             sigma=0.5, target_beta=beta)
        d = uniform_distribution(n)
        base, scaled = (eigen_and_dense(scale * phi0, tms, d, cfg) for scale in (1.0, 2.0 ** -64))
        for (_, want), (_, got) in zip(base, scaled):  # the eigen path, then the dense one
            assert np.array_equal(got, 2.0 ** -64 * want)


class TestRunDiscrete:
    def test_record_cadence(self):
        tm, phi, _, d = random_instance(0)
        cfg = DynamicsConfig(eta=1e-3, iters=250, record_every=100)
        records, final = run_discrete(phi, tm, d, cfg)
        assert [r.step_or_time for r in records] == [0.0, 100.0, 200.0, 250.0]
        assert final.shape == phi.shape

    def test_batch_matches_singles(self):
        d = uniform_distribution(6)
        tms = [gen_symmetric(6, s) for s in (0, 1, 2)]
        phis = np.stack([orthonormal_init(6, 2, 10 + s) for s in range(3)])
        cfg = DynamicsConfig(eta=1e-2, iters=40, record_every=20)
        batch_records, batch_final = run_discrete_batch(phis, tms, d, cfg)
        for i in range(3):
            records, final = run_discrete(phis[i], tms[i], d, cfg)
            assert np.allclose(final, batch_final[i], rtol=1e-10, atol=1e-13)
            for a, b in zip(records, batch_records[i]):
                assert a.bundle.f == pytest.approx(b.bundle.f, rel=1e-10, abs=1e-13)

    def test_noisy_mode_requires_rng(self):
        tm, phi, _, d = random_instance(0)
        cfg = DynamicsConfig(predictor_mode="noisy", sigma=0.1, iters=5)
        with pytest.raises(InvalidInputError):
            run_discrete(phi, tm, d, cfg)

    def test_noisy_run_is_seed_deterministic(self):
        tm, phi, _, d = random_instance(2)
        cfg = DynamicsConfig(predictor_mode="noisy", sigma=0.5, iters=50, record_every=50)
        out = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            records, final = run_discrete(phi, tm, d, cfg, noise_rng=rng)
            out.append(final)
        assert np.array_equal(out[0], out[1])


class TestTrajectories:
    """The batch functions' records behave as the list of per-run record lists."""

    def flows(self, m=4, n=6, k=2):
        tms = [gen_doubly_stochastic(n, s) for s in range(m)]
        left = np.stack([orthonormal_init(n, k, 10 + s) for s in range(m)])
        right = np.stack([orthonormal_init(n, k, 20 + s) for s in range(m)])
        horizon = dict(t_end=3.0, n_records=5)
        return [
            (integrate_ode_batch(left, tms, **horizon)[0],
             [integrate_ode(left[i], tms[i], **horizon)[0] for i in range(m)]),
            (integrate_bidir_batch(BidirState(left, right), tms, **horizon)[0],
             [integrate_bidir(BidirState(left[i], right[i]), tms[i], **horizon)[0]
              for i in range(m)]),
        ]

    def test_sequence_operations_match_the_list_of_lists(self):
        for view, want in self.flows():
            assert all(type(run) is list for run in want)  # the single-run wrappers
            assert len(view) == len(want) == 4
            assert view == want and want == view and view == view
            assert not view != want
            assert view != want[:-1] and view != want[::-1] and view != tuple(want)
            assert list(view) == want and list(reversed(view)) == want[::-1]
            for i in range(-4, 4):
                assert type(view[i]) is list and view[i] == want[i]
            for s in (slice(None), slice(1, 3), slice(None, None, -1), slice(-3, None, 2),
                      slice(7, 9)):
                assert type(view[s]) is list and view[s] == want[s]
            for i in (4, 5, -5):
                with pytest.raises(IndexError):
                    view[i]
            with pytest.raises(TypeError):
                view[0] = want[0]
            assert view.index(want[2]) == 2 and view.count(want[1]) == 1 and want[3] in view

    def test_records_read_the_columns(self):
        for view, _ in self.flows():
            for i, run in enumerate(view):
                assert [r.step_or_time for r in run] == np.linspace(0.0, 3.0, 6).tolist()
                for j, rec in enumerate(run):
                    for name, col in zip(("f", "f_ratio", "f_tilde", "covariance_drift",
                                          "max_abs_cosine", "residual"), view.columns):
                        got = getattr(rec.bundle, name)
                        assert (got is None) if col is None else (type(got) is float
                                                                  and got == col[i, j])

    def test_discrete_records_match_the_single_run_wrapper(self):
        tm, phi, _, d = random_instance(3)
        cfg = DynamicsConfig(eta=1e-2, iters=30, record_every=7)
        view, _ = run_discrete_batch(phi[None], tm, d, cfg)
        records, _ = run_discrete(phi, tm, d, cfg)
        assert type(records) is list and view == [records]
        assert [r.step_or_time for r in records] == [0.0, 7.0, 14.0, 21.0, 28.0, 30.0]


class TestTargetNetwork:
    def manual_run(self, phi, tm, d, eta, beta, iters):
        cur = phi.copy()
        tgt = phi.copy()
        for _ in range(iters):
            pred = optimal_predictor(cur, tm, d, phi_target=tgt)
            new_tgt = tgt + eta * beta * (cur - tgt)
            cur = semi_gradient_step(cur, pred, tm, d, eta, phi_target=tgt)
            tgt = new_tgt
        return cur

    @pytest.mark.parametrize("beta", [0.0, 2.0])
    def test_engine_matches_manual_loop(self, beta):
        tm, phi, _, d = random_instance(8)
        cfg = DynamicsConfig(eta=1e-2, iters=25, record_every=25, target_beta=beta)
        _, final = run_discrete(phi, tm, d, cfg)
        expected = self.manual_run(phi, tm, d, 1e-2, beta, 25)
        assert np.allclose(final, expected, rtol=1e-10, atol=1e-13)

    def test_frozen_target_differs_from_live(self):
        tm, phi, _, d = random_instance(9)
        frozen = DynamicsConfig(eta=1e-2, iters=200, record_every=200, target_beta=0.0)
        live = DynamicsConfig(eta=1e-2, iters=200, record_every=200)
        _, fin_frozen = run_discrete(phi, tm, d, frozen)
        _, fin_live = run_discrete(phi, tm, d, live)
        assert not np.allclose(fin_frozen, fin_live)


def non_collapse_residuals(case, seed, n=12, k=3, m=6, eta=0.3, iters=300):
    """(orthogonality, identity, smallest eigenvalue) of a run_discrete_batch stack read at
    every step through a _record_batch spy, over every run and step t >= 1, with g the
    increment phi_t - phi_{t-1} and C_t = phi_t^T phi_t:
    max |phi_{t-1}^T g| / (u |phi_{t-1}| (|phi_t| + |g|)), Frobenius norms and u = 2**-53, the
    denominator bounding what reading g as a difference of rounded states adds to it;
    max |C_t - C_0 - sum g^T g| / max |C_t|; and
    min lambda(C_t - C_0) / max |C_t|.  On the eigen path the states are psi = U^T phi,
    whose Gram is phi's."""
    rng = np.random.default_rng(seed)
    gen = gen_symmetric if case in ("eigen", "slow_target") else gen_doubly_stochastic
    tms = [gen(n, seed + i) for i in range(m)]
    d = rng.dirichlet(np.ones(n)) if case == "dense" else uniform_distribution(n)
    phi0 = np.stack([orthonormal_init(n, k, seed + m + i) for i in range(2 * m)])
    phi0 = BidirState(phi0[:m], phi0[m:]) if case == "pair" else phi0[:m]
    cfg = DynamicsConfig(eta=eta, iters=iters, record_every=1,
                         target_beta=0.5 if case == "slow_target" else None)
    states, record_batch = [], dynamics._record_batch

    def spy(records, step, phi, slog, *rest):
        assert not slog.any()  # the guard never fires, so the states are the runs' own
        states.append(phi.copy())
        record_batch(records, step, phi, slog, *rest)

    with pytest.MonkeyPatch.context() as mp:  # a fixture would span every hypothesis example
        mp.setattr(dynamics, "_record_batch", spy)
        run_discrete_batch(phi0, tms, d, cfg)
    phi = np.stack(states)  # (iters + 1, stack rows, n, k); a pair's members are rows of it
    prev, g = phi[:-1], np.diff(phi, axis=0)
    size, step = (np.linalg.norm(x, axis=(-2, -1)) for x in (phi, g))
    read = 2.0 ** -53 * size[:-1] * (size[1:] + step)  # |phi_{t-1}^T (g as read - g)| at most
    orth = np.abs(prev.swapaxes(-1, -2) @ g).max(axis=(-2, -1)) / read
    c = phi.swapaxes(-1, -2) @ phi
    grown = c[1:] - c[0]
    top = np.abs(c[1:]).max(axis=(-2, -1))
    gram_sum = np.cumsum(g.swapaxes(-1, -2) @ g, axis=0)
    return (orth.max(), (np.abs(grown - gram_sum).max(axis=(-2, -1)) / top).max(),
            (np.linalg.eigvalsh(grown).min(axis=-1) / top).min())


class TestNonCollapseIdentity:
    """The non-collapse mechanism as an exact identity of every step.  With the semi gradient
    at the optimal predictor, the normal equations phi^T D phi pred = phi^T D P target give
    phi^T g = 0 for the increment g = 2 eta (D P target - D phi pred) pred^T, whatever d and
    the target (a slow one, or a pair's other member).  So C_t = C_0 + sum g^T g, and
    C_t - C_0 stays positive semidefinite.  The full gradient and predictor noise break it.

    Tolerances: over 300 seeds per case at n = 12, k = 3, m = 6, eta 0.3 and 300 steps, the
    orthogonality read at most 0.40 of its read rounding, the identity at most 4.9e-15 and
    the smallest eigenvalue at least 8.2e-15 (relative to max |C_t|, as returned).  ORTH is
    5 times the first: phi^T g is zero to the rounding of reading it.  At this shape no run
    nears convergence, where g's own rounding adds to that (up to 2.1 times the read bound
    on converging runs at n = 6, eta 1).  IDENTITY is 20 times the second, and the
    eigenvalue may fall that far below 0, as C_t - C_0 is sum g^T g plus the identity's
    error."""

    ORTH, IDENTITY = 2.0, 1e-13

    @pytest.mark.parametrize("case", ["eigen", "dense", "slow_target", "pair"])
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=4, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    def test_the_covariance_grows_by_the_increments_grams(self, case, seed):
        orth, identity, smallest = non_collapse_residuals(case, seed)
        assert orth <= self.ORTH
        assert identity <= self.IDENTITY
        assert smallest >= -self.IDENTITY


class TestBlowUpGuard:
    def test_divergent_run_stays_clean(self):
        tm, phi, _, d = random_instance(1, n=6)
        cfg = DynamicsConfig(eta=10.0, iters=3000, record_every=500)
        records, final = run_discrete(phi, tm, d, cfg)
        for r in records:
            assert not np.isnan(r.bundle.f)
            assert 0.0 <= r.bundle.max_abs_cosine <= 1.0
            assert not np.isnan(r.bundle.covariance_drift)
        assert np.all(np.isinf(final) | np.isfinite(final))

    def test_divergent_run_is_deterministic(self):
        tm, phi, _, d = random_instance(1, n=6)
        cfg = DynamicsConfig(eta=10.0, iters=2000, record_every=1000)
        rec_a, _ = run_discrete(phi, tm, d, cfg)
        rec_b, _ = run_discrete(phi, tm, d, cfg)
        for a, b in zip(rec_a, rec_b):
            assert a.bundle == b.bundle

    def test_cosine_trajectory_is_scale_invariant(self):
        tm, phi, _, d = random_instance(1, n=6)
        cfg = DynamicsConfig(eta=10.0, iters=1500, record_every=300)
        rec_a, _ = run_discrete(phi, tm, d, cfg)
        rec_b, _ = run_discrete(2.0 * phi, tm, d, cfg)
        for a, b in zip(rec_a, rec_b):
            assert b.bundle.max_abs_cosine == pytest.approx(a.bundle.max_abs_cosine,
                                                            rel=1e-6, abs=1e-9)


def projector_residual(phi, slog, p_stack):
    """Record residual through the explicit (m, n, n) tangent projector.

    The Frobenius norm divides by the largest entry first, so it stays
    finite wherever the residual itself is representable; an overflowed
    entry makes it inf.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        pp = p_stack @ phi
        pred = phi.transpose(0, 2, 1) @ pp
        n = phi.shape[1]
        proj = np.exp2(-2.0 * slog)[:, None, None] * np.eye(n) - phi @ phi.transpose(0, 2, 1)
        tangent = proj @ pp @ pred.transpose(0, 2, 1)
        top = np.abs(tangent).max(axis=(1, 2))
        inner = np.where(np.isinf(top), np.inf,
                         top * np.linalg.norm(tangent / top[:, None, None], axis=(1, 2)))
        return np.where(top == 0.0, 0.0, inner * np.exp2(5.0 * slog))


def mpmath_record(psi, slog, c0, lam):
    """f, drift and residual of the state phi = 2**slog psi against diag(lam), in mpmath."""
    phi = mpmath.matrix(psi.tolist()) * mpmath.mpf(2) ** int(slog)
    pp = mpmath.diag(lam.tolist()) * phi
    pred = phi.T * pp
    return dict(f=sum(x ** 2 for x in pred),
                covariance_drift=max(abs(a - b) for a, b in zip(phi.T * phi, c0.ravel().tolist())),
                residual=mpmath.norm((pp - phi * pred) * pred.T, 2))


def record_matches_mpmath(bundle, psi, slog, c0, lam) -> bool:
    """Assert that a record's f, drift and residual are inf exactly where mpmath's values
    (mpmath_record) pass the float range, and within 1e-10 relative elsewhere; True when
    f overflowed."""
    top = mpmath.mpf(np.finfo(float).max)
    with mpmath.workdps(60):
        want = mpmath_record(psi, slog, c0, lam)
    for name, value in want.items():
        got = getattr(bundle, name)
        if value > top:
            assert got == np.inf, name
        else:
            assert abs(got - value) <= 1e-10 * value, (name, got, value)
    return want["f"] > top


class TestRecordResidual:
    def test_step_zero_is_flow_residual(self):
        n, m = 7, 4
        tms = [gen_symmetric(n, s) for s in range(m)]
        phi0 = np.stack([orthonormal_init(n, 3, s + 10) for s in range(m)])
        cfg = DynamicsConfig(eta=1e-2, iters=1)
        records, _ = run_discrete_batch(phi0, tms, uniform_distribution(n), cfg)
        for i in range(m):
            expected = flow_residual(phi0[i], tms[i])
            assert records[i][0].bundle.residual == pytest.approx(expected, rel=1e-12)

    def test_matches_projector_formula_after_rescale(self, monkeypatch):
        n, m = 6, 3
        tms = [gen_symmetric(n, s) for s in range(m)]
        p_stack = np.stack([t.entries for t in tms])
        phi0 = np.stack([orthonormal_init(n, 2, s + 1) for s in range(m)])
        calls = []
        record_batch = dynamics._record_batch

        def spy(records, step, psi, slog, *rest):
            # These chains train in their eigenbasis, psi = U^T phi; map back to phi.
            phi = np.stack([t.eigh[1] @ v for t, v in zip(tms, psi)])
            calls.append((phi, psi.copy(), slog.copy(), rest))
            record_batch(records, step, psi, slog, *rest)

        monkeypatch.setattr(dynamics, "_record_batch", spy)
        cfg = DynamicsConfig(eta=10.0, iters=600, record_every=50)
        records, _ = run_discrete_batch(phi0, tms, uniform_distribution(n), cfg)
        assert any(np.any(slog > 0) for _, _, slog, _ in calls)
        for j, (phi, psi, slog, rest) in enumerate(calls):
            got = np.array([records[i][j].bundle.residual for i in range(m)])
            np.testing.assert_allclose(got, projector_residual(phi, slog, p_stack), rtol=1e-10)
            # The same representations carried at a 2**64 smaller scale, which
            # reaches the 2**(-2 slog) term with finite values.
            shifted = []
            record_batch(shifted, 0.0, psi * 2.0 ** -64, slog + 64.0, *rest)
            again = shifted[0][-1]  # the (step, *columns) record's residual column
            np.testing.assert_allclose(again, got, rtol=1e-10)


    def test_records_after_rescale_match_mpmath(self, monkeypatch):
        n, k, m = 10, 2, 2
        tms = [gen_symmetric(n, s) for s in range(m)]
        phi0 = np.stack([orthonormal_init(n, k, s + 1) for s in range(m)])
        calls = []
        record_batch = dynamics._record_batch

        def spy(records, step, psi, slog, c0, lam, *rest):
            calls.append((psi.copy(), slog.copy(), c0, lam))
            record_batch(records, step, psi, slog, c0, lam, *rest)

        monkeypatch.setattr(dynamics, "_record_batch", spy)
        # a slow target overshooting at eta * beta = 5 diverges within about 140 steps
        cfg = DynamicsConfig(eta=0.05, iters=150, record_every=1, target_beta=100.0)
        records, _ = run_discrete_batch(phi0, tms, uniform_distribution(n), cfg)
        finite_after_rescale = 0
        for j, (psi, slog, c0, lam) in enumerate(calls):
            for i in np.flatnonzero(slog > 0):
                finite_after_rescale += not record_matches_mpmath(
                    records[i][j].bundle, psi[i], slog[i], c0[i], lam[i, :, 0])
        assert finite_after_rescale > 0


# Step sizes that keep a 200-step run away from blow-up and collapse, where either
# path amplifies its rounding: a slow target tracks at eta * beta per step, and at
# eta = 0.5 the full gradient collapses the state and a noisy run can diverge.
EIGEN_MODES = {
    "semi": dict(eta=0.5),
    "full": dict(eta=0.02, gradient_mode="full"),
    "beta_0": dict(eta=0.5, target_beta=0.0),
    "beta_1": dict(eta=0.5, target_beta=1.0),
    "beta_100": dict(eta=0.005, target_beta=100.0),
    "noisy": dict(eta=0.05, predictor_mode="noisy", sigma=0.1),
}


def eigen_and_dense(phi0, tms, d, cfg):
    """run_discrete_batch in the chains' eigenbasis and again on the dense P products."""
    assert dynamics._eigenbasis(tms, d)
    out = []
    for dense in (False, True):
        rngs = ([np.random.default_rng(i) for i in range(len(phi0))]
                if cfg.predictor_mode == "noisy" else None)
        with pytest.MonkeyPatch.context() as mp:
            if dense:
                mp.setattr(dynamics, "_eigenbasis", lambda *args: None)
            out.append(run_discrete_batch(phi0, tms, d, cfg, rngs))
    return out


def record_columns(records):
    return {name: np.array([[getattr(r.bundle, name) for r in run] for run in records])
            for name in ("f", "f_ratio", "residual", "covariance_drift", "max_abs_cosine")}


class TestEigenbasisKernel:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40), k=st.integers(1, 40), iters=st.integers(1, 200),
           mode=st.sampled_from(sorted(EIGEN_MODES)), seed=st.integers(0, 2**31))
    # f falls from 6.8e-3 to 6.6e-13 in one step, and its two values differ by 1.7e-10 relative
    @example(n=13, k=1, iters=1, mode="beta_0", seed=1553592)
    # the second chain's column sums are one within 4.4e-13: max_abs_cosine differs by 1.0e-12
    @example(n=2, k=2, iters=59, mode="full", seed=149)
    def test_matches_dense_path(self, n, k, iters, mode, seed):
        assume(k <= n)
        tms = [gen_symmetric(n, seed + i) for i in range(2)]
        phi0 = np.stack([orthonormal_init(n, k, seed + 7 + i) for i in range(2)])
        cfg = DynamicsConfig(iters=iters, record_every=max(1, iters // 4), **EIGEN_MODES[mode])
        (rec_e, fin_e), (rec_d, fin_d) = eigen_and_dense(phi0, tms, uniform_distribution(n), cfg)
        got, want = record_columns(rec_e), record_columns(rec_d)
        # Each column keeps its flat bound, widened only by what the paths' inputs can carry:
        # - f = ||phi^T P phi||_F^2.  phi^T P phi sums n products of phi's entries, so the
        #   paths' roundings of it stay within a small multiple of n eps ||phi||_F^2, which
        #   floors |sqrt(f_e) - sqrt(f_d)|; an orthonormal start gives ||phi||_F^2 =
        #   tr(phi^T phi) <= k (1 + drift).  The floor matters only where f cancels to near 0.
        # - The eigen path's full gradient takes P^T d as d, while a chain's column sums are
        #   one only within s <= 1e-12 (the Sinkhorn tolerance).  So each full step moves a
        #   column by up to 2 eta s / n relative to it more on one path; the cosine, a function
        #   of the column directions, moves by at most twice that, and the drift by twice it
        #   times |phi^T phi| <= 1 + drift.  A factor 2 more leaves room for the dynamics'
        #   own amplification.
        drift, eps = want["covariance_drift"], np.finfo(float).eps
        root = 4 * n * eps * k * (1 + drift)
        f_tol = 1e-10 * want["f"] + root * (2 * np.sqrt(want["f"]) + root)
        norms = np.array([[reference_normalizer(t, k)] for t in tms])
        assert np.all(np.abs(got["f"] - want["f"]) <= f_tol)
        assert np.all(np.abs(got["f_ratio"] - want["f_ratio"]) <= f_tol / norms)
        # At k = n or near a critical point the residual is a difference of O(1)
        # terms that cancel to rounding level, so it gets an absolute floor too.
        np.testing.assert_allclose(got["residual"], want["residual"], rtol=1e-10, atol=1e-13)
        s = np.array([[np.abs(t.entries.sum(axis=0) - 1.0).max()] for t in tms])
        moved = 2 * cfg.eta * s * rec_d.times / n if mode == "full" else 0.0
        assert np.all(np.abs(got["max_abs_cosine"] - want["max_abs_cosine"]) <= 1e-12 + 4 * moved)
        assert np.all(np.abs(got["covariance_drift"] - drift) <= 1e-12 + 4 * moved * (1 + drift))
        np.testing.assert_allclose(fin_e, fin_d, rtol=0, atol=1e-10 * np.abs(fin_d).max())

    def test_divergent_run_records_inf_at_the_same_records(self, monkeypatch):
        n, m = 6, 3
        tms = [gen_symmetric(n, s) for s in range(m)]
        phi0 = np.stack([orthonormal_init(n, 2, s + 1) for s in range(m)])
        slogs = []
        record_batch = dynamics._record_batch

        def spy(records, step, phi, slog, *rest):
            slogs.append(slog.copy())
            record_batch(records, step, phi, slog, *rest)

        monkeypatch.setattr(dynamics, "_record_batch", spy)
        cfg = DynamicsConfig(eta=10.0, iters=600, record_every=50)
        (rec_e, fin_e), (rec_d, fin_d) = eigen_and_dense(phi0, tms, uniform_distribution(n), cfg)
        half = len(slogs) // 2
        assert np.any(slogs[half - 1] > 0) and np.any(slogs[-1] > 0)  # the guard fired in both
        got, want = record_columns(rec_e), record_columns(rec_d)
        assert np.isinf(got["f"]).any()
        # Divergence amplifies rounding, so past step 0 only the overflow pattern is shared.
        for name in got:
            assert not np.isnan(got[name]).any()
            np.testing.assert_array_equal(np.isinf(got[name]), np.isinf(want[name]))
            np.testing.assert_allclose(got[name][:, 0], want[name][:, 0], rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(np.isinf(fin_e), np.isinf(fin_d))

    def test_other_inputs_keep_the_dense_path(self, monkeypatch):
        n = 5
        chains = [gen_symmetric(n, s) for s in range(2)]
        nudged = chains[0].entries.copy()
        nudged[0, 1] = np.nextafter(nudged[0, 1], 1.0)  # flagged symmetric, not bitwise
        nudged = TransitionMatrix.from_entries(nudged)
        assert nudged.is_symmetric
        for tm in chains + [nudged]:
            tm.singular_values  # the ceilings read the cached eigh before the count starts
        counted = []
        cached = TransitionMatrix.eigh

        def counting(tm):
            counted.append(tm)
            return cached.__get__(tm, TransitionMatrix)

        monkeypatch.setattr(TransitionMatrix, "eigh", property(counting))
        phi0 = np.stack([orthonormal_init(n, 2, s) for s in range(2)])
        uniform = uniform_distribution(n)
        skewed = np.arange(1.0, n + 1) / np.arange(1.0, n + 1).sum()
        # eigen_stack reads each chain's eigh once, and the map back to phi once more
        for case, (tms, d, expected) in enumerate([(chains, uniform, 4), (chains, skewed, 0),
                                                   ([nudged, chains[1]], uniform, 0)]):
            counted.clear()
            run_discrete_batch(phi0, tms, d, DynamicsConfig(eta=0.1, iters=2))
            assert len(counted) == expected, case


    def test_n_step_powers_keep_the_eigenbasis(self, monkeypatch):
        n, m = 20, 4
        chains = [gen_symmetric(n, s) for s in range(m)]
        # at n = 20 the plain matrix power of these chains is not symmetric bitwise
        assert not any(np.array_equal(a, a.T)
                       for a in (np.linalg.matrix_power(t.entries, 2) for t in chains))
        counted = []
        cached = TransitionMatrix.eigh

        def counting(tm):
            counted.append(tm)
            return cached.__get__(tm, TransitionMatrix)

        monkeypatch.setattr(TransitionMatrix, "eigh", property(counting))
        phi0 = np.stack([orthonormal_init(n, 2, s) for s in range(m)])
        run_discrete_batch(phi0, [n_step_matrix(t, 2) for t in chains], uniform_distribution(n),
                           DynamicsConfig(eta=0.1, iters=2))
        # each squared chain's eigh is read by its normalizer, by eigen_stack and by
        # the map back to phi; the dense step reads it only for the normalizer
        assert len(counted) == 3 * m and len({id(t) for t in counted}) == m


class TestPreparedStack:
    """run_discrete_batch on eigen_stack's Spectra and psi0 in place of the chains."""

    @pytest.mark.parametrize("mode", sorted(EIGEN_MODES))
    def test_spectra_step_as_the_chains(self, mode):
        n, m, k = 9, 3, 3
        tms = [gen_symmetric(n, s) for s in range(m)]
        phi0 = np.stack([orthonormal_init(n, k, s + 5) for s in range(m)])
        d = uniform_distribution(n)
        cfg = DynamicsConfig(iters=60, record_every=20, **EIGEN_MODES[mode])
        spectra, psi0 = dynamics.eigen_stack(iter(tms), phi0)

        def run(phi, chains):
            rngs = [np.random.default_rng(i) for i in range(m)] if mode == "noisy" else None
            return run_discrete_batch(phi, chains, d, cfg, rngs)

        (rec_c, fin_c), (rec_s, fin_s) = run(phi0, tms), run(psi0, spectra)
        assert rec_s.times.tobytes() == rec_c.times.tobytes()
        for got, want in zip(rec_s.columns, rec_c.columns):
            assert (got is None and want is None) or got.tobytes() == want.tobytes()
        # the prepared run's final state stays in the eigen coordinates
        back = np.stack([t.eigh[1] @ v for t, v in zip(tms, fin_s)])
        assert back.tobytes() == fin_c.tobytes()

    def test_chain_not_symmetric_bitwise_raises(self):
        n = 5
        chains = [gen_symmetric(n, s) for s in range(2)]
        nudged = chains[0].entries.copy()
        nudged[0, 1] = np.nextafter(nudged[0, 1], 1.0)  # flagged symmetric, not bitwise
        nudged = TransitionMatrix.from_entries(nudged)
        assert nudged.is_symmetric
        phi0 = np.stack([orthonormal_init(n, 2, s) for s in range(2)])
        with pytest.raises(NotSymmetricError, match="run 1"):
            dynamics.eigen_stack(iter([chains[1], nudged]), phi0)
        with pytest.raises(NotSymmetricError, match="run 0"):
            dynamics.eigen_stack([gen_doubly_stochastic(n, 3), chains[1]], phi0)

    def test_spectra_need_the_eigen_conditions(self):
        n, m = 5, 2
        tms = [gen_symmetric(n, s) for s in range(m)]
        phi0 = np.stack([orthonormal_init(n, 2, s) for s in range(m)])
        spectra, psi0 = dynamics.eigen_stack(tms, phi0)
        skewed = np.arange(1.0, n + 1) / np.arange(1.0, n + 1).sum()
        with pytest.raises(InvalidInputError, match="Spectra"):
            run_discrete_batch(psi0, spectra, skewed, DynamicsConfig(iters=1))
        with pytest.raises(ShapeMismatchError):
            run_discrete_batch(psi0[:1], spectra, uniform_distribution(n), DynamicsConfig(iters=1))
        with pytest.raises(ShapeMismatchError):
            dynamics.eigen_stack(tms[:1], phi0)

    def test_chains_and_runs_pair_up_one_to_one(self):
        n, m = 5, 2
        tms = [gen_symmetric(n, s) for s in range(2 * m)]
        phi0 = np.stack([orthonormal_init(n, 2, s) for s in range(m)])
        read = []

        def chains():
            for t in tms:
                read.append(t)
                yield t

        # as run_discrete_batch does for the same input; no chain is built past the one extra
        for extra in (tms, chains()):
            with pytest.raises(ShapeMismatchError, match=f"more than {m} chains"):
                dynamics.eigen_stack(extra, phi0)
        assert len(read) == m + 1
        with pytest.raises(ShapeMismatchError, match="chains"):
            run_discrete_batch(phi0, tms, uniform_distribution(n), DynamicsConfig(iters=1))
        wide = np.stack([orthonormal_init(n + 1, 2, s) for s in range(m)])
        with pytest.raises(ShapeMismatchError, match="run 0"):
            dynamics.eigen_stack(tms[:m], wide)
        with pytest.raises(InvalidInputError, match="phi0_stack"):
            dynamics.eigen_stack(tms[:1], phi0[0])


STACK_MODES = {**EIGEN_MODES, "divergent": dict(eta=10.0)}


class TestStackIndependence:
    """A run's records and final state do not depend on the runs stacked beside it."""

    @given(data=st.data(), m=st.integers(2, 6), mode=st.sampled_from(sorted(STACK_MODES)),
           symmetric=st.booleans(), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_a_runs_records_do_not_depend_on_its_stack(self, data, m, mode, symmetric, seed):
        # symmetric chains step in the eigenbasis, doubly stochastic ones on dense P
        n, k = 6, 2
        gen = gen_symmetric if symmetric else gen_doubly_stochastic
        tms = [gen(n, seed + i) for i in range(m)]
        phi0 = np.stack([orthonormal_init(n, k, seed + 10 + i) for i in range(m)])
        d, cfg = uniform_distribution(n), DynamicsConfig(iters=200, record_every=25,
                                                         **STACK_MODES[mode])

        def run(lo, hi):
            rngs = ([np.random.default_rng(seed + i) for i in range(lo, hi)]
                    if cfg.predictor_mode == "noisy" else None)
            return run_discrete_batch(phi0[lo:hi], tms[lo:hi], d, cfg, rngs)

        records, final = run(0, m)
        cuts = sorted(data.draw(st.sets(st.integers(1, m - 1), min_size=1), label="cuts"))
        for lo, hi in zip([0, *cuts], [*cuts, m]):
            part, part_final = run(lo, hi)
            assert part.times.tobytes() == records.times.tobytes()
            for got, want in zip(part.columns, records.columns):
                assert (got is None and want is None) or got.tobytes() == want[lo:hi].tobytes()
            assert part_final.tobytes() == final[lo:hi].tobytes()


def exact_inside(x):
    """The blow-up guard's test before the one-pass check: two global reductions."""
    return bool(-dynamics.RESCALE_LIMIT <= x.min() and x.max() <= dynamics.RESCALE_LIMIT)


def guard_stack(scale, nudge=False):
    """A (2, 4, 2) stack of orthogonal columns whose entries are all +-scale."""
    h = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
    x = np.stack([h, -h[::-1]]) * scale  # x[1, 2, 0] = +scale
    if nudge:
        x[1, 2, 0] = np.nextafter(x[1, 2, 0], np.inf)  # a positive entry, one ulp further out
    return x


GUARD_CASES = {
    "below": guard_stack(2.0 ** 253),  # the sum of squares, 2^510, passes the one-pass check
    "at_limit": guard_stack(2.0 ** 256),
    "past_limit": guard_stack(2.0 ** 256, nudge=True),
    "many_at_half": guard_stack(2.0 ** 255),  # the check fails, yet no entry is past the limit
}


class TestGuardPredicate:
    @pytest.mark.parametrize("x", [
        *GUARD_CASES.values(), -guard_stack(2.0 ** 256, nudge=True),
        np.where(guard_stack(1.0) > 0, np.inf, 1.0), np.where(guard_stack(1.0) > 0, -np.inf, 1.0),
        np.where(guard_stack(1.0) > 0, np.nan, 1.0), np.full((2, 4, 2), 2.0 ** 255),
        np.full((1, 1, 1), 2.0 ** 256), np.full((1, 1, 1), np.nextafter(2.0 ** 256, np.inf)),
    ])
    def test_matches_the_exact_test(self, x):
        assert dynamics._inside(x) == exact_inside(x)

    @pytest.mark.parametrize("case", sorted(GUARD_CASES))
    def test_rescales_as_the_exact_test(self, monkeypatch, case):
        # eta = 1e-300 leaves every entry as it is, so the guard sees the case at each step
        n, m = 4, 2
        spectra, _ = dynamics.eigen_stack([gen_symmetric(n, s) for s in range(m)],
                                          np.zeros((m, n, 2)))
        cfg = DynamicsConfig(eta=1e-300, iters=3, record_every=1)
        runs = []
        for inside in (dynamics._inside, exact_inside):
            slogs = []
            record_batch = dynamics._record_batch

            def spy(records, step, phi, slog, *rest):
                slogs.append(slog.copy())
                record_batch(records, step, phi, slog, *rest)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dynamics, "_inside", inside)
                mp.setattr(dynamics, "_record_batch", spy)
                records, final = run_discrete_batch(GUARD_CASES[case], spectra,
                                                    uniform_distribution(n), cfg)
            runs.append((np.array(slogs), [c for c in records.columns if c is not None], final))
        (slog_a, cols_a, fin_a), (slog_b, cols_b, fin_b) = runs
        assert np.array_equal(slog_a, slog_b)
        assert (slog_a[-1] > 0).any() == (case == "past_limit")
        for a, b in zip(cols_a, cols_b):
            assert a.tobytes() == b.tobytes()
        assert fin_a.tobytes() == fin_b.tobytes()


class TestNoiseBlocks:
    def test_block_draw_is_the_per_step_stream(self):
        block, k = 37, 3
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        together = a.standard_normal((block, k, k))
        apart = np.stack([b.standard_normal((k, k)) for _ in range(block)])
        assert together.tobytes() == apart.tobytes()
        assert a.standard_normal() == b.standard_normal()

    def test_run_consumes_exactly_its_steps(self, monkeypatch):
        tm, phi, _, d = random_instance(2)
        cfg = DynamicsConfig(predictor_mode="noisy", sigma=0.5, iters=dynamics.NOISE_BLOCK + 11,
                             record_every=10)
        out = []
        for block in (dynamics.NOISE_BLOCK, 1):
            monkeypatch.setattr(dynamics, "NOISE_BLOCK", block)
            rng = np.random.default_rng(99)
            records, final = run_discrete(phi, tm, d, cfg, noise_rng=rng)
            out.append((records, final.tobytes(), rng.bit_generator.state))
        assert out[0] == out[1]


class TestFlow:
    def test_rhs_is_tangent(self):
        tm, phi, _, d = random_instance(6, n=8, k=3)
        deriv = ode_rhs(phi, tm)
        tangency = phi.T @ deriv + deriv.T @ phi
        assert np.abs(tangency).max() <= 1e-12

    def test_integration_conserves_covariance(self):
        tm, phi, _, _ = random_instance(3, n=10, k=2)
        records, final = integrate_ode(phi, tm, t_end=100.0, n_records=50)
        assert len(records) == 51
        assert records[-1].bundle.covariance_drift <= 1e-6
        assert np.abs(final.T @ final - np.eye(2)).max() <= 1e-6

    def test_symmetric_objective_never_decreases(self):
        tm, phi, _, _ = random_instance(12, n=10, k=2)
        records, _ = integrate_ode(phi, tm, t_end=100.0, n_records=100)
        f = np.array([r.bundle.f for r in records])
        assert np.all(np.diff(f) >= -1e-8)
        assert records[-1].bundle.f_ratio <= 1.0 + 1e-9

    def test_critical_points_of_fixed_2x2(self):
        tm = fixed_example_2x2()
        basis = spectral(tm, "eigen").right_vectors
        u1, u2 = basis[:, :1], basis[:, 1:]
        a, b = 2.0 / 3.0, np.sqrt(5.0) / 3.0
        for phi in (u1, -u1, u2, -u2,
                    a * u1 + b * u2, a * u1 - b * u2,
                    -a * u1 + b * u2, -a * u1 - b * u2):
            assert flow_residual(phi, tm) <= 1e-12

    def test_residual_stays_finite_where_only_its_squares_overflow(self):
        tm, phi, _, _ = random_instance(4, n=6, k=2)
        rhs = ode_rhs(1e40 * phi, tm)
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.norm(rhs))
        top = np.abs(rhs).max()
        expected = top * np.linalg.norm(rhs / top)
        assert np.isfinite(expected)
        assert flow_residual(1e40 * phi, tm) == pytest.approx(expected, rel=1e-14)
        # Below the overflow the plain norm is kept bit for bit.
        assert flow_residual(phi, tm) == float(np.linalg.norm(ode_rhs(phi, tm)))

    def test_random_probes_are_not_critical(self):
        tm = fixed_example_2x2()
        for seed in range(10):
            phi = orthonormal_init(2, 1, seed)
            assert flow_residual(phi, tm) > 1e-3

    def test_invalid_horizon(self):
        tm, phi, _, _ = random_instance(0)
        with pytest.raises(InvalidInputError):
            integrate_ode(phi, tm, t_end=0.0)
        with pytest.raises(InvalidInputError):
            integrate_ode(phi, tm, n_records=0)

    def test_requires_transition_matrix(self):
        with pytest.raises(InvalidInputError):
            integrate_ode(np.ones((2, 1)), np.eye(2))

    @pytest.mark.parametrize("kw", [dict(rel_tol=-1), dict(rel_tol=0), dict(rel_tol=np.nan),
                                    dict(rel_tol=np.inf), dict(abs_tol=0), dict(n_records=2.5)])
    def test_tolerances_and_record_count_are_checked(self, kw):
        # rel_tol=-1 used to integrate, nan and both tolerances at 0 to underflow at t=0
        tm, phi, _, _ = random_instance(0)
        with pytest.raises(InvalidInputError, match=next(iter(kw))):
            integrate_ode(phi, tm, t_end=1.0, **kw)


# Flow times a draw may train for, longest first; each is a whole number of steps at both
# etas for every n.
HORIZONS = (5.0, 2.0, 1.0)


def as_state(v):
    """A run or a BidirState from its (members, n, k) stack."""
    return v[0] if len(v) == 1 else BidirState(*v)


def as_members(x):
    """The (members, n, k) stack of a run or a BidirState."""
    return np.stack([x.left, x.right]) if isinstance(x, BidirState) else x[None]


def asymptotic_horizon(tm, v0, n):
    """The first of HORIZONS at which explicit Euler on the flow's own field (dynamics._flow),
    at the kernel's step counts for eta 0.1 and 0.01, has an error ratio in [9.25, 10.75], and
    the flow's state there: an indicator that reads the flow alone, not the kernel."""
    a = np.stack([tm.entries, tm.entries.T])[:len(v0)]  # a pair's right member runs on P^T
    for t_end in HORIZONS:
        flow = as_members(integrate_ode(as_state(v0), tm, t_end=t_end, n_records=1,
                                        rel_tol=1e-12, abs_tol=1e-12)[1])
        errors = []
        for eta in (0.1, 0.01):
            steps = round(t_end * n / (2.0 * eta))
            v = v0.copy()
            for _ in range(steps):
                v += t_end / steps * dynamics._flow(a, v, v[::-1])
            errors.append(np.abs(v - flow).max())
        if 9.25 <= errors[0] / errors[1] <= 10.75:
            return t_end, flow
    raise AssertionError("no horizon is asymptotic for this draw")


class TestFlowLimit:
    """The kernel converges to the flow driver at first order in eta.

    Under uniform d and the optimal predictor one semi-gradient step is, to first order,
    an Euler step of the flow with dt = 2 eta / n, so T n / (2 eta) steps reach flow time
    T with an O(eta) error and the tenfold Richardson combination (10 phi(eta / 10) -
    phi(eta)) / 9 an O(eta^2) one.  The kernel's own oracle (tests/reference.py) follows
    its update formula; this ties the kernel to the separately derived flow, so a slip in
    the time scale, the weights or a pair's partner wiring shows.

    Some draws are still pre-asymptotic at eta = 0.1 over T = 5: on the 3-state pair of
    the example below the error ratio is 5.75 and the Richardson error 8.2%.  The flow's own
    Euler method shows the same (ratio 5.85 there), so each draw trains for the first horizon
    at which that indicator is asymptotic (asymptotic_horizon; T = 1 for the example).  A
    sweep of 4,300 draws (every kind, run or pair, n and k at seeds 0-9, and 1,700 random
    seeds) chose T = 5 for 4,289, T = 2 for 10 and T = 1 for the example; at the chosen
    horizons the error ratio was 9.48-10.50 and the Richardson error at most 0.82% of the
    error at eta = 0.1.
    """

    @settings(max_examples=40, deadline=None)
    @given(symmetric=st.booleans(), pair=st.booleans(),
           shape=st.integers(3, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
           seed=st.integers(0, 2**31 - 1))  # at k = n nothing moves
    @example(symmetric=False, pair=True, shape=(3, 2), seed=2)
    def test_discrete_runs_converge_to_the_flow(self, symmetric, pair, shape, seed):
        n, k = shape
        tm = (gen_symmetric if symmetric else gen_doubly_stochastic)(n, seed)  # eigen or dense
        v0 = np.stack([orthonormal_init(n, k, seed + 1 + i) for i in range(1 + pair)])
        t_end, flow = asymptotic_horizon(tm, v0, n)
        runs = []
        for eta in (0.1, 0.01):
            steps = round(t_end * n / (2.0 * eta))
            cfg = DynamicsConfig(eta=eta, iters=steps, record_every=steps)
            runs.append(as_members(run_discrete(as_state(v0), tm, uniform_distribution(n), cfg)[1]))
        coarse, fine = (np.abs(v - flow).max() for v in runs)
        richardson = np.abs((10.0 * runs[1] - runs[0]) / 9.0 - flow).max()
        assert 8.5 <= coarse / fine <= 11.5
        assert richardson <= 0.05 * coarse


class TestSolvePredictor:
    def test_squared_recovers_normal_equations(self):
        tm, phi, _, d = random_instance(0)
        solved = solve_predictor(phi, tm, d, "squared")
        assert np.allclose(solved, optimal_predictor(phi, tm, d), atol=1e-10)

    @pytest.mark.parametrize("loss_kind", ["l1", "cosine_eps"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_general_losses_reach_stationarity(self, loss_kind, seed):
        tm, phi, _, d = random_instance(seed, n=20)
        pred = solve_predictor(phi, tm, d, loss_kind)
        grad = predictor_gradient(phi, pred, tm, d, loss_kind)
        assert np.abs(grad).max() <= 1e-8
        assert np.abs(grad @ pred.T).max() <= 1e-6

    def test_pinned_minimizer_raises_instead_of_lying(self):
        # For few states the sum-of-norms loss can attain its minimum at a
        # point where one predicted row coincides with a target row.  The
        # smooth gradient cannot vanish there, so the solver must report
        # failure rather than return a non-stationary point.
        tm, phi, _, d = random_instance(1, n=6)
        with pytest.raises(InnerSolveFailureError):
            solve_predictor(phi, tm, d, "l1")

    def test_unreachable_tolerance_raises(self):
        tm, phi, _, d = random_instance(0, n=6)
        with pytest.raises(InnerSolveFailureError):
            solve_predictor(phi, tm, d, "cosine_eps", tol=1e-16)


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["eta", "sigma", "target_beta"])
    def test_real_fields_take_finite_real_numbers_only(self, field):
        noisy = dict(predictor_mode="noisy") if field == "sigma" else {}
        for value in (True, "0.1", [0.1], 10**400):
            with pytest.raises(InvalidInputError, match=field):
                DynamicsConfig(**noisy, **{field: value})
        for value in (np.float32(0.5), np.int64(2)):
            assert getattr(DynamicsConfig(**noisy, **{field: value}), field) == value

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_noisy_predictor_needs_a_finite_sigma(self, sigma):
        tm, phi, _, d = random_instance(0)
        with pytest.raises(InvalidInputError, match="sigma"):
            noisy_predictor(phi, tm, d, sigma, np.random.default_rng(0))

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidInputError):
            DynamicsConfig(eta=0.0)
        with pytest.raises(InvalidInputError):
            DynamicsConfig(iters=0)
        with pytest.raises(InvalidInputError):
            DynamicsConfig(gradient_mode="both")
        with pytest.raises(InvalidInputError):
            DynamicsConfig(predictor_mode="psychic")
        with pytest.raises(InvalidInputError):
            DynamicsConfig(sigma=0.1)
        with pytest.raises(InvalidInputError):
            DynamicsConfig(target_beta=-1.0)
        with pytest.raises(InvalidInputError):
            DynamicsConfig(gradient_mode="full", target_beta=1.0)

    def test_the_step_count_is_bounded(self):
        # iters=10**30 used to start a run of 10**30 steps
        assert DynamicsConfig(iters=dynamics.MAX_ITERS).iters == 10**8
        for iters in (dynamics.MAX_ITERS + 1, 10**30):
            with pytest.raises(InvalidInputError, match="iters must be at least 1 and at most"):
                DynamicsConfig(iters=iters)

    def test_the_kernel_trains_the_squared_loss_with_a_closed_form_predictor(self):
        assert len(dataclasses.fields(DynamicsConfig)) == 7
        assert dynamics.PREDICTOR_MODES == ("optimal", "noisy")
        for kw in (dict(loss_kind="l1"), dict(epsilon=1e-8)):
            with pytest.raises(TypeError):
                DynamicsConfig(**kw)
        with pytest.raises(InvalidInputError, match="predictor_mode"):
            DynamicsConfig(predictor_mode="inner_solved")
        assert DynamicsConfig().loss_kind == "squared"
        assert "loss_kind" not in dataclasses.asdict(DynamicsConfig())


def test_trace_objective_consistency_along_run():
    tm, phi, _, d = random_instance(13)
    cfg = DynamicsConfig(eta=1e-3, iters=100, record_every=100)
    records, final = run_discrete(phi, tm, d, cfg)
    assert records[-1].bundle.f == pytest.approx(trace_objective(final, tm), rel=1e-12)
