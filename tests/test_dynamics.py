import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import central_fd, rel_err
from selfpredict import dynamics
from selfpredict import (
    DegenerateCovarianceError,
    DynamicsConfig,
    InnerSolveFailureError,
    InvalidInputError,
    covariance_solve,
    fixed_example_2x2,
    flow_residual,
    full_gradient_step,
    gen_symmetric,
    integrate_ode,
    noisy_predictor,
    ode_rhs,
    optimal_predictor,
    orthonormal_init,
    prediction_loss,
    predictor_gradient,
    run_discrete,
    run_discrete_batch,
    semi_gradient_step,
    solve_predictor,
    spectral,
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

    def test_n_step_equals_powered_chain(self):
        from selfpredict import n_step_matrix
        tm, phi, _, d = random_instance(4)
        two = DynamicsConfig(eta=1e-2, iters=30, record_every=30, n_step=2)
        one = DynamicsConfig(eta=1e-2, iters=30, record_every=30)
        rec_a, fin_a = run_discrete(phi, tm, d, two)
        rec_b, fin_b = run_discrete(phi, n_step_matrix(tm, 2), d, one)
        assert np.array_equal(fin_a, fin_b)
        assert rec_a[-1].bundle.f == rec_b[-1].bundle.f

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
    """Record residual through the explicit (m, n, n) tangent projector."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        pp = p_stack @ phi
        pred = phi.transpose(0, 2, 1) @ pp
        n = phi.shape[1]
        proj = np.exp2(-2.0 * slog)[:, None, None] * np.eye(n) - phi @ phi.transpose(0, 2, 1)
        inner = np.linalg.norm(proj @ pp @ pred.transpose(0, 2, 1), axis=(1, 2))
        return np.where(inner == 0.0, 0.0, inner * np.exp2(5.0 * slog))


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

        def spy(records, step, phi, slog, *rest):
            calls.append((phi.copy(), slog.copy(), rest))
            record_batch(records, step, phi, slog, *rest)

        monkeypatch.setattr(dynamics, "_record_batch", spy)
        cfg = DynamicsConfig(eta=10.0, iters=600, record_every=50)
        records, _ = run_discrete_batch(phi0, tms, uniform_distribution(n), cfg)
        assert any(np.any(slog > 0) for _, slog, _ in calls)
        for j, (phi, slog, rest) in enumerate(calls):
            got = np.array([records[i][j].bundle.residual for i in range(m)])
            np.testing.assert_allclose(got, projector_residual(phi, slog, p_stack), rtol=1e-10)
            # The same representations carried at a 2**64 smaller scale, which
            # reaches the 2**(-2 slog) term with finite values.  That scale can
            # also keep finite what overflowed above, so compare finite values.
            shifted = [[] for _ in range(m)]
            record_batch(shifted, 0.0, phi * 2.0 ** -64, slog + 64.0, *rest)
            again = np.array([r[0].bundle.residual for r in shifted])
            fin = np.isfinite(got)
            np.testing.assert_allclose(again[fin], got[fin], rtol=1e-10)


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
            DynamicsConfig(loss_kind="huber")
        with pytest.raises(InvalidInputError):
            DynamicsConfig(sigma=0.1)
        with pytest.raises(InvalidInputError):
            DynamicsConfig(epsilon=0.0)
        with pytest.raises(InvalidInputError):
            DynamicsConfig(target_beta=-1.0)
        with pytest.raises(InvalidInputError):
            DynamicsConfig(gradient_mode="full", target_beta=1.0)
        with pytest.raises(InvalidInputError):
            DynamicsConfig(gradient_mode="full", loss_kind="l1")
        with pytest.raises(InvalidInputError):
            DynamicsConfig(n_step=0)


def test_trace_objective_consistency_along_run():
    tm, phi, _, d = random_instance(13)
    cfg = DynamicsConfig(eta=1e-3, iters=100, record_every=100)
    records, final = run_discrete(phi, tm, d, cfg)
    assert records[-1].bundle.f == pytest.approx(trace_objective(final, tm), rel=1e-12)
