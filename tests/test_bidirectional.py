import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies

from selfpredict import bidirectional, dynamics
from selfpredict import (
    BidirState,
    DynamicsConfig,
    InvalidInputError,
    NotDoublyStochasticError,
    TransitionMatrix,
    bidir_ode_rhs,
    bidir_optimal_predictors,
    fixed_example_3x3,
    gen_doubly_stochastic,
    gen_symmetric,
    integrate_bidir,
    integrate_bidir_batch,
    integrate_ode,
    integrate_ode_batch,
    orthonormal_init,
    run_discrete,
    run_discrete_batch,
    run_discrete_bidir,
    spectral,
    stream_seed,
    svd_trace_objective,
    uniform_distribution,
)
from selfpredict.seeding import STREAM_INIT_LEFT, STREAM_INIT_RIGHT


def paired_state(n, k, seed):
    return BidirState(orthonormal_init(n, k, stream_seed(0, seed, STREAM_INIT_LEFT)),
                      orthonormal_init(n, k, stream_seed(0, seed, STREAM_INIT_RIGHT)))


def mpmath_sq(x):
    return sum(v ** 2 for v in x)


def mpmath_drift(v, v0):
    return max(abs(a - b) for a, b in zip(v.T * v, v0.T * v0))


def mpmath_leg(a, left, right):
    """||(I - L L^T) a R (L^T a R)^T||_F in mpmath."""
    pred = left.T * a * right
    return mpmath.norm((a * right - left * pred) * pred.T, 2)


class TestPredictors:
    def test_backward_is_exact_transpose(self):
        tm = gen_doubly_stochastic(8, 0)
        st = paired_state(8, 3, 0)
        fwd, bwd = bidir_optimal_predictors(st, tm, uniform_distribution(8))
        assert np.array_equal(bwd, fwd.T)

    def test_top_singular_pair_recovers_singular_value(self):
        tm = fixed_example_3x3()
        sv = spectral(tm, "svd")
        st = BidirState(sv.left_vectors[:, :1], sv.right_vectors[:, :1])
        fwd, _ = bidir_optimal_predictors(st, tm, uniform_distribution(3))
        assert np.allclose(fwd, [[1.0]], atol=1e-12)

    def test_rejects_row_stochastic_only(self):
        tm = TransitionMatrix.from_entries([[0.2, 0.8], [0.5, 0.5]])
        st = paired_state(2, 1, 0)
        with pytest.raises(NotDoublyStochasticError):
            bidir_optimal_predictors(st, tm, uniform_distribution(2))

    def test_rejects_nonuniform_weights(self):
        tm = gen_doubly_stochastic(4, 1)
        st = paired_state(4, 2, 1)
        with pytest.raises(InvalidInputError):
            bidir_optimal_predictors(st, tm, [0.4, 0.2, 0.2, 0.2])

    def test_rejects_non_orthonormal_state(self):
        tm = gen_doubly_stochastic(4, 1)
        st = BidirState(np.full((4, 2), 0.5), orthonormal_init(4, 2, 0))
        st = BidirState(st.left * 2.0, st.right)
        with pytest.raises(InvalidInputError):
            bidir_optimal_predictors(st, tm, uniform_distribution(4))


class TestState:
    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            bidir_ode_rhs(BidirState(np.ones((4, 2)), np.ones((3, 2))),
                          gen_doubly_stochastic(4, 0))

    def test_width_exceeding_states(self):
        with pytest.raises(InvalidInputError):
            bidir_ode_rhs(BidirState(np.ones((2, 3)), np.ones((2, 3))),
                          gen_doubly_stochastic(2, 0))


class TestFlow:
    def test_rhs_is_tangent_to_both_factors(self):
        tm = gen_doubly_stochastic(10, 3)
        st = paired_state(10, 3, 3)
        rhs = bidir_ode_rhs(st, tm)
        for v, dv in ((st.left, rhs.left), (st.right, rhs.right)):
            assert np.abs(v.T @ dv + dv.T @ v).max() <= 1e-12

    def test_rhs_vanishes_at_singular_pairs(self):
        tm = fixed_example_3x3()
        sv = spectral(tm, "svd")
        st = BidirState(sv.left_vectors[:, :2], sv.right_vectors[:, :2])
        rhs = bidir_ode_rhs(st, tm)
        assert max(np.abs(rhs.left).max(), np.abs(rhs.right).max()) <= 1e-12

    def test_rhs_vanishes_under_joint_rotation(self):
        # Rotating both factors by the same orthogonal matrix keeps the
        # pair critical, so the test cannot rely on exact singular vectors.
        tm = fixed_example_3x3()
        sv = spectral(tm, "svd")
        c, s = np.cos(0.7), np.sin(0.7)
        q = np.array([[c, -s], [s, c]])
        st = BidirState(sv.left_vectors[:, :2] @ q, sv.right_vectors[:, :2] @ q)
        rhs = bidir_ode_rhs(st, tm)
        assert max(np.abs(rhs.left).max(), np.abs(rhs.right).max()) <= 1e-11

    def test_integration_reaches_singular_ceiling(self):
        # f_tilde saturates exactly at the ceiling here, so the per-record
        # monotonicity check needs the integrator tighter than its default
        # to keep solver wobble below the 1e-8 allowance.
        tm = fixed_example_3x3()
        records, final = integrate_bidir(paired_state(3, 2, 5), tm,
                                         t_end=100.0, n_records=50, tol=1e-11)
        assert records[-1].bundle.f_ratio >= 1.0 - 1e-6
        ft = np.array([r.bundle.f_tilde for r in records])
        assert np.all(np.diff(ft) >= -1e-8)
        assert records[-1].bundle.covariance_drift <= 1e-6
        assert svd_trace_objective(final.left, final.right, tm) == pytest.approx(
            2.0, abs=1e-5)

    def test_pair_beats_single_representation_on_fixed_chain(self):
        tm = fixed_example_3x3()
        singles, pairs = [], []
        for i in range(10):
            st = paired_state(3, 2, i)
            rec_b, _ = integrate_bidir(st, tm, t_end=20.0, n_records=4)
            rec_s, _ = integrate_ode(st.left, tm, t_end=20.0, n_records=4)
            pairs.append(rec_b[-1].bundle.f_ratio)
            singles.append(rec_s[-1].bundle.f_ratio)
        assert np.median(pairs) > np.median(singles)

    def test_random_doubly_stochastic_never_decreases(self):
        for seed in range(5):
            tm = gen_doubly_stochastic(8, seed)
            records, _ = integrate_bidir(paired_state(8, 2, seed), tm,
                                         t_end=50.0, n_records=25)
            ft = np.array([r.bundle.f_tilde for r in records])
            assert np.all(np.diff(ft) >= -1e-8)

    def test_invalid_horizon(self):
        tm = gen_doubly_stochastic(4, 0)
        with pytest.raises(InvalidInputError):
            integrate_bidir(paired_state(4, 2, 0), tm, t_end=-1.0)


class TestDiscrete:
    def test_objective_improves(self):
        tm = gen_doubly_stochastic(10, 7)
        st = paired_state(10, 2, 7)
        cfg = DynamicsConfig(eta=0.05, iters=2000, record_every=500)
        records, final = run_discrete_bidir(st, tm, uniform_distribution(10), cfg)
        assert records[-1].bundle.f_tilde > records[0].bundle.f_tilde
        assert records[-1].bundle.covariance_drift <= 0.05

    def test_records_cadence(self):
        tm = gen_doubly_stochastic(6, 2)
        cfg = DynamicsConfig(eta=0.01, iters=25, record_every=10)
        records, _ = run_discrete_bidir(paired_state(6, 2, 2), tm,
                                        uniform_distribution(6), cfg)
        assert [r.step_or_time for r in records] == [0.0, 10.0, 20.0, 25.0]

    @pytest.mark.filterwarnings("error")
    def test_divergent_pair_is_guarded(self, monkeypatch):
        n = 6
        tm = gen_doubly_stochastic(n, 2)
        st = paired_state(n, 2, 2)
        calls = []
        record_batch = dynamics._record_batch

        def spy(records, step, pair, slog, *rest):
            calls.append((pair.copy(), slog.copy()))
            record_batch(records, step, pair, slog, *rest)

        monkeypatch.setattr(dynamics, "_record_batch", spy)
        cfg = DynamicsConfig(eta=10.0, iters=600, record_every=5)
        records, final = run_discrete_bidir(st, tm, uniform_distribution(n), cfg)
        assert calls[-1][1][0] > 0  # the guard fired
        assert np.all(np.isinf(final.left) | np.isfinite(final.left))
        a = mpmath.matrix(tm.entries.tolist())
        top = mpmath.mpf(np.finfo(float).max)
        l0, r0 = (mpmath.matrix(v.tolist()) for v in (st.left, st.right))
        finite_after_rescale = 0
        for rec, (pair, slog) in zip(records, calls):
            assert slog[0] == slog[1]  # the two members rescale as one
            with mpmath.workdps(60):
                scale = mpmath.mpf(2) ** int(slog[0])
                left, right = (mpmath.matrix(v.tolist()) * scale for v in pair)
                want = dict(f=mpmath_sq(left.T * a * left), f_tilde=mpmath_sq(left.T * a * right),
                            covariance_drift=max(mpmath_drift(left, l0), mpmath_drift(right, r0)),
                            residual=mpmath.sqrt(mpmath_leg(a, left, right) ** 2
                                                 + mpmath_leg(a.T, right, left) ** 2))
            for name, value in want.items():
                got = getattr(rec.bundle, name)
                if value > top:
                    assert got == np.inf, (name, rec.step_or_time)
                else:
                    assert abs(got - value) <= 1e-10 * value, (name, rec.step_or_time, got, value)
            assert not np.isnan(rec.bundle.f_ratio) and not np.isnan(rec.bundle.max_abs_cosine)
            finite_after_rescale += bool(slog[0] > 0 and want["covariance_drift"] <= top)
        assert finite_after_rescale > 0

    def test_nearly_collinear_columns_report_a_cosine_of_at_most_one(self):
        # Unclipped, rounding put this pair's cosine at 1.0000000000000002 in 7 records.
        cfg = DynamicsConfig(eta=10.0, iters=600, record_every=50)
        records, _ = run_discrete_bidir(BidirState(orthonormal_init(6, 2, 1),
                                                   orthonormal_init(6, 2, 2)),
                                        gen_doubly_stochastic(6, 2), uniform_distribution(6), cfg)
        cosines = [r.bundle.max_abs_cosine for r in records]
        assert max(cosines) == 1.0 and all(0.0 <= c <= 1.0 for c in cosines)

    @pytest.mark.parametrize("cfg", [
        DynamicsConfig(gradient_mode="full"),
        DynamicsConfig(predictor_mode="noisy", sigma=0.1),
        DynamicsConfig(target_beta=1.0),
    ])
    def test_rejects_unsupported_modes(self, cfg):
        tm = gen_doubly_stochastic(4, 0)
        with pytest.raises(InvalidInputError):
            run_discrete_bidir(paired_state(4, 2, 0), tm, uniform_distribution(4), cfg)


def stacked_pairs(n, k, m, seed):
    """BidirState of (m, n, k) stacks: the pairs paired_state(n, k, seed + i)."""
    pairs = [paired_state(n, k, seed + i) for i in range(m)]
    return BidirState(np.stack([p.left for p in pairs]), np.stack([p.right for p in pairs]))


class TestOneDriver:
    """The pair is an input of the single dynamics' drivers."""

    def test_the_pair_names_are_the_single_drivers(self):
        assert run_discrete_bidir is run_discrete
        assert integrate_bidir is integrate_ode
        assert integrate_bidir_batch is integrate_ode_batch
        assert bidirectional.BidirState is dynamics.BidirState is BidirState

    @pytest.mark.parametrize("gen", [gen_symmetric, gen_doubly_stochastic])  # eigen, dense
    def test_a_stack_of_pairs_is_bitwise_its_pairs_alone(self, gen):
        n, k, m = 6, 2, 4
        tms = [gen(n, 30 + i) for i in range(m)]
        st0 = stacked_pairs(n, k, m, 40)
        d = uniform_distribution(n)
        # At eta=10 the pairs diverge and a member's covariance turns exactly singular;
        # the stacked inverse then fails, and the pairs beside it must not notice.
        for eta, iters in ((0.3, 200), (10.0, 600)):
            cfg = DynamicsConfig(eta=eta, iters=iters, record_every=25)
            records, final = run_discrete_batch(st0, tms, d, cfg)
            assert len(records) == m and final.left.shape == final.right.shape == (m, n, k)
            for i in range(m):
                alone, final_alone = run_discrete_bidir(BidirState(st0.left[i], st0.right[i]),
                                                        tms[i], d, cfg)
                assert records[i] == alone, (eta, i)
                assert np.array_equal(final.left[i], final_alone.left)
                assert np.array_equal(final.right[i], final_alone.right)

    @pytest.mark.parametrize("driver", ["discrete", "flow"])
    @pytest.mark.parametrize("gen", [gen_symmetric, gen_doubly_stochastic])  # eigen, dense
    @given(seed=strategies.integers(0, 2**31))
    @settings(max_examples=3, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    def test_a_mirrored_pair_is_bitwise_the_pair_mirrored(self, gen, driver, seed):
        # Swapping the members and transposing the chains, BidirState(R, L) on P^T, steps
        # each member on the same chain beside the same partner.  f_tilde = ||L^T P R||^2 is
        # summed in the other order: over 200 seeds per case the relative gap read at most
        # 9.7e-16, and the bound is 4 times that.
        n, k, m = 8, 3, 4
        tms = [gen(n, seed + i) for i in range(m)]
        mirrored = [t if t.is_symmetric else TransitionMatrix.from_entries(t.entries.T)
                    for t in tms]
        st0 = stacked_pairs(n, k, m, seed)
        if driver == "discrete":
            cfg = DynamicsConfig(eta=0.3, iters=200, record_every=50)
            (rec, fin), (rec_m, fin_m) = (
                run_discrete_batch(s, t, uniform_distribution(n), cfg)
                for s, t in ((st0, tms), (BidirState(st0.right, st0.left), mirrored)))
        else:
            (rec, fin), (rec_m, fin_m) = (
                integrate_ode_batch(s, t, t_end=10.0, n_records=5)
                for s, t in ((st0, tms), (BidirState(st0.right, st0.left), mirrored)))
        assert fin_m.left.tobytes() == fin.right.tobytes()
        assert fin_m.right.tobytes() == fin.left.tobytes()
        np.testing.assert_allclose(rec_m.columns[2], rec.columns[2], rtol=4 * 9.7e-16, atol=0)

    def test_chains_and_flows_may_come_as_iterators(self):
        n, k, m = 4, 2, 3
        tms = [gen_doubly_stochastic(n, 60 + i) for i in range(m)]
        st0 = stacked_pairs(n, k, m, 70)
        d, cfg = uniform_distribution(n), DynamicsConfig(eta=0.3, iters=20, record_every=5)
        records, final = run_discrete_batch(st0, tms, d, cfg)
        records_it, final_it = run_discrete_batch(st0, iter(tms), d, cfg)
        assert records_it == records and np.array_equal(final_it.left, final.left)
        flow = integrate_ode_batch(st0, tms, t_end=2.0, n_records=4)
        flow_it = integrate_ode_batch(st0, (t for t in tms), t_end=2.0, n_records=4)
        assert flow_it[0] == flow[0] and np.array_equal(flow_it[1].right, flow[1].right)
        flows = [(st0, tms), (st0.left, tms)]
        out = bidirectional.integrate_flows_batch(flows, t_end=2.0, n_records=4)
        out_it = bidirectional.integrate_flows_batch(iter(flows), t_end=2.0, n_records=4)
        assert len(out_it) == 2 and all(a[0] == b[0] for a, b in zip(out_it, out))

    def test_a_pair_takes_d_within_1e_12_of_uniform(self):
        n = 6
        tms = [gen_doubly_stochastic(n, 1)]
        st0 = stacked_pairs(n, 2, 1, 1)
        cfg = DynamicsConfig(eta=0.1, iters=5)
        for off, ok in ((1e-13, True), (1e-11, False)):
            d = uniform_distribution(n) + off * np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
            if ok:
                run_discrete_batch(st0, tms, d, cfg)
            else:
                with pytest.raises(InvalidInputError, match="uniform"):
                    run_discrete_batch(st0, tms, d, cfg)

    @pytest.mark.parametrize("case", ["spectra", "nonuniform", "full", "noisy", "target"])
    def test_the_discrete_driver_rejects_what_a_pair_cannot_train(self, case):
        n, m = 6, 2
        tms = [gen_symmetric(n, i) for i in range(m)]
        st0 = stacked_pairs(n, 2, m, 0)
        d, cfg = uniform_distribution(n), DynamicsConfig(eta=0.1, iters=5)
        if case == "spectra":
            tms, _ = dynamics.eigen_stack(tms, st0.left)
        elif case == "nonuniform":
            d = np.random.default_rng(0).dirichlet(np.ones(n))
        else:
            cfg = dict(full=DynamicsConfig(gradient_mode="full"),
                       noisy=DynamicsConfig(predictor_mode="noisy", sigma=0.1),
                       target=DynamicsConfig(target_beta=1.0))[case]
        with pytest.raises(InvalidInputError):
            run_discrete_batch(st0, tms, d, cfg)

    def test_the_flows_need_chains_not_spectra(self):
        tms = [gen_symmetric(6, i) for i in range(2)]
        st0 = stacked_pairs(6, 2, 2, 0)
        spectra, psi0 = dynamics.eigen_stack(tms, st0.left)
        for call in (lambda: integrate_ode_batch(psi0, spectra),
                     lambda: integrate_ode_batch(st0, spectra),
                     lambda: bidirectional.integrate_flows_batch([(psi0, spectra), (st0, tms)])):
            with pytest.raises(InvalidInputError, match="Spectra"):
                call()

    def test_every_driver_needs_a_doubly_stochastic_chain_for_a_pair(self):
        tm = TransitionMatrix.from_entries([[0.2, 0.8], [0.5, 0.5]])
        pair = paired_state(2, 1, 0)
        stack = BidirState(pair.left[None], pair.right[None])
        d, cfg = uniform_distribution(2), DynamicsConfig(eta=0.1, iters=5)
        calls = [lambda: run_discrete(pair, tm, d, cfg),
                 lambda: run_discrete_batch(stack, [tm], d, cfg),
                 lambda: integrate_ode(pair, tm),
                 lambda: integrate_ode_batch(stack, tm),
                 lambda: bidirectional.integrate_flows_batch([(stack.left, [tm]), (stack, [tm])])]
        for call in calls:
            with pytest.raises(NotDoublyStochasticError):
                call()
        run_discrete(pair.left, tm, d, cfg)  # a single run on the same chain trains
