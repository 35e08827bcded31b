import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfpredict import markov
from selfpredict import (
    InvalidInputError,
    NonConvergenceError,
    NotSymmetricError,
    TransitionMatrix,
    fixed_example_2x2,
    fixed_example_3x3,
    gen_doubly_stochastic,
    gen_symmetric,
    n_step_matrix,
    sinkhorn_normalize,
    spectral,
    uniform_distribution,
    validate_distribution,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

SQRT_HALF = np.sqrt(0.5)


def load_golden(stem):
    matrix = np.loadtxt(GOLDEN / f"{stem}.csv", delimiter=",")
    meta = json.loads((GOLDEN / f"{stem}.json").read_text())
    return matrix, meta


class TestGoldens:
    def test_sinkhorn_matches_golden(self):
        expected, meta = load_golden("sinkhorn_n20_seed7")
        raw = np.random.default_rng(meta["seed"]).random((meta["n"], meta["n"]))
        got = sinkhorn_normalize(raw)
        assert np.abs(got.entries - expected).max() <= 1e-12

    def test_doubly_stochastic_matches_golden(self):
        expected, meta = load_golden("doubly_stochastic_n20_seed11")
        got = gen_doubly_stochastic(meta["n"], meta["seed"])
        assert np.abs(got.entries - expected).max() <= 1e-12

    def test_symmetric_matches_golden(self):
        expected, meta = load_golden("symmetric_n20_seed3")
        got = gen_symmetric(meta["n"], meta["seed"])
        assert np.abs(got.entries - expected).max() <= 1e-12


class TestSinkhorn:
    def test_uniform_2x2_is_half(self):
        out = sinkhorn_normalize(np.ones((2, 2)))
        assert np.array_equal(out.entries, np.full((2, 2), 0.5))

    def test_identity_passes_through(self):
        out = sinkhorn_normalize(np.eye(3))
        assert np.array_equal(out.entries, np.eye(3))
        assert out.is_doubly_stochastic

    def test_rejects_negative_entries(self):
        m = np.ones((3, 3))
        m[0, 1] = -0.1
        with pytest.raises(InvalidInputError):
            sinkhorn_normalize(m)

    def test_rejects_zero_row(self):
        m = np.ones((3, 3))
        m[1] = 0.0
        with pytest.raises(InvalidInputError):
            sinkhorn_normalize(m)

    def test_rejects_zero_column(self):
        m = np.ones((3, 3))
        m[:, 2] = 0.0
        with pytest.raises(InvalidInputError):
            sinkhorn_normalize(m)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            sinkhorn_normalize(np.ones((2, 3)))

    def test_rejects_an_empty_matrix(self):
        # checked with TransitionMatrix.from_entries's checks, before any reduction
        with pytest.raises(InvalidInputError, match="at least one state"):
            sinkhorn_normalize(np.zeros((0, 0)))

    def test_iteration_cap_raises(self):
        raw = np.random.default_rng(0).random((6, 6))
        with pytest.raises(NonConvergenceError):
            sinkhorn_normalize(raw, tol=1e-15, max_iters=1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    def test_output_is_doubly_stochastic(self, n, seed):
        raw = np.random.default_rng(seed).random((n, n)) + 1e-3
        out = sinkhorn_normalize(raw)
        assert np.abs(out.entries.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(out.entries.sum(axis=0) - 1.0).max() <= 2e-12
        assert out.is_doubly_stochastic


class TestGenerators:
    def test_doubly_stochastic_flags_and_determinism(self):
        a = gen_doubly_stochastic(12, 42)
        b = gen_doubly_stochastic(12, 42)
        assert np.array_equal(a.entries, b.entries)
        assert a.is_doubly_stochastic

    def test_alpha_zero_gives_permutation(self):
        tm = gen_doubly_stochastic(8, 5, alpha=0.0)
        assert set(np.unique(tm.entries)) <= {0.0, 1.0}
        assert np.array_equal(tm.entries.sum(axis=0), np.ones(8))

    def test_alpha_one_skips_permutation_mixing(self):
        tm = gen_doubly_stochastic(8, 5, alpha=1.0)
        assert tm.entries.min() > 0.0

    @pytest.mark.parametrize("n", [5.5, True])
    def test_sizes_must_be_integers(self, n):
        for make in (lambda: gen_symmetric(n, 1), lambda: gen_doubly_stochastic(n, 1),
                     lambda: uniform_distribution(n), lambda: n_step_matrix(gen_symmetric(3, 0), n)):
            with pytest.raises(InvalidInputError, match="must be an integer"):
                make()

    def test_alpha_out_of_range(self):
        with pytest.raises(InvalidInputError):
            gen_doubly_stochastic(4, 0, alpha=1.5)
        with pytest.raises(InvalidInputError):
            gen_doubly_stochastic(4, 0, alpha="sometimes")

    def test_symmetric_is_bitwise_symmetric(self):
        tm = gen_symmetric(15, 9)
        assert np.array_equal(tm.entries, tm.entries.T)
        assert tm.is_symmetric and tm.is_doubly_stochastic

    @pytest.mark.parametrize("n", [20, 160, 201])
    def test_symmetric_is_the_average_with_the_transpose(self, n):
        base = markov._sinkhorn(np.random.default_rng(n).random((n, n)))
        assert gen_symmetric(n, n).entries.tobytes() == (0.5 * (base + base.T)).tobytes()

    def test_symmetric_holds_few_square_arrays(self):
        n = 200
        gen_symmetric(n, 0)  # first-call allocations are not the generator's
        tracemalloc.start()
        try:
            gen_symmetric(n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * n * 8, peak / (n * n * 8)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_uniform_is_stationary_for_doubly_stochastic(self, n, seed):
        tm = gen_doubly_stochastic(n, seed)
        d = uniform_distribution(n)
        assert np.abs(d @ tm.entries - d).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           alpha=st.floats(0.0, 1.0, allow_nan=False))
    def test_mixture_stays_doubly_stochastic(self, n, seed, alpha):
        tm = gen_doubly_stochastic(n, seed, alpha=alpha)
        assert np.abs(tm.entries.sum(axis=1) - 1.0).max() <= 1e-10
        assert np.abs(tm.entries.sum(axis=0) - 1.0).max() <= 1e-10


class TestTransitionMatrix:
    def test_fixed_examples_flags(self):
        e2 = fixed_example_2x2()
        assert e2.is_symmetric and e2.is_doubly_stochastic and e2.n == 2
        e3 = fixed_example_3x3()
        assert e3.is_doubly_stochastic and not e3.is_symmetric

    def test_entries_are_read_only(self):
        tm = fixed_example_2x2()
        with pytest.raises(ValueError):
            tm.entries[0, 0] = 0.5

    def test_rejects_bad_rows(self):
        with pytest.raises(InvalidInputError):
            TransitionMatrix.from_entries([[0.5, 0.4], [0.5, 0.5]])

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            TransitionMatrix.from_entries([[1.2, -0.2], [0.5, 0.5]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            TransitionMatrix.from_entries([[np.nan, 1.0], [0.5, 0.5]])

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            TransitionMatrix.from_entries([[0.5, 0.5]])


class TestSpectral:
    def test_fixed_2x2_eigenstructure(self):
        summary = spectral(fixed_example_2x2(), "eigen")
        assert np.allclose(summary.values, [1.0, -0.8], atol=1e-12)
        assert np.allclose(summary.right_vectors[:, 0], [SQRT_HALF, SQRT_HALF], atol=1e-12)
        assert np.allclose(summary.right_vectors[:, 1], [SQRT_HALF, -SQRT_HALF], atol=1e-12)
        assert summary.left_vectors is summary.right_vectors

    def test_fixed_3x3_singular_values(self):
        summary = spectral(fixed_example_3x3(), "svd")
        assert np.allclose(summary.values, [1.0, 1.0, 0.0], atol=1e-12)

    def test_fixed_3x3_top_singular_spaces(self):
        # sigma = 1 is twofold degenerate; pin the subspaces, not the basis
        summary = spectral(fixed_example_3x3(), "svd")
        left_space = np.array([[SQRT_HALF, 0.0], [SQRT_HALF, 0.0], [0.0, 1.0]])
        right_space = np.array([[0.0, 1.0], [SQRT_HALF, 0.0], [SQRT_HALF, 0.0]])
        for j in range(2):
            u = summary.left_vectors[:, j]
            v = summary.right_vectors[:, j]
            assert np.linalg.norm(left_space @ (left_space.T @ u) - u) <= 1e-10
            assert np.linalg.norm(right_space @ (right_space.T @ v) - v) <= 1e-10

    def test_eigen_requires_symmetry(self):
        with pytest.raises(NotSymmetricError):
            spectral(fixed_example_3x3(), "eigen")

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            spectral(fixed_example_2x2(), "schur")

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    def test_eigen_reconstruction_and_conventions(self, n, seed):
        tm = gen_symmetric(n, seed)
        summary = spectral(tm, "eigen")
        v, w = summary.right_vectors, summary.values
        assert np.abs(v @ np.diag(w) @ v.T - tm.entries).max() <= 1e-10
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10
        assert np.all(np.diff(np.abs(w)) <= 1e-12)
        for j in range(n):
            lead = v[np.abs(v[:, j]) > 1e-12, j]
            assert lead.size == 0 or lead[0] > 0

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    def test_svd_reconstruction_and_conventions(self, n, seed):
        tm = gen_doubly_stochastic(n, seed)
        summary = spectral(tm, "svd")
        u, s, v = summary.left_vectors, summary.values, summary.right_vectors
        assert np.abs(u @ np.diag(s) @ v.T - tm.entries).max() <= 1e-10
        assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-10
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10
        assert np.all(s >= -1e-15)
        assert np.all(np.diff(s) <= 1e-12)
        for j in range(n):
            lead = u[np.abs(u[:, j]) > 1e-12, j]
            assert lead.size == 0 or lead[0] > 0

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_eigen_reads_the_cached_eigh(self, n, seed):
        from selfpredict.markov import _canonical_order, _fix_signs
        tm = gen_symmetric(n, seed)
        w, v = np.linalg.eigh(tm.entries)
        order = _canonical_order(w)
        ref_v = v[:, order].copy()
        _fix_signs(ref_v)
        summary = spectral(tm, "eigen")
        assert summary.values.tobytes() == w[order].tobytes()
        assert summary.right_vectors.tobytes() == ref_v.tobytes()
        cached_w, cached_v = tm.eigh
        assert tm.eigh is tm.eigh
        assert not cached_w.flags.writeable and not cached_v.flags.writeable
        assert cached_w.tobytes() == w.tobytes() and cached_v.tobytes() == v.tobytes()
        assert not np.shares_memory(summary.right_vectors, cached_v)
        ref_s = np.sort(np.abs(np.linalg.eigvalsh(tm.entries)))[::-1]
        assert np.abs(tm.singular_values - ref_s).max() <= 1e-12 * ref_s[0]

    def test_eigh_requires_symmetry(self):
        with pytest.raises(NotSymmetricError):
            fixed_example_3x3().eigh


class TestNStep:
    def test_two_step_of_fixed_2x2(self):
        squared = n_step_matrix(fixed_example_2x2(), 2)
        assert np.allclose(squared.entries, [[0.82, 0.18], [0.18, 0.82]], atol=1e-15)
        assert squared.is_symmetric

    def test_one_step_is_identity_operation(self):
        tm = gen_doubly_stochastic(6, 1)
        assert np.array_equal(n_step_matrix(tm, 1).entries, tm.entries)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            n_step_matrix(fixed_example_2x2(), 0)

    @pytest.mark.parametrize("gen", [gen_symmetric, gen_doubly_stochastic])
    def test_a_power_past_the_rounding_names_n_steps(self, gen):
        # at n = 3 the power's row sums drift past 1e-12 by 10**5 steps (5.5e-12 for gen_symmetric)
        with pytest.raises(InvalidInputError, match=r"n_steps=100000 drifts the power's row sums: .* worst error"):
            n_step_matrix(gen(3, 0), 10**5)

    def test_powers_preserve_double_stochasticity(self):
        tm = gen_doubly_stochastic(8, 3)
        assert n_step_matrix(tm, 3).is_doubly_stochastic


class TestDistributions:
    def test_uniform(self):
        d = uniform_distribution(4)
        assert np.array_equal(d, np.full(4, 0.25))

    def test_validate_accepts_uniform(self):
        v = validate_distribution(uniform_distribution(7), 7)
        assert v.shape == (7,)

    def test_validate_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            validate_distribution([0.5, 0.4])

    def test_validate_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            validate_distribution([1.5, -0.5])

    def test_validate_rejects_wrong_length(self):
        with pytest.raises(InvalidInputError):
            validate_distribution([0.5, 0.5], 3)
