import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfpredict import (
    InvalidInputError,
    ShapeMismatchError,
    TransitionMatrix,
    collapse_metrics,
    fixed_example_2x2,
    fixed_example_3x3,
    gen_doubly_stochastic,
    gen_symmetric,
    normalizers,
    orthonormal_init,
    reference_normalizer,
    spectral,
    svd_trace_objective,
    trace_objective,
)
from selfpredict.metrics import _max_abs_cosine


@pytest.fixture(scope="module")
def eigvecs_2x2():
    return spectral(fixed_example_2x2(), "eigen").right_vectors


class TestTraceObjective:
    def test_top_eigenvector_value(self, eigvecs_2x2):
        assert abs(trace_objective(eigvecs_2x2[:, :1], fixed_example_2x2()) - 1.0) <= 1e-12

    def test_second_eigenvector_value(self, eigvecs_2x2):
        assert abs(trace_objective(eigvecs_2x2[:, 1:], fixed_example_2x2()) - 0.64) <= 1e-12

    def test_full_basis_value(self, eigvecs_2x2):
        assert abs(trace_objective(eigvecs_2x2, fixed_example_2x2()) - 1.64) <= 1e-12

    def test_accepts_raw_arrays(self, eigvecs_2x2):
        raw = fixed_example_2x2().entries
        assert abs(trace_objective(eigvecs_2x2, raw) - 1.64) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            trace_objective(np.ones((3, 1)), fixed_example_2x2())

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**31))
    def test_matches_direct_formula(self, n, seed):
        tm = gen_symmetric(n, seed)
        phi = orthonormal_init(n, min(2, n), seed + 1)
        direct = np.linalg.norm(phi.T @ tm.entries @ phi, "fro") ** 2
        assert abs(trace_objective(phi, tm) - direct) <= 1e-12


class TestSvdTraceObjective:
    def test_top_singular_pair_value(self):
        tm = fixed_example_3x3()
        summary = spectral(tm, "svd")
        left = summary.left_vectors[:, :1]
        right = summary.right_vectors[:, :1]
        assert abs(svd_trace_objective(left, right, tm) - 1.0) <= 1e-12

    def test_column_count_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            svd_trace_objective(np.ones((3, 1)), np.ones((3, 2)), fixed_example_3x3())


class TestNormalizers:
    def test_fixed_2x2(self):
        norms1 = normalizers(fixed_example_2x2(), 1)
        assert abs(norms1.eigen_norm - 1.0) <= 1e-12
        assert abs(norms1.svd_norm - 1.0) <= 1e-12
        norms2 = normalizers(fixed_example_2x2(), 2)
        assert abs(norms2.eigen_norm - 1.64) <= 1e-12
        assert abs(norms2.svd_norm - 1.64) <= 1e-12

    def test_fixed_3x3(self):
        norms1 = normalizers(fixed_example_3x3(), 1)
        assert norms1.eigen_norm is None
        assert abs(norms1.svd_norm - 1.0) <= 1e-12
        norms2 = normalizers(fixed_example_3x3(), 2)
        assert norms2.eigen_norm is None
        assert abs(norms2.svd_norm - 2.0) <= 1e-12

    def test_reference_picks_by_symmetry(self):
        sym = gen_symmetric(6, 0)
        asym = gen_doubly_stochastic(6, 0)
        assert reference_normalizer(sym, 2) == normalizers(sym, 2).eigen_norm
        assert reference_normalizer(asym, 2) == normalizers(asym, 2).svd_norm

    def test_k_out_of_range(self):
        with pytest.raises(InvalidInputError):
            normalizers(fixed_example_2x2(), 3)

    @pytest.mark.parametrize("k", [2.5, True, 1.0, None, np.nan])
    def test_k_is_an_integer(self, k):
        # 2.5 used to raise a TypeError, and True was taken as k = 1
        with pytest.raises(InvalidInputError, match="^k must be"):
            normalizers(fixed_example_2x2(), k)
        assert normalizers(fixed_example_2x2(), np.int64(1)) == normalizers(fixed_example_2x2(), 1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**31), symmetric=st.booleans())
    def test_matches_spectral_values(self, n, seed, symmetric):
        tm = gen_symmetric(n, seed) if symmetric else gen_doubly_stochastic(n, seed)
        s = spectral(tm, "svd").values
        w = spectral(tm, "eigen").values if tm.is_symmetric else None
        for k in range(1, n + 1):
            norms = normalizers(tm, k)
            assert norms.svd_norm == pytest.approx(np.sum(s[:k] ** 2), rel=1e-12)
            if w is None:
                assert norms.eigen_norm is None
            else:
                assert norms.eigen_norm == pytest.approx(np.sum(w[:k] ** 2), rel=1e-12)
                assert norms.svd_norm == norms.eigen_norm

    def test_magnitude_tie(self):
        swap = TransitionMatrix.from_entries([[0.0, 1.0], [1.0, 0.0]])
        assert list(spectral(swap, "eigen").values) == [1.0, -1.0]
        for k in (1, 2):
            norms = normalizers(swap, k)
            assert norms.eigen_norm == norms.svd_norm == pytest.approx(float(k), rel=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 9), seed=st.integers(0, 2**31))
    def test_normalizer_is_positive_and_monotone_in_k(self, n, seed):
        tm = gen_doubly_stochastic(n, seed)
        values = [normalizers(tm, k).svd_norm for k in range(1, n + 1)]
        assert values[0] > 0
        assert np.all(np.diff(values) >= -1e-15)


class TestCollapseMetrics:
    def test_orthonormal_is_clean(self):
        phi = orthonormal_init(10, 3, 7)
        out = collapse_metrics(phi, phi)
        assert out.covariance_drift == 0.0
        assert out.max_abs_cosine <= 1e-12

    def test_single_column_cosine_is_zero(self):
        phi = np.ones((4, 1))
        assert collapse_metrics(phi, phi).max_abs_cosine == 0.0

    def test_identical_columns_align_fully(self):
        col = np.random.default_rng(0).standard_normal((5, 1))
        phi = np.hstack([col, col])
        assert collapse_metrics(phi, phi).max_abs_cosine == pytest.approx(1.0, abs=1e-12)

    def test_zero_column_reports_collapse(self):
        phi = np.hstack([np.ones((4, 1)), np.zeros((4, 1))])
        assert collapse_metrics(phi, phi).max_abs_cosine == 1.0

    def test_drift_measures_covariance_change(self):
        phi0 = orthonormal_init(6, 2, 3)
        assert collapse_metrics(2.0 * phi0, phi0).covariance_drift == pytest.approx(3.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            collapse_metrics(np.ones((4, 2)), np.ones((4, 3)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), scale=st.floats(1e-3, 1e3))
    def test_cosine_invariant_under_column_scaling(self, seed, scale):
        phi = np.random.default_rng(seed).standard_normal((7, 3))
        base = collapse_metrics(phi, phi).max_abs_cosine
        scaled = phi * np.array([scale, 1.0, 1.0 / scale])
        again = collapse_metrics(scaled, scaled).max_abs_cosine
        assert again == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_stacked_cosine_matches_each_covariance(self):
        # A (2, 3) stack of 3x3 covariances, one with a zero column: every
        # entry equals the cosine of that covariance taken alone, bit for bit.
        phis = np.random.default_rng(5).standard_normal((2, 3, 8, 3))
        phis[1, 2, :, 1] = 0.0
        covs = phis.swapaxes(-1, -2) @ phis
        stacked = _max_abs_cosine(covs)
        assert stacked.shape == (2, 3)
        assert stacked[1, 2] == 1.0
        for i in range(2):
            for j in range(3):
                assert stacked[i, j] == _max_abs_cosine(covs[i, j])
                assert stacked[i, j] == collapse_metrics(phis[i, j], phis[i, j]).max_abs_cosine
