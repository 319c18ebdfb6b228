"""Covariance validation, whitening, canonical correlations, vector value."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausswyner import scalar, vector
from gausswyner.errors import CovarianceError, ParameterError
from gausswyner.vector import CanonicalSpectrum, JointGaussianCov

from helpers import random_joint_cov, random_invertible


def scalar_cov(rho):
    return JointGaussianCov([[1.0]], [[rho]], [[1.0]])


class TestJointGaussianCov:
    def test_shape_checks(self):
        with pytest.raises(ParameterError):
            JointGaussianCov([[1.0, 0.0]], [[0.0]], [[1.0]])
        with pytest.raises(ParameterError):
            JointGaussianCov([[1.0]], [[0.0], [0.0]], [[1.0]])

    def test_from_joint_round_trip(self):
        joint = np.array([[2.0, 0.3, 0.1],
                          [0.3, 1.0, 0.2],
                          [0.1, 0.2, 1.5]])
        cov = JointGaussianCov.from_joint(joint, 2)
        assert cov.dim_x == 2 and cov.dim_y == 1
        np.testing.assert_array_equal(cov.k_x, joint[:2, :2])
        np.testing.assert_array_equal(cov.k_xy, joint[:2, 2:])
        np.testing.assert_array_equal(cov.k_y, joint[2:, 2:])
        np.testing.assert_array_equal(cov.k_xy.T, joint[2:, :2])

    def test_from_joint_rejects_bad_split(self):
        joint = np.eye(3)
        with pytest.raises(ParameterError):
            JointGaussianCov.from_joint(joint, 0)
        with pytest.raises(ParameterError):
            JointGaussianCov.from_joint(joint, 3)
        with pytest.raises(ParameterError) as exc:
            JointGaussianCov.from_joint(joint, 5)
        assert str(exc.value) == \
            "dim_x must lie strictly between 0 and 3, got 5"
        # more digits than str() of an int may print
        with pytest.raises(ParameterError, match="too long to print"):
            JointGaussianCov.from_joint(joint, 10**5000)

    @pytest.mark.parametrize("dim_x", [1.9, True, False, "1", None,
                                       math.nan, np.True_])
    def test_from_joint_rejects_a_split_that_is_not_whole(self, dim_x):
        with pytest.raises(ParameterError, match="whole number"):
            JointGaussianCov.from_joint(np.eye(3), dim_x)

    @pytest.mark.parametrize("dim_x", [2, np.int64(2), np.uint8(2), 2.0,
                                       np.float64(2.0)])
    def test_from_joint_accepts_whole_splits(self, dim_x):
        cov = JointGaussianCov.from_joint(np.eye(3), dim_x)
        assert (cov.dim_x, cov.dim_y) == (2, 1)

    def test_rejects_non_numeric(self):
        with pytest.raises(ParameterError):
            JointGaussianCov([["a"]], [[0.0]], [[1.0]])
        # an int too large for a float
        with pytest.raises(ParameterError):
            JointGaussianCov([[10**400]], [[0.0]], [[1.0]])
        with pytest.raises(ParameterError):
            JointGaussianCov.from_joint([[1.0, 0.0], [0.0, -10**400]], 1)
        with pytest.raises(ParameterError):
            vector.pinv_sqrt([[10**400]])

    @pytest.mark.parametrize("dx, dy", [(0, 0), (2, 0), (0, 1)])
    def test_rejects_empty_blocks(self, dx, dy):
        with pytest.raises(ParameterError, match="empty"):
            vector.wyner_ci_vector(JointGaussianCov(
                np.eye(dx), np.zeros((dx, dy)), np.eye(dy)), 0.1)


class TestValidateCov:
    def test_identity_blocks_pass(self):
        cov = JointGaussianCov(np.eye(2), np.zeros((2, 2)), np.eye(2))
        vector.validate_cov(cov)

    @pytest.mark.parametrize("name, args", [
        ("validate_cov", ()),
        ("canonical_correlations", ()),
        ("wyner_ci_vector", (0.1,)),
    ])
    def test_wrong_type_message_names_no_function(self, name, args):
        with pytest.raises(ParameterError) as exc:
            getattr(vector, name)([[1.0]], *args)
        assert str(exc.value) == "expected a JointGaussianCov, got list"

    def test_correlation_above_one_fails_psd(self):
        cov = JointGaussianCov([[1.0]], [[2.0]], [[1.0]])
        with pytest.raises(CovarianceError, match="eigenvalue"):
            vector.validate_cov(cov)

    def test_random_gram_matrix_passes(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        s = a.T @ a
        vector.validate_cov(JointGaussianCov.from_joint(s, 2))

    def test_asymmetry_beyond_tolerance_fails(self):
        kx = np.array([[1.0, 0.1], [0.2, 1.0]])
        cov = JointGaussianCov(kx, np.zeros((2, 2)), np.eye(2))
        with pytest.raises(CovarianceError, match="symmetric"):
            vector.validate_cov(cov)

    def test_tiny_asymmetry_is_symmetrized(self):
        kx = np.array([[1.0, 0.1], [0.1 + 1e-12, 1.0]])
        cov = vector.validate_cov(
            JointGaussianCov(kx, np.zeros((2, 2)), np.eye(2)))
        np.testing.assert_allclose(cov.k_x, cov.k_x.T, rtol=0, atol=0)

    def test_non_finite_entries_fail(self):
        cov = JointGaussianCov([[1.0]], [[math.nan]], [[1.0]])
        with pytest.raises(CovarianceError, match="non-finite"):
            vector.validate_cov(cov)

    @pytest.mark.parametrize("s", [1e-170, 1e160])
    def test_asymmetry_detected_at_extreme_scales(self, s):
        # Frobenius norms of the raw block under- or overflow at these scales
        kx = np.array([[s, 2.0 * s], [s, s]])
        cov = JointGaussianCov(kx, np.zeros((2, 2)), np.eye(2))
        with pytest.raises(CovarianceError, match="symmetric"):
            vector.validate_cov(cov)

    @pytest.mark.parametrize("c", [1.0, 1e3])
    @pytest.mark.parametrize("kept", [0.0, 0.999, 1.0])
    def test_cross_covariance_outside_range_fails_in_any_units(self, kept, c):
        # Y in units c: K_xy * c, K_y * c^2. The second component of X has
        # zero variance but a nonzero covariance with Y. With a kept
        # correlation near 1, the range violation alone whitens below 1,
        # yet the two together do not: the whole block has norm ~1.34.
        small = 1e-4 if kept == 0.0 else 2.8e-5
        cov = JointGaussianCov(np.diag([1.0, 0.0]), [[kept * c], [small * c]],
                               [[c * c]])
        with pytest.raises(CovarianceError,
                           match="positive semi-definite.*eigenvalue"):
            vector.validate_cov(cov)

    def test_overflowing_whitened_cross_covariance_fails(self):
        cov = JointGaussianCov([[1e-300]], [[1e10]], [[1e-300]])
        with pytest.raises(CovarianceError,
                           match="positive semi-definite.*eigenvalue -inf"):
            vector.validate_cov(cov)

    @pytest.mark.parametrize("kxy, ok", [(0.0, True), (1e-3, False)])
    def test_zero_block_admits_only_zero_cross_covariance(self, kxy, ok):
        cov = JointGaussianCov([[0.0]], [[kxy]], [[1.0]])
        if ok:
            assert vector.canonical_correlations(cov).rhos == (0.0,)
        else:
            with pytest.raises(CovarianceError, match="positive semi-definite"):
                vector.canonical_correlations(cov)


class TestPinvSqrt:
    def test_identity(self):
        np.testing.assert_allclose(vector.pinv_sqrt(np.eye(3)), np.eye(3),
                                   atol=1e-14)

    def test_rank_deficient_diagonal(self):
        np.testing.assert_allclose(
            vector.pinv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]),
            atol=1e-14)

    def test_full_rank_inverse_identity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        m = a @ a.T + 0.5 * np.eye(4)
        root = vector.pinv_sqrt(m)
        np.testing.assert_allclose(root @ m @ root, np.eye(4), atol=1e-8)

    def test_rank_two_projector_property(self):
        rng = np.random.default_rng(2)
        basis = rng.normal(size=(3, 2))
        m = basis @ basis.T  # rank 2 PSD
        root = vector.pinv_sqrt(m)
        projector = root @ m @ root
        # the projector onto range(m), computed independently via SVD
        u, s, _ = np.linalg.svd(m)
        expected = u[:, :2] @ u[:, :2].T
        np.testing.assert_allclose(projector, expected, atol=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(CovarianceError, match="positive semi-definite"):
            vector.pinv_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(CovarianceError, match="symmetric"):
            vector.pinv_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestCanonicalCorrelations:
    def test_scalar_reduction(self):
        assert vector.canonical_correlations(scalar_cov(0.5)).rhos == (0.5,)
        assert vector.canonical_correlations(scalar_cov(-0.5)).rhos == (0.5,)

    def test_diagonal_cross_covariance(self):
        cov = JointGaussianCov(np.eye(2), np.diag([0.9, 0.2]), np.eye(2))
        np.testing.assert_allclose(
            vector.canonical_correlations(cov).rhos, [0.9, 0.2], atol=1e-12)

    def test_rank_one_cross_covariance(self):
        # singular values of [[.5,.5],[.5,.5]] are 1 and 0
        cov = JointGaussianCov(np.eye(2), np.full((2, 2), 0.5), np.eye(2))
        np.testing.assert_allclose(
            vector.canonical_correlations(cov).rhos, [1.0, 0.0], atol=1e-9)

    def test_unequal_dimensions_pad_with_zeros(self):
        cov = JointGaussianCov(np.eye(3), np.array([[0.5], [0.0], [0.0]]),
                               np.eye(1))
        spectrum = vector.canonical_correlations(cov)
        assert len(spectrum) == 3
        np.testing.assert_allclose(spectrum.rhos, [0.5, 0.0, 0.0], atol=1e-12)

    def test_spectrum_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dx, dy = rng.integers(1, 4, size=2)
            cov = random_joint_cov(rng, int(dx), int(dy), damping=1.0)
            spectrum = vector.canonical_correlations(cov)
            assert all(0.0 <= r <= 1.0 for r in spectrum)

    def test_invariance_under_invertible_transforms(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            dx, dy = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            cov = random_joint_cov(rng, dx, dy)
            a = random_invertible(rng, dx)
            b = random_invertible(rng, dy)
            transformed = JointGaussianCov(
                a @ cov.k_x @ a.T, a @ cov.k_xy @ b.T, b @ cov.k_y @ b.T)
            np.testing.assert_allclose(
                vector.canonical_correlations(transformed).rhos,
                vector.canonical_correlations(cov).rhos, atol=1e-8)

    def test_clamp_band_via_spectrum_type(self):
        CanonicalSpectrum((1.0 + 5e-10, 0.5))  # inside the clamp band
        with pytest.raises(ParameterError):
            CanonicalSpectrum((1.01, 0.5))
        with pytest.raises(ParameterError):
            CanonicalSpectrum((0.2, 0.5))  # not descending


class TestWynerCiVector:
    def test_scalar_case_matches_published_value(self):
        result = vector.wyner_ci_vector(scalar_cov(0.5), 0.1)
        assert result.value_nats == pytest.approx(0.0946030591935194, abs=1e-9)

    def test_independent_vectors_have_zero_value(self):
        cov = JointGaussianCov(np.eye(2), np.zeros((2, 2)), np.eye(2))
        assert vector.wyner_ci_vector(cov, 0.7).value_nats == 0.0

    def test_zero_budget_sums_component_values(self):
        cov = JointGaussianCov(np.eye(2), np.diag([0.9, 0.2]), np.eye(2))
        expected = scalar.common_information(0.9) + scalar.common_information(0.2)
        assert vector.wyner_ci_vector(cov, 0.0).value_nats == pytest.approx(
            expected, abs=1e-10)

    def test_degenerate_component_gives_infinity(self):
        cov = JointGaussianCov(np.eye(2), np.full((2, 2), 0.5), np.eye(2))
        assert vector.wyner_ci_vector(cov, 0.4).value_nats == math.inf

    def test_matches_simplex_grid(self):
        from gausswyner import oracle
        cov = JointGaussianCov(np.eye(2), np.diag([0.9, 0.2]), np.eye(2))
        result = vector.wyner_ci_vector(cov, 1.0)
        report = oracle.verify_waterfill_grid(result.spectrum, 1.0, step=1e-3)
        assert abs(report.oracle_value - result.value_nats) <= 1e-4

    def test_padding_with_independent_component_is_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dx, dy = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            cov = random_joint_cov(rng, dx, dy)
            padded = JointGaussianCov(
                np.block([[cov.k_x, np.zeros((dx, 1))],
                          [np.zeros((1, dx)), np.eye(1)]]),
                np.vstack([cov.k_xy, np.zeros((1, dy))]),
                cov.k_y)
            gamma = float(rng.uniform(0.0, 1.0))
            assert vector.wyner_ci_vector(padded, gamma).value_nats == \
                pytest.approx(vector.wyner_ci_vector(cov, gamma).value_nats,
                              abs=1e-10)


def _planted(rng, kind):
    """Blocks of a small pair, valid or clearly invalid by ``kind``.

    K_x = A A^T, K_y = B B^T and K_xy = A R B^T with R = diag(rhos), so the
    canonical correlations are the planted ``rhos``. "rank_deficient" gives
    each block a null space; "too_correlated" plants rho = 1.3;
    "outside_range" adds cross-covariance along the null space of K_x.
    """
    dx, dy = (int(v) for v in rng.integers(2, 5, size=2))
    rank_x = dx - 1 if kind in ("rank_deficient", "outside_range") else dx
    rank_y = dy - 1 if kind == "rank_deficient" else dy
    a = np.linalg.qr(rng.normal(size=(dx, dx)))[0]
    b = np.linalg.qr(rng.normal(size=(dy, dy)))[0][:, :rank_y]
    a_range = a[:, :rank_x] * rng.uniform(0.5, 2.0, rank_x)
    b = b * rng.uniform(0.5, 2.0, rank_y)
    r = np.zeros((rank_x, rank_y))
    m = min(rank_x, rank_y)
    r[np.arange(m), np.arange(m)] = sorted(rng.uniform(0.0, 0.95, m),
                                           reverse=True)
    if kind == "too_correlated":
        r[0, 0] = 1.3
    kxy = a_range @ r @ b.T
    if kind == "outside_range":
        kxy += 1e-3 * np.outer(a[:, -1], b[:, 0])
    return a_range @ a_range.T, kxy, b @ b.T


def _outcome(kx, kxy, ky):
    try:
        return vector.canonical_correlations(JointGaussianCov(kx, kxy, ky))
    except CovarianceError:
        return None


_KINDS = ("valid", "rank_deficient", "too_correlated", "outside_range")


class TestUnitInvariance:
    """The spectrum and the accept/reject decision do not depend on the
    units of the pair, or of X and Y separately."""

    def _check(self, seed, kind, fx, fxy, fy):
        kx, kxy, ky = _planted(np.random.default_rng(seed), kind)
        base = _outcome(kx, kxy, ky)
        scaled = _outcome(kx * fx, kxy * fxy, ky * fy)
        assert (base is None) == (kind in ("too_correlated", "outside_range"))
        assert (scaled is None) == (base is None)
        if base is not None:
            np.testing.assert_allclose(scaled.rhos, base.rhos,
                                       rtol=0.0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(_KINDS),
           k=st.integers(-300, 300))
    def test_whole_covariance_scaling(self, seed, kind, k):
        f = 10.0 ** k
        self._check(seed, kind, f, f, f)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(_KINDS),
           j=st.integers(-150, 150), k=st.integers(-150, 150))
    def test_separate_block_scaling(self, seed, kind, j, k):
        # X in units 10^-j and Y in units 10^-k
        self._check(seed, kind, 10.0 ** (2 * j), 10.0 ** (j + k),
                    10.0 ** (2 * k))
