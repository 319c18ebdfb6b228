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

    def test_range_bound_past_the_float_range_fails(self):
        # the dropped row's Frobenius norm overflows: the bound reads inf,
        # raising no overflow warning, and the exact norm decides
        cov = JointGaussianCov([[0.0]], [[1e308]], [[1e308]])
        with pytest.raises(CovarianceError,
                           match=r"eigenvalue -6\.703904e\+307"):
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

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0)])
    def test_rejects_non_square_or_empty(self, shape):
        with pytest.raises(ParameterError, match="square and non-empty"):
            vector.pinv_sqrt(np.ones(shape))


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
        report = oracle.verify_waterfill_grid(result.spectrum, 1.0)
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


def _conditioned(rng, d, kappa):
    """A d x d factor A whose Gram matrix A A^T has eigenvalues spread
    geometrically from 1 down to 1/kappa, in a random basis."""
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return q * np.sqrt(np.geomspace(1.0, 1.0 / kappa, d))


def _pair(rng, ax, ay):
    """Blocks with factors ``ax``, ``ay`` and planted correlations."""
    m = min(ax.shape[1], ay.shape[1])
    r = np.zeros((ax.shape[1], ay.shape[1]))
    r[np.arange(m), np.arange(m)] = sorted(rng.uniform(0.0, 0.999, m),
                                           reverse=True)
    return ax @ ax.T, ax @ r @ ay.T, ay @ ay.T


def _by_route(kx, kxy, ky):
    """The route of each block, the spectrum, and the spectrum with every
    block forced onto the eigendecomposition route."""
    cov = JointGaussianCov(kx, kxy, ky)
    routes = []
    real = vector._cholesky

    def spy(*args):
        block = real(*args)
        routes.append("eigh" if block is None else "cholesky")
        return block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vector, "_cholesky", spy)
        rhos = np.array(vector.canonical_correlations(cov).rhos)
        mp.setattr(vector, "_cholesky", lambda *args: None)
        eigh_rhos = np.array(vector.canonical_correlations(cov).rhos)
    return routes, rhos, eigh_rhos


# The two routes whiten the same block, so their spectra differ only by
# rounding, which grows with the blocks' condition number kappa. Over 4,500
# pairs (kappa from 1 to 2e9, d up to 11, scales 1e-300 to 1e300) the
# largest gap was 0.83 * d * eps * kappa. Against a 60-digit reference the
# Cholesky route was the closer of the two.
def _parity_bound(d, kappa):
    return 4.0 * d * np.finfo(float).eps * kappa


class TestCholeskyRoute:
    """Full-rank blocks are whitened with a Cholesky factor; the result
    matches the eigendecomposition route up to rounding."""

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6, 1e9])
    def test_matches_eigh_route_across_conditioning(self, kappa, scale):
        rng = np.random.default_rng(int(math.log10(kappa)))
        for dx, dy in ((1, 1), (2, 5), (7, 3), (11, 11)):
            kx, kxy, ky = _pair(rng, _conditioned(rng, dx, kappa),
                                _conditioned(rng, dy, kappa))
            routes, rhos, eigh_rhos = _by_route(kx * scale, kxy * scale,
                                                ky * scale)
            assert routes == ["cholesky", "cholesky"]
            np.testing.assert_allclose(
                rhos, eigh_rhos, rtol=0.0,
                atol=_parity_bound(max(dx, dy), kappa))

    @pytest.mark.parametrize("j, k", [(-150, 150), (150, -150), (0, 100)])
    def test_matches_eigh_route_in_separate_units(self, j, k):
        rng = np.random.default_rng(7)
        kx, kxy, ky = _pair(rng, _conditioned(rng, 4, 1e6),
                            _conditioned(rng, 6, 1e6))
        fx, fy = 10.0 ** j, 10.0 ** k
        routes, rhos, eigh_rhos = _by_route(kx * fx * fx, kxy * fx * fy,
                                            ky * fy * fy)
        assert routes == ["cholesky", "cholesky"]
        np.testing.assert_allclose(rhos, eigh_rhos, rtol=0.0,
                                   atol=_parity_bound(6, 1e6))

    @pytest.mark.parametrize("rank_y", [5, 3])
    def test_one_block_on_each_route(self, rank_y):
        # K_y has kappa = 5e9: full rank, as eigh sees it, but below the
        # certificate. With rank_y < 5 it has a null space as well.
        rng = np.random.default_rng(11)
        ay = _conditioned(rng, 5, 5e9)[:, :rank_y]
        kx, kxy, ky = _pair(rng, _conditioned(rng, 3, 10.0), ay)
        routes, rhos, eigh_rhos = _by_route(kx, kxy, ky)
        assert routes == ["cholesky", "eigh"]
        assert len(rhos) == 5 and np.count_nonzero(rhos) == 3
        np.testing.assert_allclose(rhos, eigh_rhos, rtol=0.0,
                                   atol=_parity_bound(5, 5e9))

    @pytest.mark.parametrize("side, route", [(1.01, "cholesky"),
                                             (0.99, "eigh")])
    def test_blocks_at_the_certificate_edge(self, side, route):
        # Eigenvalues (1, 0.5, t). ||L^-1||_F^2 is the trace of K^-1, so the
        # certificate 1/(3 + 1/t) > 4 RANK_RTOL ||K||_F holds for t above
        # edge and fails below it; t stays far above RANK_RTOL, so the
        # eigendecomposition route keeps every direction either way.
        target = 4.0 * vector.RANK_RTOL * math.sqrt(1.25)
        edge = target / (1.0 - 3.0 * target)
        t = edge * side
        rng = np.random.default_rng(13)
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        a = q * np.sqrt([1.0, 0.5, t])
        r = np.diag([0.9, 0.6, 0.5])
        routes, rhos, eigh_rhos = _by_route(a @ a.T, a @ r @ a.T, a @ a.T)
        assert routes == [route, route]
        kappa = 1.0 / t
        np.testing.assert_allclose(rhos, eigh_rhos, rtol=0.0,
                                   atol=_parity_bound(3, kappa))
        np.testing.assert_allclose(rhos, [0.9, 0.6, 0.5], rtol=0.0,
                                   atol=_parity_bound(3, kappa))

    @pytest.mark.parametrize("eps, route, value", [
        (1e-9, "cholesky", scalar.wyner_ci_scalar(0.9, 0.3)),
        (1e-12, "eigh", 0.0),
    ])
    def test_small_correlated_direction(self, eps, route, value):
        # kept at eps = 1e-9 (0.658 nats); below RANK_RTOL at 1e-12, where
        # the correlated direction is dropped and the value is 0
        k = np.diag([1.0, 1.0, eps])
        kxy = np.diag([0.0, 0.0, 0.9 * eps])
        routes, _, _ = _by_route(k, kxy, k)
        assert routes == [route, route]
        result = vector.wyner_ci_vector(JointGaussianCov(k, kxy, k), 0.3)
        assert result.value_nats == pytest.approx(value, rel=1e-6, abs=0.0)
        assert round(result.value_nats, 3) == (0.658 if value else 0.0)

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 100, 385])
    def test_triangular_inverse(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, 2 * n + 2))
        low = np.linalg.cholesky(a @ a.T / (2 * n + 2))
        inv = low.copy()
        vector._tril_inv(inv)
        np.testing.assert_allclose(np.triu(inv, 1), 0.0, rtol=0.0,
                                   atol=1e-12)
        np.testing.assert_allclose(inv @ low, np.eye(n), rtol=0.0,
                                   atol=1e-10)


class _Calls:
    """Counts calls to numpy.linalg functions while a test runs."""

    def __init__(self, monkeypatch):
        self.eigh = self.svd = 0
        self.norms = []   # values returned by norm(w, 2)
        linalg = np.linalg
        real_eigh, real_svd, real_norm = linalg.eigh, linalg.svd, linalg.norm

        def eigh(*args, **kwargs):
            self.eigh += 1
            return real_eigh(*args, **kwargs)

        def svd(*args, **kwargs):
            self.svd += 1
            return real_svd(*args, **kwargs)

        def norm(x, ord=None, *args, **kwargs):
            value = real_norm(x, ord, *args, **kwargs)
            if ord == 2:
                self.norms.append(float(value))
            return value

        monkeypatch.setattr(linalg, "eigh", eigh)
        monkeypatch.setattr(linalg, "svd", svd)
        monkeypatch.setattr(linalg, "norm", norm)


class TestWhiteningCalls:
    def test_full_rank_pair_takes_no_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(17)
        kx, kxy, ky = _pair(rng, _conditioned(rng, 6, 1e4),
                            _conditioned(rng, 4, 1e4))
        calls = _Calls(monkeypatch)
        vector.wyner_ci_vector(JointGaussianCov(kx, kxy, ky), 0.2)
        assert (calls.eigh, calls.svd, calls.norms) == (0, 1, [])

    def test_rank_deficient_pair_in_range_takes_no_second_svd(
            self, monkeypatch):
        rng = np.random.default_rng(19)
        kx, kxy, ky = _pair(rng, _conditioned(rng, 5, 10.0)[:, :3],
                            _conditioned(rng, 4, 10.0)[:, :2])
        calls = _Calls(monkeypatch)
        spectrum = vector.canonical_correlations(
            JointGaussianCov(kx, kxy, ky))
        assert (calls.eigh, calls.svd, calls.norms) == (2, 1, [])
        assert np.count_nonzero(spectrum.rhos) == 2

    @pytest.mark.parametrize("kept", [0.0, 0.999])
    def test_range_violation_quotes_the_exact_norm(self, kept, monkeypatch):
        cov = JointGaussianCov(np.diag([1.0, 0.0]), [[kept], [1e-4]],
                               [[1.0]])
        calls = _Calls(monkeypatch)
        with pytest.raises(CovarianceError) as exc:
            vector.canonical_correlations(cov)
        assert calls.eigh == 1 and len(calls.norms) == 1
        assert str(exc.value) == (
            "stacked covariance is not positive semi-definite: min "
            f"eigenvalue {1.0 - calls.norms[0]:.6e} after whitening each "
            "block")

    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dx=st.integers(0, 3),
           dy=st.integers(0, 3),
           outside=st.sampled_from([0.0, 1e-9, 1e-4, 0.5, 1.0]),
           target=st.one_of(st.just(1.0), st.floats(-3.0, 3.0)))
    def test_range_bound_accepts_only_within_tolerance(self, seed, dx, dy,
                                                       outside, target):
        # W scaled so that the bound lands within a few PSD_RTOL of the
        # threshold, on either side; with nothing outside the kept block
        # the bound is tight
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(dx + int(rng.integers(1, 4)),
                             dy + int(rng.integers(1, 4))))
        w[:dx] *= outside
        w[dx:, :dy] *= outside

        def bound(m):
            top = np.linalg.svd(m[dx:, dy:], compute_uv=False)[0]
            return vector._range_bound(m, dx, dy, float(top))

        w *= (1.0 + target * vector.PSD_RTOL) / bound(w)
        if bound(w) <= 1.0 + vector.PSD_RTOL:
            assert np.linalg.norm(w, 2) <= 1.0 + vector.PSD_RTOL
