"""Gray-Wyner common rate: branch formulas, duality, and structure."""

import math

import numpy as np
import pytest

from gausswyner import graywyner
from gausswyner.errors import ParameterError
from gausswyner.graywyner import Regime, common_rate, dual_maximizer, dual_objective


class TestCommonRate:
    def test_upper_boundary_is_zero(self):
        # distortion product exactly at the variance
        point = common_rate(1.0, 0.5, 1.0, 0.0)
        assert point.r0 == 0.0
        assert point.regime is Regime.BLEND

    def test_regime_boundary_continuity(self):
        for rho in (0.1, 0.4, 0.7, 0.9):
            d = 1.0 - rho
            blend = 0.5 * math.log((1.0 + rho) / (2.0 * d + rho - 1.0))
            saturated = 0.5 * math.log((1.0 - rho * rho) / (d * d))
            assert blend == pytest.approx(saturated, abs=1e-12)
            point = common_rate(1.0, rho, d, 0.0)
            assert point.r0 == pytest.approx(
                0.5 * math.log((1.0 + rho) / (1.0 - rho)), abs=1e-12)

    def test_loose_distortion_gives_zero(self):
        point = common_rate(1.0, 0.5, 1.5, 0.0)
        assert point.r0 == 0.0
        assert point.regime is Regime.INFEASIBLE_ZERO

    def test_saturated_regime_value(self):
        point = common_rate(1.0, 0.5, 0.3, 0.0)
        assert point.regime is Regime.SATURATED_NU
        assert point.r0 == pytest.approx(
            0.5 * math.log(0.75 / 0.09), abs=1e-12)

    def test_variance_scaling_is_exact(self):
        for sigma2 in (0.25, 0.5, 2.0, 5.0):
            for rho, delta, alpha in ((0.5, 0.1, 0.5), (0.8, 0.05, 1.0)):
                scaled = common_rate(sigma2, rho, delta * sigma2, alpha)
                unit = common_rate(1.0, rho, delta, alpha)
                assert scaled.r0 == unit.r0
                assert scaled.regime is unit.regime

    def test_negative_correlation_folds(self):
        assert common_rate(1.0, -0.5, 0.2, 0.1).r0 == \
            common_rate(1.0, 0.5, 0.2, 0.1).r0

    def test_monotone_in_alpha_and_delta(self):
        rates_alpha = [common_rate(1.0, 0.6, 0.2, a).r0
                       for a in np.linspace(0.0, 2.0, 40)]
        assert all(b <= a + 1e-12 for a, b in zip(rates_alpha, rates_alpha[1:]))
        rates_delta = [common_rate(1.0, 0.6, d, 0.3).r0
                       for d in np.linspace(0.01, 1.2, 40)]
        assert all(b <= a + 1e-12 for a, b in zip(rates_delta, rates_delta[1:]))

    def test_monotone_in_correlation_within_saturated_regime(self):
        # keep delta e^alpha below 1 - rho for every sampled rho; the rate
        # here is the joint-compression cut-set value less the private cap,
        # and joint compression only improves with correlation
        rates = [common_rate(1.0, r, 0.05, 0.0).r0
                 for r in np.linspace(0.0, 0.9, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_tiny_distortion_stays_finite(self):
        # d * d underflows here; the saturated branch works with log d
        point = common_rate(1.0, 0.5, 1e-300, 0.0)
        assert point.regime is Regime.SATURATED_NU
        assert point.r0 == pytest.approx(
            0.5 * math.log(0.75) - math.log(1e-300), rel=1e-15)

    def test_ratio_below_float_range_stays_finite(self):
        # delta / sigma2 = 1e-600 is not a float; log d is still exact
        point = common_rate(1e300, 0.5, 1e-300, 0.0)
        assert point.regime is Regime.SATURATED_NU
        assert point.r0 == pytest.approx(
            0.5 * math.log(0.75) + 600.0 * math.log(10.0), rel=1e-15)

    @pytest.mark.parametrize("alpha", [710.0, 800.0, math.inf])
    def test_large_private_rate_is_zero_regime(self, alpha):
        point = common_rate(1.0, 0.5, 0.1, alpha)
        assert point.r0 == 0.0
        assert point.regime is Regime.INFEASIBLE_ZERO

    def test_blend_with_overflowing_exponential(self):
        # e^alpha alone overflows, but d = delta / sigma2 * e^alpha is 0.8
        alpha = math.log(0.8) - math.log(1e-309)
        assert alpha > 709.8
        point = common_rate(1e9, 0.5, 1e-300, alpha)
        assert point.regime is Regime.BLEND
        assert point.r0 == pytest.approx(0.5 * math.log(1.5 / 1.1), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            common_rate(1.0, 0.5, 0.0, 0.1)
        with pytest.raises(ParameterError):
            common_rate(0.0, 0.5, 0.1, 0.1)
        with pytest.raises(ParameterError):
            common_rate(1.0, 0.5, 0.1, -0.2)


class TestDualObjective:
    def test_at_nu_one_matches_saturated_branch(self):
        for rho, delta, alpha in ((0.5, 0.3, 0.0), (0.7, 0.05, 1.0)):
            assert delta * math.exp(alpha) <= 1.0 - rho
            expected = 0.5 * math.log(
                (1.0 - rho * rho) / (delta * delta * math.exp(2.0 * alpha)))
            assert dual_objective(rho, delta, alpha, 1.0) == pytest.approx(
                expected, abs=1e-12)

    def test_at_maximizer_matches_blend_branch(self):
        rho, delta, alpha = 0.5, 0.75, 0.0
        nu = dual_maximizer(rho, delta, alpha)
        assert dual_objective(rho, delta, alpha, nu) == pytest.approx(
            common_rate(1.0, rho, delta, alpha).r0, abs=1e-10)

    @pytest.mark.parametrize("nu", [0.7, 0.9])
    def test_concavity_second_difference(self, nu):
        h = 1e-4
        fn = lambda n: dual_objective(0.5, 0.4, 0.2, n)
        second = (fn(nu + h) - 2.0 * fn(nu) + fn(nu - h)) / (h * h)
        assert second < 0.0
        assert second == pytest.approx(-1.0 / (nu * (2.0 * nu - 1.0)), rel=1e-3)

    def test_weak_duality_random_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            rho = rng.uniform(0.05, 0.95)
            delta = rng.uniform(0.02, 1.2)
            alpha = rng.uniform(0.0, 1.0)
            nu = rng.uniform(1.0 / (1.0 + rho), 1.0)
            assert dual_objective(rho, delta, alpha, nu) <= \
                common_rate(1.0, rho, delta, alpha).r0 + 1e-10

    def test_derivative_nonnegative_in_saturated_regime(self):
        rho, delta, alpha = 0.5, 0.2, 0.0
        assert delta * math.exp(alpha) <= 1.0 - rho
        h = 1e-6
        for nu in (0.6, 0.75, 0.9, 0.999):
            derivative = (dual_objective(rho, delta, alpha, nu + h)
                          - dual_objective(rho, delta, alpha, nu - h)) / (2 * h)
            analytic = math.log(
                nu * (1.0 - rho) / ((2.0 * nu - 1.0) * delta * math.exp(alpha)))
            assert derivative >= 0.0
            assert derivative == pytest.approx(analytic, rel=1e-4)

    def test_rejects_nu_outside_half_one(self):
        with pytest.raises(ParameterError):
            dual_objective(0.5, 0.3, 0.0, 0.5)
        with pytest.raises(ParameterError):
            dual_objective(0.5, 0.3, 0.0, 1.1)


class TestDualMaximizer:
    def test_upper_boundary(self):
        assert dual_maximizer(0.5, 1.0, 0.0) == pytest.approx(
            1.0 / 1.5, abs=1e-12)

    def test_lower_boundary(self):
        assert dual_maximizer(0.5, 0.5, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_interior_value_and_stationarity(self):
        nu = dual_maximizer(0.5, 0.75, 0.0)
        assert nu == pytest.approx(0.75, abs=1e-12)
        h = 1e-6
        derivative = (dual_objective(0.5, 0.75, 0.0, nu + h)
                      - dual_objective(0.5, 0.75, 0.0, nu - h)) / (2.0 * h)
        assert abs(derivative) <= 1e-8

    def test_large_alpha_is_rejected_not_overflowed(self):
        with pytest.raises(ParameterError):
            dual_maximizer(0.5, 0.1, 800.0)
        # e^alpha overflows alone, but the product lies in the blend range
        alpha = math.log(0.8) - math.log(1e-309)
        assert dual_maximizer(0.5, 1e-309, alpha) == pytest.approx(
            0.8 / 1.1, rel=1e-12)

    def test_rejects_outside_blend_regime(self):
        with pytest.raises(ParameterError):
            dual_maximizer(0.5, 0.3, 0.0)
        with pytest.raises(ParameterError):
            dual_maximizer(0.5, 1.5, 0.0)
