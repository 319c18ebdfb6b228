"""Gray-Wyner common rate: branch formulas, duality, and structure."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausswyner import oracle
from gausswyner.errors import ParameterError
from gausswyner.graywyner import Regime, common_rate, dual_objective


def _decimal_ln(x) -> Decimal:
    """ln of a float or a Decimal, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        return Decimal(x).ln()


def _decimal_log_one_minus_r2(r: float) -> Decimal:
    """ln(1 - r^2) = -2 I(r) to 50 digits, as ln(1 - r) + ln(1 + r)."""
    with localcontext() as ctx:
        ctx.prec = 50
        return (1 - Decimal(r)).ln() + (1 + Decimal(r)).ln()


def _within_ulps(got: float, want: Decimal, ulps: int) -> bool:
    return abs(Decimal(got) - want) <= ulps * Decimal(math.ulp(got))


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

    def test_regime_boundary_continuity_near_unit_correlation(self):
        # delta moved by a relative 2e-12 to each side of d = 1 - rho: both
        # sides are within a few ulps of their 50-digit values, so the jump
        # is the exact one, 4.0e-12. A saturated rate formed from the
        # rounded rho * rho was 1.85e-9 high, a jump 465 times too large.
        rho, alpha = 1.0 - 7.42e-9, 0.938
        edge = (1.0 - rho) * math.exp(-alpha)
        below = common_rate(1.0, rho, edge * (1.0 - 2e-12), alpha)
        above = common_rate(1.0, rho, edge * (1.0 + 2e-12), alpha)
        assert below.regime is Regime.SATURATED_NU
        assert above.regime is Regime.BLEND
        with localcontext() as ctx:
            ctx.prec = 50
            want_below = (_decimal_log_one_minus_r2(rho) / 2
                          - _decimal_ln(below.delta) - Decimal(alpha))
            d = Decimal(above.delta) * Decimal(alpha).exp()
            want_above = _decimal_ln((1 + Decimal(rho))
                                     / (2 * d - (1 - Decimal(rho)))) / 2
        assert _within_ulps(below.r0, want_below, 4)
        assert _within_ulps(above.r0, want_above, 4)

    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("sigma2, alpha, fraction", [
        (1.0, 0.0, 0.5), (1e300, 0.938, 0.01), (1e-300, 2.0, 0.9)])
    def test_saturated_rate_near_unit_correlation(self, gap, sigma2, alpha,
                                                  fraction):
        # (1/2) ln(1 - rho^2) - ln(delta / sigma2) - alpha to 50 digits at
        # 1 - rho = gap; with 1 - rho^2 formed from the rounded rho * rho
        # the rate was 68 to 140,738 ulps off
        rho = 1.0 - gap
        delta = sigma2 * (1.0 - rho) * fraction * math.exp(-alpha)
        point = common_rate(sigma2, rho, delta, alpha)
        assert point.regime is Regime.SATURATED_NU
        with localcontext() as ctx:
            ctx.prec = 50
            want = (_decimal_log_one_minus_r2(rho) / 2 - _decimal_ln(delta)
                    + _decimal_ln(sigma2) - Decimal(alpha))
        assert _within_ulps(point.r0, want, 4)

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

    @pytest.mark.parametrize("sigma2, delta", [
        (1.0, 1e-10), (1.0, 1e-20), (1e300, 1e-300)])
    def test_unit_correlation_blend_keeps_tiny_distortion(self, sigma2, delta):
        # at |rho| = 1 the blended rate is -log(d)/2; d = 1e-600 is not a
        # float, and 2d + rho - 1 must not round d away
        point = common_rate(sigma2, 1.0, delta, 0.0)
        assert point.regime is Regime.BLEND
        assert point.r0 == pytest.approx(
            -0.5 * (math.log(delta) - math.log(sigma2)), rel=1e-15)
        assert point.nu_star == 0.5

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
        # an int too large for a float, in each argument
        for args in [(10**400, 0.5, 0.1, 0.1), (1.0, 10**400, 0.1, 0.1),
                     (1.0, 0.5, 10**400, 0.1), (1.0, 0.5, 0.1, 10**400)]:
            with pytest.raises(ParameterError):
                common_rate(*args)


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
        point = common_rate(1.0, rho, delta, alpha)
        assert dual_objective(rho, delta, alpha, point.nu_star) == \
            pytest.approx(point.r0, abs=1e-10)

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

    def test_matches_a_decimal_reference(self):
        # nu ln nu - (nu - 1/2) ln(2 nu - 1) - nu (alpha + ln delta) - I(rho)
        # - (1 - nu) ln(1 - rho) to 50 digits, with 1 - rho down to 1e-12;
        # with 1 - rho^2 formed from the rounded rho * rho the bound was up
        # to 1.85e-9 off
        rng = np.random.default_rng(21)
        rhos = ([1.0 - 1e-12, 1.0 - 7.42e-9]
                + [1.0 - 10.0 ** -rng.uniform(1.0, 12.0) for _ in range(24)]
                + [10.0 ** -rng.uniform(0.0, 8.0) for _ in range(6)])
        for rho in rhos:
            delta = float(rng.uniform(0.02, 1.2))
            alpha = float(rng.uniform(0.0, 1.0))
            nu = float(rng.uniform(1.0 / (1.0 + rho), 1.0))
            with localcontext() as ctx:
                ctx.prec = 50
                n = Decimal(nu)
                want = (n * _decimal_ln(n)
                        - (n - Decimal("0.5")) * _decimal_ln(2 * n - 1)
                        - n * (Decimal(alpha) + _decimal_ln(delta))
                        + _decimal_log_one_minus_r2(rho) / 2
                        - (1 - n) * _decimal_ln(1 - Decimal(rho)))
            got = dual_objective(rho, delta, alpha, nu)
            assert abs(Decimal(got) - want) \
                <= Decimal("1e-13") * max(1, abs(want)), rho

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

    def test_rejects_degenerate_rho(self):
        with pytest.raises(ParameterError, match=r"\|rho\| < 1"):
            dual_objective(1.0, 0.5, 0.0, 0.75)

    def test_rejects_nu_outside_half_one(self):
        with pytest.raises(ParameterError):
            dual_objective(0.5, 0.3, 0.0, 0.5)
        with pytest.raises(ParameterError):
            dual_objective(0.5, 0.3, 0.0, 1.1)
        with pytest.raises(ParameterError):
            dual_objective(0.5, 0.3, 0.0, 10**400)


class TestDualMaximizer:
    """nu_star, the maximizer of dual_objective that common_rate returns."""

    def test_upper_boundary(self):
        assert common_rate(1.0, 0.5, 1.0, 0.0).nu_star == pytest.approx(
            1.0 / 1.5, abs=1e-12)

    def test_lower_boundary(self):
        assert common_rate(1.0, 0.5, 0.5, 0.0).nu_star == pytest.approx(
            1.0, abs=1e-12)

    def test_interior_value_and_stationarity(self):
        nu = common_rate(1.0, 0.5, 0.75, 0.0).nu_star
        assert nu == pytest.approx(0.75, abs=1e-12)
        h = 1e-6
        derivative = (dual_objective(0.5, 0.75, 0.0, nu + h)
                      - dual_objective(0.5, 0.75, 0.0, nu - h)) / (2.0 * h)
        assert abs(derivative) <= 1e-8

    def test_large_alpha_gives_none_not_overflow(self):
        assert common_rate(1.0, 0.5, 0.1, 800.0).nu_star is None
        # e^alpha overflows alone, but the product lies in the blend range
        alpha = math.log(0.8) - math.log(1e-309)
        assert common_rate(1.0, 0.5, 1e-309, alpha).nu_star == pytest.approx(
            0.8 / 1.1, rel=1e-12)

    def test_variance_keeps_an_underflowing_ratio(self):
        # delta / sigma2 = 1e-400 underflows, but d = 1e-400 * e^900 is in
        # the blend range
        rho = 0.9999999999
        nu = common_rate(1e200, rho, 1e-200, 900.0).nu_star
        d = math.exp(900.0 - 400.0 * math.log(10.0))
        assert nu == pytest.approx(d / (2.0 * d - (1.0 - rho)), rel=1e-12)

    def test_none_outside_blend_regime(self):
        assert common_rate(1.0, 0.5, 0.3, 0.0).nu_star is None
        assert common_rate(1.0, 0.5, 1.5, 0.0).nu_star is None

    def test_saturated_point_near_unit_correlation_has_none(self):
        # d = 1e-13 lies far below 1 - rho = 2**-40, where the blended
        # denominator 2d - (1 - rho) is negative
        point = common_rate(1.0, 1.0 - 2.0 ** -40, 1e-13, 0.0)
        assert point.regime is Regime.SATURATED_NU
        assert point.nu_star is None

    @pytest.mark.parametrize("rho, delta, alpha", [
        (0.5, 0.75, 0.0), (0.3, 0.9, 0.0), (0.9, 0.5, 0.2), (0.7, 0.4, 0.0)])
    def test_matches_golden_section_maximizer(self, rho, delta, alpha):
        point = common_rate(1.0, rho, delta, alpha)
        assert point.regime is Regime.BLEND
        report = oracle.verify_graywyner_dual(rho, delta, alpha)
        assert report.details["nu_hat"] == pytest.approx(point.nu_star,
                                                         abs=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(rho=st.floats(-1.0, 1.0),
           sigma2=st.floats(1e-300, 1e300),
           alpha=st.floats(0.0, 1500.0),
           t=st.floats(-0.5, 1.5))
    def test_blend_points_have_a_maximizer_in_range(self, rho, sigma2, alpha,
                                                    t):
        # aim d = delta / sigma2 * e^alpha at [1 - |rho|, 1] and a margin on
        # both sides, so every regime is drawn
        r = abs(rho)
        d = (1.0 - r) + t * r
        assume(d > 0.0)
        log_delta = math.log(d) + math.log(sigma2) - alpha
        assume(-745.0 < log_delta < 709.0)
        delta = math.exp(log_delta)
        assume(delta > 0.0)
        point = common_rate(sigma2, rho, delta, alpha)
        if point.regime is not Regime.BLEND:
            assert point.nu_star is None
            return
        assert math.isfinite(point.nu_star)
        assert 1.0 / (1.0 + r) <= point.nu_star <= 1.0
