"""Scalar closed forms: pinned values, identities, and invariants."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gausswyner import scalar
from gausswyner.errors import ParameterError

# Pinned reference values. The first block comes from the published curve
# for rho = 1/2 (its endpoints are ln sqrt(3) and ln(2/sqrt(3))); the second
# from 40-digit arbitrary-precision evaluation.
C_HALF = 0.549306144334055
I_HALF = 0.14384103622589
CURVE_HALF = {
    0.02: 0.348638815768086,
    0.05: 0.230436676827826,
    0.1: 0.0946030591935194,
    0.13: 0.0282878626939989,
    0.143: 0.00168420104572345,
}
C_09_MP = 1.4722194895832202      # (1/2) ln 19
I_099_MP = 1.9585177736258452
G_01_MP = 0.4547030851405354


def _decimal_atanh(x: float) -> Decimal:
    """atanh(x) for 0 <= x < 1 to 50 digits: its series below 1e-8, where
    the logs of 1 +- x would lose digits to rounding (all of them once
    1 + x rounds to 1), else half a difference of logs."""
    x = Decimal(x)
    with localcontext() as ctx:
        ctx.prec = 50
        if x < Decimal("1e-8"):
            total, term, k = Decimal(0), x, 1
            while term > x * Decimal("1e-60"):
                total, term, k = total + term / k, term * x * x, k + 2
            return +total
        return ((1 + x).ln() - (1 - x).ln()) / 2


rhos_open = st.floats(min_value=-0.999, max_value=0.999)
budgets = st.floats(min_value=0.0, max_value=3.0)


class TestCommonInformation:
    def test_zero(self):
        assert scalar.common_information(0.0) == 0.0

    def test_half(self):
        assert scalar.common_information(0.5) == pytest.approx(C_HALF, abs=1e-12)
        assert scalar.common_information(0.5) == pytest.approx(
            math.log(math.sqrt(3.0)), abs=1e-15)

    def test_high_precision_reference(self):
        assert scalar.common_information(0.9) == pytest.approx(C_09_MP, abs=1e-12)

    def test_strictly_increasing_in_magnitude(self):
        grid = np.linspace(0.0, 0.999, 200)
        values = [scalar.common_information(r) for r in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_degenerate_is_infinite(self):
        assert scalar.common_information(1.0) == math.inf
        assert scalar.common_information(-1.0) == math.inf

    def test_clamp_band(self):
        assert scalar.common_information(1.0 + 5e-10) == math.inf
        with pytest.raises(ParameterError):
            scalar.common_information(1.1)
        with pytest.raises(ParameterError):
            scalar.common_information(float("nan"))
        with pytest.raises(ParameterError):
            scalar.common_information(10**400)


class TestMutualInformation:
    def test_zero(self):
        assert scalar.mutual_information(0.0) == 0.0
        # +0.0, not -0.0, so serialized output never shows "-0.0"
        assert math.copysign(1.0, scalar.mutual_information(0.0)) == 1.0
        assert math.copysign(1.0, scalar.mutual_information(1e-170)) == 1.0

    def test_half(self):
        assert scalar.mutual_information(0.5) == pytest.approx(I_HALF, abs=1e-12)

    def test_high_precision_reference(self):
        assert scalar.mutual_information(0.99) == pytest.approx(I_099_MP, abs=1e-12)

    def test_degenerate_is_infinite(self):
        assert scalar.mutual_information(1.0) == math.inf


class TestKernels:
    """The unchecked kernels that allocation calls on a checked spectrum."""

    @given(r=st.floats(0.0, 1.0)
           | st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-310,
                              2.2250738585072014e-308, 1e-170,
                              1.0 - 2.0 ** -53]))
    def test_equal_public_functions_bit_for_bit(self, r):
        # -0.0 is in the set: the kernels give +0.0 there, as at 0.0
        logs = scalar._log1ps((r,))
        assert scalar._common_informations(logs)[0].hex() == \
            scalar.common_information(r).hex()
        assert scalar._mutual_informations(logs)[0].hex() == \
            scalar.mutual_information(r).hex()

    @given(r=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 5e-324]),
           gamma=st.floats(0.0, 50.0)
           | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, math.inf]))
    def test_budget_kernels_equal_public_functions_bit_for_bit(self, r,
                                                               gamma):
        assert scalar._levels((gamma,))[0].hex() == \
            scalar.level_from_budget(gamma).hex()
        commons = scalar._common_informations(scalar._log1ps((r,)))
        assert scalar._wyner_cis(commons, (gamma,))[0].hex() == \
            scalar.wyner_ci_scalar(r, gamma).hex()


def _positive_zero(x):
    return x == 0.0 and math.copysign(1.0, x) == 1.0


class TestNegativeZeroBudget:
    """A budget of -0.0 passes the >= 0 check; every computed result reads
    +0.0, as at a budget of 0.0."""

    def test_validator_returns_positive_zero(self):
        assert _positive_zero(scalar.validate_budget(-0.0))
        assert _positive_zero(scalar.validate_budget(0.0))

    def test_level_is_positive_zero(self):
        assert _positive_zero(scalar.level_from_budget(-0.0))
        assert _positive_zero(scalar._levels((-0.0,))[0])

    @pytest.mark.parametrize("rho", [0.5, 0.0, -0.0, 0.999999])
    @pytest.mark.parametrize("gamma", [0.0, -0.0])
    def test_achievability_fields_are_positive_zero(self, rho, gamma):
        params = scalar.achievability_params(rho, gamma)
        assert _positive_zero(params.alpha_noise)
        assert _positive_zero(params.leakage_nats)
        assert math.copysign(1.0, params.sigma2_w) == 1.0
        assert math.copysign(1.0, params.rate_nats) == 1.0


class TestTransferCurves:
    def test_level_at_zero(self):
        assert scalar.level_from_budget(0.0) == 0.0

    def test_level_of_cap_is_value(self):
        # spending exactly the mutual information buys the whole value
        assert scalar.level_from_budget(scalar.mutual_information(0.5)) == \
            pytest.approx(scalar.common_information(0.5), abs=1e-12)

    def test_level_against_bisected_inverse(self):
        # independent oracle: invert budget_from_level by bisection
        target = 0.1
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if scalar.budget_from_level(mid) < target:
                lo = mid
            else:
                hi = mid
        assert scalar.level_from_budget(0.1) == pytest.approx(
            0.5 * (lo + hi), abs=1e-10)
        assert scalar.level_from_budget(0.1) == pytest.approx(G_01_MP, abs=1e-12)

    def test_budget_at_zero(self):
        assert scalar.budget_from_level(0.0) == 0.0

    def test_budget_at_infinite_level_is_infinite(self):
        assert scalar.budget_from_level(math.inf) == math.inf

    @pytest.mark.parametrize("x", [0.01, 0.1, 1.0])
    def test_round_trip(self, x):
        assert scalar.budget_from_level(scalar.level_from_budget(x)) == \
            pytest.approx(x, abs=1e-12)

    def test_budget_of_value_is_cap(self):
        assert scalar.budget_from_level(scalar.common_information(0.5)) == \
            pytest.approx(scalar.mutual_information(0.5), abs=1e-12)

    def test_inverse_pair_on_grids(self):
        for x in np.logspace(-12, 1.5, 60):
            assert scalar.budget_from_level(scalar.level_from_budget(x)) == \
                pytest.approx(x, abs=1e-12)
        for beta in np.logspace(-6, 2, 60):
            assert scalar.level_from_budget(scalar.budget_from_level(beta)) == \
                pytest.approx(beta, abs=1e-12)

    def test_shapes(self):
        # level: concave increasing; budget: convex increasing
        grid = np.linspace(0.01, 3.0, 50)
        lv = np.array([scalar.level_from_budget(x) for x in grid])
        assert np.all(np.diff(lv) > 0)
        assert np.all(np.diff(lv, 2) < 1e-12)
        bd = np.array([scalar.budget_from_level(b) for b in grid])
        assert np.all(np.diff(bd) > 0)
        assert np.all(np.diff(bd, 2) > -1e-12)

    def test_tiny_budget_relative_accuracy(self):
        # sqrt(2x) asymptote, full relative accuracy near zero
        for x in (1e-300, 1e-30, 1e-15):
            level = scalar.level_from_budget(x)
            assert level == pytest.approx(math.sqrt(2.0 * x), rel=1e-6)


class TestWynerCiScalar:
    def test_zero_budget_is_common_information(self):
        assert scalar.wyner_ci_scalar(0.5, 0.0) == scalar.common_information(0.5)

    @pytest.mark.parametrize("gamma,expected", sorted(CURVE_HALF.items()))
    def test_published_curve(self, gamma, expected):
        assert scalar.wyner_ci_scalar(0.5, gamma) == pytest.approx(
            expected, abs=1e-12)

    def test_clamps_beyond_saturation(self):
        assert scalar.wyner_ci_scalar(0.5, 0.143841037) == 0.0
        assert scalar.wyner_ci_scalar(0.5, 10.0) == 0.0
        assert scalar.wyner_ci_scalar(0.5, scalar.mutual_information(0.5)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_degenerate_sentinel(self):
        assert scalar.wyner_ci_scalar(1.0, 0.3) == math.inf
        assert scalar.wyner_ci_scalar(-1.0, 0.0) == math.inf
        # an infinite budget meets C = inf: the value is 0.0, not inf - inf
        assert scalar.wyner_ci_scalar(1.0, math.inf) == 0.0
        assert scalar.wyner_ci_scalar(-1.0, math.inf) == 0.0

    @given(rho=rhos_open, gamma=budgets)
    def test_negative_correlation_symmetry(self, rho, gamma):
        assert scalar.wyner_ci_scalar(rho, gamma) == \
            scalar.wyner_ci_scalar(-rho, gamma)

    @given(rho=rhos_open, g1=budgets, g2=budgets)
    def test_monotone_in_budget(self, rho, g1, g2):
        lo, hi = min(g1, g2), max(g1, g2)
        assert scalar.wyner_ci_scalar(rho, lo) >= \
            scalar.wyner_ci_scalar(rho, hi) - 1e-12

    @given(rho=rhos_open, g1=budgets, g2=budgets)
    def test_midpoint_convexity(self, rho, g1, g2):
        mid = scalar.wyner_ci_scalar(rho, 0.5 * (g1 + g2))
        ends = 0.5 * (scalar.wyner_ci_scalar(rho, g1)
                      + scalar.wyner_ci_scalar(rho, g2))
        assert mid <= ends + 1e-12

    @given(rho=rhos_open, gamma=budgets)
    def test_generic_lower_bound(self, rho, gamma):
        bound = max(scalar.mutual_information(rho) - gamma, 0.0)
        assert scalar.wyner_ci_scalar(rho, gamma) >= bound - 1e-12

    def test_decomposition_matches_product_form(self):
        # same value through the one-log product-form expression, on a grid
        # where the product form is well conditioned
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
            cap = scalar.mutual_information(rho)
            for frac in (0.0, 0.25, 0.5, 0.75, 0.9, 1.1):
                gamma = frac * cap
                s = math.sqrt(-math.expm1(-2.0 * gamma))
                product = (1.0 + rho) / (1.0 - rho) * (1.0 - s) / (1.0 + s)
                expected = max(0.5 * math.log(product), 0.0)
                assert scalar.wyner_ci_scalar(rho, gamma) == pytest.approx(
                    expected, rel=1e-12, abs=1e-14)


class TestAchievability:
    def test_zero_budget(self):
        params = scalar.achievability_params(0.5, 0.0)
        assert params.alpha_noise == 0.0
        assert params.sigma2_w == pytest.approx(0.5, abs=1e-15)
        assert params.rate_nats == pytest.approx(C_HALF, abs=1e-12)
        assert params.leakage_nats == 0.0

    def test_saturation_endpoint(self):
        cap = scalar.mutual_information(0.5)
        params = scalar.achievability_params(0.5, cap)
        assert params.alpha_noise == pytest.approx(0.5, abs=1e-12)
        assert params.sigma2_w == pytest.approx(0.0, abs=1e-12)
        assert params.rate_nats == pytest.approx(0.0, abs=1e-12)

    def test_rate_matches_closed_form(self):
        params = scalar.achievability_params(0.8, 0.05)
        assert params.rate_nats == pytest.approx(
            scalar.wyner_ci_scalar(0.8, 0.05), abs=1e-12)

    @given(rho=st.floats(min_value=0.01, max_value=0.99),
           frac=st.floats(min_value=0.0, max_value=1.0))
    def test_invariants(self, rho, frac):
        gamma = frac * scalar.mutual_information(rho)
        params = scalar.achievability_params(rho, gamma)
        assert 0.0 <= params.alpha_noise <= rho
        assert 0.0 <= params.sigma2_w <= rho
        assert params.leakage_nats == gamma
        assert params.rate_nats == pytest.approx(
            scalar.wyner_ci_scalar(rho, gamma), abs=1e-12)

    @pytest.mark.parametrize("rho", [10.0 ** -e for e in range(300, 0, -13)]
                             + [0.3, 0.5, 0.9]
                             + [1.0 - 10.0 ** -e for e in range(2, 10)])
    def test_rate_matches_a_decimal_reference(self, rho):
        # I(X,Y;W) = atanh(rho) - atanh(alpha) at the construction's own
        # alpha, to 50 digits; at most 3.7 ulps off over 3,000 rho
        params = scalar.achievability_params(
            rho, 0.3 * scalar.mutual_information(rho))
        want = _decimal_atanh(rho) - _decimal_atanh(params.alpha_noise)
        assert abs(Decimal(params.rate_nats) - want) \
            <= 8 * Decimal(math.ulp(float(want)))

    @pytest.mark.parametrize("rho", [0.0, -0.0, 1e-300, 1e-17, 0.1, 0.5,
                                     0.999999])
    def test_saturated_rate_is_positive_zero(self, rho):
        # a budget past the cap leaks only the cap, I(rho)
        params = scalar.achievability_params(
            rho, scalar.mutual_information(rho) + 1e-13)
        assert params.alpha_noise == abs(rho)
        assert _positive_zero(params.rate_nats)
        assert params.leakage_nats == scalar.mutual_information(rho)


class TestDual:
    def test_matches_closed_form_at_maximizer(self):
        mu = scalar.dual_maximizer(0.05)
        assert mu >= 1.0 / 0.5
        assert scalar.dual_objective(0.5, 0.05, mu) == pytest.approx(
            scalar.wyner_ci_scalar(0.5, 0.05), abs=1e-10)

    @pytest.mark.parametrize("mu", [1.5, 2.0, 5.0])
    def test_concavity_second_difference(self, mu):
        h = 1e-4
        fn = lambda m: scalar.dual_objective(0.5, 0.05, m)
        second = (fn(mu + h) - 2.0 * fn(mu) + fn(mu - h)) / (h * h)
        analytic = -1.0 / (mu * (mu * mu - 1.0))
        assert second < 0.0
        assert second == pytest.approx(analytic, rel=1e-3)

    def test_weak_duality_random_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            rho = rng.uniform(0.05, 0.95)
            gamma = rng.uniform(0.0, 1.5) * scalar.mutual_information(rho)
            mu = 1.0 / rho + rng.uniform(0.0, 10.0)
            assert scalar.dual_objective(rho, gamma, mu) <= \
                scalar.wyner_ci_scalar(rho, gamma) + 1e-12

    def test_matches_a_decimal_reference(self):
        # C(rho) - atanh(1/mu) - mu (gamma + ln(1 - 1/mu^2) / 2) to 50
        # digits, with 1 - rho down to 1e-12 and gamma up to I(rho); with
        # 1 - rho^2 formed from the rounded rho * rho the bound was up to
        # 1.85e-9 off
        rng = np.random.default_rng(21)
        rhos = ([1.0 - 1e-12, 1.0 - 7.42e-9]
                + [1.0 - 10.0 ** -rng.uniform(1.0, 12.0) for _ in range(24)]
                + [10.0 ** -rng.uniform(0.0, 8.0) for _ in range(6)])
        for rho in rhos:
            gamma = float(rng.uniform()) * scalar.mutual_information(rho)
            mu = 1.0 / rho + float(rng.uniform(0.0, 10.0))
            with localcontext() as ctx:
                ctx.prec = 50
                m = Decimal(mu)
                want = (_decimal_atanh(rho) - ((m + 1) / (m - 1)).ln() / 2
                        - m * (Decimal(gamma) + (1 - 1 / (m * m)).ln() / 2))
            got = scalar.dual_objective(rho, gamma, mu)
            assert abs(Decimal(got) - want) \
                <= Decimal("1e-13") * max(1, abs(want)), rho

    def test_keeps_its_digits_as_mu_nears_one(self):
        # At the maximizer mu* near 1, gamma + ln(1 - 1/mu^2) / 2 cancels;
        # log1p of a rounded -1/mu^2 near -1 put the first point 1.35e-13
        # (113 of the unit below) under a 50-digit reference
        rng = np.random.default_rng(23)
        points = [(0.9999576057616543, 4.571656122818925)]
        for _ in range(40):
            rho = 1.0 - 10.0 ** -rng.uniform(1.0, 6.0)
            points.append((rho, float(rng.uniform(0.5, 1.0))
                           * scalar.mutual_information(rho)))
        for rho, gamma in points:
            mu = scalar.dual_maximizer(gamma)
            with localcontext() as ctx:
                ctx.prec = 50
                m = Decimal(mu)
                want = (_decimal_atanh(rho) - ((m + 1) / (m - 1)).ln() / 2
                        - m * (Decimal(gamma) + (1 - 1 / (m * m)).ln() / 2))
            got = scalar.dual_objective(rho, gamma, mu)
            scale = max(1.0, abs(float(want)), scalar.common_information(rho))
            assert abs(float(Decimal(got) - want)) \
                <= 4.0 * sys.float_info.epsilon * scale, (rho, gamma)

    def test_maximizer_stationarity(self):
        mu = scalar.dual_maximizer(0.1)
        h = 1e-6
        derivative = (scalar.dual_objective(0.5, 0.1, mu + h)
                      - scalar.dual_objective(0.5, 0.1, mu - h)) / (2.0 * h)
        assert abs(derivative) <= 1e-8

    def test_maximizer_saturation_identity(self):
        # at gamma = I(rho), the maximizer sits exactly on 1/rho
        assert scalar.dual_maximizer(scalar.mutual_information(0.5)) == \
            pytest.approx(2.0, abs=1e-12)

    def test_maximizer_limits(self):
        assert scalar.dual_maximizer(0.0) == math.inf
        assert scalar.dual_maximizer(50.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.95])
    def test_zero_budget_limit_at_infinite_mu(self, rho):
        # dual_maximizer(0) = inf; the objective tends to C(rho) there
        mu = scalar.dual_maximizer(0.0)
        assert scalar.dual_objective(rho, 0.0, mu) == \
            scalar.common_information(rho)
        assert scalar.dual_objective(rho, 0.0, 1e9) == pytest.approx(
            scalar.common_information(rho), abs=1e-8)

    @pytest.mark.parametrize("rho", [1e-300, 0.05, 0.5, 0.95])
    def test_huge_mu_is_not_nan(self, rho):
        # mu * mu overflows past about 1.3e154
        for mu in (1e200, 1e301):
            assert scalar.dual_objective(rho, 0.0, mu) == pytest.approx(
                scalar.common_information(rho), abs=1e-12)
            for gamma in (1e-300, 0.1, 5.0):
                value = scalar.dual_objective(rho, gamma, mu)
                assert math.isfinite(value) or value == -math.inf
                assert value <= scalar.wyner_ci_scalar(rho, gamma) + 1e-12

    def test_positive_budget_limit_at_infinite_mu(self):
        assert scalar.dual_objective(0.5, 0.1, math.inf) == -math.inf
        assert scalar.dual_objective(0.5, 1e-300, math.inf) == -math.inf
