"""Reverse water-filling: examples, invariants, and optimality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausswyner import allocation, scalar
from gausswyner.allocation import (
    evaluate_allocation,
    saturation_breakpoints,
    waterfill,
)
from gausswyner.errors import ParameterError


class TestWaterfill:
    def test_single_component_matches_scalar(self):
        alloc = waterfill([0.5], 0.1)
        assert alloc.total_value == pytest.approx(0.0946030591935194, abs=1e-9)
        assert alloc.gammas[0] == pytest.approx(0.1, abs=1e-12)
        assert alloc.saturated == (False,)
        assert alloc.slack == 0.0

    def test_symmetric_pair_splits_evenly(self):
        alloc = waterfill([0.8, 0.8], 0.2)
        assert alloc.gammas[0] == pytest.approx(0.1, abs=1e-9)
        assert alloc.gammas[1] == pytest.approx(0.1, abs=1e-9)
        assert alloc.total_value == pytest.approx(
            2.0 * scalar.wyner_ci_scalar(0.8, 0.1), abs=1e-10)

    def test_budget_sum_and_water_level(self):
        alloc = waterfill([0.9, 0.5, 0.2], 0.5)
        assert sum(alloc.gammas) == pytest.approx(0.5, abs=1e-9)
        for gamma_i, flag in zip(alloc.gammas, alloc.saturated):
            if not flag:
                assert scalar.level_from_budget(gamma_i) == pytest.approx(
                    alloc.water_level_beta, abs=1e-9)

    def test_zero_budget(self):
        alloc = waterfill([0.9, 0.2], 0.0)
        assert alloc.gammas == (0.0, 0.0)
        assert alloc.water_level_beta == 0.0
        assert alloc.total_value == pytest.approx(
            scalar.common_information(0.9) + scalar.common_information(0.2),
            abs=1e-12)

    def test_surplus_budget_reports_slack(self):
        caps = [scalar.mutual_information(r) for r in (0.9, 0.2)]
        alloc = waterfill([0.9, 0.2], sum(caps) + 0.5)
        assert alloc.total_value == 0.0
        assert alloc.saturated == (True, True)
        assert alloc.gammas == tuple(caps)
        assert alloc.slack == pytest.approx(0.5, abs=1e-12)

    def test_budgets_never_exceed_caps(self):
        for gamma in (0.05, 0.3, 0.8, 2.0):
            alloc = waterfill([0.9, 0.5, 0.2], gamma)
            for rho, gamma_i in zip((0.9, 0.5, 0.2), alloc.gammas):
                assert gamma_i <= scalar.mutual_information(rho) + 1e-12

    def test_total_is_sum_of_clamped_levels(self):
        alloc = waterfill([0.9, 0.5, 0.2], 0.3)
        expected = sum(
            max(scalar.common_information(r) - alloc.water_level_beta, 0.0)
            for r in (0.9, 0.5, 0.2))
        assert alloc.total_value == pytest.approx(expected, abs=1e-10)

    def test_degenerate_component_gives_infinite_total(self):
        alloc = waterfill([1.0, 0.5], 0.3)
        assert alloc.total_value == math.inf
        assert alloc.saturated[0] is False
        assert sum(alloc.gammas) == pytest.approx(0.3, abs=1e-9)

    def test_all_zero_spectrum(self):
        alloc = waterfill([0.0, 0.0], 0.7)
        assert alloc.total_value == 0.0
        assert alloc.gammas == (0.0, 0.0)
        assert alloc.slack == pytest.approx(0.7)

    def test_empty_spectrum(self):
        alloc = waterfill([], 0.4)
        assert alloc.total_value == 0.0
        assert alloc.slack == pytest.approx(0.4)

    def test_rejects_unsorted_spectrum(self):
        with pytest.raises(ParameterError):
            waterfill([0.2, 0.9], 0.1)

    def test_rejects_infinite_budget(self):
        with pytest.raises(ParameterError):
            waterfill([0.5], math.inf)

    def test_bracket_identities(self):
        # level and budget are conjugate: budget_from_level maps a
        # component's value back to its own cap, so the water level reaches
        # C(rho) exactly as that component saturates
        for rho in (0.3, 0.6, 0.9):
            assert scalar.budget_from_level(scalar.common_information(rho)) == \
                pytest.approx(scalar.mutual_information(rho), abs=1e-12)

    def test_water_level_monotone_in_budget(self):
        grid = np.linspace(0.01, 1.5, 40)
        levels = [waterfill([0.8, 0.5, 0.3], g).water_level_beta for g in grid]
        assert all(b >= a - 1e-9 for a, b in zip(levels, levels[1:]))

    def test_value_convex_and_nonincreasing_in_budget(self):
        grid = np.linspace(0.01, 1.2, 25)
        totals = [waterfill([0.8, 0.5, 0.3], g).total_value for g in grid]
        assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))
        for left, mid, right in zip(totals, totals[1:], totals[2:]):
            assert mid <= 0.5 * (left + right) + 1e-9


class TestExactness:
    @pytest.mark.parametrize("rho, gamma", [
        (4.292445127976509e-07, 8.74463917124356e-14),
        (0.5, 1e-13),
        (0.9, 1e-15),
        (1e-3, 2e-9),
        (0.3, 1e-300),
    ])
    def test_single_component_matches_scalar_at_tiny_budgets(self, rho,
                                                             gamma):
        alloc = waterfill([rho], gamma)
        assert alloc.total_value == pytest.approx(
            scalar.wyner_ci_scalar(rho, gamma), rel=1e-12, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(rhos=st.lists(st.floats(min_value=0.0, max_value=0.999999),
                         min_size=1, max_size=40),
           share=st.floats(min_value=1e-12, max_value=0.999999))
    def test_budgets_map_back_to_the_water_level(self, rhos, share):
        rhos = sorted(rhos, reverse=True)
        caps = [scalar.mutual_information(r) for r in rhos]
        gamma = share * sum(caps)
        alloc = waterfill(rhos, gamma)
        beta = alloc.water_level_beta
        for gamma_i, flag in zip(alloc.gammas, alloc.saturated):
            if not flag:
                assert scalar.level_from_budget(gamma_i) == pytest.approx(
                    beta, rel=1e-14, abs=0.0)
        eps = np.finfo(float).eps
        assert abs(sum(alloc.gammas) - gamma) <= len(rhos) * eps * gamma


class TestOptimality:
    def test_random_perturbations_never_beat_waterfill(self):
        rng = np.random.default_rng(11)
        rhos = (0.9, 0.5, 0.2)
        for gamma in (0.1, 0.4, 0.8):
            alloc = waterfill(rhos, gamma)
            base = np.array(alloc.gammas)
            for _ in range(334):
                noise = rng.normal(scale=0.3 * gamma / 3.0, size=3)
                candidate = np.maximum(base + noise, 0.0)
                if candidate.sum() == 0.0:
                    continue
                candidate *= gamma / candidate.sum()
                assert evaluate_allocation(rhos, candidate) >= \
                    alloc.total_value - 1e-9

    def test_minkowski_sum_consistency(self):
        # two components: a fine one-dimensional split search agrees
        from gausswyner import oracle
        report = oracle.verify_waterfill_grid((0.7, 0.4), 0.3, step=1e-4)
        assert abs(report.oracle_value - report.closed_form_value) <= 1e-3

    def test_concentrating_budget_is_suboptimal(self):
        alloc = waterfill([0.9, 0.2], 0.1)
        assert evaluate_allocation([0.9, 0.2], [0.1, 0.0]) >= \
            alloc.total_value - 1e-12


class TestEvaluateAllocation:
    def test_waterfill_optimum_is_self_consistent(self):
        alloc = waterfill([0.9, 0.5, 0.2], 0.5)
        assert evaluate_allocation([0.9, 0.5, 0.2], alloc.gammas) == \
            pytest.approx(alloc.total_value, abs=1e-12)

    def test_full_saturation_evaluates_to_zero(self):
        rhos = (0.9, 0.2)
        caps = [scalar.mutual_information(r) for r in rhos]
        assert evaluate_allocation(rhos, caps) == 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            evaluate_allocation([0.9, 0.2], [0.1])

    def test_rejects_negative_budget(self):
        with pytest.raises(ParameterError):
            evaluate_allocation([0.9], [-0.1])


class TestBreakpoints:
    def test_single_component(self):
        rho = 0.5
        assert saturation_breakpoints([rho]) == pytest.approx(
            (scalar.mutual_information(rho),))

    def test_equal_pair_saturates_together(self):
        cap = scalar.mutual_information(0.8)
        thresholds = saturation_breakpoints([0.8, 0.8])
        assert thresholds == pytest.approx((2.0 * cap, 2.0 * cap))

    def test_distinct_pair_is_increasing(self):
        thresholds = saturation_breakpoints([0.9, 0.2])
        assert thresholds[0] == pytest.approx(
            2.0 * scalar.mutual_information(0.2))
        assert thresholds[1] == pytest.approx(
            scalar.mutual_information(0.9) + scalar.mutual_information(0.2))
        assert thresholds[0] < thresholds[1]

    def test_water_level_hits_component_value_at_breakpoint(self):
        thresholds = saturation_breakpoints([0.9, 0.2])
        alloc = waterfill([0.9, 0.2], thresholds[0])
        assert alloc.water_level_beta == pytest.approx(
            scalar.common_information(0.2), abs=1e-6)

    def test_kink_detection_by_finite_differences(self):
        # below the first breakpoint both components share the budget, above
        # it only one does; the curvature of gamma -> total jumps by a factor
        # of two there, which the third difference picks up as a spike
        rhos = (0.9, 0.2)
        breakpoint_ = saturation_breakpoints(rhos)[0]
        step = 2e-4
        grid = np.arange(0.02, 0.06, step)
        totals = np.array([waterfill(rhos, g).total_value for g in grid])
        third = np.abs(np.diff(totals, 3))
        spike = grid[int(np.argmax(third))]
        assert abs(spike - breakpoint_) <= 3.0 * step
