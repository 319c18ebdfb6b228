"""Reverse water-filling: examples, invariants, and optimality."""

import functools
import importlib.util
import itertools
import math
import operator
import random
import sys
import threading

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

import allocation_digest
import corpus
import test_errors


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
        # Wyner's own quantity: the left fold of C(rho_i), bit for bit, over
        # the whole float range, also where I(rho_i) underflows to 0.0
        # (below about 3e-162); only rho_i = 0 reads as saturated
        tiny = (1e-17, 1e-100, 3e-162, 1e-200, 2.2250738585072014e-308,
                5e-324)
        spectra = [(0.9, 0.2), (1.0 - 2.0 ** -53, 0.5), (1.0, 0.5), (0.0,),
                   *((rho,) for rho in tiny), tuple(reversed(tiny)),
                   (0.9, 1e-17, 5e-324, 0.0, 0.0)]
        for rhos in spectra:
            alloc = waterfill(rhos, 0.0)
            assert alloc.gammas == (0.0,) * len(rhos)
            assert alloc.water_level_beta == 0.0
            assert alloc.total_value == functools.reduce(operator.add, [
                scalar.common_information(r) for r in rhos], 0.0), rhos
            assert alloc.saturated == tuple(r == 0.0 for r in rhos), rhos

    def test_surplus_budget_reports_slack(self):
        caps = [scalar.mutual_information(r) for r in (0.9, 0.2)]
        alloc = waterfill([0.9, 0.2], sum(caps) + 0.5)
        assert alloc.total_value == 0.0
        assert alloc.saturated == (True, True)
        assert alloc.gammas == tuple(caps)
        assert alloc.slack == pytest.approx(0.5, abs=1e-12)
        # the level is the largest C(rho_i), also on an out-of-order near-tie
        assert waterfill((0.5, 0.5 + 1e-13), 5.0).water_level_beta == \
            scalar.common_information(0.5 + 1e-13)

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

    def test_tiny_saturated_component_is_priced(self):
        # the second component saturates, yet its C(rho) exceeds the level;
        # skipping it on a cap margin would give 9.596873236046323e-13
        rhos = (2.1170419469950974e-09, 2.1160823114716897e-09)
        alloc = waterfill(rhos, 4.477804118294965e-18)
        assert alloc.saturated == (False, True)
        assert repr(alloc.total_value) == "9.597391238015377e-13"

    def test_degenerate_component_gives_infinite_total(self):
        alloc = waterfill([1.0, 0.5], 0.3)
        assert alloc.total_value == math.inf
        assert alloc.saturated[0] is False
        assert sum(alloc.gammas) == pytest.approx(0.3, abs=1e-9)

    def test_budgets_add_up_after_an_out_of_order_near_tie(self):
        # a walk over the caps in spectrum order stopped at the 1.0 and left
        # 5.3 of the 40 nats unspent
        alloc = waterfill((1.0 - 1e-13, 1.0, 0.5), 40.0)
        assert math.fsum(alloc.gammas) == pytest.approx(40.0, rel=1e-12)

    def test_all_zero_spectrum(self):
        alloc = waterfill([0.0, 0.0], 0.7)
        assert alloc.total_value == 0.0
        assert alloc.gammas == (0.0, 0.0)
        assert alloc.slack == pytest.approx(0.7)

    def test_negative_zero_gives_positive_zero_level(self):
        # as_rhos reads -0.0 as +0.0; the level must read +0.0
        alloc = waterfill([-0.0], 0.7)
        assert math.copysign(1.0, alloc.water_level_beta) == 1.0

    def test_negative_zero_budget_reads_as_positive_zero(self):
        # validate_budget reads -0.0 as +0.0: level, budgets and slack too
        alloc = waterfill([0.5, 0.0], -0.0)
        assert [math.copysign(1.0, x)
                for x in (alloc.water_level_beta, *alloc.gammas)] == [1.0] * 3
        assert alloc == waterfill([0.5, 0.0], 0.0)
        slack = waterfill([0.0], -0.0).slack
        assert slack == 0.0 and math.copysign(1.0, slack) == 1.0
        assert math.copysign(1.0, waterfill([], -0.0).slack) == 1.0

    def test_empty_spectrum(self):
        alloc = waterfill([], 0.4)
        assert alloc.total_value == 0.0
        assert alloc.slack == pytest.approx(0.4)

    def test_accepts_an_iterator(self):
        assert waterfill(iter([0.9, 0.5]), 0.1) == waterfill([0.9, 0.5], 0.1)

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

    def test_single_component_agrees_with_the_scalar_form(self):
        # one component is the scalar closed form bit for bit, for
        # rho >= 1e-12 and a budget outside a band around the cap. Below the
        # cap both compute C(rho) - level(gamma). Above it waterfill
        # saturates to 0.0, which the scalar form matches once the budget
        # clears the computed cap by more than that cap's error: the log1p
        # pair cancels, so the error is about 4 eps / rho in relative terms
        # and the band is max(1e-9, 8 eps / rho). At the cap itself the
        # scalar form can keep a rounding residue.
        rng = random.Random(3005)
        rhos = [1e-12, 0.5, 1.0 - 2.0 ** -53] + [
            10.0 ** rng.uniform(-12.0, 0.0) for _ in range(3000)]
        for rho in rhos:
            cap = scalar.mutual_information(rho)
            band = max(1e-9, 8.0 * sys.float_info.epsilon / rho)
            for gamma in (0.0, cap * rng.uniform(0.0, 1.0 - 1e-9),
                          cap * (1.0 + band) * 10.0 ** rng.uniform(0.0, 2.0)):
                assert waterfill((rho,), gamma).total_value == \
                    scalar.wyner_ci_scalar(rho, gamma), (rho, gamma)


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
        # two components: the oracle's dual certificate agrees
        from gausswyner import oracle
        report = oracle.verify_waterfill_grid((0.7, 0.4), 0.3)
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
        # at rho = 1 an infinite budget meets C = inf: the term is 0.0, not
        # inf - inf
        assert evaluate_allocation([1.0, 0.5], [math.inf, math.inf]) == 0.0

    def test_accepts_any_iterable_of_budgets(self):
        rhos, gammas = (0.9, 0.5, 0.0), (0.1, 0.2, 0.0)
        expected = evaluate_allocation(rhos, gammas)
        assert evaluate_allocation(rhos, (g for g in gammas)) == expected
        assert evaluate_allocation(rhos, map(float, gammas)) == expected
        # the count and the first bad budget are checked as for a list
        with pytest.raises(ParameterError,
                           match="^got 2 budgets for 3 components$"):
            evaluate_allocation(rhos, iter(gammas[:2]))
        with pytest.raises(ParameterError, match="^budget -1.0 must be"):
            evaluate_allocation(rhos, iter([0.1, -1.0, -2.0]))

    @pytest.mark.parametrize("gammas", [
        [0.1] * 299 + [-1.0],
        [0.1] * 299 + ["x"],
        [0.1] * 299 + [10**400],
        [0.1] * 299 + [math.nan],
        [0.1] * 150 + [-2.0] + [0.1] * 148 + [-1.0],  # the first one counts
    ], ids=["negative", "str", "int-1e400", "nan", "first-of-two"])
    def test_long_split_names_its_first_bad_budget(self, gammas):
        bad = next(g for g in gammas if g != 0.1)
        with pytest.raises(ParameterError) as expected:
            scalar.validate_budget(bad)
        with pytest.raises(ParameterError) as caught:
            evaluate_allocation([0.5] * 300, gammas)
        assert caught.type is ParameterError
        assert str(caught.value) == str(expected.value)

    def test_does_not_recheck_the_correlations(self, monkeypatch):
        rhos, gammas = (0.9, 0.5, 0.0), (0.1, 0.2, 0.0)
        expected = evaluate_allocation(rhos, gammas)

        def refuse(rho):
            raise AssertionError("correlation checked again")

        monkeypatch.setattr(scalar, "validate_correlation", refuse)
        assert evaluate_allocation(rhos, gammas) == expected


class TestCanonicalSpectrum:
    def test_as_rhos_returns_a_checked_spectrum_as_is(self):
        spectrum = allocation.CanonicalSpectrum((0.9, 0.5))
        assert allocation.as_rhos(spectrum) is spectrum.rhos

    def test_waterfill_sees_the_clamped_rhos(self):
        spectrum = allocation.CanonicalSpectrum([1.0 + 5e-10, 0.5, -5e-10])
        assert spectrum.rhos == (1.0, 0.5, 0.0)
        assert waterfill(spectrum, 0.2) == waterfill([1.0, 0.5, 0.0], 0.2)
        # sorted, with only the head in the clamp band
        assert allocation.as_rhos([1.0 + 5e-10, 0.5]) == (1.0, 0.5)

    @pytest.mark.parametrize("rhos, expected", [
        ((-0.0,), (0.0,)),
        ((0.5, -0.0), (0.5, 0.0)),
        ((0.5, -0.0, 1e-13), (0.5, 0.0, 1e-13)),  # near-sorted: the walk
        ((0.5, -5e-10), (0.5, 0.0)),  # sorted, ending inside the clamp band
    ])
    def test_negative_zero_reads_as_positive_zero(self, rhos, expected):
        spectrum = allocation.CanonicalSpectrum(rhos)
        assert spectrum.rhos == expected
        assert all(math.copysign(1.0, r) == 1.0 for r in spectrum.rhos)

    @settings(max_examples=200, deadline=None)
    @given(head=st.lists(st.floats(0.0, 1.0), max_size=6),
           zeros=st.lists(st.sampled_from([0.0, -0.0]), min_size=1,
                          max_size=8))
    def test_trailing_zeros_read_as_positive_zero(self, head, zeros):
        rhos = sorted(head, reverse=True) + zeros
        assert [math.copysign(1.0, r) for r in allocation.as_rhos(rhos)] == \
            [1.0] * len(rhos)

    def test_vector_reexports_the_same_type(self):
        from gausswyner import vector
        assert vector.CanonicalSpectrum is allocation.CanonicalSpectrum


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
        # a near-tie out of order, which as_rhos accepts
        thresholds = saturation_breakpoints((0.5, 0.5 + 1e-13, 0.2))
        assert thresholds[0] < thresholds[1] < thresholds[2]

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


class TestSameBitsOnEveryPython:
    """Sums of floats are exactly rounded (``math.fsum``): the builtin
    ``sum`` is compensated from Python 3.12 on, so it gave other last bits
    on 3.10 and 3.11."""

    def test_sweep_matches_the_checked_in_digest(self):
        assert (corpus.digest(allocation_digest.sweep_lines())
                == allocation_digest.DIGEST)

    def test_sweep_of_tuples_gives_the_same_lines(self):
        # a tuple spectrum is checked and priced once, then reused by each
        # later call on it: the lines are those of the list sweep
        assert list(allocation_digest.sweep_lines(kind=tuple)) == \
            list(allocation_digest.sweep_lines())

    def test_evaluate_allocation_total(self):
        # the builtin sum gives 1.802987975936814 on 3.10 and 3.11
        total = evaluate_allocation(
            [0.958, 0.884, 0.485, 0.359, 0.233, 0.232, 0.176, 0.151],
            [0.589, 0.263, 0.004, 0.419, 0.369, 0.566, 0.953, 0.69])
        assert repr(total) == "1.8029879759368141"

    def test_waterfill_slack(self):
        # the builtin sum gives 0.8794155367707397 on 3.10 and 3.11
        rhos = [0.801, 0.41, 0.151, 0.089]
        alloc = waterfill(rhos, 1.5)
        assert alloc.saturated == (True,) * 4
        assert repr(alloc.slack) == "0.8794155367707398"
        assert alloc.slack == 1.5 - math.fsum(
            scalar.mutual_information(r) for r in rhos)


# ---------------------------------------------------------------------------
# The module keeps the last spectrum it checked (allocation._last): a hit
# must give the bits of a miss, and only a value that cannot change is kept.
# ---------------------------------------------------------------------------


def _memo_spectrum(rng):
    """A descending tuple of 1 to 12 correlations, with ties, zeros, 1,
    values near 1 and tiny ones."""
    pool = (1.0, 1.0 - 2.0 ** -53, 1.0 - 1e-9, 0.5, 1e-5, 3e-6, 1e-300,
            5e-324, 0.0, -0.0)
    return tuple(sorted((rng.choice(pool) if rng.random() < 0.4
                         else rng.random()
                         for _ in range(rng.randrange(1, 13))), reverse=True))


def _results(spectrum, budgets):
    """The repr of every result on ``spectrum``, calls on it in a row."""
    out = [repr(evaluate_allocation(spectrum, [0.0] * len(spectrum)))]
    for gamma in budgets:
        alloc = waterfill(spectrum, gamma)
        out += [repr(alloc), repr(evaluate_allocation(spectrum, alloc.gammas))]
    return out + [repr(saturation_breakpoints(spectrum))]


class _Value:
    """An element that converts to whatever ``value`` now holds."""

    def __init__(self, value):
        self.value = value

    def __float__(self):
        return self.value


class _Float(float):
    """A float subclass whose conversion can change, as _Value's does."""

    def __float__(self):
        return self.value


class TestMemo:
    def test_same_bits_on_a_hit(self):
        rng = random.Random(2029)
        for _ in range(60):
            spectrum = _memo_spectrum(rng)
            total = math.fsum(scalar.mutual_information(r) for r in spectrum
                              if r < 1.0)
            budgets = [1.2 * total * rng.random() for _ in range(20)]
            for kind in (tuple, allocation.CanonicalSpectrum):
                checked = kind(spectrum)
                got = _results(checked, budgets)
                assert allocation._last[0] is checked  # the calls hit
                assert got == _results(list(spectrum), budgets)

    @pytest.mark.parametrize("order", list(itertools.permutations(
        ["waterfill", "saturation_breakpoints", "evaluate_allocation"])),
        ids="-".join)
    def test_same_bits_whichever_call_fills_the_entry(self, order,
                                                      monkeypatch):
        # the first call stores the entry, caps and C(rho_i) alike; the
        # later calls, then all three again, read it
        rng = random.Random(2030)
        for _ in range(30):
            spectrum = _memo_spectrum(rng)
            total = math.fsum(scalar.mutual_information(r) for r in spectrum
                              if r < 1.0)
            gamma = 1.2 * total * rng.random()
            gammas = waterfill(list(spectrum), gamma).gammas
            calls = {
                "waterfill": lambda s: waterfill(s, gamma),
                "saturation_breakpoints": saturation_breakpoints,
                "evaluate_allocation": lambda s: evaluate_allocation(
                    s, gammas)}
            want = {name: repr(call(list(spectrum)))
                    for name, call in calls.items()}
            for kind in (tuple, allocation.CanonicalSpectrum):
                checked = kind(spectrum)
                monkeypatch.setattr(allocation, "_last",
                                    (object(), *allocation._last[1:]))
                for name in order + order:
                    assert repr(calls[name](checked)) == want[name], name
                    assert allocation._last[0] is checked

    def test_a_kept_spectrum_is_not_priced_again(self, monkeypatch):
        rhos, gammas = (0.9, 0.5, 0.0), (0.1, 0.2, 0.0)
        alloc = waterfill(rhos, 0.3)
        breaks = saturation_breakpoints(rhos)
        total = evaluate_allocation(rhos, gammas)

        def refuse(*args):
            raise AssertionError("spectrum priced again")

        for kernel in ("_log1ps", "_common_informations",
                       "_mutual_informations"):
            monkeypatch.setattr(allocation, kernel, refuse)
        assert waterfill(rhos, 0.3) == alloc
        assert saturation_breakpoints(rhos) == breaks
        assert evaluate_allocation(rhos, gammas) == total

    @pytest.mark.parametrize("name", ["waterfill", "saturation_breakpoints",
                                      "evaluate_allocation"])
    def test_every_miss_prices_caps_and_commons_once(self, name,
                                                    monkeypatch):
        # whichever function sees a spectrum first prices all of it, from
        # one log1p pair; a list is priced on every call and never kept
        logs = []

        def log1ps(rhos):
            logs.append(rhos)
            return scalar._log1ps(rhos)

        monkeypatch.setattr(allocation, "_log1ps", log1ps)
        call = {"waterfill": lambda s: waterfill(s, 0.3),
                "saturation_breakpoints": saturation_breakpoints,
                "evaluate_allocation": lambda s: evaluate_allocation(
                    s, [0.1] * len(s))}[name]
        rng = random.Random(2032)
        for _ in range(20):
            spectrum = _memo_spectrum(rng)
            want = repr(allocation._checked(list(spectrum)))
            for kind in (tuple, allocation.CanonicalSpectrum):
                checked = kind(spectrum)
                monkeypatch.setattr(allocation, "_last",
                                    (object(), *allocation._last[1:]))
                logs.clear()
                call(checked)
                call(checked)
                assert len(logs) == 1
                key, rhos, caps, commons = allocation._last
                assert key is checked
                assert len(caps) == len(commons) == len(spectrum)
                assert repr((rhos, caps, commons)) == want
            entry = allocation._last
            logs.clear()
            call(list(spectrum))
            call(list(spectrum))
            assert len(logs) == 2
            assert allocation._last is entry

    @pytest.mark.parametrize("kind", ["list", "np.float64", "0-d array",
                                      "__float__", "float subclass"])
    def test_no_stale_answer_after_a_change(self, kind):
        # each spectrum's value changes between two rounds of calls on the
        # same object; the second round must see the new value
        old, new = [0.9, 0.5, 0.2], [0.9, 0.4, 0.2]
        if kind == "list":
            spectrum = list(old)
            def change(): spectrum[1] = new[1]
        elif kind == "np.float64":
            spectrum = tuple(map(np.float64, old))
            change = None  # np.float64 cannot change; it is not kept either
        elif kind == "0-d array":
            cell = np.array(old[1])
            spectrum = (old[0], cell, old[2])
            def change(): cell[()] = new[1]
        elif kind == "__float__":
            cell = _Value(old[1])
            spectrum = (old[0], cell, old[2])
            def change(): cell.value = new[1]
        else:
            cell = _Float(old[1])
            cell.value = old[1]
            spectrum = (old[0], cell, old[2])
            def change(): cell.value = new[1]
        budgets = [0.0, 0.05, 0.3, 1.0, 2.0]
        want_old, want_new = _results(old, budgets), _results(new, budgets)
        assert _results(spectrum, budgets) == want_old
        assert allocation._last[0] is not spectrum
        if change is not None:
            change()
            assert _results(spectrum, budgets) == want_new

    @pytest.mark.parametrize("memo", ["cold", "primed"])
    def test_errors_are_raised_whatever_the_memo_holds(self, memo):
        # a copy of the module, loaded afresh, so that "cold" is the memo as
        # the module starts, and the test leaves the module's memo alone
        spec = importlib.util.spec_from_file_location(
            "gausswyner._allocation_copy", allocation.__file__)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        rows = [row.values for row in test_errors.LIBRARY
                if row.id.startswith("allocation.")]
        assert len(rows) == 23
        for call, error, message in rows:
            function = getattr(module, call.func.__name__)
            first, *rest = call.args
            # the row's spectrum, and that spectrum as a tuple, which may be
            # kept: each is called twice, the second time after itself
            for args in [call.args] + (
                    [(tuple(first), *rest)] if type(first) is list else []):
                if memo == "primed":
                    module.waterfill((0.9, 0.5, 0.0), 0.1)
                for _ in range(2):
                    with pytest.raises(error) as caught:
                        function(*args)
                    assert test_errors._matches(str(caught.value),
                                                message), (call, args)

    def test_holds_at_most_one_spectrum(self):
        first, second = (0.9, 0.5), (0.8, 0.3)
        spectrum = allocation.CanonicalSpectrum((0.7,))

        def refs():
            return [sys.getrefcount(x) for x in (first, second, spectrum)]

        counts = refs()

        def held():
            return [now - count for now, count in zip(refs(), counts)]

        waterfill(first, 0.1)
        saturation_breakpoints(first)
        assert held() == [1, 0, 0]
        evaluate_allocation(second, (0.1, 0.1))
        assert held() == [0, 1, 0]
        waterfill(spectrum, 0.1)
        assert held() == [0, 0, 1]
        waterfill([0.9, 0.5], 0.1)  # a list is not kept, and evicts nothing
        assert held() == [0, 0, 1]

    def test_threads_see_their_own_spectrum(self):
        rng = random.Random(4)
        spectra = [tuple(sorted((rng.random() for _ in range(200)),
                                reverse=True)) for _ in range(4)]
        budgets = [0.0, 1.0, 10.0, 100.0]
        want = [_results(list(spectrum), budgets) for spectrum in spectra]
        wrong = []

        def work(spectrum, expected):
            for _ in range(40):
                if _results(spectrum, budgets) != expected:
                    wrong.append(spectrum)

        threads = [threading.Thread(target=work, args=args)
                   for args in zip(spectra, want)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
