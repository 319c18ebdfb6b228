"""Reverse water-filling: examples, invariants, and optimality."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausswyner import allocation, scalar
from gausswyner.allocation import (
    evaluate_allocation,
    saturation_breakpoints,
    waterfill,
)
from gausswyner.errors import ParameterError

import allocation_digest


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

    def test_rejects_unsorted_spectrum(self):
        with pytest.raises(ParameterError):
            waterfill([0.2, 0.9], 0.1)
        # an int too large for a float
        with pytest.raises(ParameterError):
            waterfill([10**400], 0.1)
        with pytest.raises(ParameterError):
            saturation_breakpoints([10**400])

    def test_rejects_non_numeric_entries(self):
        for spectrum in (["abc"], [None], [0.9, "abc"]):
            with pytest.raises(ParameterError,
                               match="^canonical correlation is not a number$"):
                waterfill(spectrum, 0.1)
        # the first offending entry decides the error, in order
        with pytest.raises(ParameterError, match="lies outside"):
            waterfill([2.0, None], 0.1)

    @pytest.mark.parametrize("call, args, kind", [
        (waterfill, (None, 0.1), "NoneType"),
        (waterfill, (5, 0.1), "int"),
        (saturation_breakpoints, (None,), "NoneType"),
        (allocation.CanonicalSpectrum, (None,), "NoneType"),
        (allocation.as_rhos, (0.5,), "float"),
    ], ids=["waterfill-None", "waterfill-int", "breakpoints-None",
            "spectrum-None", "as_rhos-float"])
    def test_rejects_a_spectrum_that_is_not_iterable(self, call, args, kind):
        with pytest.raises(ParameterError, match=(
                f"^expected an iterable of canonical correlations, "
                f"got {kind}$")):
            call(*args)

    def test_keeps_a_type_error_raised_while_iterating(self):
        # only a spectrum or budgets that are not iterable at all are
        # rejected as input; an iterator that fails on its own keeps its
        # error
        def broken():
            yield 0.5
            raise TypeError("broken iterator")

        with pytest.raises(TypeError, match="^broken iterator$"):
            waterfill(broken(), 0.1)
        with pytest.raises(TypeError, match="^broken iterator$"):
            evaluate_allocation([0.9, 0.5], broken())

    def test_accepts_an_iterator(self):
        assert waterfill(iter([0.9, 0.5]), 0.1) == waterfill([0.9, 0.5], 0.1)

    def test_rejects_infinite_budget(self):
        with pytest.raises(ParameterError):
            waterfill([0.5], math.inf)
        with pytest.raises(ParameterError):
            waterfill([0.5], 10**400)

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

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            evaluate_allocation([0.9, 0.2], [0.1])
        # the count is checked before any budget
        with pytest.raises(ParameterError,
                           match="^got 3 budgets for 2 components$"):
            evaluate_allocation([0.9, 0.2], [0.1, "x", 0.1])

    def test_rejects_negative_budget(self):
        with pytest.raises(ParameterError):
            evaluate_allocation([0.9], [-0.1])
        with pytest.raises(ParameterError):
            evaluate_allocation([0.9], [10**400])

    def test_rejects_non_numeric_budget(self):
        with pytest.raises(ParameterError, match="^budget is not a number$"):
            evaluate_allocation([0.5], [None])

    @pytest.mark.parametrize("gammas, kind", [(0.1, "float"),
                                              (None, "NoneType")])
    def test_rejects_budgets_that_are_not_iterable(self, gammas, kind):
        with pytest.raises(ParameterError,
                           match=f"^expected an iterable of budgets, "
                                 f"got {kind}$"):
            evaluate_allocation([0.5], gammas)

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

    @pytest.mark.parametrize("rhos, expected", [
        ((-0.0,), (0.0,)),
        ((0.5, -0.0), (0.5, 0.0)),
        ((0.5, -0.0, 1e-13), (0.5, 0.0, 1e-13)),  # near-sorted: the walk
    ])
    def test_negative_zero_reads_as_positive_zero(self, rhos, expected):
        spectrum = allocation.CanonicalSpectrum(rhos)
        assert spectrum.rhos == expected
        assert all(math.copysign(1.0, r) == 1.0 for r in spectrum.rhos)

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


# ---------------------------------------------------------------------------
# A plain per-element reference: the loops and formulas that the library's
# whole-sequence passes replace. Results must agree by repr (so bit for bit,
# signed zeros included) and errors by type and message.
# ---------------------------------------------------------------------------

def _ref_common_information(r):
    if r == 1.0:
        return math.inf
    return 0.0 + 0.5 * (math.log1p(r) - math.log1p(-r))


def _ref_mutual_information(r):
    if r == 1.0:
        return math.inf
    return 0.0 - 0.5 * (math.log1p(r) + math.log1p(-r))


def _ref_level(x):
    if math.isinf(x):
        return math.inf
    return math.log1p(math.sqrt(0.0 - math.expm1(-2.0 * x))) + x


def _ref_float(value, name):
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(
            f"{name} is too large in magnitude for a float") from None
    except (TypeError, ValueError):
        raise ParameterError(f"{name} is not a number") from None


def _ref_budget(gamma):
    gamma = _ref_float(gamma, "budget")
    if math.isnan(gamma) or gamma < 0.0:
        raise ParameterError(f"budget {gamma!r} must be >= 0 nats")
    return 0.0 if gamma == 0.0 else gamma


def _ref_as_rhos(raw):
    rhos = []
    for value in raw:
        v = _ref_float(value, "canonical correlation")
        if (math.isnan(v) or v < -scalar.RHO_CLAMP_BAND
                or v > 1.0 + scalar.RHO_CLAMP_BAND):
            raise ParameterError(
                f"canonical correlation {value!r} lies outside [0, 1]")
        v = min(max(v, 0.0), 1.0)
        rhos.append(0.0 if v == 0.0 else v)
    for left, right in zip(rhos, rhos[1:]):
        if right > left + 1e-12:
            raise ParameterError("spectrum must be sorted in descending order")
    return tuple(rhos)


def _ref_waterfill(raw, gamma):
    rhos = _ref_as_rhos(raw)
    gamma = _ref_budget(gamma)
    if math.isinf(gamma):
        raise ParameterError("waterfill requires a finite budget")
    if not rhos:
        return allocation.Allocation((), 0.0, 0.0, (), gamma)
    caps = tuple(_ref_mutual_information(r) for r in rhos)
    values = tuple(_ref_common_information(r) for r in rhos)
    total_cap = math.fsum(caps)
    if gamma >= total_cap:
        return allocation.Allocation(
            caps, values[0], 0.0, (True,) * len(rhos), gamma - total_cap)
    tail = 0.0
    for k in range(len(caps), 0, -1):
        spend = (gamma - tail) / k
        if spend < caps[k - 1]:
            break
        tail += caps[k - 1]
    beta = _ref_level(_ref_budget(spend))
    gammas = tuple(min(spend, cap) for cap in caps)
    saturated = tuple(spend >= cap for cap in caps)
    total = 0.0
    for value in values:
        total += max(value - beta, 0.0)
    return allocation.Allocation(gammas, beta, total, saturated, 0.0)


def _ref_breakpoints(raw):
    caps = [_ref_mutual_information(r) for r in _ref_as_rhos(raw)]
    out, tail = [], 0.0
    for k in range(len(caps), 0, -1):
        out.append(k * caps[k - 1] + tail)
        tail += caps[k - 1]
    return tuple(out)


def _ref_wyner_ci(r, gamma):
    gamma = _ref_budget(gamma)
    value = _ref_common_information(r)
    if math.isinf(value):
        return 0.0 if math.isinf(gamma) else math.inf
    return max(value - _ref_level(gamma), 0.0)


def _ref_evaluate(raw, gammas):
    rhos = _ref_as_rhos(raw)
    if len(gammas) != len(rhos):
        raise ParameterError(
            f"got {len(gammas)} budgets for {len(rhos)} components")
    return math.fsum(_ref_wyner_ci(r, g) for r, g in zip(rhos, gammas))


def _outcome(f, *args):
    try:
        return "ok", repr(f(*args))
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


_EDGES = [0.0, -0.0, 1.0, 5e-324, 1.0 + 5e-10, -5e-10, 1.0 + 2e-9, -2e-9,
          math.nan, math.inf, -math.inf, 10**400, "abc", None]
_entries = (st.floats(0.0, 1.0) | st.sampled_from(_EDGES)
            | st.floats(-2e-9, 2e-9) | st.floats(1.0 - 2e-9, 1.0 + 2e-9))
_budgets = (st.floats(0.0, 5.0) | st.floats(-1.0, 1e300)
            | st.sampled_from([0.0, -0.0, 5e-324, math.inf, math.nan, -1.0,
                               10**400, "abc", None]))


def _descending_key(value):
    return -math.inf if math.isnan(value) else value


@st.composite
def _spectra(draw):
    values = draw(st.lists(_entries, max_size=12))
    if draw(st.booleans()):
        # descending floats, so the whole-sequence checks accept or reject
        # them, now and then with one entry nudged up past its left
        # neighbour by about 1e-12 (within the tolerance or just beyond)
        values = sorted((v for v in values if isinstance(v, float)),
                        key=_descending_key, reverse=True)
        if len(values) > 1 and draw(st.booleans()):
            i = draw(st.integers(1, len(values) - 1))
            values[i] = values[i - 1] + draw(
                st.sampled_from([1e-13, 5e-13, 1e-12, 2e-12]))
    return values


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(spectrum=_spectra(), gamma=_budgets, data=st.data())
    def test_matches_the_per_element_reference(self, spectrum, gamma, data):
        n = len(spectrum)
        gammas = data.draw(
            st.lists(_budgets, min_size=n, max_size=n)
            | st.lists(_budgets, max_size=n + 1))
        for lib, ref, args in [
                (allocation.as_rhos, _ref_as_rhos, (spectrum,)),
                (waterfill, _ref_waterfill, (spectrum, gamma)),
                (saturation_breakpoints, _ref_breakpoints, (spectrum,)),
                (evaluate_allocation, _ref_evaluate, (spectrum, gammas))]:
            assert _outcome(lib, *args) == _outcome(ref, *args), lib.__name__

    @pytest.mark.parametrize("spectrum, gamma", [
        ([0.5, 0.0], -0.0),         # a -0.0 budget meets a +0.0 cap
        ([0.9, 0.5, 0.0, -0.0], -0.0),
        ([1.0, 0.5, 0.0], -0.0),
        ([1.0, 1.0, 0.0], 0.0),
        ([0.0, -0.0], -0.0),        # the slack path
        ([], -0.0),
    ])
    def test_matches_the_reference_at_signed_zeros(self, spectrum, gamma):
        assert _outcome(waterfill, spectrum, gamma) == \
            _outcome(_ref_waterfill, spectrum, gamma)

    @pytest.mark.parametrize("spectrum", [
        (1.0 - 1e-13, 1.0, 0.5),    # a 1.0 after a smaller entry: the
                                    # 1e-12 tolerance lets it through
        (1.0, 1.0, 1.0, 0.5, 0.0),  # a leading run of ones
        (5e-324,),
        (1.0 - 2.0 ** -53,),
        (1.0 - 2.0 ** -53, 0.5, 5e-324),
    ])
    @pytest.mark.parametrize("budget", [0.0, -0.0, 0.1, 5e-324, 1e300,
                                        math.inf])
    def test_matches_the_reference_at_edges(self, spectrum, budget):
        gammas = [budget] * len(spectrum)
        assert _outcome(evaluate_allocation, spectrum, gammas)[0] == "ok"
        for lib, ref, args in [
                (waterfill, _ref_waterfill, (spectrum, budget)),
                (saturation_breakpoints, _ref_breakpoints, (spectrum,)),
                (evaluate_allocation, _ref_evaluate, (spectrum, gammas))]:
            assert _outcome(lib, *args) == _outcome(ref, *args), lib.__name__

    @settings(max_examples=200, deadline=None)
    @given(rs=st.lists(st.floats(0.0, 1.0) | st.sampled_from(
               [0.0, 5e-324, 1e-310, 1e-17, 1.0 - 2.0 ** -53, 1.0])),
           xs=st.lists(st.floats(0.0, 1e300) | st.sampled_from(
               [0.0, -0.0, 5e-324, 1e-300, math.inf])))
    def test_sequence_kernels_match_the_per_element_formulas(self, rs, xs):
        xs = xs[:len(rs)]
        assert repr(scalar._common_informations(rs)) == repr(
            [_ref_common_information(r) for r in rs])
        assert repr(scalar._mutual_informations(rs)) == repr(
            [_ref_mutual_information(r) for r in rs])
        assert repr(scalar._levels(xs)) == repr([_ref_level(x) for x in xs])
        assert repr(scalar._wyner_cis(rs, xs)) == repr(
            [_ref_wyner_ci(r, x) for r, x in zip(rs, xs)])

    @pytest.mark.parametrize("gammas", [
        [0.1] * 299 + [-1.0],
        [0.1] * 299 + ["x"],
        [0.1] * 299 + [10**400],
        [0.1] * 299 + [math.nan],
        [0.1] * 150 + [-2.0] + [0.1] * 148 + [-1.0],  # the first one counts
    ], ids=["negative", "str", "int-1e400", "nan", "first-of-two"])
    def test_long_split_names_its_first_bad_budget(self, gammas):
        spectrum = [0.5] * 300
        bad = next(g for g in gammas if g != 0.1)
        with pytest.raises(ParameterError) as expected:
            scalar.validate_budget(bad)
        assert _outcome(evaluate_allocation, spectrum, gammas) == \
            (ParameterError, str(expected.value))
        assert _outcome(_ref_evaluate, spectrum, gammas) == \
            (ParameterError, str(expected.value))

    @settings(max_examples=50, deadline=None)
    @given(rhos=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0]),
                         min_size=1, max_size=300),
           share=st.floats(0.0, 1.2))
    def test_matches_the_reference_on_long_spectra(self, rhos, share):
        rhos = sorted(rhos, reverse=True)
        gamma = share * sum(scalar.mutual_information(r)
                            for r in rhos if r < 1.0)
        alloc = waterfill(rhos, gamma)
        assert repr(alloc) == repr(_ref_waterfill(rhos, gamma))
        assert repr(saturation_breakpoints(rhos)) == \
            repr(_ref_breakpoints(rhos))
        assert repr(evaluate_allocation(rhos, alloc.gammas)) == \
            repr(_ref_evaluate(rhos, alloc.gammas))

    # waterfill prices C(rho_i) only where its term can be nonzero; the
    # reference prices every component, so these families hold the skipped
    # ones to the reference where skipping is most delicate

    @settings(max_examples=150, deadline=None)
    @given(groups=st.lists(
        st.tuples(st.floats(0.0, 1.0) | st.sampled_from(
                      [1.0 - 1e-9, 0.5, 1e-5, 3e-6, 0.0]),
                  st.integers(1, 4)),
        min_size=1, max_size=6))
    # one ulp past a breakpoint, the saturated tie pair's computed C(rho)
    # lies above the level: the cap margin must not be zero
    @example(groups=[(0.12629360022397684, 1), (0.05874620071553183, 1),
                     (0.05592727365875538, 2), (1e-05, 2)])
    def test_matches_the_reference_at_breakpoints(self, groups):
        # tie groups saturate together; a budget at, or within 1e-12 of, a
        # breakpoint leaves a saturated cap equal or next to the spend
        rhos = sorted((rho for rho, copies in groups for _ in range(copies)),
                      reverse=True)
        for point in _ref_breakpoints(rhos):
            for gamma in (point, point * (1.0 - 1e-12), point * (1.0 + 1e-12),
                          math.nextafter(point, 0.0),
                          math.nextafter(point, math.inf)):
                assert _outcome(waterfill, rhos, gamma) == \
                    _outcome(_ref_waterfill, rhos, gamma)
                if math.isfinite(gamma):
                    gammas = _ref_waterfill(rhos, gamma).gammas
                    assert _outcome(evaluate_allocation, rhos, gammas) == \
                        _outcome(_ref_evaluate, rhos, gammas)

    @settings(max_examples=300, deadline=None)
    @given(log_rho=st.floats(-9.0, math.log10(3e-7)),
           log_gap=st.floats(-6.0, -1.0),
           u=st.floats(-9.3, -6.0))
    def test_matches_the_reference_on_tiny_pairs(self, log_rho, log_gap, u):
        # below rho = 1e-5 the log1p pair's cap is off by about eps / rho in
        # relative terms, so a component saturated by its cap can still
        # have C(rho) above the level: a margin on the cap is not enough
        rho = 10.0 ** log_rho
        rhos = [rho, rho * (1.0 - 10.0 ** log_gap)]
        gamma = 2.0 * _ref_mutual_information(rhos[1]) * (1.0 + 10.0 ** u)
        assert _outcome(waterfill, rhos, gamma) == \
            _outcome(_ref_waterfill, rhos, gamma)

    def test_tiny_saturated_component_is_priced(self):
        # the second component saturates, yet its C(rho) exceeds the level;
        # skipping it on the cap margin alone gives 9.596873236046323e-13
        rhos = (2.1170419469950974e-09, 2.1160823114716897e-09)
        alloc = waterfill(rhos, 4.477804118294965e-18)
        assert alloc.saturated == (False, True)
        assert repr(alloc.total_value) == "9.597391238015377e-13"
        assert repr(alloc) == repr(_ref_waterfill(rhos, 4.477804118294965e-18))

    @settings(max_examples=200, deadline=None)
    @given(head=st.lists(st.floats(0.0, 1.0), max_size=6),
           zeros=st.lists(st.sampled_from([0.0, -0.0]), min_size=1,
                          max_size=8),
           share=st.floats(0.0, 1.5) | st.sampled_from([0.0, -0.0]))
    def test_trailing_zeros_read_as_positive_zero(self, head, zeros, share):
        rhos = sorted(head, reverse=True) + zeros
        assert [math.copysign(1.0, r) for r in allocation.as_rhos(rhos)] == \
            [1.0] * len(rhos)
        gamma = share * sum(_ref_mutual_information(r) for r in rhos
                            if r < 1.0)
        for lib, ref, args in [
                (allocation.as_rhos, _ref_as_rhos, (rhos,)),
                (waterfill, _ref_waterfill, (rhos, gamma)),
                (saturation_breakpoints, _ref_breakpoints, (rhos,)),
                (evaluate_allocation, _ref_evaluate,
                 (rhos, [gamma] * len(rhos)))]:
            assert _outcome(lib, *args) == _outcome(ref, *args), lib.__name__


class TestSameBitsOnEveryPython:
    """Sums of floats are exactly rounded (``math.fsum``): the builtin
    ``sum`` is compensated from Python 3.12 on, so it gave other last bits
    on 3.10 and 3.11."""

    def test_sweep_matches_the_checked_in_digest(self):
        assert allocation_digest.sweep_digest() == allocation_digest.DIGEST

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
