"""The verifiers themselves: spec examples per oracle, plus report shape."""

import inspect
import math
import textwrap
import time

import numpy as np
import pytest

from gausswyner import allocation, oracle, scalar
from gausswyner.errors import ParameterError

LN2 = math.log(2.0)


def _mutant(monkeypatch, module, name, old, new):
    """Replace ``module.name`` with a copy compiled from its source, with the
    one occurrence of ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(module, name, namespace[name])


class TestScalarAchievability:
    def test_reference_instance(self):
        report = oracle.verify_scalar_achievability(0.5, 0.1)
        assert report.passed
        gap = report.oracle_value - report.closed_form_value
        assert 0.0 <= gap <= 1e-4

    def test_zero_budget_picks_alpha_zero(self):
        report = oracle.verify_scalar_achievability(0.5, 0.0)
        assert report.passed
        assert report.details["alpha_best"] == 0.0
        assert report.oracle_value == pytest.approx(
            scalar.common_information(0.5), abs=1e-12)

    def test_saturation_picks_alpha_rho(self):
        cap = scalar.mutual_information(0.5)
        report = oracle.verify_scalar_achievability(0.5, cap)
        assert report.passed
        assert report.details["alpha_best"] == pytest.approx(0.5, abs=1e-9)
        assert report.oracle_value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_budget_beyond_saturation(self):
        with pytest.raises(ParameterError):
            oracle.verify_scalar_achievability(0.5, 1.0)

    def test_checks_the_library_construction(self, monkeypatch):
        right = scalar.achievability_params(0.5, 0.1)
        wrong = right._replace(alpha_noise=1.01 * right.alpha_noise)
        monkeypatch.setattr(scalar, "achievability_params",
                            lambda rho, gamma: wrong)
        report = oracle.verify_scalar_achievability(0.5, 0.1)
        assert not report.passed
        assert report.details["alpha_construction"] == wrong.alpha_noise

    def test_report_carries_both_values(self):
        report = oracle.verify_scalar_achievability(0.3, 0.02)
        payload = report.as_dict()
        assert {"name", "oracle_value", "closed_form_value", "difference",
                "tolerance", "passed", "details"} <= payload.keys()


class TestDualBoundSweep:
    def test_sweep_passes(self):
        report = oracle.verify_dual_bound_sweep()
        assert report.passed
        assert report.oracle_value <= 1e-12


class TestWaterfillGrid:
    def test_two_component_instance(self):
        report = oracle.verify_waterfill_grid((0.9, 0.2), 1.0)
        assert report.passed
        assert abs(report.oracle_value - report.closed_form_value) <= 1e-2

    def test_symmetric_pair_optimum_at_even_split(self):
        report = oracle.verify_waterfill_grid((0.8, 0.8), 0.2)
        assert report.passed
        g1, g2 = report.details["grid_argmin"]
        assert g1 == pytest.approx(0.1, abs=1e-3)
        assert g2 == pytest.approx(0.1, abs=1e-3)

    def test_single_component_is_exact(self):
        # the simplex is a point: the grid prices the whole budget on the
        # one component, and waterfill's exact level differs only by rounding
        report = oracle.verify_waterfill_grid((0.5,), 0.07)
        assert report.passed
        assert abs(report.oracle_value - report.closed_form_value) <= 1e-10

    def test_three_components(self):
        report = oracle.verify_waterfill_grid((0.9, 0.5, 0.2), 0.5)
        assert report.passed

    @pytest.mark.parametrize("spectrum, gamma", [
        ((0.9, 0.7, 0.5, 0.2), 0.5),
        ((0.95, 0.8, 0.6, 0.4, 0.2), 0.4),
        ((0.9, 0.9, 0.5, 0.3, 0.3, 0.1), 0.3),
        ((0.99, 0.9, 0.8, 0.7, 0.5, 0.3, 0.1), 0.8),
        ((0.99, 0.9, 0.8, 0.7, 0.5, 0.3, 0.2, 0.1), 0.6)])
    def test_more_than_three_components(self, spectrum, gamma):
        # each with active and saturated components
        report = oracle.verify_waterfill_grid(spectrum, gamma)
        assert report.passed
        saturated = allocation.waterfill(spectrum, gamma).saturated
        assert True in saturated and False in saturated

    @pytest.mark.parametrize("spectrum, gamma, points", [
        ((0.5,), 0.07, 2), ((0.9, 0.5), 0.2, 201),
        ((0.9, 0.5, 0.2), 0.5, 501), ((0.9, 0.7, 0.2), 0.00075, 101)])
    def test_prices_each_component_once(self, spectrum, gamma, points,
                                        monkeypatch):
        sizes = []
        curve = oracle._ci_curve

        def spy(rho, gammas):
            sizes.append(np.size(gammas))
            return curve(rho, gammas)

        monkeypatch.setattr(oracle, "_ci_curve", spy)
        assert oracle.verify_waterfill_grid(spectrum, gamma).passed
        # the lattice axis per component, then waterfill's budget per one
        assert sizes == [points] * len(spectrum) + [1] * len(spectrum)

    @pytest.mark.parametrize("spectrum, gamma", [
        ((0.9, 0.5), 0.2), ((0.9, 0.5, 0.2), 0.5), ((0.8, 0.8, 0.8), 0.3),
        ((0.99, 0.3, 0.1), 1.0), ((0.99, 0.5), 2.4),
        ((0.99, 0.5, 0.2), 2.2), ((0.9, 0.5), 0.1), ((0.9, 0.5, 0.2), 0.05)])
    def test_finds_the_lattice_minimum(self, spectrum, gamma):
        # every split of n parts, each priced and summed from the last
        # component up, as the folds do; n is round(gamma / 1e-3), and 100
        # in the last two cases. Every component saturates at gamma = 2.4
        # and 2.2. A row of splits that share the first component's parts
        # is summed at once: numpy adds float64 as Python adds floats.
        n = max(100, round(gamma / 1e-3))
        axis = np.linspace(0.0, gamma, n + 1)
        prices = [oracle._ci_curve(rho, axis) for rho in spectrum]

        def price(split):
            terms = [p[i] for p, i in zip(prices, split)]
            total = terms[-1]
            for term in terms[-2::-1]:
                total = term + total
            return float(total)

        # the last component takes the parts the others leave
        rows = []
        for first in range(n + 1) if len(spectrum) == 3 else (None,):
            left = n if first is None else n - first
            middle = np.arange(left + 1)
            row = prices[-2][middle] + prices[-1][left - middle]
            rows.append(row if first is None else prices[0][first] + row)
        report = oracle.verify_waterfill_grid(spectrum, gamma)
        assert report.oracle_value == min(float(row.min()) for row in rows)
        argmin = tuple(list(axis).index(g)
                       for g in report.details["grid_argmin"])
        assert sum(argmin) == n
        assert price(argmin) == report.oracle_value

    @pytest.mark.parametrize("spectrum, gamma", [
        ((0.047072436951203334, 0.047072436951203334), 0.001009930394858843),
        ((0.9, 0.7, 0.2), 0.00075)])
    def test_small_budget_gets_a_fine_lattice(self, spectrum, gamma):
        # round(gamma/step) is 1 cell: the grid put the whole budget on one
        # component and exceeded the closed form by 0.019 and 0.028
        report = oracle.verify_waterfill_grid(spectrum, gamma)
        assert report.passed
        assert report.oracle_value - report.closed_form_value <= 1e-5
        assert all(g > 0.0 for g in report.details["grid_argmin"])

    @pytest.mark.parametrize("limit, refused", [(5150, True), (5151, False)])
    def test_size_guard_counts_the_floor(self, limit, refused, monkeypatch):
        # three components on 100 cells: 101 * 102 / 2 = 5151 lattice points
        monkeypatch.setattr(oracle, "_SIMPLEX_MAX_POINTS", limit)
        args = (0.9, 0.7, 0.2), 0.00075
        if refused:
            with pytest.raises(ParameterError, match="points"):
                oracle.verify_waterfill_grid(*args)
        else:
            assert oracle.verify_waterfill_grid(*args).passed

    @pytest.mark.parametrize("limit, refused", [(15452, True),
                                                (15453, False)])
    def test_size_guard_counts_every_inner_fold(self, limit, refused,
                                                monkeypatch):
        # five components on 100 cells: three inner folds of 5151 points
        monkeypatch.setattr(oracle, "_SIMPLEX_MAX_POINTS", limit)
        args = (0.9, 0.8, 0.7, 0.5, 0.2), 0.00075
        if refused:
            with pytest.raises(ParameterError, match="points"):
                oracle.verify_waterfill_grid(*args)
        else:
            assert oracle.verify_waterfill_grid(*args).passed

    def test_every_suite_instance_has_an_active_component(self):
        # a fully saturated instance has value 0 whatever the water level
        (_, instances), = oracle._SUITE_CHECKS["waterfill"]
        saturated = [allocation.waterfill(*args).saturated
                     for args in instances]
        assert not any(map(all, saturated))
        assert (False, True, True) in saturated

    @pytest.mark.parametrize("factor", [0.995, 1.005])
    def test_wrong_water_level_fails_the_suite(self, factor, monkeypatch):
        level = allocation.level_from_budget
        monkeypatch.setattr(allocation, "level_from_budget",
                            lambda x: factor * level(x))
        assert not any(r.passed for r in oracle.run_suite("waterfill"))

    def test_wrong_spend_fails_the_suite(self, monkeypatch):
        _mutant(monkeypatch, allocation, "waterfill",
                "spend = (gamma - tail) / k",
                "spend = 1.01 * (gamma - tail) / k")
        assert not any(r.passed for r in oracle.run_suite("waterfill"))

    def test_rejects_degenerate_component(self):
        with pytest.raises(ParameterError):
            oracle.verify_waterfill_grid((1.0, 0.5), 0.5)
        with pytest.raises(ParameterError):
            oracle.verify_waterfill_grid((), 0.5)

    @pytest.mark.parametrize("spectrum, gamma", [
        ((0.9, 0.5, 0.2), 1000.0),  # ~5e11 points, hours of row loop
        ((0.9, 0.2), 1e6),          # one 8 GB linspace
    ])
    def test_rejects_huge_grid_before_building_it(self, spectrum, gamma):
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="points"):
            oracle.verify_waterfill_grid(spectrum, gamma)
        assert time.perf_counter() - start < 0.1


class TestEnvelopeGrid:
    def test_interior_instance(self):
        report = oracle.verify_envelope_grid(0.5, 0.3)
        assert report.passed
        assert report.oracle_value >= report.closed_form_value - 1e-3
        sig_cells, q_cells = report.details["cells_off"]
        assert sig_cells <= 2.0 and q_cells <= 2.0

    def test_boundary_instance_lands_on_kink(self):
        report = oracle.verify_envelope_grid(0.7, 0.7)
        assert report.passed
        sig2_hat, q_hat = report.details["minimizer"]
        assert sig2_hat == pytest.approx(1.0, abs=1e-12)
        assert q_hat == pytest.approx(0.7, abs=1e-12)

    def test_kkt_substitution_identity(self):
        # 1 - x*x would cancel near one: -5.5e-12 and -2.5e-10 there
        for rho, lam in ((0.5, 0.3), (0.9, 0.2), (0.999999, 0.999999),
                         (1.0 - 1e-9, 1.0 - 1e-9)):
            report = oracle.verify_envelope_grid(rho, lam)
            assert abs(report.details["kkt_identity_gap"]) <= 1e-12

    @pytest.mark.parametrize("rho, lam", [
        (0.998, 0.9), (0.999, 0.9), (0.999999, 0.999999),
        (1.0 - 1e-9, 1.0 - 1e-9)])
    def test_passes_where_the_cap_is_steep(self, rho, lam):
        # at the first two pairs, a q offset under one cell is 9.0 and 6.3
        # sig2 cells along the cap, whose slope is sig2*/(1 - q*)
        report = oracle.verify_envelope_grid(rho, lam)
        assert report.passed, report
        assert max(report.details["cells_off"]) <= 2.0

    @pytest.mark.parametrize("rho, lam", [
        (0.5, 0.3), (0.7, 0.7), (0.9, 0.2), (0.998, 0.9), (0.999, 0.9)])
    def test_minimizer_off_the_cap_fails(self, rho, lam, monkeypatch):
        _mutant(monkeypatch, oracle, "verify_envelope_grid",
                "sig2_star, q_star = (1.0 - rho) / (1.0 - lam), lam",
                "sig2_star, q_star = 1.01 * (1.0 - rho) / (1.0 - lam), lam")
        assert not oracle.verify_envelope_grid(rho, lam).passed

    def test_rejects_lambda_above_rho(self):
        with pytest.raises(ParameterError):
            oracle.verify_envelope_grid(0.3, 0.5)

    @pytest.mark.parametrize("rho, lam", [
        (0.5, 1e-15), (0.5, 1e-300), (0.999999999, 1e-300)])
    def test_rejects_lambda_too_small_for_the_grid(self, rho, lam):
        # the grid is flat along sig2 there and cannot place the minimizer,
        # so a valid input would read as a failed check
        with pytest.raises(ParameterError, match="lam"):
            oracle.verify_envelope_grid(rho, lam)

    @pytest.mark.parametrize("rho", [1e-11, 0.1, 0.5, 0.9, 0.999999999])
    def test_smallest_accepted_lambda_passes(self, rho):
        report = oracle.verify_envelope_grid(rho, oracle._ENVELOPE_MIN_LAM)
        assert report.passed, report

    @pytest.mark.parametrize("rho, lam", [
        (0.999, 0.3), (0.999, 0.999), (0.9999, 0.3), (0.9999, 0.9999),
        (1.0 - 2.0 ** -52, 0.3)])
    def test_grid_samples_past_the_kink_near_one(self, rho, lam,
                                                  monkeypatch):
        # from rho = 1 - 1/500 up, 1 - 1/500 no longer lies past the kink
        grids = []
        objective = oracle._envelope_objective

        def spy(lam_, sig2, q):
            grids.append(np.asarray(q))
            return objective(lam_, sig2, q)

        monkeypatch.setattr(oracle, "_envelope_objective", spy)
        report = oracle.verify_envelope_grid(rho, lam)
        assert report.passed, report
        q = grids[0]
        assert np.any((q > rho) & (q < 1.0))


class TestGrayWynerDual:
    def test_blend_instance(self):
        report = oracle.verify_graywyner_dual(0.5, 0.75, 0.0)
        assert report.passed
        assert report.details["nu_hat"] == pytest.approx(0.75, abs=1e-5)

    def test_saturated_instance_maximizes_at_one(self):
        report = oracle.verify_graywyner_dual(0.5, 0.3, 0.0)
        assert report.passed
        assert report.details["nu_hat"] == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_instance_stays_nonpositive(self):
        report = oracle.verify_graywyner_dual(0.5, 1.5, 0.0)
        assert report.passed
        assert report.closed_form_value == 0.0
        assert report.oracle_value <= 1e-12


class TestDiscreteMutualInformation:
    def test_product_pmf_is_zero(self):
        pmf = np.full((2, 2), 0.25)
        assert oracle.discrete_mutual_information(pmf, (0,), (1,)) == \
            pytest.approx(0.0, abs=1e-14)

    def test_perfectly_correlated_pair(self):
        pmf = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert oracle.discrete_mutual_information(pmf, (0,), (1,)) == \
            pytest.approx(LN2, abs=1e-14)

    def test_dsbs_marginal_mutual_information(self):
        a0 = 0.25
        pmf = np.array([[(1 - a0) / 2, a0 / 2], [a0 / 2, (1 - a0) / 2]])
        h_bits = -(a0 * math.log2(a0) + (1 - a0) * math.log2(1 - a0))
        expected = LN2 - h_bits * LN2
        assert oracle.discrete_mutual_information(pmf, (0,), (1,)) == \
            pytest.approx(expected, abs=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        table = rng.uniform(size=(3, 4, 2))
        table /= table.sum()
        value = oracle.discrete_mutual_information(table, (0,), (1,), given=(2,))
        assert value >= -1e-14

    def test_rejects_unnormalized(self):
        with pytest.raises(ParameterError):
            oracle.discrete_mutual_information(np.full((2, 2), 0.3), (0,), (1,))

    def test_rejects_overlapping_groups(self):
        pmf = np.full((2, 2), 0.25)
        with pytest.raises(ParameterError):
            oracle.discrete_mutual_information(pmf, (0,), (0,))

    @pytest.mark.parametrize("axes_a, axes_b, given", [
        ((0,), (1,), ()), ((0,), (1,), (2,)), ((0, 2), (1,), ()),
        ((2,), (0,), (1,)), ((1, 0), (2,), ()),
    ])
    def test_matches_numpy_marginals(self, axes_a, axes_b, given):
        table = np.random.default_rng(8).uniform(size=(3, 4, 2))
        table /= table.sum()

        def entropy(axes):
            drop = tuple(ax for ax in range(3) if ax not in axes)
            marginal = table.sum(axis=drop).ravel()
            return -float((marginal * np.log(marginal)).sum())

        expected = (entropy(axes_a + given) + entropy(axes_b + given)
                    - entropy(axes_a + axes_b + given) - entropy(given))
        value = oracle.discrete_mutual_information(table, axes_a, axes_b,
                                                   given=given)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_array_lists_and_tuples_agree(self):
        a0 = 0.25
        marginal = np.array([[(1 - a0) / 2, a0 / 2], [a0 / 2, (1 - a0) / 2]])
        table = np.random.default_rng(8).uniform(size=(3, 4, 2))
        table /= table.sum()

        def as_tuples(rows):
            return tuple(map(as_tuples, rows)) if isinstance(rows, list) \
                else rows

        for pmf, axes in ((marginal, ((0,), (1,))),
                          (table, ((0,), (1,), (2,)))):
            values = {oracle.discrete_mutual_information(form, *axes)
                      for form in (pmf, pmf.tolist(), as_tuples(pmf.tolist()))}
            assert len(values) == 1


class TestDsbsConstruction:
    @pytest.mark.parametrize("a0", [0.1, 0.25, 0.4])
    def test_reproduces_binary_formula(self, a0):
        report = oracle.dsbs_construction_check(a0)
        assert report.passed
        assert abs(report.details["conditional_mi_nats"]) <= 1e-12
        assert abs(report.oracle_value - report.closed_form_value) <= 1e-12

    def test_small_disagreement_approaches_one_bit(self):
        report = oracle.dsbs_construction_check(1e-12)
        assert report.oracle_value == pytest.approx(1.0, abs=1e-9)

    def test_half_disagreement_is_zero(self):
        report = oracle.dsbs_construction_check(0.5)
        assert report.oracle_value == pytest.approx(0.0, abs=1e-14)

    def test_rejects_above_half(self):
        with pytest.raises(ParameterError):
            oracle.dsbs_construction_check(0.6)


class TestErasureConstruction:
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, LN2])
    def test_rate_is_entropy_minus_budget(self, gamma):
        report = oracle.erasure_construction_check(gamma)
        assert report.passed
        assert report.oracle_value == pytest.approx(LN2 - gamma, abs=1e-12)

    def test_rejects_budget_above_entropy(self):
        with pytest.raises(ParameterError):
            oracle.erasure_construction_check(0.8)


class TestSuites:
    def test_every_named_suite_passes(self):
        for name in ("scalar", "waterfill", "envelope", "graywyner",
                     "discrete"):
            assert all(r.passed for r in oracle.run_suite(name)), name

    def test_all_runs_every_suite_in_order(self):
        assert tuple(oracle._SUITE_CHECKS) == oracle.SUITES[:-1]
        expected = [report.as_dict() for name in oracle.SUITES[:-1]
                    for report in oracle.run_suite(name)]
        assert [report.as_dict() for report in oracle.run_suite("all")] \
            == expected

    def test_unknown_suite_rejected(self):
        with pytest.raises(ParameterError):
            oracle.run_suite("bogus")


PMF_2X2 = np.array([[0.5, 0.0], [0.0, 0.5]])


@pytest.mark.parametrize("call", [
    lambda: oracle.verify_scalar_achievability("x", 0.1),
    lambda: oracle.verify_scalar_achievability(math.nan, 0.1),
    lambda: oracle.verify_envelope_grid("a", 0.3),
    lambda: oracle.verify_envelope_grid(0.5, "a"),
    lambda: oracle.dsbs_construction_check("a"),
    lambda: oracle.discrete_mutual_information(PMF_2X2, (0.5,), (1,)),
    lambda: oracle.discrete_mutual_information(PMF_2X2, (0,), ("1",)),
    lambda: oracle.discrete_mutual_information(PMF_2X2, (0,), (2,)),
    lambda: oracle.discrete_mutual_information(PMF_2X2, 0, 1),
    lambda: oracle.discrete_mutual_information("a", (0,), (1,)),
    lambda: oracle.discrete_mutual_information([[0.5, 0.0], [0.5]], (0,),
                                               (1,)),
    lambda: oracle.discrete_mutual_information([[0.5, math.nan], [0.0, 0.5]],
                                               (0,), (1,)),
], ids=["scalar-rho-str", "scalar-rho-nan", "envelope-rho-str",
        "envelope-lam-str", "dsbs-str", "axis-float", "axis-str",
        "axis-out-of-range", "axis-bare-int", "pmf-str", "pmf-ragged",
        "pmf-nan"])
def test_invalid_input_raises_parameter_error(call):
    with pytest.raises(ParameterError):
        call()
