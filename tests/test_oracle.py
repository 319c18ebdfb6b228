"""The verifiers themselves: spec examples per oracle, plus report shape."""

import inspect
import itertools
import math
import random
import sys
import textwrap

import numpy as np
import pytest

from gausswyner import allocation, graywyner, oracle, scalar
from gausswyner.errors import GausswynerError

LN2 = math.log(2.0)
EPS = sys.float_info.epsilon


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
        assert abs(gap) <= report.tolerance
        assert report.details["alpha_construction"] == \
            scalar.achievability_params(0.5, 0.1).alpha_noise

    def test_zero_budget_picks_alpha_zero(self):
        report = oracle.verify_scalar_achievability(0.5, 0.0)
        assert report.passed
        assert report.details["alpha_construction"] == 0.0
        assert report.details["multiplier"] == math.inf
        assert report.oracle_value == pytest.approx(
            scalar.common_information(0.5), abs=1e-12)
        assert report.details["dual_gap"] == 0.0  # both at their limit C(rho)
        assert report.details["library_dual_gap"] == 0.0

    def test_saturation_picks_alpha_rho(self):
        cap = scalar.mutual_information(0.5)
        report = oracle.verify_scalar_achievability(0.5, cap)
        assert report.passed
        assert report.details["alpha_construction"] == \
            pytest.approx(0.5, abs=1e-9)
        assert report.oracle_value == pytest.approx(0.0, abs=1e-12)

    def test_small_and_near_one_correlations_to_rounding(self):
        # rho = 10^-e and 1 - 10^-e from 0 to 1 times the cap: taken as
        # ratios of determinants, the rate and the leakage cancel at small
        # rho, and a grid that read them so undercut the closed form by
        # 5.5e-10 at (1e-9, 1e-19); near 1 the dual's terms are largest.
        # A budget accepted just above the cap saturates the construction,
        # and the value there is 0, not the closed form's residue at the cap
        cases = [(rho, f * scalar.mutual_information(rho))
                 for e in range(1, 16) for rho in (10.0 ** -e, 1 - 10.0 ** -e)
                 for f in (0.0, 0.1, 0.5, 0.9, 1.0)]
        for rho, gamma in [*cases, (1e-9, 1e-19), (0.999999, 5.0),
                           (0.005, scalar.mutual_information(0.005) + 1e-13),
                           (1e-300, 1e-300), (5e-324, 5e-324)]:
            report = oracle.verify_scalar_achievability(rho, gamma)
            assert report.passed, report
            assert abs(report.oracle_value - report.closed_form_value) \
                <= report.tolerance

    def test_report_carries_both_values(self):
        report = oracle.verify_scalar_achievability(0.3, 0.02)
        payload = report.as_dict()
        assert {"name", "oracle_value", "closed_form_value", "difference",
                "tolerance", "passed", "details"} <= payload.keys()


class TestWaterfillGrid:
    def test_two_component_instance(self):
        report = oracle.verify_waterfill_grid((0.9, 0.2), 1.0)
        assert report.passed
        assert abs(report.oracle_value - report.closed_form_value) \
            <= report.tolerance

    def test_symmetric_pair_optimum_at_even_split(self):
        report = oracle.verify_waterfill_grid((0.8, 0.8), 0.2)
        assert report.passed
        assert report.details["waterfill_gammas"] == [0.1, 0.1]

    def test_single_component_is_exact(self):
        # the whole budget on the one component: the oracle's level and
        # waterfill's differ only by rounding
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

    @pytest.mark.parametrize("spectrum, gamma, multiplier", [
        pytest.param((0.9, 0.5), 0.0, math.inf, id="gamma 0"),
        pytest.param((0.9, 0.5), 5.0, 0.0, id="above every cap"),
        pytest.param((0.999999,), 3.0, None, id="one component"),
        pytest.param((0.8, 0.8), 0.2, None, id="tie"),
        pytest.param((0.9, 0.0, 0.0), 0.3, None, id="rho 0"),
        pytest.param((0.5, 1e-17), 0.1, None, id="rho 1e-17"),
        pytest.param((1e-17, 1e-17), 1e-40, None, id="rho 1e-17 binding"),
        # refused by the lattice's size guard: about 5e11 points, and one
        # 8 GB axis
        pytest.param((0.9, 0.5, 0.2), 1000.0, 0.0, id="gamma 1000"),
        pytest.param((0.9, 0.2), 1e6, 0.0, id="gamma 1e6"),
        pytest.param((0.99, 0.9, 0.8, 0.7, 0.5, 0.3, 0.2, 0.1), 2.0, None,
                     id="eight components"),
        # a lattice of one cell put the whole budget on one component
        pytest.param((0.047072436951203334, 0.047072436951203334),
                     0.001009930394858843, None, id="small budget tie"),
        pytest.param((0.9, 0.7, 0.2), 0.00075, None, id="small budget")])
    def test_edge(self, spectrum, gamma, multiplier):
        report = oracle.verify_waterfill_grid(spectrum, gamma)
        assert report.passed, report
        details = report.details
        values = [*report[1:4], *details["waterfill_gammas"],
                  *(details[key] for key in ("multiplier", "dual_gap",
                                             "water_level_beta",
                                             "repriced_gap", "budget_gap"))]
        assert not any(map(math.isnan, values))
        if multiplier is not None:
            assert details["multiplier"] == multiplier
        if multiplier == 0.0:
            assert allocation.waterfill(spectrum, gamma).slack > 0.0

    def test_seeded_sweep(self):
        # k from 1 to 8, a third of the rho log-uniform down to 1e-17, and
        # gamma 0, uniform up to 1.2x the caps, or log-uniform down to
        # 1e-12x the caps
        rng = random.Random(26)
        for _ in range(2000):
            rhos = sorted((10.0 ** rng.uniform(-17.0, -1e-9)
                           if rng.random() < 1.0 / 3.0 else rng.random())
                          for _ in range(rng.randint(1, 8)))[::-1]
            caps = math.fsum(map(scalar.mutual_information, rhos))
            gamma = rng.choice((0.0, rng.uniform(0.0, 1.2) * caps,
                                caps * 10.0 ** rng.uniform(-12.0, 0.0)))
            report = oracle.verify_waterfill_grid(rhos, gamma)
            assert report.passed, report

    def test_every_suite_instance_has_an_active_component(self):
        # a fully saturated instance has value 0 whatever the water level
        (_, instances), = oracle._SUITE_CHECKS["waterfill"]
        saturated = [allocation.waterfill(*args).saturated
                     for args in instances]
        assert not any(map(all, saturated))
        assert (False, True, True) in saturated


class TestEnvelopeGrid:
    def test_interior_instance(self):
        report = oracle.verify_envelope_grid(0.5, 0.3)
        assert report.passed
        assert report.oracle_value >= report.closed_form_value - 1e-3
        # the objective is convex along the cap, so the grid minimizer is
        # one of the two nodes around q* = lam
        assert report.details["cells_off"] <= 1.0

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
        # the cap's slope there, sig2*/(1 - q*), is steep: a q offset under
        # one cell moves sig2 along it by 9.0 and 6.3 of its own cells at
        # the first two pairs
        report = oracle.verify_envelope_grid(rho, lam)
        assert report.passed, report
        assert report.details["cells_off"] <= 1.0

    @pytest.mark.parametrize("rho, lam", [
        (0.5, 0.3), (0.7, 0.7), (0.9, 0.2), (0.998, 0.9), (0.999, 0.9)])
    def test_minimizer_off_the_cap_fails(self, rho, lam, monkeypatch):
        _mutant(monkeypatch, oracle, "verify_envelope_grid",
                "sig2_star, q_star = (1.0 - rho) / (1.0 - lam), lam",
                "sig2_star, q_star = 1.01 * (1.0 - rho) / (1.0 - lam), lam")
        assert not oracle.verify_envelope_grid(rho, lam).passed

    @pytest.mark.parametrize("rho, lam", [
        *[pytest.param(rho, 5e-324, id=str(rho))
          for rho in (1e-11, 0.1, 0.5, 0.9, 0.999999999)],
        # refused while lam had a floor of 1e-11
        (0.5, 1e-15), (0.5, 1e-300), (0.999999999, 1e-300)])
    def test_smallest_accepted_lambda_passes(self, rho, lam):
        # at these lam the objective along the cap is -1/2 log(1 - q^2)
        # plus a term under 1e-13, least at q = 0
        report = oracle.verify_envelope_grid(rho, lam)
        assert report.passed, report
        assert report.details["cells_off"] <= 1.0

    def test_seeded_sweep_down_to_the_smallest_lambda(self):
        # rho uniform or within 1e-15 to 1 of 1, and lam log-uniform from
        # 5e-324 up to rho
        rng = random.Random(28)
        for _ in range(300):
            rho = rng.choice((rng.random(),
                              1.0 - 10.0 ** rng.uniform(-15.0, 0.0)))
            lam = min(max(10.0 ** rng.uniform(-323.3, math.log10(rho)),
                          5e-324), rho)
            report = oracle.verify_envelope_grid(rho, lam)
            assert report.passed, report
            assert report.details["cells_off"] <= 1.0

    @pytest.mark.parametrize("rho, lam", [
        (0.999, 0.3), (0.999, 0.999), (0.9999, 0.3), (0.9999, 0.9999),
        (1.0 - 2.0 ** -52, 0.3)])
    def test_grid_samples_past_the_kink_near_one(self, rho, lam,
                                                  monkeypatch):
        # from rho = 1 - 1/500 up, 1 - 1/500 no longer lies past the kink
        grids, objective = [], oracle._envelope_objective
        monkeypatch.setattr(oracle, "_envelope_objective", lambda *args: (
            grids.append(args[2]) or objective(*args)))
        report = oracle.verify_envelope_grid(rho, lam)
        assert report.passed, report
        assert any(rho < q < 1.0 for q in grids[0])


class TestGrayWynerDual:
    def test_blend_instance(self):
        report = oracle.verify_graywyner_dual(0.5, 0.75, 0.0)
        assert report.passed
        # d/(2d - (1 - r)) = 0.75, and the dual there is 1/2 log(1.5/1)
        assert report.details["nu_hat"] == pytest.approx(0.75, abs=2 * EPS)
        assert report.oracle_value == pytest.approx(0.5 * math.log(1.5),
                                                    abs=2 * EPS)
        assert report.tolerance <= 1e-14
        # S = [[0.75, 0.25], [0.25, 0.75]]: M = S^-1 - 0.75 diag(4/3) is
        # 0.5 [[1, -1], [-1, 1]], singular along 11^T = (K - S)/0.25
        assert abs(report.details["construction_rate_gap"]) <= 2 * EPS
        assert abs(report.details["least_eigenvalue"]) <= 2 * EPS
        assert 0.0 <= report.details["slackness_residual"] <= 2 * EPS

    def test_saturated_instance_maximizes_at_one(self):
        report = oracle.verify_graywyner_dual(0.5, 0.3, 0.0)
        assert report.passed
        assert report.details["nu_hat"] == 1.0
        # S = 0.3 I, at rate 1/2 log(0.75/0.09); M = S^-1 - diag(1/0.3) = 0
        assert report.closed_form_value == pytest.approx(
            0.5 * math.log(0.75 / 0.09), abs=2 * EPS)
        assert abs(report.details["construction_rate_gap"]) <= 2 * EPS
        assert report.details["least_eigenvalue"] is None
        assert report.details["slackness_residual"] is None

    def test_infeasible_instance_stays_nonpositive(self):
        report = oracle.verify_graywyner_dual(0.5, 1.5, 0.0)
        assert report.passed
        assert report.closed_form_value == 0.0
        # 1/2 log((1 + r)/(2d - (1 - r))) = 1/2 log(1.5/2.5)
        assert report.oracle_value == pytest.approx(0.5 * math.log(0.6),
                                                    abs=2 * EPS)
        # S = K: W carries nothing, and costs nothing
        assert report.details["construction_rate_gap"] == 0.0
        assert report.details["least_eigenvalue"] is None
        assert report.details["slackness_residual"] is None

    @pytest.mark.parametrize("rho, delta, alpha", [
        (0.5, 0.3, 800.0), (0.5, 1e300, 0.0), (0.5, 2.0, 1e300),
        (1.0 - 2.0 ** -53, 0.3, 800.0)])
    def test_maximizer_rounding_to_one_half(self, rho, delta, alpha):
        # (1 - r)/d is under an ulp of 1/2, and e^alpha alone overflows
        # at the first and the last; the smallest float above 1/2 stands in
        # for the maximizer
        report = oracle.verify_graywyner_dual(rho, delta, alpha)
        assert report.passed, report
        assert report.details["nu_hat"] == math.nextafter(0.5, 1.0)
        assert report.details["regime"] == "INFEASIBLE_ZERO"

    def test_infinite_alpha_still_checks_the_library_dual(self, monkeypatch):
        # at alpha = inf both duals are -inf, and log d is inf: the
        # tolerance leaves it out and stays finite, so a library dual that
        # is finite there fails
        report = oracle.verify_graywyner_dual(0.5, 0.3, math.inf)
        assert report.passed
        assert report.tolerance == 8.0 * EPS
        monkeypatch.setattr(graywyner, "dual_objective", lambda *args: 0.0)
        assert not oracle.verify_graywyner_dual(0.5, 0.3, math.inf).passed

    def test_seeded_sweep(self):
        # first the edges: d = 1 - r, d = 1 and just above it, 1 - r at
        # 1e-12 and at an ulp, r = 0 (-0.0 too), delta 5e-324 and alpha =
        # inf, where both duals are -inf; then 1 - r log-uniform down to
        # 1e-12, both signs of rho, alpha 0, up to 3 or up to 800, and
        # d = delta e^alpha aimed at each regime and at both edges, delta
        # down to 5e-324. Each construction's rate is r0 within one unit of
        # the tolerance's 8, and in BLEND its certificate holds within 2 eps
        rng = random.Random(28)
        regimes = set()
        for edge in ((0.5, 0.5, 0.0), (0.5, 1.0, 0.0),
                     (0.5, 1.0 + 1e-15, 0.0), (1.0 - 1e-12, 1e-12, 0.0),
                     (1.0 - 2.0 ** -53, 1e-300, 0.0), (0.0, 0.5, 0.0),
                     (-0.0, 1.0, 0.0), (1e-300, 5e-324, 744.0),
                     (0.5, 0.3, math.inf), (1.0 - 2.0 ** -53, 1e-300, math.inf),
                     (-0.0, 5e-324, math.inf)):
            report = oracle.verify_graywyner_dual(*edge)
            assert report.passed, report
        for _ in range(5000):
            r = 1.0 - 10.0 ** rng.uniform(-12.0, 0.0)
            alpha = rng.choice((0.0, rng.uniform(0.0, 3.0),
                                rng.uniform(0.0, 800.0)))
            log_c = math.log1p(-r)
            log_d = rng.choice((log_c - rng.uniform(0.0, 700.0),
                                math.log(1.0 - r + rng.random() * r),
                                log_c, 0.0, rng.uniform(0.0, 800.0)))
            delta = max(math.exp(min(log_d - alpha, 709.0)), 5e-324)
            report = oracle.verify_graywyner_dual(rng.choice((r, -r)), delta,
                                                  alpha)
            assert report.passed, report
            details = report.details
            regimes.add(details["regime"])
            assert abs(details["construction_rate_gap"]) \
                <= report.tolerance / 8.0, report
            if details["regime"] == "BLEND":
                assert details["least_eigenvalue"] >= -2.0 * EPS, report
                assert details["slackness_residual"] <= 2.0 * EPS, report
        assert len(regimes) == 3


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

    @pytest.mark.parametrize("axes_a, axes_b, given", [
        ((0,), (1,), ()), ((0,), (1,), (2,)), ((0, 2), (1,), ()),
        ((2,), (0,), (1,)), ((1, 0), (2,), ())])
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
        # sqrt(1 - 2 a0) rounds to 1 here, so the crossover is 0.0, whose
        # binary entropy is 0 without a log of 0
        report = oracle.dsbs_construction_check(1e-17)
        assert report.details["crossover"] == 0.0
        assert report.passed and report.oracle_value == 1.0

    def test_half_disagreement_is_zero(self):
        report = oracle.dsbs_construction_check(0.5)
        assert report.oracle_value == pytest.approx(0.0, abs=1e-14)


class TestErasureConstruction:
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, LN2])
    def test_rate_is_entropy_minus_budget(self, gamma):
        report = oracle.erasure_construction_check(gamma)
        assert report.passed
        assert report.oracle_value == pytest.approx(LN2 - gamma, abs=1e-12)


# Each library fault that the verify suites must catch is a _mutant edit
# (old, new) of module.name, one test id each: the checks named in failed
# fail, and no other, and each detail that a failed check reports holds.
ACHIEVABILITY = [f"scalar_achievability(rho={rho}, gamma={gamma})" for rho,
                 gamma in ((0.5, 0.1), (0.8, 0.05), (0.3, 0.02), (0.9, 0.4))]
WATERFILL = ["waterfill_grid(spectrum=[0.9, 0.5], gamma=0.2)",
             "waterfill_grid(spectrum=[0.8, 0.8], gamma=0.2)",
             "waterfill_grid(spectrum=[0.9, 0.5, 0.2], gamma=0.5)"]
ENVELOPE = [f"envelope_grid(rho={rho}, lam={lam})"
            for rho, lam in ((0.5, 0.3), (0.7, 0.7), (0.9, 0.2))]
GRAYWYNER = [f"graywyner_dual(rho={rho}, delta={delta}, alpha={alpha})"
             for rho, delta, alpha in ((0.5, 0.75, 0.0), (0.5, 0.3, 0.0),
                                       (0.5, 0.1, 0.5), (0.7, 1.5, 0.0),
                                       (0.9, 0.3, 0.0))]
BLEND = [GRAYWYNER[0], GRAYWYNER[4]]
_MUTANTS = [
    (scalar, "_levels", ACHIEVABILITY + WATERFILL, {},
     [("+ x for", "+ x + 1e-6 for")]),
    (scalar, "wyner_ci_scalar", ACHIEVABILITY,
     {"construction_rate_gap": lambda gap: abs(gap) > 9e-7},
     [(")[0]", ")[0] + 1e-6"), (")[0]", ")[0] - 1e-6"),
      ("return _w", "return 1.00001 * _w")]),
    (scalar, "achievability_params", ACHIEVABILITY, {},
     [("alpha = min(", "alpha = 0.999 * min("),
      ("alpha = min(", "alpha = 1.01 * min(")]),
    # a multiplier off 1/alpha: the certificate and both duals see it
    (oracle, "verify_scalar_achievability", ACHIEVABILITY,
     {"least_eigenvalue": lambda least: least < -6.0 * EPS,
      "slackness_residual": lambda residual: residual > 6.0 * EPS},
     [("1.0 / alpha", "1.01 / alpha")]),
    # the oracle's dual off its maximizer: only the dual side sees it
    (oracle, "verify_scalar_achievability", ACHIEVABILITY,
     {"dual_gap": lambda gap: gap < -1e-6,
      "least_eigenvalue": lambda least: least >= -6.0 * EPS},
     [("_scalar_dual(rho, budget, lam)",
       "_scalar_dual(rho, budget, 1.01 * lam)")]),
    (scalar, "dual_objective", ACHIEVABILITY,
     {"library_dual_gap": lambda gap: abs(gap) > 9e-10},
     [("r = abs(validate_correlation(rho))", "return -1e9"),
      ("return (common", "return 1e-9 + (common")]),
    # E off by 1e-6 of itself: the envelope grids and the scalar dual see it
    (oracle, "envelope_closed_form", ACHIEVABILITY + ENVELOPE,
     {"dual_gap": lambda gap: abs(gap) > 1e-7,
      "kkt_identity_gap": lambda gap: abs(gap) > 1e-8},
     [("return _mutual_information(lam) - lam",
       "return 1.000001 * _mutual_information(lam) - 1.000001 * lam")]),
    # an infeasible cap: only the exact side sees it
    (oracle, "verify_envelope_grid", ENVELOPE, {},
     [("1.0) for x in q]", "1.0) * 1.0001 for x in q]")]),
    (oracle, "verify_envelope_grid", ENVELOPE[:2], {},
     [("1.0) for x in q]", "1.0) * 1.000001 for x in q]")]),
    # a multiplier off its optimum: only the dual side sees it
    (oracle, "verify_waterfill_grid", WATERFILL, {},
     [("1.0 / math.tanh", "1.01 / math.tanh")]),
    (allocation, "waterfill", WATERFILL, {},
     [("/ k\n", "/ (k + 0.001)\n"), ("spend = (", "spend = 1.01 * ("),
      ("budget(spend)", "budget(spend * 1.0001)"),
      ("beta = level", "beta = 0.995 * level"),
      ("beta = level", "beta = 1.005 * level"),
      ("if gamma >= total_cap:", "if gamma < total_cap:")]),
    # caps off by 1e-4, where allocation checks and prices a spectrum: only
    # the saturated component of the third instance spends its cap
    (allocation, "_checked", WATERFILL[2:],
     {"dual_gap": lambda gap: gap > 1e-5},
     [("tuple(_mutual_informations(logs))",
       "tuple([1.0001 * c for c in _mutual_informations(logs)])")]),
    # C(rho_i) off by 1e-4 where it is priced: every value is repriced
    (allocation, "_checked", WATERFILL,
     {"repriced_gap": lambda gap: gap < -1e-4},
     [("tuple(_common_informations(logs))",
       "tuple([c * 1.0001 for c in _common_informations(logs)])")]),
    (allocation, "waterfill",
     [WATERFILL[0], "verify_waterfill_grid((0.8, 0.8), 0.2)", WATERFILL[2]],
     {"error": lambda error: error.startswith("ParameterError: budget ")},
     [("if spend < cap:", "if spend >= cap:")]),
    # a library dual off by 1e-9: only its comparison at nu_hat sees it
    (graywyner, "dual_objective", GRAYWYNER,
     {"library_dual_gap": lambda gap: gap > 9e-10},
     [("return (nu", "return 1e-9 + (nu")]),
    # a maximizer off the optimum: strong duality sees it
    (oracle, "verify_graywyner_dual", BLEND, {},
     [("1.0 / (2.0 - math.exp", "1.01 / (2.0 - math.exp")]),
    (graywyner, "common_rate", BLEND, {},
     [("denom = 2.0 * d - (1.0 - r)", "denom = 2.0 * d")]),
    # a weight off the certificate's, in the library's nu_star or in the
    # helper both constructions share: only the certificate sees it
    (graywyner, "common_rate", BLEND,
     {"least_eigenvalue": lambda least: least < -8.0 * EPS,
      "slackness_residual": lambda residual: residual > 8.0 * EPS},
     [("nu_star = min(", "nu_star = 1.01 * min(")]),
    (oracle, "_stationarity", ACHIEVABILITY + BLEND,
     {"least_eigenvalue": lambda least: least < -6.0 * EPS,
      "slackness_residual": lambda residual: residual > 6.0 * EPS},
     [("weight / s11", "1.01 * weight / s11")]),
    # a log of 2d - 1 < 0 raises at the second BLEND instance
    (graywyner, "common_rate",
     [BLEND[0], "verify_graywyner_dual(0.9, 0.3, 0.0)"],
     {"error": lambda error: error == "ValueError: math domain error"},
     [("denom = 2.0 * d - (1.0 - r)", "denom = 2.0 * d - 1.0")]),
]


class TestSuites:
    def test_every_named_suite_passes(self):
        for name in oracle.SUITES[:-1]:
            assert all(r.passed for r in oracle.run_suite(name)), name

    def test_all_runs_every_suite_in_order(self):
        assert tuple(oracle._SUITE_CHECKS) == oracle.SUITES[:-1]
        expected = [report.as_dict() for name in oracle.SUITES[:-1]
                    for report in oracle.run_suite(name)]
        assert [report.as_dict() for report in oracle.run_suite("all")] \
            == expected

    @pytest.mark.parametrize("module, name, failed, details, old, new", [
        pytest.param(module, name, failed, details, old, new,
                     id=f"{name}: {new.strip()}")
        for module, name, failed, details, edits in _MUTANTS
        for old, new in edits])
    def test_mutant_fails_exactly_its_checks(self, module, name, failed,
                                             details, old, new, monkeypatch):
        _mutant(monkeypatch, module, name, old, new)
        # _SUITE_CHECKS holds the original verifiers: a mutant one is called
        # on its instances. The verifiers look a helper up when they run, so
        # the suites reach its mutant
        instances = [args for rows in oracle._SUITE_CHECKS.values()
                     for verifier, table in rows if verifier.__name__ == name
                     for args in table]
        reports = ([getattr(oracle, name)(*args) for args in instances]
                   if instances else oracle.run_suite("all"))
        assert instances or len(reports) == 23
        failures = [report for report in reports if not report.passed]
        assert [report.name for report in failures] == failed
        for report in failures:  # a check that raised has NaN values
            assert ("error" in report.details) == \
                all(map(math.isnan, report[1:4]))
            assert all(holds(report.details[key])
                       for key, holds in details.items()
                       if key in report.details)

    @pytest.mark.parametrize("memo", ["cold", "primed"])
    def test_memo_mutant_fails_whatever_the_memo_holds(self, memo,
                                                       monkeypatch):
        # _mutant runs the edited _checked on a copy of allocation's globals,
        # memo included: a spectrum it held, priced by the unedited code,
        # must not hide the fault, in the caps or in C(rho_i)
        rows = [row for row in _MUTANTS if row[1] == "_checked"]
        assert len(rows) == 2
        for module, name, failed, details, ((old, new),) in rows:
            if memo == "cold":
                monkeypatch.setattr(allocation, "_last",
                                    (object(), *allocation._last[1:]))
            else:
                oracle.run_suite("waterfill")
                assert allocation._last[1] == (0.9, 0.5, 0.2)
                assert len(allocation._last[2]) == 3
            with monkeypatch.context() as patch:
                self.test_mutant_fails_exactly_its_checks(
                    module, name, failed, details, old, new, patch)


# Edge values for every argument: NaN, inf, signed zero, a subnormal,
# tiny, ordinary and near-one floats, the unit and past it, an int beyond
# the float range, and a string
EDGES = (math.nan, math.inf, -0.0, 5e-324, 1e-300, 1e-12, 0.5, 1 - 2**-53,
         1.0, 1.5, 10**400, "x")


def test_every_verifier_passes_or_refuses_on_an_edge_grid():
    """A valid instance must pass, and an invalid one raise a
    GausswynerError: a failing check or a raw exception here is a defect of
    the oracle or of the closed form it checks."""
    calls = [
        *((verifier, args) for a, b in itertools.product(EDGES, repeat=2)
          for verifier, args in (
              (oracle.verify_scalar_achievability, (a, b)),
              (oracle.verify_waterfill_grid, ((a,), b)),
              (oracle.verify_waterfill_grid, ((a, 1.0), b)),
              (oracle.verify_envelope_grid, (a, b)))),
        *((oracle.verify_graywyner_dual, args)
          for args in itertools.product(EDGES, repeat=3)),
        *((verifier, (a,)) for a in EDGES
          for verifier in (oracle.dsbs_construction_check,
                           oracle.erasure_construction_check))]
    defects = []
    for verifier, args in calls:
        try:
            if not verifier(*args).passed:
                defects.append((verifier.__name__, args, "failed"))
        except GausswynerError:
            pass
        except Exception as exc:
            defects.append((verifier.__name__, args, repr(exc)))
    assert not defects
