"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``); the
pytest outcome of each test is the machine-readable verdict. Randomized
criteria use fixed seeds so the suite is deterministic.
"""

import math
import time

import numpy as np

from gausswyner import cli, graywyner, oracle, scalar, vector
from gausswyner.allocation import waterfill
from gausswyner.graywyner import common_rate
from gausswyner.vector import JointGaussianCov, canonical_correlations

from helpers import random_joint_cov, random_invertible

LN2 = math.log(2.0)


def check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_curve_reproduction(tmp_path):
    expected = {0.0: 0.549306144, 0.05: 0.230436683,
                0.1: 0.094603059, 0.143: 0.001684201}
    out = tmp_path / "curve.csv"
    start = time.perf_counter()
    code = cli.main(["curve", "--rho", "0.5", "--gamma-max", "0.143",
                     "--steps", "143", "--output", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = [tuple(map(float, line.split(",")))
            for line in out.read_text().splitlines()[1:]]
    by_gamma = {round(g, 6): c for g, c, _ in rows}
    worst = max(abs(by_gamma[g] - v) for g, v in expected.items())
    check("criterion 1 (curve reproduction)",
          worst <= 1e-5 and elapsed < 1.0,
          f"max_err={worst:.2e} runtime={elapsed:.3f}s")


def test_criterion_2_endpoint_identities():
    rng = np.random.default_rng(101)
    worst_zero = worst_sat = 0.0
    for _ in range(50):
        rho = float(rng.uniform(-0.99, 0.99))
        r = abs(rho)
        expected = 0.5 * math.log((1.0 + r) / (1.0 - r))
        worst_zero = max(worst_zero,
                         abs(scalar.wyner_ci_scalar(rho, 0.0) - expected))
        cap = 0.5 * math.log(1.0 / (1.0 - rho * rho))
        for gamma in (cap, 1.3 * cap + 0.01):
            worst_sat = max(worst_sat, scalar.wyner_ci_scalar(rho, gamma))
    ok = worst_zero <= 1e-12 and worst_sat <= 1e-12
    check("criterion 2 (endpoint identities)", ok,
          f"worst_zero={worst_zero:.2e} worst_saturation={worst_sat:.2e}")


def test_criterion_3_achievability_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        rho = float(rng.uniform(0.1, 0.9))
        gamma = float(rng.uniform(0.1, 0.9)) * scalar.mutual_information(rho)
        report = oracle.verify_scalar_achievability(rho, gamma)
        assert report.passed, report
        worst = max(worst, abs(report.oracle_value - report.closed_form_value))
    elapsed = time.perf_counter() - start
    check("criterion 3 (achievability oracle)",
          worst <= 1e-4 and elapsed < 5.0,
          f"worst_gap={worst:.2e} runtime={elapsed:.2f}s")


def test_criterion_4_waterfill_oracle():
    spectra = ((0.9, 0.2), (0.8, 0.8), (0.9, 0.5, 0.2))
    start = time.perf_counter()
    worst = 0.0
    for rhos in spectra:
        caps = [scalar.mutual_information(r) for r in rhos]
        for gamma in (0.1, 0.5, 1.0, 2.0):
            report = oracle.verify_waterfill_grid(rhos, gamma)
            assert report.passed, report
            worst = max(worst,
                        abs(report.oracle_value - report.closed_form_value))
            alloc = waterfill(rhos, gamma)
            if gamma <= sum(caps):
                assert abs(sum(alloc.gammas) - gamma) <= 1e-9
            else:
                assert alloc.gammas == tuple(caps)
                assert abs(alloc.slack - (gamma - sum(caps))) <= 1e-9
            for gamma_i, cap, flag in zip(alloc.gammas, caps, alloc.saturated):
                assert gamma_i <= cap + 1e-12
                if not flag:
                    assert abs(scalar.level_from_budget(gamma_i)
                               - alloc.water_level_beta) <= 1e-9
            # weaker components saturate first
            for earlier, later in zip(alloc.saturated, alloc.saturated[1:]):
                assert later or not earlier
    elapsed = time.perf_counter() - start
    check("criterion 4 (water-filling oracle)",
          worst <= 1e-2 and elapsed < 60.0,
          f"worst_gap={worst:.2e} runtime={elapsed:.2f}s")


def test_criterion_5_envelope_oracle():
    start = time.perf_counter()
    worst_gap, worst_cells = -math.inf, 0.0
    for rho, lam in ((0.5, 0.3), (0.7, 0.7), (0.9, 0.2)):
        report = oracle.verify_envelope_grid(rho, lam)
        assert report.passed, report
        gap = report.oracle_value - report.closed_form_value
        assert gap >= -1e-3
        worst_gap = max(worst_gap, gap)
        worst_cells = max(worst_cells, report.details["cells_off"])
    elapsed = time.perf_counter() - start
    check("criterion 5 (envelope oracle)",
          worst_cells <= 2.0 and elapsed < 30.0,
          f"worst_gap={worst_gap:.2e} worst_cells={worst_cells:.2f} "
          f"runtime={elapsed:.2f}s")


def test_criterion_6_duality_checks():
    rng = np.random.default_rng(303)
    worst_scalar = 0.0
    for _ in range(20):
        rho = float(rng.uniform(0.1, 0.95))
        gamma = float(rng.uniform(0.05, 1.0)) * scalar.mutual_information(rho)
        mu = scalar.dual_maximizer(gamma)
        assert mu >= 1.0 / rho - 1e-12
        gap = abs(scalar.dual_objective(rho, gamma, mu)
                  - scalar.wyner_ci_scalar(rho, gamma))
        worst_scalar = max(worst_scalar, gap)

    worst_gw = 0.0
    for k in range(20):
        rho = float(rng.uniform(0.1, 0.9))
        if k % 2 == 0:
            product = float(rng.uniform(1.0 - rho, 1.0))   # BLEND
        else:
            product = float(rng.uniform(0.02, 1.0 - rho))  # SATURATED_NU
        alpha = float(rng.uniform(0.0, 1.0))
        delta = product * math.exp(-alpha)
        report = oracle.verify_graywyner_dual(rho, delta, alpha)
        assert report.passed, report
        assert report.details["regime"] != "INFEASIBLE_ZERO"
        worst_gw = max(worst_gw, abs(report.oracle_value
                                     - report.closed_form_value))
    ok = worst_scalar <= 1e-10 and worst_gw <= 1e-8
    check("criterion 6 (duality checks)", ok,
          f"worst_scalar={worst_scalar:.2e} worst_graywyner={worst_gw:.2e}")


def test_criterion_7_graywyner_structure():
    scaling_exact = True
    for sigma2 in (0.25, 0.5, 2.0, 4.0):
        for rho, delta, alpha in ((0.5, 0.1, 0.5), (0.8, 0.02, 1.0),
                                  (0.3, 0.4, 0.0)):
            scaled = common_rate(sigma2, rho, delta * sigma2, alpha)
            unit = common_rate(1.0, rho, delta, alpha)
            scaling_exact &= scaled.r0 == unit.r0

    worst_boundary = 0.0
    for rho in np.linspace(0.05, 0.95, 19):
        d = 1.0 - rho
        blend = 0.5 * math.log((1.0 + rho) / (2.0 * d + rho - 1.0))
        saturated = 0.5 * math.log((1.0 - rho * rho) / (d * d))
        worst_boundary = max(worst_boundary, abs(blend - saturated))

    monotone = True
    for rho in (0.3, 0.6, 0.9):
        in_alpha = [common_rate(1.0, rho, 0.15, a).r0
                    for a in np.linspace(0.0, 2.5, 60)]
        in_delta = [common_rate(1.0, rho, d, 0.4).r0
                    for d in np.linspace(0.005, 1.5, 60)]
        monotone &= all(b <= a + 1e-12 for a, b in zip(in_alpha, in_alpha[1:]))
        monotone &= all(b <= a + 1e-12 for a, b in zip(in_delta, in_delta[1:]))

    ok = scaling_exact and worst_boundary <= 1e-12 and monotone
    check("criterion 7 (Gray-Wyner structure)", ok,
          f"scaling_exact={scaling_exact} boundary_gap={worst_boundary:.2e} "
          f"monotone={monotone}")


def test_criterion_8_discrete_constructions():
    worst_cond = worst_dsbs = 0.0
    for a0 in (0.1, 0.25, 0.4):
        report = oracle.dsbs_construction_check(a0)
        assert report.passed, report
        worst_cond = max(worst_cond,
                         abs(report.details["conditional_mi_nats"]))
        worst_dsbs = max(worst_dsbs,
                         abs(report.oracle_value - report.closed_form_value))
    worst_erasure = 0.0
    for gamma in (0.0, 0.1, 0.3, LN2):
        report = oracle.erasure_construction_check(gamma)
        assert report.passed, report
        worst_erasure = max(worst_erasure,
                            abs(report.oracle_value - (LN2 - gamma)))
    ok = worst_cond <= 1e-12 and worst_dsbs <= 1e-12 and worst_erasure <= 1e-12
    check("criterion 8 (discrete constructions)", ok,
          f"cond_mi={worst_cond:.2e} dsbs_gap={worst_dsbs:.2e} "
          f"erasure_gap={worst_erasure:.2e}")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(404)
    violations = {"monotonicity": 0, "convexity": 0, "lower_bound": 0,
                  "padding": 0, "transform": 0}

    for _ in range(100):
        rho = float(rng.uniform(-0.99, 0.99))
        g1, g2 = sorted(rng.uniform(0.0, 2.0, size=2))
        if scalar.wyner_ci_scalar(rho, g1) < \
                scalar.wyner_ci_scalar(rho, g2) - 1e-12:
            violations["monotonicity"] += 1
        mid = scalar.wyner_ci_scalar(rho, 0.5 * (g1 + g2))
        ends = 0.5 * (scalar.wyner_ci_scalar(rho, g1)
                      + scalar.wyner_ci_scalar(rho, g2))
        if mid > ends + 1e-12:
            violations["convexity"] += 1
        bound = max(scalar.mutual_information(rho) - g1, 0.0)
        if scalar.wyner_ci_scalar(rho, g1) < bound - 1e-12:
            violations["lower_bound"] += 1

    for _ in range(100):
        dx, dy = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        cov = random_joint_cov(rng, dx, dy)
        gamma = float(rng.uniform(0.0, 1.0))
        base = vector.wyner_ci_vector(cov, gamma).value_nats
        padded = JointGaussianCov(
            np.block([[cov.k_x, np.zeros((dx, 1))],
                      [np.zeros((1, dx)), np.eye(1)]]),
            np.vstack([cov.k_xy, np.zeros((1, dy))]),
            cov.k_y)
        if abs(vector.wyner_ci_vector(padded, gamma).value_nats - base) > 1e-10:
            violations["padding"] += 1
        a = random_invertible(rng, dx)
        b = random_invertible(rng, dy)
        transformed = JointGaussianCov(
            a @ cov.k_x @ a.T, a @ cov.k_xy @ b.T, b @ cov.k_y @ b.T)
        gap = np.max(np.abs(
            np.asarray(canonical_correlations(transformed).rhos)
            - np.asarray(canonical_correlations(cov).rhos)))
        if gap > 1e-8:
            violations["transform"] += 1

    ok = all(count == 0 for count in violations.values())
    check("criterion 9 (property suites)", ok, f"violations={violations}")
