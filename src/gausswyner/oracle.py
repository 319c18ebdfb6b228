"""Independent verifiers for every closed form in the package.

Each verifier recomputes its target through a different route than the
library modules: one 2x2 stationarity certificate for the scalar and the
Gray-Wyner Gaussian constructions, each with its dual at the exact
maximizer, a Lagrangian dual certificate of the water-filling split, a grid
search along the envelope bound's cap, and exact entropy sums over finite
probability tables. Every check returns a :class:`CheckReport` carrying the
oracle value and the closed-form value side by side; :func:`run_suite` runs
the published instance table used by the command-line ``verify``
subcommand. Grid sizes are fixed constants and no verifier draws random
numbers, so none has a tuning argument. The water-filling certificate is
global and two-sided to rounding, costs O(k) floats for k components, and
refuses no spectrum but an empty one or one with some rho_i = 1.

Every verifier runs on plain floats, so no suite loads numpy.
:mod:`.allocation` comes in only with the water-filling certificate, so
importing this module loads neither.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from typing import NamedTuple

from . import graywyner, scalar
from ._suites import SUITES
from .errors import ParameterError

__all__ = [
    "SUITES",
    "CheckReport",
    "discrete_mutual_information",
    "dsbs_construction_check",
    "erasure_construction_check",
    "run_suite",
    "verify_envelope_grid",
    "verify_graywyner_dual",
    "verify_scalar_achievability",
    "verify_waterfill_grid",
]

_LN2 = math.log(2.0)
_LOG_2PIE = math.log(2.0 * math.pi * math.e)
_FOUR_PI2E2 = (2.0 * math.pi * math.e) ** 2

_ENVELOPE_POINTS = 500        # q nodes along the cap


class CheckReport(NamedTuple):
    """One verifier outcome: oracle value vs closed form at a tolerance."""

    name: str
    oracle_value: float
    closed_form_value: float
    tolerance: float
    passed: bool
    details: dict

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "oracle_value": self.oracle_value,
            "closed_form_value": self.closed_form_value,
            "difference": self.oracle_value - self.closed_form_value,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# scalar achievability: a 2x2 stationarity certificate
# ---------------------------------------------------------------------------

def _atanh(r: float) -> float:
    """C(r) = atanh(r) = 1/2 (log1p(r) - log1p(-r)) for 0 <= r < 1."""
    return 0.5 * (math.log1p(r) - math.log1p(-r))


def _mutual_information(r: float) -> float:
    """I(r) = -1/2 log(1 - r^2) for 0 <= r < 1: log1p(-r^2) keeps the digits
    of small r, the product (1 - r)(1 + r) those near 1."""
    return (-0.5 * math.log1p(-r * r) if r < 0.5
            else -0.5 * math.log((1.0 - r) * (1.0 + r)))


def _inverse(s11: float, s12: float, s22: float) -> tuple[float, float, float]:
    """(inv11, inv12, inv22) of S^-1, S = [[s11, s12], [s12, s22]]."""
    det = s11 * s22 - s12 * s12
    return s22 / det, -s12 / det, s11 / det


def _stationarity(s11: float, s22: float, inverse, weight: float,
                  shared: float) -> tuple[float, float]:
    """Least eigenvalue of M = S^-1 - weight diag(1/s11, 1/s22) and largest
    entry of M (K - S), K - S = shared 11^T, each over S^-1's largest."""
    inv11, inv12, inv22 = inverse
    m11, m12, m22 = inv11 - weight / s11, inv12, inv22 - weight / s22
    scale = max(abs(inv11), abs(inv12), abs(inv22))
    least = ((m11 + m22) / 2.0 - math.hypot((m11 - m22) / 2.0, m12)) / scale
    # K - S = s 11^T, so M (K - S) is s times M's row sums, in each column
    slackness = shared * max(abs(m11 + m12), abs(m12 + m22)) / scale
    return least, slackness


def _scalar_dual(rho: float, gamma: float, mu: float) -> float:
    """D(mu) = h(X, Y) - mu gamma + mu E(rho, 1/mu), with h(X, Y) =
    log(2 pi e) - I(rho); at mu = inf, the maximizer at gamma = 0, C(rho)."""
    if math.isinf(mu):
        return _atanh(rho)
    return (_LOG_2PIE - _mutual_information(rho) - mu * gamma
            + mu * envelope_closed_form(rho, 1.0 / mu))


def verify_scalar_achievability(rho: float, gamma: float) -> CheckReport:
    """Certify ``wyner_ci_scalar`` for one pair from above by the library's
    construction (:func:`scalar.achievability_params`), and from below by
    the dual at the same multiplier, in 2x2 arithmetic on plain floats.

    With unit variances, K = [[1, rho], [rho, 1]] is S + s 11^T, where
    S = Cov((X, Y) | W) = c [[1, a], [a, 1]], a being the construction's
    noise correlation and c = (1 - rho)/(1 - a), and s its ``sigma2_w``,
    the weight of the shared part. From S the oracle computes the leakage
    I(X; Y | W) = -1/2 log(1 - a^2), with a = S12/sqrt(S11 S22), and the
    rate I(X, Y; W) = 1/2 log(det K/det S) = 1/2 log1p(s 1^T S^-1 1), by
    the matrix determinant lemma. Both are in log1p form: as ratios of
    determinants they would cancel at small rho. The leakage must be
    min(gamma, I(rho)) and the rate ``wyner_ci_scalar`` at gamma as given,
    each to rounding: a budget accepted up to 1e-12 above the cap
    saturates the construction (a = rho), and the value there is 0, where
    at the cap itself the closed form keeps a residue of rounding.
    With lam = 1/a, the stationarity certificate
    M = (1 + lam) S^-1 - lam diag(1/S11, 1/S22) must satisfy M >= 0 and
    M (K - S) = 0 to rounding. Both are checked on M/(1 + lam), which stays
    finite at gamma = 0, where a = 0 and lam is infinite.

    The problem over S is not convex, so stationarity is necessary, not
    sufficient. The dual D(mu) = h(X, Y) - mu gamma + mu E(rho, 1/mu), E
    being :func:`envelope_closed_form`, bounds the value from below for
    every mu >= 1/rho (a <= rho, as the leakage check holds to rounding)
    and is greatest at lam = mu* = 1/sqrt(1 - e^(-2 gamma)), clipped at
    1/rho. D(lam), and the library's ``dual_objective`` at lam, both at
    the budget min(gamma, I(rho)), must meet the value to rounding.
    """
    rho = scalar._as_float(rho, "correlation")
    if not 0.0 < rho < 1.0:
        raise ParameterError(
            f"achievability check requires 0 < rho < 1, got {rho!r}")
    # rejects a budget beyond saturation, where the construction is undefined
    construction = scalar.achievability_params(rho, gamma)
    gamma = scalar.validate_budget(gamma)
    # up to 1e-12 above the cap the construction saturates (a = rho) and the
    # closed form is 0; the leakage and both duals take the capped budget
    budget = min(gamma, _mutual_information(rho))
    alpha, shared = construction.alpha_noise, construction.sigma2_w
    c = (1.0 - rho) / (1.0 - alpha)
    s11, s12, s22 = c, c * alpha, c
    inverse = _inverse(s11, s12, s22)
    inv11, inv12, inv22 = inverse
    leakage = _mutual_information(s12 / math.sqrt(s11 * s22))
    rate = 0.5 * math.log1p(shared * (inv11 + 2.0 * inv12 + inv22))
    closed = scalar.wyner_ci_scalar(rho, gamma)

    lam = 1.0 / alpha if alpha else math.inf
    weight = 1.0 / (1.0 + 1.0 / lam)   # lam/(1 + lam), 1 at lam = inf
    least, slackness = _stationarity(s11, s22, inverse, weight, shared)
    dual_gap = _scalar_dual(rho, budget, lam) - closed
    library_gap = scalar.dual_objective(rho, budget, lam) - closed

    # One unit of rounding for each side. The construction's a is off by
    # about an ulp, which moves I(a) by eps a^2/(1 - a^2) <= 2 eps gamma /
    # (1 - a^2) and atanh(a) by eps a/(1 - a^2) <= eps C(rho)/(1 - a^2); each
    # log adds an ulp of its own size; S^-1 is off by eps/(1 - a^2) of
    # itself, and M's entries are at most S^-1's. Over 420,049 seeded
    # (rho, gamma) (rho from 1e-15 to 1 - 1e-15, gamma 0, at the cap, or up
    # to 12 decades below it) the gaps reached 2.94 units and the residuals
    # 2.00; 6 units keep a margin of 2.
    unit = 6.0 * sys.float_info.epsilon
    amplification = 1.0 / ((1.0 - alpha) * (1.0 + alpha))
    leak_rounding = unit * budget * amplification
    rate_rounding = unit * _atanh(rho) * amplification
    # D cancels log(2 pi e), and its other terms are at most about 2 C(rho).
    # Over 1,400,000 seeded (rho, gamma) as above, D's gap reached 4.19 of
    # 6 eps max(log(2 pi e), C(rho)), the library's 1.87 of 4 eps
    # max(1, C(rho))
    dual_rounding = unit * max(_LOG_2PIE, _atanh(rho))
    library_rounding = 4.0 * sys.float_info.epsilon * max(1.0, _atanh(rho))
    budget_gap = leakage - budget
    rate_gap = rate - closed
    passed = (abs(budget_gap) <= leak_rounding
              and abs(rate_gap) <= rate_rounding
              and least >= -unit and slackness <= unit
              and abs(dual_gap) <= dual_rounding
              and abs(library_gap) <= library_rounding)
    return CheckReport(
        name=f"scalar_achievability(rho={rho}, gamma={gamma})",
        oracle_value=rate,
        closed_form_value=closed,
        tolerance=rate_rounding,
        passed=passed,
        details={
            "multiplier": lam,
            "alpha_construction": alpha,
            "construction_budget_gap": budget_gap,
            "construction_rate_gap": rate_gap,
            "least_eigenvalue": least,
            "slackness_residual": slackness,
            "dual_gap": dual_gap,
            "library_dual_gap": library_gap,
        },
    )


# ---------------------------------------------------------------------------
# water-filling split: Lagrangian dual
# ---------------------------------------------------------------------------

def _split_price(ci: float, g: float) -> float:
    """C(rho, g) = max(C(rho) - level(g), 0) at C(rho) = ``ci``: the price
    of a budget g on one component. The level is written as
    g + log1p(sqrt(1 - e^(-2g))); as atanh(sqrt(1 - e^(-2g))) it would lose
    digits like e^(2g)."""
    return max(ci - (g + math.log1p(math.sqrt(-math.expm1(-2.0 * g)))), 0.0)


def verify_waterfill_grid(spectrum, gamma: float) -> CheckReport:
    """Certify ``waterfill``'s split by Lagrangian duality.

    On [0, I(rho)], C(rho, g) = C(rho) - level(g) is convex and decreasing
    in g, with slope -1/sqrt(1 - e^(-2g)). So for every multiplier lam >= 0

        L(lam) = sum_i min over g_i in [0, I(rho_i)] of
                 [C(rho_i, g_i) + lam g_i] - lam gamma

    bounds the value of every feasible split from below (Boyd and
    Vandenberghe, ch. 5), and each inner minimum lies at the clipped
    stationary point g_i = min(-1/2 log1p(-1/lam^2), I(rho_i)). At
    lam = 1/tanh(beta), beta being ``waterfill``'s level, L meets the
    optimum; lam is 0 once the budget covers every cap, and infinite at
    gamma = 0, where every g_i is 0. ``waterfill``'s own budgets, each
    capped at I(rho_i) and priced again here, bound it from above: they are
    a feasible split when they add up, with a slack >= 0, to gamma.

    The check passes when the closed form lies within the rounding unit
    r = 8 k eps max(1, C(rho_1), gamma, lam gamma) of both bounds and the
    budgets add up to gamma within r: a global, two-sided check to
    rounding. The prices, caps and level are the oracle's own floats, the
    cap I(rho) = -1/2 log(1 - rho^2) in a form accurate at both ends. Only
    an empty spectrum and one with some rho_i = 1 are refused: a near-tie
    up to 1e-12 out of order may put a unit rho after the first.
    """
    from . import allocation

    rhos = allocation.as_rhos(spectrum)
    gamma = scalar.validate_budget(gamma)
    if not rhos or 1.0 in rhos:   # as_rhos reads every unit rho as 1.0
        raise ParameterError("grid oracle requires components with rho < 1")
    alloc = allocation.waterfill(rhos, gamma)
    cis, caps = list(map(_atanh, rhos)), list(map(_mutual_information, rhos))
    beta = alloc.water_level_beta
    if gamma >= math.fsum(caps):
        lam, gs = 0.0, caps
    else:
        lam = 1.0 / math.tanh(beta) if beta > 0.0 else math.inf
        g = -0.5 * math.log1p(-1.0 / (lam * lam))
        gs = [min(g, cap) for cap in caps]
    # lam g is skipped where g is 0, so that lam = inf gives no inf * 0
    lam_gamma = lam * gamma if gamma else 0.0
    dual = math.fsum([*map(_split_price, cis, gs),
                      *[lam * g for g in gs if g], -lam_gamma])
    # A saturated budget may exceed the oracle's cap by rounding: capped, the
    # split stays feasible, and C(rho, .) is 0 past the cap anyway
    repriced = math.fsum(map(_split_price, cis, map(min, alloc.gammas, caps)))
    budget_gap = math.fsum((*alloc.gammas, alloc.slack)) - gamma
    # One rounding of each term's own size per component: a price is at most
    # C(rho_1), a budget at most gamma, a product at most lam gamma, and a
    # saturated price of small rho is off by about an ulp of 1
    rounding = (8.0 * len(rhos) * sys.float_info.epsilon
                * max(1.0, cis[0], gamma, lam_gamma))
    closed = alloc.total_value
    passed = (abs(closed - dual) <= rounding
              and abs(repriced - closed) <= rounding
              and abs(budget_gap) <= rounding and alloc.slack >= 0.0)
    return CheckReport(
        name=f"waterfill_grid(spectrum={list(rhos)}, gamma={gamma})",
        oracle_value=dual,
        closed_form_value=closed,
        tolerance=rounding,
        passed=passed,
        details={
            "multiplier": lam,
            "dual_gap": repriced - dual,
            "waterfill_gammas": list(alloc.gammas),
            "water_level_beta": beta,
            "repriced_gap": repriced - closed,
            "budget_gap": budget_gap,
        },
    )


# ---------------------------------------------------------------------------
# constrained-covariance envelope grid
# ---------------------------------------------------------------------------

def _envelope_objective(lam: float, sig2, q) -> list[float]:
    """The two-variable envelope objective at each pair of ``sig2`` and
    ``q``, written out literally."""
    return [0.5 * math.log(_FOUR_PI2E2 * (s * s))
            - 0.5 * (1.0 + lam) * math.log(
                _FOUR_PI2E2 * (s * s) * ((1.0 - x) * (1.0 + x)))
            for s, x in zip(sig2, q)]


def envelope_closed_form(rho: float, lam: float) -> float:
    """Closed-form minimum of the envelope objective over the feasible set,
    I(lam) - lam (log(2 pi e) + log(1 - rho) + atanh(lam))."""
    return _mutual_information(lam) - lam * (
        _LOG_2PIE + math.log1p(-rho) + _atanh(lam))


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num >= 2`` evenly spaced floats from ``start`` to ``stop``, node for
    node those of ``numpy.linspace``: start + i step, and stop last."""
    step = (stop - start) / (num - 1)
    return [*(start + i * step for i in range(num - 1)), stop]


def verify_envelope_grid(rho: float, lam: float) -> CheckReport:
    """Brute-force the constrained-covariance envelope bound along its cap.

    The feasible set caps sig2 at min{1, (1-rho)/(1-q)} for q <= rho and at
    min{1, (1+rho)/(1+q)} above, with a kink at q = rho. The objective is
    -lam log sig2 plus a function of q, so at each q it falls as sig2 grows,
    and its minimum lies on the cap: the grid is the cap at 500 q nodes,
    one of them on the kink. Every grid point is feasible, so checks that
    the grid minimum undercuts the closed form by rounding at most and
    exceeds it by at most 1e-3, and that the minimizer lands within two
    q cells of the analytic optimum (sig2, q) = ((1-rho)/(1-lam), lam);
    ``cells_off`` reports that offset. Any 0 < lam <= rho < 1 is accepted.
    """
    rho = scalar._as_float(rho, "correlation")
    lam = scalar._as_float(lam, "envelope multiplier")
    if not 0.0 < lam <= rho < 1.0:
        raise ParameterError("envelope grid requires 0 < lam <= rho < 1, "
                             f"got lam={lam!r}, rho={rho!r}")
    edge = 1.0 / _ENVELOPE_POINTS
    n_left = min(max(2, int(round((rho + 1.0) / 2.0 * _ENVELOPE_POINTS))),
                 _ENVELOPE_POINTS - 1)
    n_right = _ENVELOPE_POINTS - n_left + 1  # the kink node is shared
    # The right half ends strictly between rho and 1: at 1 - edge where
    # that lies above rho, else halfway to 1. Only rho = 1 - 2**-53 has no
    # float between it and 1; there it ends on the kink.
    right_end = (1.0 - edge if rho < 1.0 - edge
                 else min((1.0 + rho) / 2.0, math.nextafter(1.0, 0.0)))
    q = (_linspace(-1.0 + edge, rho, n_left)          # ends on the kink
         + _linspace(rho, right_end, n_right)[1:])   # starts on it
    cap = [min((1.0 - rho) / (1.0 - x) if x <= rho
               else (1.0 + rho) / (1.0 + x), 1.0) for x in q]
    objective = _envelope_objective(lam, cap, q)
    col = min(range(len(q)), key=objective.__getitem__)
    grid_min, sig2_hat, q_hat = objective[col], cap[col], q[col]

    closed = envelope_closed_form(rho, lam)
    sig2_star, q_star = (1.0 - rho) / (1.0 - lam), lam
    q_cell = (rho + 1.0 - edge) / (n_left - 1)
    kkt_gap = _envelope_objective(lam, (sig2_star,), (q_star,))[0] - closed
    # Every grid point is feasible, so the grid may undercut the closed form
    # only by rounding. Both are a difference of two log terms, each off by
    # an ulp or so of its size and a few ulps of 1 from its rounded
    # argument; the closed form's terms are bounded by the objective's two,
    # T1 and T2, at the optimum, and these by their sizes at the minimizer.
    sig4_hat = sig2_hat * sig2_hat
    rounding = 8.0 * sys.float_info.epsilon * (
        1.0 + abs(0.5 * math.log(_FOUR_PI2E2 * sig4_hat))
        + abs(0.5 * (1.0 + lam) * math.log(
            _FOUR_PI2E2 * sig4_hat * ((1.0 - q_hat) * (1.0 + q_hat)))))

    passed = (-rounding <= grid_min - closed <= 1e-3
              and abs(q_hat - q_star) <= 2.0 * q_cell + 1e-12
              and abs(kkt_gap) <= 1e-12)
    return CheckReport(
        name=f"envelope_grid(rho={rho}, lam={lam})",
        oracle_value=grid_min,
        closed_form_value=closed,
        tolerance=1e-3,
        passed=passed,
        details={
            "grid_points": _ENVELOPE_POINTS,
            "minimizer": [sig2_hat, q_hat],
            "analytic_minimizer": [sig2_star, q_star],
            "cells_off": abs(q_hat - q_star) / q_cell,
            "kkt_identity_gap": kkt_gap,
        },
    )


# ---------------------------------------------------------------------------
# Gray-Wyner dual: exact maximizer
# ---------------------------------------------------------------------------

def verify_graywyner_dual(rho: float, delta: float,
                          alpha_private: float) -> CheckReport:
    """Certify ``common_rate`` (unit variance) from below, by the oracle's
    own dual at its exact maximizer, and from above, by a Gaussian W.

    With r = |rho| and log d = alpha + log delta, the dual bound

        D(nu) = nu log nu - (nu - 1/2) log(2 nu - 1) - nu log d - I(r)
                - (1 - nu) log(1 - r)

    is strictly concave on (1/2, 1], with D'(nu) = log(nu/(2 nu - 1))
    - log(d/(1 - r)) and D'' = -1/(nu (2 nu - 1)). So its maximizer is
    nu_hat = 1 where d <= 1 - r, and d/(2d - (1 - r)) = 1/(2 - (1 - r)/d)
    otherwise, with no search. (1 - r)/d is formed as
    exp(log(1 - r) - log d), which stays finite however large alpha is;
    where it is under an ulp of 1/2, nu_hat rounds to 1/2, where D and the
    library's dual are undefined, and the smallest float above 1/2 stands
    in for it.

    W is given by S = Cov((X, Y) | W) <= K at rate 1/2 log(det K/det S),
    with alpha/2 per private link: S = K in INFEASIBLE_ZERO (if log d >= 0),
    d I in SATURATED_NU, and [[d, d - (1 - r)], [d - (1 - r), d]] in BLEND,
    where K - S = (1 - d) 11^T and the scalar's certificate must hold at
    weight ``nu_star`` = 1/(1 + S12/S11) within 8 eps. With u = 8 eps
    max(1, |r0|, |log d|, I(r), -log(1 - r)), where an infinite |log d|
    (alpha = inf, where D is -inf) counts as 0, S must be feasible, the
    library's ``dual_objective`` at nu_hat must be D(nu_hat) (equal duals
    are no gap, -inf ones too), and r0 must be 0 and D(nu_hat) at most u
    in INFEASIBLE_ZERO, and D(nu_hat) and S's rate r0 elsewhere, within u.
    """
    point = graywyner.common_rate(1.0, rho, delta, alpha_private)
    r = abs(point.rho)
    if r >= 1.0:
        raise ParameterError("dual bound requires |rho| < 1")
    log_d = math.log(point.delta) + point.alpha_private
    log_c, info = math.log1p(-r), _mutual_information(r)  # log(1 - r), I(r)
    nu = (1.0 if log_c >= log_d
          else max(1.0 / (2.0 - math.exp(log_c - log_d)),
                   math.nextafter(0.5, 1.0)))
    dual = (nu * math.log(nu) - (nu - 0.5) * math.log(2.0 * nu - 1.0)
            - nu * log_d - info - (1.0 - nu) * log_c)
    library = graywyner.dual_objective(rho, delta, alpha_private, nu)
    library_gap = 0.0 if library == dual else library - dual
    # One rounding of each term's own size. Over 66,804 seeded instances
    # (1 - r log-uniform down to 1e-12, delta down to 5e-324, alpha up to
    # 800, d on both regime edges) every gap, and D(nu_hat) in
    # INFEASIBLE_ZERO, was at most 1.0 unit of eps times the same maximum.
    # At alpha = inf, |log d| would make the unit inf, which accepts any
    # library dual, so it is left out there
    unit = 8.0 * sys.float_info.epsilon
    rounding = unit * max(1.0, abs(point.r0), info, -log_c,
                          0.0 if math.isinf(log_d) else abs(log_d))
    rate, least, slackness = 0.0, None, None   # certified in BLEND only
    if point.regime is graywyner.Regime.INFEASIBLE_ZERO:
        passed = point.r0 == 0.0 and log_d >= 0.0 and dual <= rounding
    else:
        rate, passed = -info - log_d, log_d <= log_c   # SATURATED_NU
        if point.regime is graywyner.Regime.BLEND:
            d = math.exp(log_d)
            s11, s12 = d, d - (1.0 - r)   # S11 - S12 is 1 - r exactly
            rate = 0.5 * (math.log1p(r) + log_c - math.log(s11 - s12)
                          - math.log(s11 + s12))
            least, slackness = _stationarity(
                s11, s11, _inverse(s11, s12, s11), point.nu_star, 1.0 - d)
            passed = (log_d <= 0.0 and s11 + s12 >= 0.0
                      and least >= -unit and slackness <= unit)
        passed &= (abs(dual - point.r0) <= rounding
                   and abs(rate - point.r0) <= rounding)
    return CheckReport(
        name=(f"graywyner_dual(rho={rho}, delta={delta}, "
              f"alpha={alpha_private})"),
        oracle_value=dual,
        closed_form_value=point.r0,
        tolerance=rounding,
        passed=passed and abs(library_gap) <= rounding,
        details={"nu_hat": nu, "nu_star": point.nu_star,
                 "regime": point.regime.value,
                 "library_dual_gap": library_gap,
                 "construction_rate_gap": rate - point.r0,
                 "least_eigenvalue": least, "slackness_residual": slackness},
    )


# ---------------------------------------------------------------------------
# exact finite-alphabet constructions
# ---------------------------------------------------------------------------

def _table_cells(pmf):
    """Shape and row-major cells of a table given as nested lists or tuples,
    or as anything with a ``tolist()`` that gives them (a numpy array)."""
    level = [pmf.tolist() if hasattr(pmf, "tolist") else pmf]
    shape = []
    while level and isinstance(level[0], (list, tuple)):
        size = len(level[0])
        if any(not isinstance(row, (list, tuple)) or len(row) != size
               for row in level):
            raise ParameterError("pmf must be a rectangular table")
        shape.append(size)
        level = [cell for row in level for cell in row]
    return shape, [scalar._as_float(cell, "pmf entry") for cell in level]


def _axis_group(axes, ndim: int) -> tuple:
    try:
        group = tuple(map(operator.index, axes))
    except TypeError:
        raise ParameterError(
            f"axis groups must be sequences of ints, got {axes!r}") from None
    if any(not 0 <= ax < ndim for ax in group):
        raise ParameterError(f"axes must be in range for a {ndim}-d table")
    return group


def discrete_mutual_information(pmf, axes_a, axes_b, given=()) -> float:
    """Exact I(A;B|C) in nats from a joint probability table.

    ``pmf`` is a nested list or tuple table, or a numpy array. ``axes_a``,
    ``axes_b``, and ``given`` are disjoint tuples of axes of ``pmf``.
    Entropy sums use the convention 0 log 0 = 0 and are exactly rounded
    (:func:`math.fsum`); the table must be nonnegative with total mass 1 to
    within 1e-12.
    """
    shape, cells = _table_cells(pmf)
    axes_a, axes_b, given = (_axis_group(axes, len(shape))
                             for axes in (axes_a, axes_b, given))
    groups = axes_a + axes_b + given
    if len(set(groups)) != len(groups):
        raise ParameterError("axis groups must be disjoint")
    if not all(cell >= -1e-15 for cell in cells):
        raise ParameterError("pmf entries must be nonnegative")
    total = math.fsum(cells)
    if not abs(total - 1.0) <= 1e-12:
        raise ParameterError(f"pmf mass {total!r} is not 1")
    indices = list(itertools.product(*map(range, shape)))

    def entropy(axes):
        masses = (total,)
        if axes:
            key, marginal = operator.itemgetter(*axes), {}
            for index, cell in zip(indices, cells):
                marginal.setdefault(key(index), []).append(cell)
            masses = map(math.fsum, marginal.values())
        return -math.fsum(p * math.log(p) for p in masses if p > 0.0)

    return (entropy(axes_a + given) + entropy(axes_b + given)
            - entropy(axes_a + axes_b + given) - entropy(given))


def _binary_entropy_bits(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def dsbs_construction_check(a0: float) -> CheckReport:
    """Binary symmetric double source: verify the explicit common-bit
    construction on its exact 8-atom table.

    W is a uniform bit and each source flips it independently with
    probability p = (1 - sqrt(1 - 2 a0))/2. The check confirms the pair is
    conditionally independent given W, reproduces the known common
    information 1 + h(a0) - 2 h(p) in bits, and leaves the right marginal
    (sources disagreeing with probability a0).
    """
    a0 = scalar._as_float(a0, "disagreement probability")
    if not 0.0 < a0 <= 0.5:
        raise ParameterError(f"disagreement probability {a0!r} must lie in "
                             "(0, 1/2]")
    p = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * a0))
    flip = (1.0 - p, p)
    pmf = [[[0.5 * flip[x ^ w] * flip[y ^ w] for y in range(2)]
            for x in range(2)] for w in range(2)]
    conditional = discrete_mutual_information(pmf, (1,), (2,), given=(0,))
    rate_bits = discrete_mutual_information(pmf, (1, 2), (0,)) / _LN2
    formula_bits = (1.0 + _binary_entropy_bits(a0)
                    - 2.0 * _binary_entropy_bits(p))
    expected = ((1.0 - a0) / 2.0, a0 / 2.0)  # by agreement, x == y or not
    marginal_gap = max(abs(pmf[0][x][y] + pmf[1][x][y] - expected[x != y])
                       for x in range(2) for y in range(2))
    passed = (abs(conditional) <= 1e-12
              and abs(rate_bits - formula_bits) <= 1e-12
              and marginal_gap <= 1e-12)
    return CheckReport(
        name=f"dsbs_construction(a0={a0})",
        oracle_value=rate_bits,
        closed_form_value=formula_bits,
        tolerance=1e-12,
        passed=passed,
        details={
            "crossover": p,
            "conditional_mi_nats": conditional,
            "marginal_gap": marginal_gap,
            "units": "bits",
        },
    )


def erasure_construction_check(gamma: float) -> CheckReport:
    """Duplicate binary source: verify the erasure auxiliary on its exact
    table.

    For Z uniform on {0,1} and the pair (Z, Z), revealing Z except with
    erasure probability gamma/ln2 leaves exactly gamma nats of conditional
    mutual information and costs ln2 - gamma nats of rate, meeting the
    generic lower bound max{I - gamma, 0} with equality.
    """
    gamma = scalar.validate_budget(gamma)
    if gamma > _LN2 + 1e-12:
        raise ParameterError(
            f"budget {gamma!r} exceeds the source entropy ln 2")
    t = min(gamma / _LN2, 1.0)
    pmf = [[[0.0, 0.0], [0.0, 0.0]] for _ in range(3)]  # w in {0, 1, erasure}
    for z in range(2):
        pmf[z][z][z] = 0.5 * (1.0 - t)
        pmf[2][z][z] = 0.5 * t
    conditional = discrete_mutual_information(pmf, (1,), (2,), given=(0,))
    rate = discrete_mutual_information(pmf, (1, 2), (0,))
    expected_rate = _LN2 - gamma
    passed = (abs(conditional - gamma) <= 1e-12
              and abs(rate - expected_rate) <= 1e-12)
    return CheckReport(
        name=f"erasure_construction(gamma={gamma})",
        oracle_value=rate,
        closed_form_value=expected_rate,
        tolerance=1e-12,
        passed=passed,
        details={
            "erasure_probability": t,
            "conditional_mi_gap": conditional - gamma,
        },
    )


# ---------------------------------------------------------------------------
# published suite table
# ---------------------------------------------------------------------------

# Each suite is a sequence of (verifier, argument tuples) rows, run in order;
# the keys follow SUITES, whose last entry, "all", runs them all
_SUITE_CHECKS = {
    "scalar": (
        (verify_scalar_achievability,
         ((0.5, 0.1), (0.8, 0.05), (0.3, 0.02), (0.9, 0.4))),
    ),
    "waterfill": (
        (verify_waterfill_grid,
         (((0.9, 0.5), 0.2), ((0.8, 0.8), 0.2), ((0.9, 0.5, 0.2), 0.5))),
    ),
    "envelope": (
        (verify_envelope_grid, ((0.5, 0.3), (0.7, 0.7), (0.9, 0.2))),
    ),
    "graywyner": (
        (verify_graywyner_dual,
         ((0.5, 0.75, 0.0), (0.5, 0.3, 0.0), (0.5, 0.1, 0.5),
          (0.7, 1.5, 0.0), (0.9, 0.3, 0.0))),
    ),
    "discrete": (
        (dsbs_construction_check, ((0.1,), (0.25,), (0.4,), (0.5,))),
        (erasure_construction_check, ((0.0,), (0.1,), (0.3,), (_LN2,))),
    ),
}


def _run_check(verifier, args) -> CheckReport:
    """``verifier(*args)``; an error fails the check, with NaN values and a
    report that names the verifier, its arguments and the error."""
    try:
        return verifier(*args)
    except Exception as exc:
        return CheckReport(
            name=f"{verifier.__name__}{args!r}",
            oracle_value=math.nan,
            closed_form_value=math.nan,
            tolerance=math.nan,
            passed=False,
            details={"error": f"{type(exc).__name__}: {exc}"},
        )


def run_suite(name: str) -> list[CheckReport]:
    """Run the named battery of verifiers on its fixed instance table. The
    instances are valid, so an exception inside one, a ``GausswynerError``
    or a raw one such as the ``ValueError`` of a log of a negative number,
    is the code under test failing: that check fails, and the others still
    run."""
    if name not in SUITES:
        raise ParameterError(f"unknown suite {name!r}; choose from {SUITES}")
    suites = SUITES[:-1] if name == "all" else (name,)
    return [_run_check(verifier, args)
            for suite in suites
            for verifier, instances in _SUITE_CHECKS[suite]
            for args in instances]
