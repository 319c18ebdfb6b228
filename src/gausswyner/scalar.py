"""Closed forms for a single bivariate Gaussian pair.

Everything here is a pure function of floats, with rates in nats. The
headline quantity is :func:`wyner_ci_scalar`: the smallest rate of a shared
auxiliary that leaves at most ``gamma`` nats of conditional mutual
information between the pair. Its building blocks are the classic pair
:func:`common_information` / :func:`mutual_information` and the conjugate
transfer curves :func:`level_from_budget` (concave) and
:func:`budget_from_level` (convex), which also drive the reverse
water-filling in :mod:`.allocation`. A Lagrangian dual certificate for the
scalar value lives in :func:`dual_objective` / :func:`dual_maximizer`.

Degenerate correlations (``|rho| = 1``) yield an explicit ``math.inf``
sentinel instead of an error, because the vector water-filling remains
meaningful when one canonical component is degenerate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ParameterError

__all__ = [
    "RHO_CLAMP_BAND",
    "AchievabilityParams",
    "achievability_params",
    "budget_from_level",
    "common_information",
    "dual_maximizer",
    "dual_objective",
    "level_from_budget",
    "mutual_information",
    "validate_budget",
    "validate_correlation",
    "wyner_ci_scalar",
]

# |rho| may overshoot 1 by up to this much (round-off from an upstream SVD)
# and is clamped; anything worse is rejected.
RHO_CLAMP_BAND = 1e-9


def _as_float(value, name: str) -> float:
    """``float(value)``, with an int too large for a float, or a value that
    is not a number, rejected as a :class:`ParameterError`. The message
    names the argument but not the value: an int of more than 4300 digits
    cannot be formatted."""
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(
            f"{name} is too large in magnitude for a float") from None
    except (TypeError, ValueError):
        raise ParameterError(f"{name} is not a number") from None


def validate_correlation(rho: float) -> float:
    """Return ``rho`` clamped into [-1, 1], rejecting values beyond the
    clamp band or NaN."""
    rho = _as_float(rho, "correlation")
    if math.isnan(rho):
        raise ParameterError("correlation must not be NaN")
    if abs(rho) > 1.0 + RHO_CLAMP_BAND:
        raise ParameterError(f"correlation {rho!r} lies outside [-1, 1]")
    return min(max(rho, -1.0), 1.0)


def validate_budget(gamma: float) -> float:
    """Check that a conditional-information budget is nonnegative; -0.0
    reads as +0.0."""
    gamma = _as_float(gamma, "budget")
    if math.isnan(gamma) or gamma < 0.0:
        raise ParameterError(f"budget {gamma!r} must be >= 0 nats")
    # 0.0 + x: -0.0 passes the check above and would reach the output
    return 0.0 + gamma


# The sequence kernels below hold the closed forms, one list comprehension
# each, for whole spectra of unchecked arguments: the caller has validated
# every r = |rho| in [0, 1] and every budget. The public functions index
# them at one value, so each formula is written once.

def _log1ps(rs) -> tuple[list[float], list[float]]:
    """log1p(r) and log1p(-r) at each r in ``rs``, as two lists: the pair
    from which :func:`_common_informations` and :func:`_mutual_informations`
    both price a spectrum. log1p(-r) reads -inf at r = 1, where log1p
    raises, so that both give ``inf`` there with no branch of their own."""
    return (list(map(math.log1p, rs)),
            [math.log1p(-r) if r < 1.0 else -math.inf for r in rs])


def _common_informations(logs) -> list[float]:
    """:func:`common_information` at each r of the :func:`_log1ps` pair
    ``logs``."""
    # 0.0 + x: at r = -0.0 the result is +0.0 as at r = 0.0 (as_rhos and
    # the public wrappers already pass +0.0; this guards any other caller)
    return [0.0 + 0.5 * (up - down) for up, down in zip(*logs)]


def _mutual_informations(logs) -> list[float]:
    """:func:`mutual_information` at each r of the :func:`_log1ps` pair
    ``logs``."""
    # 0.0 - x rather than -x: at rho = 0 (and wherever the logs cancel) the
    # result is +0.0, not -0.0
    return [0.0 - 0.5 * (up + down) for up, down in zip(*logs)]


def _levels(xs) -> list[float]:
    """:func:`level_from_budget` at each checked budget x >= 0 in ``xs``."""
    # With s = sqrt(1 - e^{-2x}), the level is (1/2)ln((1+s)/(1-s)). Rewrite
    # via 1 - s = e^{-2x}/(1+s) so both tiny and huge x keep full relative
    # accuracy (expm1 avoids the 1 - e^{-2x} cancellation near 0). 0.0 - y
    # rather than -y: at x = -0.0 the level is +0.0, as at x = 0.0. At
    # x = inf, expm1 gives -1 exactly, so the level is inf with no branch.
    return [math.log1p(math.sqrt(0.0 - math.expm1(-2.0 * x))) + x for x in xs]


def _wyner_cis(commons, gammas) -> list[float]:
    """:func:`wyner_ci_scalar` at each pair of C(r) in ``commons`` and
    checked budget in ``gammas``: C(r) - level(gamma), clamped at zero."""
    # c > l rather than max(c - l, 0.0): the two agree wherever c - l is a
    # number, and at c = l = inf (r = 1 with an infinite budget), where it
    # is NaN, the comparison gives the value 0.0
    return [c - l if c > l else 0.0
            for c, l in zip(commons, _levels(gammas))]


def common_information(rho: float) -> float:
    """Wyner common information of a Gaussian pair with correlation ``rho``.

    Even in |rho| and strictly increasing; returns ``inf`` at |rho| = 1.
    """
    return _common_informations(_log1ps((abs(validate_correlation(rho)),)))[0]


def mutual_information(rho: float) -> float:
    """Mutual information of the same pair; ``inf`` at |rho| = 1."""
    return _mutual_informations(_log1ps((abs(validate_correlation(rho)),)))[0]


def level_from_budget(x: float) -> float:
    """Water level bought by spending ``x`` nats of budget on one component.

    Strictly concave and increasing with value 0 at 0; the inverse of
    :func:`budget_from_level`.
    """
    return _levels((validate_budget(x),))[0]


def budget_from_level(beta: float) -> float:
    """Budget needed to lift one component's water level to ``beta``.

    Strictly convex and increasing with value 0 at 0; equals
    log(cosh(beta)), the inverse of :func:`level_from_budget`.
    """
    beta = _as_float(beta, "water level")
    if math.isnan(beta) or beta < 0.0:
        raise ParameterError(f"water level {beta!r} must be >= 0 nats")
    if math.isinf(beta):
        return math.inf
    if beta < 20.0:
        # cosh(b) - 1 = 2 sinh^2(b/2): relative accuracy for small levels.
        half = math.sinh(0.5 * beta)
        return math.log1p(2.0 * half * half)
    # log(cosh(b)) = b - log 2 + log(1 + e^{-2b}): no overflow for large b.
    return beta - math.log(2.0) + math.log1p(math.exp(-2.0 * beta))


def wyner_ci_scalar(rho: float, gamma: float) -> float:
    """Relaxed Wyner common information of a scalar Gaussian pair (nats).

    Computed as (common_information(rho) - level_from_budget(gamma)) clamped
    at zero; the difference form avoids the catastrophic cancellation the
    product-form argument suffers near saturation. Zero, to rounding, for
    gamma >= mutual_information(rho): at gamma equal to the computed cap
    the two rounded terms can leave a residue, e.g. 1.29e-17 at
    rho = 3.88e-7. ``inf`` when |rho| = 1 and gamma is finite.
    """
    return _wyner_cis((common_information(rho),),
                      (validate_budget(gamma),))[0]


class AchievabilityParams(NamedTuple):
    """Optimal Gaussian auxiliary attaining :func:`wyner_ci_scalar`.

    alpha_noise
        Correlation left between the sources once the shared component is
        removed; in [0, rho].
    sigma2_w
        Weight of the shared unit-variance component in each source.
    rate_nats
        Rate of the auxiliary, I(X,Y;W).
    leakage_nats
        Conditional mutual information left: the requested budget, or
        I(rho) for a budget within the 1e-12 tolerance above it.
    """

    alpha_noise: float
    sigma2_w: float
    rate_nats: float
    leakage_nats: float


def achievability_params(rho: float, gamma: float) -> AchievabilityParams:
    """Construct the optimal auxiliary for ``0 <= rho < 1`` and a budget not
    beyond saturation.

    Rejects ``gamma > mutual_information(rho) + 1e-12``: the construction
    is undefined once the component is already saturated. Negative correlation
    should be folded to |rho| by the caller (a sign flip of one source).
    """
    # 0.0 + x: at rho = -0.0 every field reads +0.0, as at rho = 0.0
    rho = 0.0 + validate_correlation(rho)
    gamma = validate_budget(gamma)
    if not 0.0 <= rho < 1.0:
        raise ParameterError(
            f"construction requires 0 <= rho < 1, got {rho!r}")
    cap = _mutual_informations(_log1ps((rho,)))[0]
    if gamma > cap + 1e-12:
        raise ParameterError(
            f"budget {gamma!r} exceeds the pair's mutual information {cap!r}")
    alpha = min(math.sqrt(-math.expm1(-2.0 * gamma)), rho)
    sigma2_w = (rho - alpha) / (1.0 - alpha)
    # I(X,Y;W) = (1/2) log((1+rho)(1-alpha) / ((1-rho)(1+alpha))), taken as
    # a difference: the ratio rounds to 1 at small rho (0.0 at rho = 1e-17).
    rate = math.atanh(rho) - math.atanh(alpha)
    # above the cap, alpha = rho leaves I(rho), not gamma
    return AchievabilityParams(alpha, sigma2_w, max(rate, 0.0),
                               min(gamma, cap))


def dual_objective(rho: float, gamma: float, mu: float) -> float:
    """Lagrangian dual bound on the scalar value at multiplier ``mu > 1``:
    C(rho) - atanh(1/mu) - mu (gamma + (1/2) log(1 - 1/mu^2)), with C the
    :func:`common_information`.

    A true lower bound on :func:`wyner_ci_scalar` whenever
    ``mu >= 1/|rho|``; strictly concave in ``mu`` with second derivative
    -1/(mu (mu^2 - 1)) and maximizer :func:`dual_maximizer`,
    mu* = 1/sqrt(1 - e^{-2 gamma}). At mu* the last term is 0 and
    atanh(1/mu*) is the water level :func:`level_from_budget` of ``gamma``,
    so where mu* >= 1/|rho| the bound meets the closed form. At
    ``mu = inf`` (the maximizer for ``gamma = 0``) it returns the limit:
    ``common_information(rho)`` when ``gamma = 0``, ``-inf`` otherwise.
    """
    r = abs(validate_correlation(rho))
    gamma = validate_budget(gamma)
    if not 0.0 < r < 1.0:
        raise ParameterError(f"dual bound requires 0 < |rho| < 1, got {rho!r}")
    mu = _as_float(mu, "dual variable")
    if math.isnan(mu) or mu <= 1.0:
        raise ParameterError(f"dual variable {mu!r} must be > 1")
    common = _common_informations(_log1ps((r,)))[0]
    if math.isinf(mu):
        return common if gamma == 0.0 else -math.inf
    # atanh(1/mu) = (1/2) log((mu + 1) / (mu - 1)). Below mu = 2, mu - 1 is
    # exact and log(1 - 1/mu^2) = log((mu - 1)(mu + 1)) - 2 log(mu) keeps
    # the digits that log1p of a rounded 1/mu^2 near 1 loses; above it,
    # 1/mu/mu, not 1/(mu * mu), since mu * mu overflows past about 1.3e154
    if mu < 2.0:
        slack = math.log((mu - 1.0) * (mu + 1.0)) - 2.0 * math.log(mu)
    else:
        slack = math.log1p(-1.0 / mu / mu)
    return (common - 0.5 * math.log1p(2.0 / (mu - 1.0))
            - mu * (gamma + 0.5 * slack))


def dual_maximizer(gamma: float) -> float:
    """Multiplier at which :func:`dual_objective`'s derivative vanishes.

    Returns ``inf`` for ``gamma = 0`` (the constraint binds arbitrarily
    hard); tends to 1 as the budget grows.
    """
    gamma = validate_budget(gamma)
    if gamma == 0.0:
        return math.inf
    return 1.0 / math.sqrt(-math.expm1(-2.0 * gamma))
