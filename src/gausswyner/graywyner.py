"""Minimal common rate of the symmetric Gaussian Gray-Wyner network.

One encoder serves two decoders through a shared link of rate R0 plus two
private links. For equal source variances, symmetric mean-squared-error
target ``delta``, and a cap ``alpha_private`` on the sum of private rates,
:func:`common_rate` evaluates the smallest achievable R0 in closed form.
:func:`dual_objective` is the Lagrangian lower bound whose maximum over the
multiplier ``nu`` matches the closed form; :func:`dual_maximizer` is its
stationary point inside the blended regime.

All rates are in nats (``alpha_private`` enters as e^alpha).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .errors import ParameterError
from .scalar import validate_correlation

__all__ = [
    "GrayWynerPoint",
    "Regime",
    "common_rate",
    "dual_maximizer",
    "dual_objective",
]

_LOG_2PIE = math.log(2.0 * math.pi * math.e)


class Regime(str, enum.Enum):
    """Which branch of the closed form is active."""

    BLEND = "BLEND"                    # dual maximizer interior to (1/2, 1)
    SATURATED_NU = "SATURATED_NU"      # dual maximizer pinned at nu = 1
    INFEASIBLE_ZERO = "INFEASIBLE_ZERO"  # distortion loose enough for R0 = 0


@dataclass(frozen=True)
class GrayWynerPoint:
    """Inputs and resulting minimal common rate."""

    sigma2: float
    rho: float
    delta: float
    alpha_private: float
    r0: float
    regime: Regime


def _check_positive(value: float, name: str) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value) or value <= 0.0:
        raise ParameterError(f"{name} must be a positive finite number, "
                             f"got {value!r}")
    return value


def _check_nonneg(value: float, name: str) -> float:
    value = float(value)
    if math.isnan(value) or value < 0.0:
        raise ParameterError(f"{name} must be >= 0, got {value!r}")
    return value


def common_rate(sigma2: float, rho: float, delta: float,
                alpha_private: float) -> GrayWynerPoint:
    """Minimal shared-link rate at distortion ``delta`` and private-rate cap
    ``alpha_private`` (nats).

    Negative correlation is folded to |rho|: flipping the sign of one source
    is a lossless relabeling under squared error. The source variance only
    enters through delta/sigma2, so scaling both leaves the rate unchanged.
    """
    sigma2 = _check_positive(sigma2, "sigma2")
    delta = _check_positive(delta, "delta")
    alpha_private = _check_nonneg(alpha_private, "alpha_private")
    rho = validate_correlation(rho)
    r = abs(rho)
    # Work with log d, d = delta / sigma2 * e^alpha, so that no input scale
    # under- or overflows. Forming the ratio first keeps scaling delta and
    # sigma2 together exact; separate logs serve only where the ratio leaves
    # the normal float range. e^log_d is taken once log d <= 0, so it cannot
    # overflow.
    ratio = delta / sigma2
    if ratio >= sys.float_info.min:
        log_d = math.log(ratio) + alpha_private
    else:
        log_d = math.log(delta) - math.log(sigma2) + alpha_private
    if log_d > 0.0:
        r0, regime = 0.0, Regime.INFEASIBLE_ZERO
    elif (d := math.exp(log_d)) >= 1.0 - r:
        r0 = max(0.5 * math.log((1.0 + r) / (2.0 * d + r - 1.0)), 0.0)
        regime = Regime.BLEND
    else:
        r0 = max(0.5 * math.log1p(-r * r) - log_d, 0.0)
        regime = Regime.SATURATED_NU
    return GrayWynerPoint(sigma2, rho, delta, alpha_private, r0, regime)


def dual_objective(rho: float, delta: float, alpha_private: float,
                   nu: float) -> float:
    """Lagrangian dual bound on the common rate at multiplier ``nu``.

    Assumes unit source variance (normalize ``delta`` by the variance
    first). A true lower bound on :func:`common_rate` for
    nu >= 1/(1 + |rho|); strictly concave on (1/2, 1] with second derivative
    -1/(nu (2 nu - 1)).
    """
    r = abs(validate_correlation(rho))
    if r >= 1.0:
        raise ParameterError("dual bound requires |rho| < 1")
    delta = _check_positive(delta, "delta")
    alpha_private = _check_nonneg(alpha_private, "alpha_private")
    nu = float(nu)
    if math.isnan(nu) or not 0.5 < nu <= 1.0:
        raise ParameterError(f"nu must lie in (1/2, 1], got {nu!r}")
    two_nu_m1 = 2.0 * nu - 1.0
    return (
        _LOG_2PIE + 0.5 * math.log1p(-r * r)
        - nu * alpha_private
        - nu * (_LOG_2PIE + math.log(delta))
        + 0.5 * nu * math.log(nu * nu / two_nu_m1)
        - (1.0 - nu) * (_LOG_2PIE + math.log(1.0 - r))
        + 0.5 * (1.0 - nu) * math.log(two_nu_m1)
    )


def dual_maximizer(rho: float, delta: float, alpha_private: float) -> float:
    """Stationary point of :func:`dual_objective` (unit variance).

    Defined only while the distortion product delta * e^alpha lies in
    [1 - |rho|, 1]; below that range the dual maximum is pinned at nu = 1
    and this function rejects.
    """
    r = abs(validate_correlation(rho))
    delta = _check_positive(delta, "delta")
    alpha_private = _check_nonneg(alpha_private, "alpha_private")
    log_d = math.log(delta) + alpha_private
    # capping log d at 1 keeps e^log_d finite; any d above 1 + 1e-12 is
    # rejected either way
    d = math.exp(min(log_d, 1.0))
    if d < (1.0 - r) - 1e-12 or d > 1.0 + 1e-12:
        raise ParameterError(
            f"distortion product exp({log_d!r}) outside [{1.0 - r!r}, 1]; "
            "the dual maximum sits at nu = 1 below this range")
    nu = d / (2.0 * d - 1.0 + r)
    return min(max(nu, 1.0 / (1.0 + r)), 1.0)
