"""Minimal common rate of the symmetric Gaussian Gray-Wyner network.

One encoder serves two decoders through a shared link of rate R0 plus two
private links. For equal source variances, symmetric mean-squared-error
target ``delta``, and a cap ``alpha_private`` on the sum of private rates,
:func:`common_rate` evaluates the smallest achievable R0 in closed form.
:func:`dual_objective` is the Lagrangian lower bound whose maximum over the
multiplier ``nu`` matches the closed form; in the blended regime
:func:`common_rate` also returns the maximizer ``nu_star``.

All rates are in nats (``alpha_private`` enters as e^alpha).
"""

from __future__ import annotations

import enum
import math
import sys
from typing import NamedTuple

from .errors import ParameterError
from .scalar import (
    _as_float,
    _log1ps,
    _mutual_informations,
    validate_correlation,
)

__all__ = [
    "GrayWynerPoint",
    "Regime",
    "common_rate",
    "dual_objective",
]

_LOG_MIN = math.log(sys.float_info.min)


class Regime(str, enum.Enum):
    """Which branch of the closed form is active."""

    BLEND = "BLEND"                    # dual maximizer interior to (1/2, 1)
    SATURATED_NU = "SATURATED_NU"      # dual maximizer pinned at nu = 1
    INFEASIBLE_ZERO = "INFEASIBLE_ZERO"  # distortion loose enough for R0 = 0


class GrayWynerPoint(NamedTuple):
    """Inputs and resulting minimal common rate."""

    sigma2: float
    rho: float
    delta: float
    alpha_private: float
    r0: float
    regime: Regime
    nu_star: float | None  # dual maximizer; None outside the BLEND regime


def _check_positive(value: float, name: str) -> float:
    value = _as_float(value, name)
    if math.isnan(value) or math.isinf(value) or value <= 0.0:
        raise ParameterError(f"{name} must be a positive finite number, "
                             f"got {value!r}")
    return value


def _check_nonneg(value: float, name: str) -> float:
    value = _as_float(value, name)
    if math.isnan(value) or value < 0.0:
        raise ParameterError(f"{name} must be >= 0, got {value!r}")
    return value


def _log_distortion(sigma2: float, delta: float, alpha_private: float) -> float:
    """log d for the distortion product d = delta / sigma2 * e^alpha.

    Working with log d keeps every input scale from under- or overflowing.
    Forming the ratio first keeps scaling delta and sigma2 together exact;
    separate logs serve only where the ratio leaves the normal float range.
    """
    ratio = delta / sigma2
    if ratio >= sys.float_info.min:
        return math.log(ratio) + alpha_private
    return math.log(delta) - math.log(sigma2) + alpha_private


def common_rate(sigma2: float, rho: float, delta: float,
                alpha_private: float) -> GrayWynerPoint:
    """Minimal shared-link rate at distortion ``delta`` and private-rate cap
    ``alpha_private`` (nats).

    Negative correlation is folded to |rho|: flipping the sign of one source
    is a lossless relabeling under squared error. The source variance only
    enters through delta/sigma2, so scaling both leaves the rate unchanged.
    In the BLEND regime ``nu_star`` is the maximizer of
    :func:`dual_objective`; in the other two it is None.
    """
    sigma2 = _check_positive(sigma2, "sigma2")
    delta = _check_positive(delta, "delta")
    alpha_private = _check_nonneg(alpha_private, "alpha_private")
    rho = validate_correlation(rho)
    r = abs(rho)
    log_d = _log_distortion(sigma2, delta, alpha_private)
    nu_star = None
    if log_d > 0.0:
        r0, regime = 0.0, Regime.INFEASIBLE_ZERO
    elif (d := math.exp(max(log_d, _LOG_MIN))) >= 1.0 - r:
        # 2d + r - 1 subtracts 1 - r last: d >= 1 - r here, and adding r
        # first would round d away near |rho| = 1. d is floored at the
        # smallest normal float only where log d < _LOG_MIN, which below
        # |rho| = 1 is the saturated branch; at |rho| = 1 the ratio is 1/d,
        # so the part of log d under the floor is added back
        denom = 2.0 * d - (1.0 - r)
        r0 = max(0.5 * (math.log((1.0 + r) / denom)
                        - min(log_d - _LOG_MIN, 0.0)), 0.0)
        nu_star = min(max(d / denom, 1.0 / (1.0 + r)), 1.0)
        regime = Regime.BLEND
    else:
        r0 = max(-_mutual_informations(_log1ps((r,)))[0] - log_d, 0.0)
        regime = Regime.SATURATED_NU
    return GrayWynerPoint(sigma2, rho, delta, alpha_private, r0, regime,
                          nu_star)


def dual_objective(rho: float, delta: float, alpha_private: float,
                   nu: float) -> float:
    """Lagrangian dual bound on the common rate at multiplier ``nu``.

    The bound is nu log nu - (nu - 1/2) log(2 nu - 1) - nu (alpha + log
    delta) - I(|rho|) - (1 - nu) log(1 - |rho|), with I the pair's
    mutual information (:func:`.scalar.mutual_information`). It assumes
    unit source variance (normalize ``delta`` by the variance first). A
    true lower bound on :func:`common_rate` for
    nu >= 1/(1 + |rho|); strictly concave on (1/2, 1] with second derivative
    -1/(nu (2 nu - 1)).
    """
    r = abs(validate_correlation(rho))
    if r >= 1.0:
        raise ParameterError("dual bound requires |rho| < 1")
    delta = _check_positive(delta, "delta")
    alpha_private = _check_nonneg(alpha_private, "alpha_private")
    nu = _as_float(nu, "nu")
    if math.isnan(nu) or not 0.5 < nu <= 1.0:
        raise ParameterError(f"nu must lie in (1/2, 1], got {nu!r}")
    return (nu * math.log(nu) - (nu - 0.5) * math.log(2.0 * nu - 1.0)
            - nu * (alpha_private + math.log(delta))
            - _mutual_informations(_log1ps((r,)))[0]
            - (1.0 - nu) * math.log1p(-r))

