"""Reverse water-filling of a conditional-information budget across
independent Gaussian component pairs.

Given canonical correlations rho_1 >= ... >= rho_n and a total budget, the
optimal split gives every unsaturated component the same water level ``beta``
in value space, while components too weak to absorb their share are capped at
their own mutual information. Because the caps arrive sorted, ``beta`` has a
closed form (reverse water-filling, Cover & Thomas §10.3.3): the weakest
components saturate first, so one pass from the weakest up finds how many
are active. :func:`waterfill` solves it that way;
:func:`evaluate_allocation` prices an arbitrary split for comparison, and
:func:`saturation_breakpoints` lists the budgets at which components drop
out.

Each function checks its spectrum once, in :func:`as_rhos`, and then calls
the unchecked scalar kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from operator import add, ge, mul, sub
from typing import Sequence

from .errors import ParameterError
from .scalar import (
    RHO_CLAMP_BAND,
    _as_float,
    _common_information,
    _mutual_information,
    _wyner_ci,
    level_from_budget,
    validate_budget,
)

__all__ = [
    "Allocation",
    "CanonicalSpectrum",
    "as_rhos",
    "evaluate_allocation",
    "saturation_breakpoints",
    "waterfill",
]

@dataclass(frozen=True)
class Allocation:
    """Optimal budget split for one spectrum.

    gammas
        Per-component budgets, min{budget_from_level(beta), I(rho_i)}.
    water_level_beta
        Shared level of the unsaturated components (nats).
    total_value
        Sum of (C(rho_i) - beta) clamped at zero; ``inf`` if some rho_i = 1.
    saturated
        True where the component's budget hit its mutual information.
    slack
        Surplus budget left once every component is saturated (nonzero only
        when the request exceeds the summed mutual informations).
    """

    gammas: tuple[float, ...]
    water_level_beta: float
    total_value: float
    saturated: tuple[bool, ...]
    slack: float = 0.0


@dataclass(frozen=True)
class CanonicalSpectrum:
    """Descending canonical correlations in [0, 1], checked when built."""

    rhos: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rhos", as_rhos(self.rhos))

    def __len__(self) -> int:
        return len(self.rhos)

    def __iter__(self):
        return iter(self.rhos)


def as_rhos(spectrum) -> tuple[float, ...]:
    """Coerce a CanonicalSpectrum or plain sequence into a validated,
    descending tuple of correlations in [0, 1]; -0.0 reads as +0.0."""
    if isinstance(spectrum, CanonicalSpectrum):
        return spectrum.rhos  # validated when it was built
    # a tuple, so that the walk can iterate it again
    raw = tuple(getattr(spectrum, "rhos", spectrum))
    try:
        rhos = list(map(float, raw))
    except (TypeError, ValueError, OverflowError):
        return _checked_rhos(raw)
    if not rhos:
        return ()
    # Whole-sequence tests: a NaN-free, exactly descending spectrum inside
    # [0, 1] needs no clamp. Anything else (a clamp, a near-tie out of
    # order, an error) takes the element-by-element walk.
    if (math.isnan(sum(rhos)) or rhos != sorted(rhos, reverse=True)
            or rhos[-1] < 0.0 or rhos[0] > 1.0):
        return _checked_rhos(raw)
    if rhos[-1] == 0.0:  # the zeros are last; some may be -0.0
        return tuple(map(abs, rhos))
    return tuple(rhos)


def _checked_rhos(raw) -> tuple[float, ...]:
    """:func:`as_rhos` one element at a time: clamps the values in the clamp
    band and raises the first offending element's error."""
    rhos = []
    for value in raw:
        v = _as_float(value, "canonical correlation")
        if math.isnan(v) or v < -RHO_CLAMP_BAND or v > 1.0 + RHO_CLAMP_BAND:
            raise ParameterError(
                f"canonical correlation {value!r} lies outside [0, 1]")
        # max(0.0, v), not max(v, 0.0): on the tie at v = -0.0, max
        # returns its first argument
        rhos.append(min(max(0.0, v), 1.0))
    for left, right in zip(rhos, rhos[1:]):
        if right > left + 1e-12:
            raise ParameterError("spectrum must be sorted in descending order")
    return tuple(rhos)


def waterfill(spectrum, gamma: float) -> Allocation:
    """Split ``gamma`` optimally across the spectrum's components.

    If the budget covers every component's mutual information, all of them
    saturate, the value is 0, and the remainder is reported as slack.
    Otherwise, with the k strongest components active and the rest
    saturated, each active one spends (gamma - tail) / k, where tail is the
    sum of the saturated caps, and the water level is
    ``level_from_budget`` of that spend. The solve is exact: each active
    component's budget maps back to the water level bit for bit, and the
    budgets add up to ``gamma`` to within n float roundings. A component
    with rho_i = 1 never saturates and makes the total infinite for any
    finite budget.
    """
    rhos = as_rhos(spectrum)
    gamma = validate_budget(gamma)
    if math.isinf(gamma):
        raise ParameterError("waterfill requires a finite budget")
    if not rhos:
        return Allocation((), 0.0, 0.0, (), gamma)
    caps = tuple(map(_mutual_information, rhos))
    total_cap = sum(caps)
    if gamma >= total_cap:
        return Allocation(caps, _common_information(rhos[0]), 0.0,
                          (True,) * len(rhos), gamma - total_cap)
    for k, cap, tail in zip(*_weakest_first(caps)):
        spend = (gamma - tail) / k
        if spend < cap:
            break
    beta = level_from_budget(spend)
    gammas = tuple(map(min, repeat(spend), caps))
    saturated = tuple(map(ge, repeat(spend), caps))
    # Sum of max(C(rho_i) - beta, 0.0) as a left fold in component order.
    # A component with C(rho_i) <= beta adds 0.0 to a nonnegative total,
    # which changes no bit, so the fold skips it.
    active = filter(beta.__lt__, map(_common_information, rhos))
    total = reduce(add, map(sub, active, repeat(beta)), 0.0)
    return Allocation(gammas, beta, total, saturated, 0.0)


def _weakest_first(caps):
    """The saturation order of a descending spectrum, weakest component
    first: for k = n..1, the count k, caps[k-1], and the tail sum of the
    caps after position k, added weakest first."""
    weakest = caps[::-1]
    return range(len(caps), 0, -1), weakest, accumulate(weakest, initial=0.0)


def saturation_breakpoints(spectrum) -> tuple[float, ...]:
    """Budget thresholds at which components saturate, in increasing order.

    Entry j (0-based) is the total budget k * I(rho_k) + sum_{i > k} I(rho_i)
    with k = n - j (1-based, descending correlations): the point where the
    k-th component transitions from active to saturated. Strictly increasing
    when the correlations are distinct; equal correlations saturate together.
    """
    counts, caps, tails = _weakest_first(
        tuple(map(_mutual_information, as_rhos(spectrum))))
    return tuple(map(add, map(mul, counts, caps), tails))


def evaluate_allocation(spectrum, gammas: Sequence[float]) -> float:
    """Total value of an arbitrary split: sum of the scalar closed forms.

    Upper-bounds ``waterfill(...).total_value`` for any feasible split of
    the same total budget. Each budget is checked once.
    """
    rhos = as_rhos(spectrum)
    if len(gammas) != len(rhos):
        raise ParameterError(
            f"got {len(gammas)} budgets for {len(rhos)} components")
    return sum(map(_wyner_ci, rhos, map(validate_budget, gammas)))
