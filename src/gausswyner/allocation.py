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
from typing import Sequence

from .errors import ParameterError
from .scalar import (
    RHO_CLAMP_BAND,
    _as_float,
    _common_information,
    _mutual_information,
    level_from_budget,
    validate_budget,
    wyner_ci_scalar,
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
    descending tuple of correlations in [0, 1]."""
    if isinstance(spectrum, CanonicalSpectrum):
        return spectrum.rhos  # validated when it was built
    raw = getattr(spectrum, "rhos", spectrum)
    rhos = []
    for value in raw:
        v = _as_float(value, "canonical correlation")
        if math.isnan(v) or v < -RHO_CLAMP_BAND or v > 1.0 + RHO_CLAMP_BAND:
            raise ParameterError(
                f"canonical correlation {value!r} lies outside [0, 1]")
        rhos.append(min(max(v, 0.0), 1.0))
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
    caps = tuple(_mutual_information(r) for r in rhos)
    values = tuple(_common_information(r) for r in rhos)
    total_cap = sum(caps)
    if gamma >= total_cap:
        return Allocation(
            caps, values[0], 0.0, (True,) * len(rhos), gamma - total_cap)
    for k, cap, tail in _weakest_first(caps):
        spend = (gamma - tail) / k
        if spend < cap:
            break
    beta = level_from_budget(spend)
    gammas = tuple(min(spend, cap) for cap in caps)
    saturated = tuple(spend >= cap for cap in caps)
    total = 0.0
    for value in values:
        total += max(value - beta, 0.0)
    return Allocation(gammas, beta, total, saturated, 0.0)


def _weakest_first(caps):
    """Yield (k, caps[k-1], tail) for k = n..1, where tail is the sum of the
    caps after position k: the saturation order of a descending spectrum,
    weakest component first."""
    tail = 0.0
    for k in range(len(caps), 0, -1):
        yield k, caps[k - 1], tail
        tail += caps[k - 1]


def saturation_breakpoints(spectrum) -> tuple[float, ...]:
    """Budget thresholds at which components saturate, in increasing order.

    Entry j (0-based) is the total budget k * I(rho_k) + sum_{i > k} I(rho_i)
    with k = n - j (1-based, descending correlations): the point where the
    k-th component transitions from active to saturated. Strictly increasing
    when the correlations are distinct; equal correlations saturate together.
    """
    caps = [_mutual_information(r) for r in as_rhos(spectrum)]
    return tuple(k * cap + tail for k, cap, tail in _weakest_first(caps))


def evaluate_allocation(spectrum, gammas: Sequence[float]) -> float:
    """Total value of an arbitrary split: sum of the scalar closed forms.

    Upper-bounds ``waterfill(...).total_value`` for any feasible split of
    the same total budget.
    """
    rhos = as_rhos(spectrum)
    if len(gammas) != len(rhos):
        raise ParameterError(
            f"got {len(gammas)} budgets for {len(rhos)} components")
    return sum(wyner_ci_scalar(r, g) for r, g in zip(rhos, gammas))
