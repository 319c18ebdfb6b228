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

Each function checks its spectrum once, in :func:`as_rhos`, and then prices
the components through the unchecked sequence kernels of :mod:`.scalar`: one
list comprehension per closed form, with no Python call per component. A
saturated component adds nothing to the water-filling value, so
:func:`waterfill` computes C(rho_i) only for the active components and for
the saturated ones whose term could still round above zero.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from itertools import accumulate, count, repeat
from operator import add, ge, neg
from typing import Iterable, NamedTuple, Sequence

from .errors import ParameterError
from .scalar import (
    RHO_CLAMP_BAND,
    _as_float,
    _common_informations,
    _mutual_informations,
    _wyner_cis,
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

class Allocation(NamedTuple):
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


class CanonicalSpectrum:
    """Descending canonical correlations in [0, 1], checked when built.

    Immutable, and compared and hashed by ``rhos``.
    """

    __slots__ = ("rhos",)
    __match_args__ = ("rhos",)

    def __init__(self, rhos: Sequence[float]):
        object.__setattr__(self, "rhos", as_rhos(rhos))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(rhos={self.rhos!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rhos == other.rhos
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rhos,))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and pickles are rebuilt through __init__: the default
        # protocol would restore the slot through __setattr__, which raises
        return type(self), (self.rhos,)

    def __len__(self) -> int:
        return len(self.rhos)

    def __iter__(self):
        return iter(self.rhos)


def as_rhos(spectrum) -> tuple[float, ...]:
    """Coerce a CanonicalSpectrum or plain sequence into a validated,
    descending tuple of correlations in [0, 1]; -0.0 reads as +0.0."""
    if isinstance(spectrum, CanonicalSpectrum):
        return spectrum.rhos  # validated when it was built
    raw, rhos = _floats(spectrum, "canonical correlations")
    if rhos is None:
        return _checked_rhos(raw)
    if not rhos:
        return ()
    # Whole-sequence tests: a NaN-free, exactly descending spectrum inside
    # [0, 1] needs no clamp. Anything else (a clamp, a near-tie out of
    # order, an error) takes the element-by-element walk.
    if (math.isnan(sum(rhos)) or rhos != sorted(rhos, reverse=True)
            or rhos[-1] < 0.0 or rhos[0] > 1.0):
        return _checked_rhos(raw)
    if rhos[-1] == 0.0:
        # the zeros are last, and some may be -0.0: overwrite just those
        first_zero = bisect_left(rhos, 0.0, key=neg)
        rhos[first_zero:] = repeat(0.0, len(rhos) - first_zero)
    return tuple(rhos)


def _floats(values, what: str) -> tuple[tuple, list[float] | None]:
    """``values`` read once into a tuple, so that a per-element walk can
    iterate it again, and that tuple as a list of floats, or None when an
    entry does not convert. Raises :class:`ParameterError` if ``values`` is
    not iterable; a ``TypeError`` raised while iterating is its own."""
    try:
        raw = tuple(values)  # the same object when values is a tuple
    except TypeError:
        try:
            iter(values)
        except TypeError:
            raise ParameterError(f"expected an iterable of {what}, "
                                 f"got {type(values).__name__}") from None
        raise
    try:
        return raw, list(map(float, raw))
    except (TypeError, ValueError, OverflowError):
        return raw, None


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
    budgets add up to ``gamma`` to within n float roundings. The value is
    the sum of max(C(rho_i) - beta, 0) in component order; a saturated
    component's term is 0, since the level bought at its own cap is
    C(rho_i), so C(rho_i) is priced only where rounding could make the term
    nonzero (see the comment in the code). A component with rho_i = 1 never
    saturates and makes the total infinite for any finite budget.
    """
    rhos = as_rhos(spectrum)
    gamma = validate_budget(gamma)
    if math.isinf(gamma):
        raise ParameterError("waterfill requires a finite budget")
    if not rhos:
        return Allocation((), 0.0, 0.0, (), gamma)
    caps = tuple(_mutual_informations(rhos))
    total_cap = math.fsum(caps)
    if gamma >= total_cap:
        return Allocation(caps, _common_informations(rhos[:1])[0], 0.0,
                          (True,) * len(rhos), gamma - total_cap)
    for k, cap, tail in zip(*_weakest_first(caps)):
        spend = (gamma - tail) / k
        if spend < cap:
            break
    beta = level_from_budget(spend)
    # min(spend, cap) without a call per component: min returns its first
    # argument unless the second is smaller
    gammas = tuple([cap if cap < spend else spend for cap in caps])
    saturated = tuple(map(ge, repeat(spend), caps))
    # Sum of max(C(rho_i) - beta, 0.0) as a left fold in component order.
    # A component with C(rho_i) <= beta adds 0.0 to a nonnegative total,
    # which changes no bit, so the fold skips it. Its C(rho_i) need not be
    # priced either. The first k components are active; a saturated one
    # with cap_i < spend * (1 - 1e-9) and rho_i = 0 or rho_i >= 1e-5 is
    # skipped, because its computed C(rho_i) cannot exceed beta:
    # - at rho_i = 0, C(rho_i) is 0.0;
    # - else the computed cap is within about 2 eps / rho_i <= 5e-11 of
    #   I(rho_i) in relative terms (the log1p pair cancels like 1 / rho), so
    #   I(rho_i) < spend * (1 - 9e-10). C(rho) = L(I(rho)) for the level
    #   L = level_from_budget, whose elasticity x L'(x) / L(x) lies in
    #   [1/2, 1]. So C(rho_i) < L(spend) * (1 - 4e-10), a gap that the
    #   few-ulp errors of the computed C(rho_i) and beta cannot close.
    # Below rho = 1e-5 the cap's error grows like eps / rho, so a saturated
    # component there is priced whatever its cap.
    active = int(k)
    floor = spend * (1.0 - 1e-9)
    priced = rhos[:active] + tuple([
        r for r, cap in zip(rhos[active:], caps[active:])
        if cap >= floor or (r < 1e-5 and r > 0.0)])
    total = reduce(add, [value - beta for value in _common_informations(priced)
                         if value > beta], 0.0)
    return Allocation(gammas, beta, total, saturated, 0.0)


def _weakest_first(caps):
    """The saturation order of a descending spectrum, weakest component
    first: for k = n..1, the count k as a float, caps[k-1], and the tail sum
    of the caps after position k, added weakest first. Products and
    quotients with a float k equal those with the int bit for bit
    (k < 2**53), and skip converting k each time."""
    weakest = caps[::-1]
    return (count(float(len(caps)), -1.0), weakest,
            accumulate(weakest, initial=0.0))


def saturation_breakpoints(spectrum) -> tuple[float, ...]:
    """Budget thresholds at which components saturate, in increasing order.

    Entry j (0-based) is the total budget k * I(rho_k) + sum_{i > k} I(rho_i)
    with k = n - j (1-based, descending correlations): the point where the
    k-th component transitions from active to saturated. Strictly increasing
    when the correlations are distinct; equal correlations saturate together.
    """
    return tuple([k * cap + tail for k, cap, tail in zip(*_weakest_first(
        _mutual_informations(as_rhos(spectrum))))])


def evaluate_allocation(spectrum, gammas: Iterable[float]) -> float:
    """Total value of an arbitrary split: sum of the scalar closed forms.

    Upper-bounds ``waterfill(...).total_value`` for any feasible split of
    the same total budget. ``gammas`` may be any iterable with one budget
    per component; each budget is checked once.
    """
    rhos = as_rhos(spectrum)
    raw, budgets = _floats(gammas, "budgets")
    if len(raw) != len(rhos):
        raise ParameterError(
            f"got {len(raw)} budgets for {len(rhos)} components")
    # Whole-sequence test, as in as_rhos: NaN-free floats >= 0 pass. Anything
    # else is checked again one budget at a time, which raises the first
    # offending budget's error.
    if (budgets is None or math.isnan(sum(budgets))
            or min(budgets, default=0.0) < 0.0):
        budgets = list(map(validate_budget, raw))
    return math.fsum(_wyner_cis(rhos, budgets))
