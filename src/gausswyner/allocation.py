"""Reverse water-filling of a conditional-information budget across
independent Gaussian component pairs.

Given canonical correlations rho_1 >= ... >= rho_n and a total budget, the
optimal split gives every unsaturated component the same water level ``beta``
in value space, while components too weak to absorb their share are capped at
their own mutual information. ``beta`` has a closed form (reverse
water-filling, Cover & Thomas §10.3.3): the weakest components saturate
first, so one pass over the caps in increasing order finds how many are
active. The pass sorts the caps itself, since a spectrum may hold a near-tie
up to 1e-12 out of order. :func:`waterfill` solves it that way;
:func:`evaluate_allocation` prices an arbitrary split for comparison, and
:func:`saturation_breakpoints` lists the budgets at which components drop
out.

Each function checks its spectrum in :func:`as_rhos` and then prices the
components through the unchecked sequence kernels of :mod:`.scalar`: one
list comprehension per closed form, with no Python call per component, and
one log1p pair per component from which both the caps I(rho_i) and the
common informations C(rho_i) are formed, together, whichever function
checks the spectrum. The module keeps the last spectrum it checked, with
its caps and C(rho_i), so that calls on one spectrum, such as
:func:`waterfill`, :func:`saturation_breakpoints` and
:func:`evaluate_allocation` in turn or a budget sweep, check and price it
once. It keeps only a spectrum whose value cannot change, a
:class:`CanonicalSpectrum` or a tuple of exact floats, found again by
identity; results are the same bits either way.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from itertools import accumulate, count, repeat
from operator import add, eq, ge, neg
from typing import Iterable, NamedTuple, Sequence

from .errors import ParameterError
from .scalar import (
    RHO_CLAMP_BAND,
    _as_float,
    _common_informations,
    _log1ps,
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
        True where the component's budget hit its mutual information; at a
        zero budget, only where rho_i = 0.
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
    """Canonical correlations in [0, 1], descending to within an absolute
    1e-12 (``(1e-14, 5e-13, 9e-13)`` is accepted as given), checked when built.

    Immutable, and compared and hashed by ``rhos``.
    """

    __slots__ = ("_rhos",)
    __match_args__ = ("rhos",)

    def __init__(self, rhos: Sequence[float]):
        self._rhos = as_rhos(rhos)

    @property
    def rhos(self) -> tuple[float, ...]:
        return self._rhos

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(rhos={self.rhos!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rhos == other.rhos
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rhos,))

    def __len__(self) -> int:
        return len(self.rhos)

    def __iter__(self):
        return iter(self.rhos)


def as_rhos(spectrum) -> tuple[float, ...]:
    """Coerce a CanonicalSpectrum or plain sequence into a validated tuple
    of correlations in [0, 1], descending to within an absolute 1e-12 (so
    ``(1e-14, 5e-13, 9e-13)`` passes as given); -0.0 reads as +0.0."""
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


# The last spectrum checked, as one (key, rhos, caps, commons) entry: the
# spectrum itself, as_rhos of it, its caps and its common informations.
# Each store replaces the whole entry, so a reader in any thread sees one
# spectrum's values. The initial key is no object a caller can pass.
_last = (object(), (), (), ())


def _checked(spectrum):
    """``as_rhos(spectrum)``, its caps I(rho_i) and its common
    informations C(rho_i), as tuples, reused when ``spectrum`` is the last
    spectrum checked. Only a spectrum whose value cannot change is kept: a
    CanonicalSpectrum, or a tuple whose elements are all exact floats (a
    list can be mutated, and a float subclass or any other element can
    convert to a new value each time)."""
    global _last
    entry = _last
    if spectrum is entry[0]:
        return entry[1:]
    rhos = as_rhos(spectrum)
    logs = _log1ps(rhos)
    caps = tuple(_mutual_informations(logs))
    commons = tuple(_common_informations(logs))
    if (type(spectrum) is CanonicalSpectrum
            or type(spectrum) is tuple
            and list(map(type, spectrum)).count(float) == len(spectrum)):
        _last = (spectrum, rhos, caps, commons)
    return rhos, caps, commons


def waterfill(spectrum, gamma: float) -> Allocation:
    """Split ``gamma`` optimally across the spectrum's components.

    A zero budget leaves every component active but those with rho_i = 0,
    at level 0, and the value is the sum of C(rho_i) in component order,
    even where I(rho_i) underflows to 0.0. If the budget covers every
    component's mutual information, all of them saturate at the largest
    C(rho_i) as the level, the value is 0, and the remainder is reported as
    slack. Otherwise, with the k strongest components active and the rest
    saturated, each active one spends (gamma - tail) / k, where tail is the
    sum of the saturated caps, and the water level is
    ``level_from_budget`` of that spend. The solve is exact: each active
    component's budget maps back to the water level bit for bit, and the
    budgets add up to ``gamma`` to within n float roundings. The value is
    the sum of max(C(rho_i) - beta, 0) in component order. A component
    with rho_i = 1 never saturates and makes the total infinite for any
    finite budget.
    """
    rhos, caps, commons = _checked(spectrum)
    gamma = validate_budget(gamma)
    if math.isinf(gamma):
        raise ParameterError("waterfill requires a finite budget")
    if not rhos:
        return Allocation((), 0.0, 0.0, (), gamma)
    if gamma == 0.0:
        # a cap that underflows to 0.0 must not read as saturated here
        return Allocation((0.0,) * len(rhos), 0.0, reduce(add, commons, 0.0),
                          tuple(map(eq, repeat(0.0), rhos)), 0.0)
    total_cap = math.fsum(caps)
    if gamma >= total_cap:
        return Allocation(caps, max(commons), 0.0, (True,) * len(rhos),
                          gamma - total_cap)
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
    # which changes no bit, so the fold skips it.
    total = reduce(add, [value - beta for value in commons if value > beta],
                   0.0)
    return Allocation(gammas, beta, total, saturated, 0.0)


def _weakest_first(caps):
    """The saturation order, weakest component first: for k = n..1, the
    count k as a float, the k-th largest cap, and the sum of the n - k
    smaller caps, added weakest first. The caps are sorted here, so that an
    out-of-order near-tie cannot stop the walk early. Products and
    quotients with a float k equal those with the int bit for bit
    (k < 2**53), and skip converting k each time."""
    # reversed first: the caps of a descending spectrum then form one
    # ascending run, ties included, which the sort only has to scan
    weakest = sorted(reversed(caps))
    return (count(float(len(caps)), -1.0), weakest,
            accumulate(weakest, initial=0.0))


def saturation_breakpoints(spectrum) -> tuple[float, ...]:
    """Budget thresholds at which components saturate, in increasing order.

    With the caps sorted increasing, c_1 <= ... <= c_n, entry j (0-based)
    is the total budget (n - j) * c_{j+1} + c_1 + ... + c_j: the point where
    the component with the (j+1)-th smallest cap transitions from active to
    saturated. Strictly increasing when the caps are distinct; equal caps
    saturate together.
    """
    return tuple([k * cap + tail for k, cap, tail in zip(*_weakest_first(
        _checked(spectrum)[1]))])


def evaluate_allocation(spectrum, gammas: Iterable[float]) -> float:
    """Total value of an arbitrary split: sum of the scalar closed forms.

    Upper-bounds ``waterfill(...).total_value`` for any feasible split of
    the same total budget. ``gammas`` may be any iterable with one budget
    per component; each budget is checked once.
    """
    rhos, _, commons = _checked(spectrum)
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
    return math.fsum(_wyner_cis(commons, budgets))
