"""Independent brute-force verifiers for every closed form in the package.

Each verifier recomputes its target through a different route than the
library modules: determinant arithmetic on explicitly constructed
covariances, exhaustive grids, golden-section maximization of the dual
bounds, and exact entropy sums over finite probability tables. Every check
returns a :class:`CheckReport` carrying the oracle value and the closed-form
value side by side; :func:`run_suite` runs the published instance table
used by the command-line ``verify`` subcommand. Grid sizes, sample counts,
seeds and the simplex step of :func:`verify_waterfill_grid` are fixed
constants, so no verifier has a tuning argument; a simplex search whose
folds would sum more than ``_SIMPLEX_MAX_POINTS`` lattice points is
refused. The simplex search prices each component once, on one lattice
axis, and folds the components in one at a time, so its memory grows with
the axis, not with the simplex.

Each verifier imports what it runs: numpy comes in only with the grid and
sampling checks (scalar achievability, the dual sweep, the water-filling
simplex and the envelope grid), and :mod:`.allocation` only with the
simplex. The Gray-Wyner dual and the finite-alphabet checks run on plain
floats, so importing this module loads neither.
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
    "verify_dual_bound_sweep",
    "verify_envelope_grid",
    "verify_graywyner_dual",
    "verify_scalar_achievability",
    "verify_waterfill_grid",
]

_LN2 = math.log(2.0)
_FOUR_PI2E2 = (2.0 * math.pi * math.e) ** 2

_SCALAR_GRID_SIZE = 100_000   # alpha samples of the achievability sweep
# lattice points the water-filling folds sum: the published instances use at
# most 125,751, three components at gamma = 2 about 2.0 million
_SIMPLEX_MAX_POINTS = 4_000_000
_SIMPLEX_STEP = 1e-3          # budget per cell of the water-filling lattice
# Fewest cells of the water-filling lattice: the level's sqrt(2 gamma) slope
# at 0 makes a one- or two-cell split of a small budget miss by more than
# the tolerance
_SIMPLEX_MIN_CELLS = 100
_DUAL_SAMPLES = 50            # random triples of the weak-duality sweep
_DUAL_SEED = 7
_ENVELOPE_POINTS = 500        # q columns, and sig2 samples per column
# Smallest lam the envelope grid can check. Near lam = 0 the objective is
# flat along sig2 to within rounding, and the grid minimizer lands in an
# arbitrary sig2 row. Over 215 values of rho in (0, 1) and lam on grids of
# 8 to 16 points per decade, the largest lam that failed was 6.5e-13 (at
# rho = 1 - 7e-10); the floor keeps a factor of 15 from it.
_ENVELOPE_MIN_LAM = 1e-11
_GOLDEN_ITERATIONS = 200


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
# scalar achievability sweep
# ---------------------------------------------------------------------------

def _construction_curves(rho: float, alphas):
    """Rate and leakage of the shared-component construction.

    Both are computed from the explicit conditional covariance of the pair
    given the auxiliary (2x2 determinant arithmetic), not from the library's
    closed forms, so the sweep is an independent code path.
    """
    import numpy as np

    shared = (rho - alphas) / (1.0 - alphas)   # weight of the common part
    var_c = 1.0 - shared                       # Var(X|W) = Var(Y|W)
    cov_c = rho - shared                       # Cov(X, Y | W)
    det_cond = var_c * var_c - cov_c * cov_c
    det_marginal = 1.0 - rho * rho
    rate = 0.5 * np.log(det_marginal / det_cond)
    leakage = 0.5 * np.log(var_c * var_c / det_cond)
    return rate, leakage


def verify_scalar_achievability(rho: float, gamma: float) -> CheckReport:
    """Sweep the residual noise correlation over [0, rho] and compare the
    best construction obeying the leakage budget with the scalar closed form.

    Also confirms that the library's construction
    (:func:`scalar.achievability_params`) meets the budget with equality.
    """
    import numpy as np

    rho = scalar._as_float(rho, "correlation")
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"sweep requires 0 < rho < 1, got {rho!r}")
    # rejects a budget beyond saturation, where the sweep is undefined
    construction = scalar.achievability_params(rho, gamma)
    gamma = construction.leakage_nats
    alphas = np.linspace(0.0, rho, _SCALAR_GRID_SIZE)
    rate, leakage = _construction_curves(rho, alphas)
    feasible = leakage <= gamma + 1e-15
    best_idx = int(np.argmin(np.where(feasible, rate, np.inf)))
    best = float(rate[best_idx])
    closed = scalar.wyner_ci_scalar(rho, gamma)

    alpha_star = construction.alpha_noise
    _, leak_star = _construction_curves(rho, np.array([alpha_star]))
    budget_gap = abs(float(leak_star[0]) - gamma)

    step = rho / (_SCALAR_GRID_SIZE - 1)
    slope = 1.0 / (1.0 - float(alphas[best_idx]) ** 2)
    tolerance = max(4.0 * step * slope, 1e-12)
    passed = (-1e-12 <= best - closed <= tolerance) and budget_gap <= 1e-12
    return CheckReport(
        name=f"scalar_achievability(rho={rho}, gamma={gamma})",
        oracle_value=best,
        closed_form_value=closed,
        tolerance=tolerance,
        passed=passed,
        details={
            "grid_size": _SCALAR_GRID_SIZE,
            "alpha_best": float(alphas[best_idx]),
            "alpha_construction": alpha_star,
            "construction_budget_gap": budget_gap,
        },
    )


def verify_dual_bound_sweep() -> CheckReport:
    """Weak duality sweep for the scalar dual bound.

    On random admissible triples (rho, gamma, mu >= 1/rho) the dual bound
    must never exceed the closed form; the report's oracle value is the
    worst (largest) gap found.
    """
    import numpy as np

    rng = np.random.default_rng(_DUAL_SEED)
    worst = -math.inf
    worst_at = None
    for _ in range(_DUAL_SAMPLES):
        rho = float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(0.0, 1.5)) * scalar.mutual_information(rho)
        mu = 1.0 / rho + float(rng.uniform(0.0, 10.0))
        gap = (scalar.dual_objective(rho, gamma, mu)
               - scalar.wyner_ci_scalar(rho, gamma))
        if gap > worst:
            worst, worst_at = gap, (rho, gamma, mu)
    return CheckReport(
        name=f"scalar_dual_weak_duality(samples={_DUAL_SAMPLES})",
        oracle_value=worst,
        closed_form_value=0.0,
        tolerance=1e-12,
        passed=worst <= 1e-12,
        details={"worst_instance": worst_at},
    )


# ---------------------------------------------------------------------------
# water-filling simplex grid
# ---------------------------------------------------------------------------

def _ci_curve(rho: float, gammas):
    """Vectorized scalar closed form; the per-component price the simplex
    search sums up (the quantity under test is the split, not the scalar)."""
    import numpy as np

    s = np.sqrt(np.maximum(-np.expm1(-2.0 * gammas), 0.0))
    return np.maximum(
        scalar.common_information(rho) - (np.log1p(s) + gammas), 0.0)


def verify_waterfill_grid(spectrum, gamma: float) -> CheckReport:
    """Exhaustive simplex search of the budget split versus ``waterfill``.

    The simplex is the lattice of splits into n = max(100, round(gamma/step))
    parts at the fixed step 1e-3: each component is priced once on
    ``linspace(0, gamma, n + 1)``, and the components are folded in one at
    a time. Of k components, each of the k - 2 inner folds sums a triangle
    of (n + 1)(n + 2)/2 lattice points, and the last fold one row of n + 1.
    If the triangles, or for k = 2 the row, hold more than
    ``_SIMPLEX_MAX_POINTS`` points, ``ParameterError`` is raised before any
    array is built.

    Every lattice point is a feasible split, so the grid minimum may
    undercut the closed form only by rounding; it may exceed it by up to
    10x the step size. ``waterfill``'s own budgets, priced again here, must
    add up to its value, and with its slack to ``gamma``, both to rounding.
    """
    import numpy as np

    from . import allocation

    rhos = allocation.as_rhos(spectrum)
    gamma = scalar.validate_budget(gamma)
    if not rhos or rhos[0] >= 1.0:
        raise ParameterError("grid oracle requires components with rho < 1")
    # n + 1 points per axis, the one point of one component; in floats, so
    # an infinite count compares too
    per_axis = max(_SIMPLEX_MIN_CELLS, gamma / _SIMPLEX_STEP) + 1.0
    points = ((len(rhos) - 2) * per_axis * (per_axis + 1.0) / 2.0
              if len(rhos) > 2 else per_axis ** (len(rhos) - 1))
    if points > _SIMPLEX_MAX_POINTS:
        raise ParameterError(
            f"simplex of about {points:.3g} points exceeds "
            f"{_SIMPLEX_MAX_POINTS}")
    alloc = allocation.waterfill(rhos, gamma)

    # one component has the single split (gamma,): two axis points hold it
    n = (max(_SIMPLEX_MIN_CELLS, round(gamma / _SIMPLEX_STEP))
         if len(rhos) > 1 else 1)
    axis = np.linspace(0.0, gamma, n + 1)
    prices = [_ci_curve(rho, axis) for rho in rhos]
    # best[m]: the least price of the components folded in so far at m
    # parts in all, and picks[m] the parts of the one folded in last; the
    # last fold, of the first component, needs m = n only
    best, folds = prices[-1], []
    for c in range(len(rhos) - 2, -1, -1):
        values, picks = [], {}
        for m in range(n + 1) if c else (n,):
            row = prices[c][:m + 1] + best[m::-1]
            picks[m] = i = int(row.argmin())
            values.append(row[i])
        best = np.array(values)
        folds.append(picks)
    grid_min = float(best[-1])
    m, argmin = n, []
    for picks in reversed(folds):
        argmin.append(float(axis[picks[m]]))
        m -= picks[m]
    argmin = (*argmin, float(axis[m]))

    # Rounding bound of the three sums below: one term per component, each
    # off by a few roundings of its own size, which is at most C(rho_1) (a
    # price), gamma (a budget) or about 1 (a saturated component of small
    # rho repriced at its cap is off by about one ulp of 1, not of C).
    rounding = (8.0 * len(rhos) * sys.float_info.epsilon
                * max(1.0, scalar.common_information(rhos[0]), gamma))
    repriced_gap = float(sum(
        _ci_curve(rho, np.array([g]))[0]
        for rho, g in zip(rhos, alloc.gammas))) - alloc.total_value
    budget_gap = math.fsum((*alloc.gammas, alloc.slack)) - gamma
    tolerance = 10.0 * _SIMPLEX_STEP
    passed = (-rounding <= grid_min - alloc.total_value <= tolerance
              and abs(repriced_gap) <= rounding
              and abs(budget_gap) <= rounding)
    return CheckReport(
        name=f"waterfill_grid(spectrum={list(rhos)}, gamma={gamma})",
        oracle_value=grid_min,
        closed_form_value=alloc.total_value,
        tolerance=tolerance,
        passed=passed,
        details={
            "step": _SIMPLEX_STEP,
            "grid_argmin": argmin,
            "waterfill_gammas": list(alloc.gammas),
            "water_level_beta": alloc.water_level_beta,
            "repriced_gap": repriced_gap,
            "budget_gap": budget_gap,
        },
    )


# ---------------------------------------------------------------------------
# constrained-covariance envelope grid
# ---------------------------------------------------------------------------

def _envelope_objective(lam: float, sig2, q):
    """The two-variable envelope objective, written out literally."""
    import numpy as np

    sig4 = np.square(sig2)
    return (0.5 * np.log(_FOUR_PI2E2 * sig4)
            - 0.5 * (1.0 + lam) * np.log(
                _FOUR_PI2E2 * sig4 * ((1.0 - q) * (1.0 + q))))


def envelope_closed_form(rho: float, lam: float) -> float:
    """Closed-form minimum of the envelope objective over the feasible set."""
    return (0.5 * math.log(1.0 / ((1.0 - lam) * (1.0 + lam)))
            - 0.5 * lam * math.log(
                _FOUR_PI2E2 * (1.0 - rho) ** 2 * (1.0 + lam) / (1.0 - lam)))


def verify_envelope_grid(rho: float, lam: float) -> CheckReport:
    """Brute-force the constrained-covariance envelope bound.

    The feasible set caps sig2 at min{1, (1-rho)/(1-q)} for q <= rho and at
    min{1, (1+rho)/(1+q)} above, with a kink at q = rho. The grid is
    boundary-fitted: each of its 500 q-columns carries 500 sig2 samples up
    to its own cap, and a grid node sits exactly on the kink. (A plain
    bounding-box product grid cannot localize the minimizer: the objective
    decreases toward the cap, so off-boundary sampling noise of order
    cap/500 swamps the shallow curvature along the boundary.) Checks that
    the grid minimum does not undercut the closed form and that the
    minimizer lands within two cells of the analytic optimum
    (sig2, q) = ((1-rho)/(1-lam), lam): in q directly, and in sig2 along
    the cap, on which the optimum lies.
    """
    import numpy as np

    rho = scalar._as_float(rho, "correlation")
    lam = scalar._as_float(lam, "envelope multiplier")
    if not _ENVELOPE_MIN_LAM <= lam <= rho < 1.0:
        raise ParameterError(
            f"envelope grid requires {_ENVELOPE_MIN_LAM!r} <= lam <= rho < 1,"
            f" got lam={lam!r}, rho={rho!r}")
    edge = 1.0 / _ENVELOPE_POINTS
    n_left = min(max(2, int(round((rho + 1.0) / 2.0 * _ENVELOPE_POINTS))),
                 _ENVELOPE_POINTS - 1)
    n_right = _ENVELOPE_POINTS - n_left + 1  # the kink node is shared
    # The right half ends strictly between rho and 1: at 1 - edge where
    # that lies above rho, else halfway to 1. Only rho = 1 - 2**-53 has no
    # float between it and 1; there it ends on the kink.
    right_end = (1.0 - edge if rho < 1.0 - edge
                 else min((1.0 + rho) / 2.0, math.nextafter(1.0, 0.0)))
    left = np.linspace(-1.0 + edge, rho, n_left)   # ends on the kink
    right = np.linspace(rho, right_end, n_right)   # starts on it
    q = np.concatenate([left, right[1:]])
    cap = np.where(q <= rho, (1.0 - rho) / (1.0 - q), (1.0 + rho) / (1.0 + q))
    cap = np.minimum(cap, 1.0)
    fractions = np.linspace(edge, 1.0, _ENVELOPE_POINTS)[:, None]
    sig2 = fractions * cap[None, :]
    objective = _envelope_objective(lam, sig2, q[None, :])
    row, col = np.unravel_index(int(np.argmin(objective)), objective.shape)
    grid_min = float(objective[row, col])
    sig2_hat, q_hat = float(sig2[row, col]), float(q[col])

    closed = envelope_closed_form(rho, lam)
    sig2_star, q_star = (1.0 - rho) / (1.0 - lam), lam
    q_cell = (rho + 1.0 - edge) / (n_left - 1)
    sig2_cell = (1.0 - edge) / (_ENVELOPE_POINTS - 1) * float(cap[col])
    kkt_gap = float(_envelope_objective(
        lam, np.array([sig2_star]), np.array([q_star]))[0]) - closed
    # The optimum lies on the cap sig2 = (1-rho)/(1-q), whose slope there,
    # sig2*/(1-q*), is steep as q* nears 1: a q offset under one cell can
    # move sig2 by many cells. So sig2 is judged against the cap at q_hat,
    # shifted by the analytic minimizer's own offset from the cap at q*
    # (q* = lam <= rho lies left of the kink).
    sig2_off = (sig2_hat - float(cap[col])
                - (sig2_star - min((1.0 - rho) / (1.0 - q_star), 1.0)))

    passed = (grid_min >= closed - 1e-3
              and abs(q_hat - q_star) <= 2.0 * q_cell + 1e-12
              and abs(sig2_off) <= 2.0 * sig2_cell + 1e-12
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
            "cells_off": [abs(sig2_off) / sig2_cell,
                          abs(q_hat - q_star) / q_cell],
            "kkt_identity_gap": kkt_gap,
        },
    )


# ---------------------------------------------------------------------------
# Gray-Wyner dual maximization
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(fn, lo: float, hi: float):
    """Golden-section search for the maximum of a unimodal function."""
    a, b = lo, hi
    width = b - a
    c, d = b - _INVPHI * width, a + _INVPHI * width
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_ITERATIONS):
        if fc >= fd:
            b, d, fd = d, c, fc
            width = b - a
            c = b - _INVPHI * width
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            width = b - a
            d = a + _INVPHI * width
            fd = fn(d)
        if width <= 1e-15:
            break
    return (c, fc) if fc >= fd else (d, fd)


def verify_graywyner_dual(rho: float, delta: float,
                          alpha_private: float) -> CheckReport:
    """Maximize the Gray-Wyner dual bound numerically (unit variance) and
    compare with the closed-form branch value.

    In the zero-rate regime the dual maximum is only required to stay
    nonpositive; in the two active regimes it must match the closed form to
    1e-8.
    """
    point = graywyner.common_rate(1.0, rho, delta, alpha_private)
    nu_hat, best = _golden_section_max(
        lambda nu: graywyner.dual_objective(rho, delta, alpha_private, nu),
        0.5 + 1e-9, 1.0)
    if point.regime is graywyner.Regime.INFEASIBLE_ZERO:
        passed = best <= 1e-12 and point.r0 == 0.0
    else:
        passed = abs(best - point.r0) <= 1e-8
    return CheckReport(
        name=(f"graywyner_dual(rho={rho}, delta={delta}, "
              f"alpha={alpha_private})"),
        oracle_value=best,
        closed_form_value=point.r0,
        tolerance=1e-8,
        passed=passed,
        details={"nu_hat": nu_hat, "regime": point.regime.value},
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
        (verify_dual_bound_sweep, ((),)),
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
          (0.7, 1.5, 0.0))),
    ),
    "discrete": (
        (dsbs_construction_check, ((0.1,), (0.25,), (0.4,), (0.5,))),
        (erasure_construction_check, ((0.0,), (0.1,), (0.3,), (_LN2,))),
    ),
}


def run_suite(name: str) -> list[CheckReport]:
    """Run the named battery of verifiers on its fixed instance table."""
    if name not in SUITES:
        raise ParameterError(f"unknown suite {name!r}; choose from {SUITES}")
    suites = SUITES[:-1] if name == "all" else (name,)
    return [verifier(*args)
            for suite in suites
            for verifier, instances in _SUITE_CHECKS[suite]
            for args in instances]
