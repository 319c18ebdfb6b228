"""Reference values for the benchmark's correctness checks.

Everything here is written from the paper's closed forms in plain Python
floats and never calls ``gausswyner``, so a wrong library result cannot be
checked against itself. Water-filling in particular is solved exactly
(sorted caps, one pass), not by the library's bisection.
"""

from __future__ import annotations

import math

# Float sums of n terms may be off by about n * eps * sum|terms|; allow that
# on top of the absolute tolerances below.
EPS = 2.0 ** -52


def common_info(r: float) -> float:
    """Wyner common information C(rho) = artanh|rho|; inf at |rho| = 1."""
    r = abs(r)
    return math.inf if r >= 1.0 else math.atanh(r)


def mutual_info(r: float) -> float:
    """I(rho) = -1/2 log(1 - rho^2); inf at |rho| = 1."""
    r = abs(r)
    return math.inf if r >= 1.0 else -0.5 * (math.log1p(r) + math.log1p(-r))


def level(spend: float) -> float:
    """Water level bought by ``spend`` nats: artanh(sqrt(1 - e^{-2 spend})),
    written as spend + log(1 + s) so it stays exact for large spends."""
    if math.isinf(spend):
        return math.inf
    return spend + math.log1p(math.sqrt(-math.expm1(-2.0 * spend)))


def log_cosh(beta: float) -> float:
    """Budget that lifts one component to level ``beta``."""
    if beta > 300.0:
        return beta - math.log(2.0)
    return math.log(math.cosh(beta))


def relaxed_ci(rho: float, gamma: float) -> float:
    """C_gamma(rho) = max(C(rho) - level(gamma), 0) for a scalar pair."""
    value = common_info(rho)
    if math.isinf(value):
        return 0.0 if math.isinf(gamma) else math.inf
    return max(value - level(gamma), 0.0)


def waterfill(rhos, gamma: float) -> dict:
    """Exact reverse water-filling of ``gamma`` over correlations ``rhos``.

    Caps I(rho_i) taken in increasing order saturate first: with the j
    weakest saturated, every other component spends (gamma - P_j)/(n - j),
    and the first j at which that spend fits under the next cap is the
    answer. Returns the per-component spend, the water level, the total value
    sum max(C_i - beta, 0), and the slack when every component saturates.
    """
    caps = [mutual_info(r) for r in rhos]
    total_cap = sum(caps)
    if gamma >= total_cap:
        return {"spend": None, "beta": None, "value": 0.0,
                "slack": gamma - total_cap, "caps": caps}
    ascending = sorted(caps)
    n = len(ascending)
    prefix = 0.0
    spend = 0.0
    for j, cap in enumerate(ascending):
        spend = (gamma - prefix) / (n - j)
        if spend <= cap:
            break
        prefix += cap
    beta = level(spend)
    value = sum(max(common_info(r) - beta, 0.0) for r in rhos)
    return {"spend": spend, "beta": beta, "value": value, "slack": 0.0,
            "caps": caps}


def breakpoints(rhos) -> list[float]:
    """Budgets k I(rho_k) + sum_{i>k} I(rho_i), k = n..1, at which the k-th
    strongest component saturates."""
    caps = [mutual_info(r) for r in rhos]
    out = []
    tail = 0.0
    for k in range(len(caps), 0, -1):
        out.append(k * caps[k - 1] + tail)
        tail += caps[k - 1]
    return out


def graywyner(sigma2: float, rho: float, delta: float, alpha: float):
    """Minimal common rate of the symmetric Gaussian Gray-Wyner network:
    (r0, regime, nu_star) with nu_star only in the blended regime."""
    r = abs(rho)
    d = delta / sigma2 * math.exp(alpha)
    if d > 1.0:
        return 0.0, "INFEASIBLE_ZERO", None
    if d >= 1.0 - r:
        r0 = max(0.5 * math.log((1.0 + r) / (2.0 * d + r - 1.0)), 0.0)
        nu = min(max(d / (2.0 * d - 1.0 + r), 1.0 / (1.0 + r)), 1.0)
        return r0, "BLEND", nu
    return max(math.log(math.sqrt(1.0 - r * r) / d), 0.0), "SATURATED_NU", None


def close(got, want, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """``got`` equals ``want`` within the tolerances; infinities must match."""
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= abs_tol + rel * abs(want)
