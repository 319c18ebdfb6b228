"""Seeded input generators.

Every input is a pure function of (seed, workload tag, op index), so a run
can regenerate op i without keeping earlier inputs and memory stays flat.
"""

from __future__ import annotations

import numpy as np

# Steps of the two-dimensional R2 sequence (powers of 1/g, g the plastic
# number), whose points cover the unit square evenly at every length.
_G = 1.32471795724474602596
_STEPS = (1.0 / _G, 1.0 / _G ** 2)
WARMUP_INDEX = 2 ** 31   # op index of the untimed warm-up op


def op_rng(seed: int, tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, i])


def stratified(seed: int, tag: int, i: int, dim: int = 0) -> float:
    """Coordinate ``dim`` (0 or 1) of op i's point in [0, 1)^2: an R2
    sequence from a seeded start. Every prefix covers the square evenly, so
    the mix of input properties drawn from it, and with it the mean cost of
    an op, barely depends on the seed or the run length."""
    start = np.random.default_rng([seed, tag, dim]).random()
    return (start + (i + 1) * _STEPS[dim]) % 1.0


def log_uniform_int(u: float, lo: int, hi: int) -> int:
    return int(round(lo * (hi / lo) ** u))


def _scaled_frame(rng, d: int, rank: int) -> np.ndarray:
    """d x rank matrix with orthonormal columns times scales in [0.5, 2]:
    condition number at most 4 on its range."""
    q, _ = np.linalg.qr(rng.standard_normal((d, rank)))
    return q * rng.uniform(0.5, 2.0, rank)


def planted_cov(rng, dx: int, dy: int, rhos, rank_x: int, rank_y: int):
    """(K_x, K_xy, K_y) whose canonical correlations are exactly ``rhos``
    (zero-padded to max(dx, dy)).

    K_x = A A^T, K_y = B B^T and K_xy = A R B^T with R = diag(rhos) of shape
    rank_x x rank_y. The whitened cross-covariance is then U R V^T with
    orthonormal U, V, whose singular values are the planted ``rhos``.
    """
    a = _scaled_frame(rng, dx, rank_x)
    b = _scaled_frame(rng, dy, rank_y)
    r = np.zeros((rank_x, rank_y))
    r[np.arange(len(rhos)), np.arange(len(rhos))] = rhos
    return a @ a.T, a @ r @ b.T, b @ b.T


def correlations(rng, m: int, high: float = 0.99) -> list[float]:
    """m descending correlations in [0, high] with ties and a few zeros."""
    rhos = rng.uniform(0.0, high, m)
    if m >= 4:
        ties = rng.choice(m, size=max(1, m // 10), replace=False)
        rhos[ties] = rhos[rng.choice(m, size=len(ties))]
        rhos[rng.choice(m, size=max(1, m // 20), replace=False)] = 0.0
    return sorted(map(float, rhos), reverse=True)
