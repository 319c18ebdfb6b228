"""Jointly Gaussian vector pairs: covariance validation, pseudo-inverse
matrix square roots, canonical correlations, and the vector extension of the
scalar common-information formula.

The pipeline is: factor each diagonal block once (after checking it is
finite and symmetric), whiten the cross-covariance on both sides, read the
canonical correlations off an SVD of the whitened block, then water-fill the
budget across the resulting independent scalar pairs. A block that is
certified full rank is whitened with the inverse of its Cholesky factor;
any other block is eigendecomposed, checked for PSD, and whitened in its
eigenbasis with its numerical null space set apart. The stacked covariance
is never decomposed: it is PSD exactly when both blocks are, the
cross-covariance lies in their ranges, and no canonical correlation exceeds
1 (Bjorck & Golub 1973), and the whitening and the SVD already show all
three.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .allocation import Allocation, CanonicalSpectrum, waterfill
from .errors import CovarianceError, ParameterError
from .scalar import validate_budget

__all__ = [
    "PSD_RTOL",
    "RANK_RTOL",
    "SYMMETRY_RTOL",
    "CanonicalSpectrum",
    "JointGaussianCov",
    "VectorCI",
    "canonical_correlations",
    "pinv_sqrt",
    "validate_cov",
    "wyner_ci_vector",
]

SYMMETRY_RTOL = 1e-9    # relative Frobenius asymmetry tolerated on blocks
PSD_RTOL = 1e-9         # min eigenvalue >= -PSD_RTOL * max eigenvalue
RANK_RTOL = 1e-10       # eigenvalues below RANK_RTOL * max count as zero


@dataclass(frozen=True, eq=False)
class JointGaussianCov:
    """Covariance of a stacked pair of Gaussian vectors, held as blocks.

    Parameters
    ----------
    k_x : (dx, dx) array_like
        Covariance of the first vector.
    k_xy : (dx, dy) array_like
        Cross-covariance.
    k_y : (dy, dy) array_like
        Covariance of the second vector.

    Both vectors must have at least one component. Records compare and
    hash by identity: the generated field-wise ``==`` cannot compare arrays.
    """

    k_x: np.ndarray
    k_xy: np.ndarray
    k_y: np.ndarray

    def __post_init__(self):
        for name in ("k_x", "k_xy", "k_y"):
            try:
                arr = np.array(getattr(self, name), dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParameterError(f"{name} is not a numeric matrix: {exc}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("k_x", "k_y"):
            block = getattr(self, name)
            if block.ndim != 2 or block.shape[0] != block.shape[1]:
                raise ParameterError(
                    f"{name} must be square, got shape {block.shape}")
            if block.size == 0:
                raise ParameterError(f"{name} must not be empty")
        if self.k_xy.ndim != 2 or self.k_xy.shape != (self.dim_x, self.dim_y):
            raise ParameterError(
                f"k_xy must have shape ({self.dim_x}, {self.dim_y}), "
                f"got {self.k_xy.shape}")

    def __reduce__(self):
        # copies and pickles are rebuilt through __init__, so their blocks
        # are copied and frozen too; the default protocol skips __post_init__
        return type(self), (self.k_x, self.k_xy, self.k_y)

    @property
    def dim_x(self) -> int:
        return self.k_x.shape[0]

    @property
    def dim_y(self) -> int:
        return self.k_y.shape[0]

    @classmethod
    def from_joint(cls, joint, dim_x: int) -> "JointGaussianCov":
        """Split one stacked covariance matrix into blocks.

        ``dim_x`` must be a whole number: an int, a numpy integer, or a
        float with no fractional part. A bool or a string is rejected.
        """
        try:
            joint = np.array(joint, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"joint covariance is not numeric: {exc}")
        if joint.ndim != 2 or joint.shape[0] != joint.shape[1]:
            raise ParameterError(
                f"joint covariance must be square, got shape {joint.shape}")
        if isinstance(dim_x, float) and dim_x.is_integer():
            dim_x = int(dim_x)
        if isinstance(dim_x, bool) or not isinstance(dim_x, (int, np.integer)):
            raise ParameterError(f"dim_x must be a whole number, got {dim_x!r}")
        d = int(dim_x)
        n = joint.shape[0]
        if not 0 < d < n:
            try:
                got = str(d)
            except ValueError:  # past Python's int-to-str digit limit
                got = "an int too long to print"
            raise ParameterError(
                f"dim_x must lie strictly between 0 and {n}, got {got}")
        return cls(joint[:d, :d], joint[:d, d:], joint[d:, d:])


class _Block(NamedTuple):
    """One validated diagonal block, ready to whiten a cross-covariance.

    The block is factored after division by ``root**2``, a power of two, so
    ``sym``, ``basis`` and ``whiten`` are in those scaled units. A
    cross-covariance M is whitened from this side as
    ``whiten[:, None] * (basis.T @ M)``. On the eigenvalue route ``basis``
    holds the eigenvectors, eigenvalues ascending, and ``whiten`` holds
    1/sqrt(eigenvalue), dropped ones at the floor. On the Cholesky route
    ``basis`` is L^-T and ``whiten`` is None.
    """

    sym: np.ndarray      # exactly symmetric copy, divided by root**2
    basis: np.ndarray
    whiten: np.ndarray | None
    dropped: int         # leading eigenvalues at most RANK_RTOL * max
    root: float


def _symmetric(name: str, block: np.ndarray) -> tuple[np.ndarray, float,
                                                        float]:
    """Check one square block for finiteness and symmetry. Return its
    exactly symmetric part divided by ``root**2``, the Frobenius norm of
    the divided block, and ``root``."""
    if not np.all(np.isfinite(block)):
        raise CovarianceError(f"{name} contains non-finite entries")
    # Dividing by a power of two near the largest entry is exact and keeps
    # every norm and eigenvalue below in range, whatever the units.
    root = 2.0 ** (math.frexp(float(np.max(np.abs(block))))[1] // 2)
    scaled = block / root
    scaled /= root
    asym = float(np.linalg.norm(scaled - scaled.T))
    norm = float(np.linalg.norm(scaled))
    if asym > SYMMETRY_RTOL * norm:
        raise CovarianceError(
            f"{name} is not symmetric: ||K - K^T||_F / ||K||_F = "
            f"{asym / norm:.3e} exceeds {SYMMETRY_RTOL:.0e}")
    sym = scaled + scaled.T
    sym *= 0.5
    return sym, norm, root


def _eigen(name: str, sym: np.ndarray, root: float) -> _Block:
    """Check a symmetric block for PSD and eigendecompose it.

    Eigenvalues at most ``RANK_RTOL`` times the largest are the numerical
    null space. Their whitening weight uses ``PSD_RTOL`` times the largest
    eigenvalue in their place, so a cross-covariance that leaves the block's
    range lifts the norm of the whitened cross-covariance above 1.
    """
    values, vectors = np.linalg.eigh(sym)
    lo, hi = float(values[0]), float(values[-1])
    if lo < -PSD_RTOL * max(hi, 0.0):
        raise CovarianceError(
            f"{name} is not positive semi-definite: min eigenvalue "
            f"{lo * root * root:.6e} (max eigenvalue {hi * root * root:.6e})")
    dropped = int(np.count_nonzero(values <= RANK_RTOL * hi))
    # an all-zero block has hi = 0; its floor stays positive so the weights
    # are finite, and any cross-covariance above ~1e-154 is rejected
    values[:dropped] = max(PSD_RTOL * hi, sys.float_info.min)
    return _Block(sym, vectors, 1.0 / np.sqrt(values), dropped, root)


# Lower-triangular blocks up to this size are inverted by np.linalg.inv;
# larger ones by halves, through matrix products.
_TRIL_LEAF = 32


def _tril_inv(low: np.ndarray) -> None:
    """Overwrite a lower-triangular matrix with its inverse.

    numpy has no triangular solve, and a general inverse costs nearly as
    much as an eigendecomposition; by halves, the work is matrix products:
    inv([[A, 0], [B, C]]) = [[inv(A), 0], [-inv(C) B inv(A), inv(C)]].
    """
    n = low.shape[0]
    if n <= _TRIL_LEAF:
        low[...] = np.linalg.inv(low)
        return
    h = n // 2
    _tril_inv(low[:h, :h])
    _tril_inv(low[h:, h:])
    np.matmul(low[h:, h:] @ low[h:, :h], low[:h, :h], out=low[h:, :h])
    np.negative(low[h:, :h], out=low[h:, :h])


def _cholesky(sym: np.ndarray, norm: float, root: float) -> _Block | None:
    """Whiten a block with its Cholesky factor, when that provably drops no
    direction; else return None.

    With sym = L L^T, every eigenvalue lies in [1 / ||L^-1||_F^2, ||K||_F],
    ``norm`` being ||K||_F. So once 1 / ||L^-1||_F^2 exceeds four times
    RANK_RTOL * ||K||_F, the eigenvalue route would find the least
    eigenvalue above RANK_RTOL times the largest: it would drop nothing,
    raise nothing, and floor no weight. The factor of 4 absorbs the rounding
    of both routes: each factorization is exact for a block within a few
    d * eps * ||K|| of sym, and 3 * RANK_RTOL * ||K|| exceeds that for any
    d below 10^5. A pivot L_ii^2 is at least the least eigenvalue, so a
    small one fails the test before L is inverted.
    """
    try:
        low = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return None
    cutoff = 4.0 * RANK_RTOL * norm
    if float(np.min(np.diagonal(low))) ** 2 <= cutoff:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        _tril_inv(low)
        inv_norm = float(np.linalg.norm(low))
    # written so that an inf or nan norm fails too
    if not inv_norm * inv_norm * cutoff < 1.0:
        return None
    return _Block(sym, low.T, None, 0, root)


def _block(name: str, block: np.ndarray) -> _Block:
    """Check one square block for finiteness, symmetry and PSD, and factor
    it once: by Cholesky when it is certified full rank, else by ``eigh``."""
    sym, norm, root = _symmetric(name, block)
    return _cholesky(sym, norm, root) or _eigen(name, sym, root)


def _range_bound(w: np.ndarray, dx: int, dy: int, top: float) -> float:
    """An upper bound on ||W||_2 from ``top``, the norm of its kept block.

    Split W = [[P, Q], [R, K]] with K = W[dx:, dy:]. Stacking rows or
    columns adds squared norms at most, so ||W||^2 <= ||[P Q]||^2 +
    ||R||^2 + ||K||^2, and each of the first two is at most its Frobenius
    norm squared. Where the bound is tight, ``top`` and the norm that
    ``np.linalg.norm(w, 2)`` computes differ by rounding, so the bound is
    raised by a few units of it.
    """
    slack = 1.0 + 4.0 * (w.shape[0] + w.shape[1]) * sys.float_info.epsilon
    return slack * math.hypot(top, float(np.linalg.norm(w[:dx])),
                              float(np.linalg.norm(w[dx:, :dy])))


def _canonical(cov: JointGaussianCov) -> tuple[_Block, _Block, np.ndarray]:
    """Validate ``cov`` and return its two factored blocks with the
    descending singular values of the whitened cross-covariance.

    W = L_x^-1 K_xy L_y^-T on the Cholesky route, or U_x^T K_xy U_y in the
    eigenbasis, scaled by 1/sqrt(eigenvalue) on each side; a pair may take
    one route on each side. The kept rows and columns give the canonical
    correlations. 1 - ||W|| is the least eigenvalue of the whitened stacked
    covariance [[I, W], [W^T, I]], where W is the whole whitened block, its
    dropped rows and columns whitened with the floor. Without dropped
    directions ||W|| is the largest canonical correlation; with them it is
    the norm of the whole block, since the kept block and the dropped rows
    and columns can each have norm at most 1 while W does not. That norm
    takes a second SVD only when the bound of :func:`_range_bound` exceeds
    1 + PSD_RTOL.
    """
    if not isinstance(cov, JointGaussianCov):
        raise ParameterError(
            f"expected a JointGaussianCov, got {type(cov).__name__}")
    if not np.all(np.isfinite(cov.k_xy)):
        raise CovarianceError("k_xy contains non-finite entries")
    x = _block("k_x", cov.k_x)
    y = _block("k_y", cov.k_y)
    # only a cross-covariance far outside the blocks' ranges overflows
    with np.errstate(over="ignore", invalid="ignore"):
        w = x.basis.T @ (cov.k_xy / x.root / y.root) @ y.basis
        if x.whiten is not None:
            w *= x.whiten[:, None]
        if y.whiten is not None:
            w *= y.whiten
    svals = np.zeros(0)
    worst = np.inf
    if np.all(np.isfinite(w)):
        svals = np.linalg.svd(w[x.dropped:, y.dropped:], compute_uv=False)
        worst = float(svals[0]) if svals.size else 0.0
        if x.dropped or y.dropped:
            worst = _range_bound(w, x.dropped, y.dropped, worst)
            if worst > 1.0 + PSD_RTOL:
                worst = float(np.linalg.norm(w, 2))
    if worst > 1.0 + PSD_RTOL:
        raise CovarianceError(
            "stacked covariance is not positive semi-definite: min "
            f"eigenvalue {1.0 - worst:.6e} after whitening each block")
    return x, y, svals


def validate_cov(cov: JointGaussianCov) -> JointGaussianCov:
    """Check finiteness, block symmetry, and joint positive
    semi-definiteness; return a copy with exactly symmetric diagonal blocks.

    Each block is checked and factored once, and joint PSD is read
    off the whitened cross-covariance (see :func:`canonical_correlations`),
    so the decision does not depend on the units of X or of Y. Raises
    :class:`CovarianceError` naming the violated invariant, quoting the
    offending eigenvalue for PSD failures.
    """
    x, y, _ = _canonical(cov)
    return JointGaussianCov(x.sym * x.root * x.root, cov.k_xy,
                            y.sym * y.root * y.root)


def pinv_sqrt(m) -> np.ndarray:
    """Inverse square root of a symmetric PSD matrix on its range.

    Eigenvalues above ``RANK_RTOL`` times the largest are inverted under the
    square root; the rest (the numerical null space) map to zero. For
    full-rank input ``R = pinv_sqrt(m)`` satisfies R m R = identity; in
    general R m R is the orthogonal projector onto range(m).
    """
    try:
        m = np.array(m, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"matrix is not numeric: {exc}")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ParameterError(
            f"matrix must be square and non-empty, got shape {m.shape}")
    sym, _, root = _symmetric("matrix", m)
    block = _eigen("matrix", sym, root)
    inv_roots = block.whiten / root
    inv_roots[:block.dropped] = 0.0
    return (block.basis * inv_roots) @ block.basis.T


def canonical_correlations(cov: JointGaussianCov) -> CanonicalSpectrum:
    """Singular values of the whitened cross-covariance, padded with zeros.

    Each block is factored once. A block whose Cholesky factor L certifies
    that no eigenvalue is at most ``RANK_RTOL`` times the largest whitens
    with L^-1; any other block is eigendecomposed, and the cross-covariance
    is rotated into its eigenbasis and scaled by 1/sqrt(eigenvalue). The
    kept block of the whitened cross-covariance (directions above
    ``RANK_RTOL``) goes through one SVD. The same whitening decides joint
    PSD: if the whitened cross-covariance has spectral norm above
    1 + ``PSD_RTOL`` (its largest canonical correlation when both blocks
    have full rank, else the norm of the whole block, with dropped
    directions floored), :class:`CovarianceError` is raised. That norm is
    first bounded from the kept block's norm and the Frobenius norm of the
    rest, and a second SVD runs only when the bound exceeds
    1 + ``PSD_RTOL``. Values in (1, 1 + ``PSD_RTOL``] read as 1.

    The spectrum is padded with zeros to max(dx, dy), so pairs of unequal
    length behave as if the shorter vector were extended with independent
    components.
    """
    svals = _canonical(cov)[2]
    rhos = np.minimum(svals, 1.0).tolist()
    rhos.extend([0.0] * (max(cov.dim_x, cov.dim_y) - len(rhos)))
    return CanonicalSpectrum(tuple(rhos))


class VectorCI(NamedTuple):
    """Relaxed common information of a vector pair plus the evidence."""

    value_nats: float
    spectrum: CanonicalSpectrum
    allocation: Allocation


def wyner_ci_vector(cov: JointGaussianCov, gamma: float) -> VectorCI:
    """Relaxed Wyner common information for jointly Gaussian vectors.

    Whitens to canonical components, then water-fills the budget across
    them. A canonical correlation of exactly 1 makes the value infinite for
    any finite budget (the pair shares a lossless common component).
    """
    gamma = validate_budget(gamma)
    spectrum = canonical_correlations(cov)
    alloc = waterfill(spectrum, gamma)
    return VectorCI(alloc.total_value, spectrum, alloc)
