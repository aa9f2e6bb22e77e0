"""Tolerance-aware dense linear algebra: rank decisions, pseudoinverses,
null-space bases and antisymmetric solves.

All downstream constructions funnel their rank and equality decisions
through this module so that one set of cutoffs governs the whole pipeline.

Index convention used throughout the package: an object ``X^a_b`` is stored
with ``a`` as the row index and ``b`` as the column index, so index
contractions become left-to-right matrix products.

Every matrix function here except null_basis also takes a stack
(..., m, n) of matrices of one shape and works on each matrix of it,
returning one value per matrix; a single matrix gives a single value.
One SVD (svd_factors) serves a matrix's rank, pseudoinverse and
antisymmetric solves; ConstraintSet.factors keeps those of C and Z1.
A matrix given with its inverse has its full rank certified by their
residual (rank_tol), and is counted by an SVD only where that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class InvalidInputError(ValueError):
    """Raised for non-finite or dimensionally inconsistent inputs."""


class NoSolutionError(RuntimeError):
    """Raised when a linear matrix equation is infeasible at tolerance.

    Carries the achieved residual in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs for the constraint pipeline.

    rank_rel
        Relative singular-value cutoff for rank decisions.
    weak_eq
        Residual threshold for equalities that hold only on the
        constraint surface.
    surface
        Constraint-satisfaction threshold for points accepted as
        on-surface.
    """

    rank_rel: float = 1e-10
    weak_eq: float = 1e-8
    surface: float = 1e-10

    def __post_init__(self):
        for name in ("rank_rel", "weak_eq", "surface"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise InvalidInputError(f"{name} must lie in (0, 1), got {v}")
        if self.rank_rel > self.weak_eq:
            raise InvalidInputError(
                "rank_rel must not exceed weak_eq "
                f"({self.rank_rel} > {self.weak_eq})"
            )


DEFAULT_TOL = Tolerance()


def require_int(value, name: str, least: int) -> None:
    """Refuse a value that is not an integer (a bool is not one) or is
    below ``least``, with InvalidInputError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value}")


def check_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    try:
        m = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not a numeric array: {exc}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def require_shape(a, shape: tuple, name: str) -> np.ndarray:
    """a as a float array of ``shape`` with finite entries, else
    InvalidInputError naming it: the check of every point's shape."""
    a = check_finite(a, name)
    if a.shape != shape:
        raise InvalidInputError(
            f"{name} must have shape {shape}, got {a.shape}")
    return a


def mt(m: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack."""
    return m.swapaxes(-1, -2)


def frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack."""
    if m.ndim == 2:
        return np.linalg.norm(m)
    return np.sqrt(np.einsum("...ij,...ij->...", m, m))


def max_abs(m: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each matrix of a stack."""
    return np.abs(m).max(axis=(-2, -1))


def rel_residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Residual of ``a == b`` relative to 1 + the larger operand norm,
    per matrix (Frobenius norms)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = 1.0 + np.maximum(frobenius(a), frobenius(b))
    return frobenius(a - b) / scale


def rank_tol(m: np.ndarray, tol: Tolerance = DEFAULT_TOL, inverse=None):
    """Number of singular values above rank_rel * sigma_max, per matrix.

    ``inverse`` holds a claimed inverse X of each square n x n matrix.
    With r = |I - m X|_F as computed, s = |m|_F |X|_F and u = 2^-53, a
    matrix with 1 - r - e > rank_rel s, e = 2 (n^2 + 2) u + 2 n u s, has
    rank n, with no SVD: e bounds the rounding of m X and of r, so
    sigma_min(m) >= (1 - r - e) / |X|_F, while sigma_max(m) <= |m|_F
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3, 6).
    The bound is symmetric in m and X.  An SVD counts the matrices it
    misses: a rank loss, a poor conditioning or a wrong or non-finite X.
    """
    m = check_finite(m)
    if m.size == 0:
        return 0
    if inverse is None:
        return _rank_of(np.linalg.svd(m, compute_uv=False), tol)
    x = np.asarray(inverse, dtype=float)
    n = m.shape[-1]
    if m.shape[-2:] != (n, n) or x.shape != m.shape:
        raise InvalidInputError("inverse needs a square m of its shape")
    # 2 k u >= gamma_k = k u / (1 - k u); a non-finite X certifies none
    with np.errstate(invalid="ignore", over="ignore"):
        s = frobenius(m) * frobenius(x)
        e = (n * n + 2 + n * s) * 2.0 ** -52
        sure = 1.0 - frobenius(np.eye(n) - m @ x) - e > tol.rank_rel * s
    ranks = np.where(sure, n, 0)
    ranks[~sure] = rank_tol(m[~sure], tol)  # no SVD of an empty stack
    return ranks[()]


def _kept(s: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Mask of the descending singular values s above rank_rel * s[0]."""
    return s > tol.rank_rel * s[..., :1]


def _rank_of(s: np.ndarray, tol: Tolerance):
    """Count of the descending singular values s above rank_rel * s[0]."""
    return _kept(s, tol).sum(axis=-1)


class SVDFactors(NamedTuple):
    """Thin SVD factors of each matrix of a stack, masked to rank_tol's
    cutoff: u's columns and the inverted singular values s_inv beyond the
    rank are zero, so vt's rows beyond it drop out.  Masking instead of
    truncating serves a stack whose matrices differ in rank."""

    u: np.ndarray
    s_inv: np.ndarray
    vt: np.ndarray

    @property
    def rank(self):
        return (self.s_inv > 0).sum(axis=-1)

    @property
    def pinv(self) -> np.ndarray:
        return (mt(self.vt) * self.s_inv[..., None, :]) @ mt(self.u)


def svd_factors(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> SVDFactors:
    u, s, vt = np.linalg.svd(check_finite(m), full_matrices=False)
    keep = _kept(s, tol)
    # a dropped value may be 0; the floor keeps its 0 / s finite
    s_inv = keep / np.maximum(s, np.finfo(float).tiny)
    return SVDFactors(u * keep[..., None, :], s_inv, vt)


def pseudoinverse(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the shared rank cutoff."""
    return svd_factors(m, tol).pinv


def null_basis(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical right null space, as columns.

    Column count equals ``cols(m) - rank_tol(m)``.
    """
    m = check_finite(m)
    if m.shape[0] == 0 or not m.any():
        return np.eye(m.shape[1])
    _, s, vt = np.linalg.svd(m)
    return vt[int(_rank_of(s, tol)):].T.copy()


def skew_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - mt(m))


def is_antisymmetric(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether every matrix of m is antisymmetric within weak_eq."""
    m = np.asarray(m, dtype=float)
    scale = 1.0 + frobenius(m)
    return bool((frobenius(m + mt(m)) <= tol.weak_eq * scale).all())


def symplectic_block(n: int) -> np.ndarray:
    """Canonical antisymmetric invertible matrix [[0, I], [-I, 0]] of size n.

    Requires even n: odd-dimensional antisymmetric matrices are singular.
    """
    if n % 2 != 0:
        raise InvalidInputError(
            f"no invertible antisymmetric matrix exists in odd dimension {n}"
        )
    half = n // 2
    j = np.zeros((n, n))
    j[:half, half:] = np.eye(half)
    j[half:, :half] = -np.eye(half)
    return j


def skew_solve(
    c: np.ndarray,
    target: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    *,
    with_product: bool = False,
    factors: SVDFactors | None = None,
):
    """Minimum-norm antisymmetric solution M of ``M @ c ~= target``.

    ``c`` must be square and antisymmetric within weak_eq.  Its SVD, or
    the ``factors`` given, gives X = target @ pinv(c) and the projector
    P_ker onto ker(c); M is the antisymmetric part of X - (P_ker X)^T,
    which is skew_part(target @ pinv(c)) when range(target) lies in range(c).

    Precondition: some antisymmetric M solves the equation, i.e. target
    vanishes on ker(c) and P target pinv(c) P is antisymmetric for P the
    projector onto range(c).  Oblique targets I - Z Abar with Z spanning
    ker(c) and Abar Z = I qualify.  Otherwise NoSolutionError is raised,
    as |M c - target| exceeds ``weak_eq * (1 + |target|)``.  The result
    is exactly antisymmetric.  With ``with_product`` the pair
    (M, M @ c) is returned unchecked, the product formed with c itself,
    so that the caller records the residual of M @ c = target as its own
    check.  On a stack every matrix is solved, and one that fails raises
    with the worst residual.
    """
    c = check_finite(c, "c")
    target = check_finite(target, "target")
    n = c.shape[-1]
    if c.shape[-2:] != (n, n) or target.shape[-2:] != (n, n):
        raise InvalidInputError("skew_solve needs square matrices of one size")
    if not is_antisymmetric(c, tol):
        raise InvalidInputError("c is not antisymmetric within weak_eq")

    u, s_inv, vt = svd_factors(c, tol) if factors is None else factors
    y = target @ (mt(vt) * s_inv[..., None, :])  # X = target @ pinv(c)
    # P_ker X is the block of M mapping range(c) into ker(c); X lacks its
    # mirrored block -(P_ker X)^T
    y_ker = y - u @ (mt(u) @ y)
    m = skew_part(y @ mt(u) - u @ mt(y_ker))
    mc = m @ c
    if with_product:
        return m, mc
    residual = frobenius(mc - target)
    if (residual > tol.weak_eq * (1.0 + frobenius(target))).any():
        raise NoSolutionError("target is not reachable as M @ c",
                              float(np.max(residual)))
    return m
