"""Tolerance-aware dense linear algebra: rank decisions, pseudoinverses,
null-space bases and antisymmetric solves.

All downstream constructions funnel their rank and equality decisions
through this module so that one set of cutoffs governs the whole pipeline.

Index convention used throughout the package: an object ``X^a_b`` is stored
with ``a`` as the row index and ``b`` as the column index, so index
contractions become left-to-right matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


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


def check_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def weak_equal(a: np.ndarray, b: np.ndarray, tol: Tolerance) -> bool:
    """Scale-aware equality: residual <= weak_eq * (1 + larger norm)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = 1.0 + max(np.linalg.norm(a), np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) <= tol.weak_eq * scale


def rel_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Residual of ``a == b`` relative to 1 + the larger operand norm."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = 1.0 + max(np.linalg.norm(a), np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / scale


def rank_tol(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above rank_rel * sigma_max."""
    m = check_finite(m)
    if m.size == 0:
        return 0
    return _rank_of(scipy.linalg.svdvals(m), tol)


def _rank_of(s: np.ndarray, tol: Tolerance) -> int:
    """Count of the descending singular values s above rank_rel * s[0]."""
    return int(np.sum(s > tol.rank_rel * s[0])) if s.size else 0


def _svd_kept(m: np.ndarray, tol: Tolerance):
    """Thin SVD factors of m truncated to the rank cutoff of rank_tol."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    r = _rank_of(s, tol)
    return u[:, :r], s[:r], vt[:r]


def pinv_rank(
    m: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, int]:
    """Pseudoinverse and numerical rank of m from a single SVD.

    The rank counts singular values above rank_rel * sigma_max, as in
    rank_tol, and the pseudoinverse inverts exactly those.
    """
    m = check_finite(m)
    if m.size == 0:
        return m.T.copy(), 0
    u, s, vt = _svd_kept(m, tol)
    return (vt.T / s) @ u.T, s.size


def pseudoinverse(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the shared rank cutoff."""
    return pinv_rank(m, tol)[0]


def null_basis(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical right null space, as columns.

    Column count equals ``cols(m) - rank_tol(m)``.
    """
    m = check_finite(m)
    if m.shape[0] == 0 or not m.any():
        return np.eye(m.shape[1])
    _, s, vt = np.linalg.svd(m)
    return vt[_rank_of(s, tol):].T.copy()


def skew_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - m.T)


def is_antisymmetric(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    m = np.asarray(m, dtype=float)
    scale = 1.0 + np.linalg.norm(m)
    return float(np.linalg.norm(m + m.T)) <= tol.weak_eq * scale


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


def range_projector(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the numerical column space of m."""
    u = _svd_kept(check_finite(m), tol)[0]
    return u @ u.T


def skew_solve(
    c: np.ndarray,
    target: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    *,
    with_product: bool = False,
):
    """Minimum-norm antisymmetric solution M of ``M @ c ~= target``.

    ``c`` must be square and antisymmetric within weak_eq.  One SVD of c
    gives X = target @ pinv(c) and the projector P_ker onto ker(c); M is
    the antisymmetric part of X - (P_ker X)^T, which is
    skew_part(target @ pinv(c)) when range(target) lies in range(c).

    Precondition: some antisymmetric M solves the equation, i.e. target
    vanishes on ker(c) and P target pinv(c) P is antisymmetric for P the
    projector onto range(c).  Oblique targets I - Z Abar with Z spanning
    ker(c) and Abar Z = I qualify.  Otherwise NoSolutionError is raised,
    as |M c - target| exceeds ``weak_eq * (1 + |target|)``.  The result
    is exactly antisymmetric.  With ``with_product`` the pair
    (M, M @ c) is returned, the product being the one the residual test
    forms, so callers checking M @ c need not form it again.
    """
    c = check_finite(c, "c")
    target = check_finite(target, "target")
    n = c.shape[0]
    if c.shape != (n, n) or target.shape != (n, n):
        raise InvalidInputError("skew_solve needs square matrices of one size")
    if not is_antisymmetric(c, tol):
        raise InvalidInputError("c is not antisymmetric within weak_eq")

    u, s, vt = _svd_kept(c, tol)
    y = target @ (vt.T / s)  # X = target @ pinv(c) = y @ u.T
    # P_ker X is the block of M mapping range(c) into ker(c); X lacks its
    # mirrored block -(P_ker X)^T
    y_ker = y - u @ (u.T @ y)
    m = skew_part(y @ u.T - u @ y_ker.T)
    mc = m @ c
    residual = float(np.linalg.norm(mc - target))
    if residual > tol.weak_eq * (1.0 + np.linalg.norm(target)):
        raise NoSolutionError("target is not reachable as M @ c", residual)
    return (m, mc) if with_product else m
