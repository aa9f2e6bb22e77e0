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
A matrix's rank, pseudoinverse and range projector come as one Factors:
from one inverse of the matrix completed on the kernel the reducibility
chain names (kernel_factors), its rank certified from both sides, or
from one SVD (svd_route) where a certificate fails or no chain names
the kernel.  skew_solve reads the pair (pinv, range projector) either
way; ConstraintSet keeps the Factors of B, C and Z1 of a constant set.
A matrix given with its inverse has its full rank certified by their
residual (rank_tol, sigma_floor), and is counted by an SVD only where
that fails.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
            if not (isinstance(v, numbers.Real) and 0.0 < v < 1.0):
                raise InvalidInputError(
                    f"{name} must be a real number in (0, 1), got {v!r}")
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
    if not np.isfinite(m).all():
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
        # numpy.linalg.norm's own sum for a real matrix, without its checks
        x = m.ravel(order="K")
        return np.sqrt(x.dot(x))
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

    ``inverse`` holds a claimed inverse X of each square n x n matrix,
    which certifies rank n with no SVD where sigma_floor(m, X) >
    rank_rel |m|_F, since sigma_max(m) <= |m|_F.  The bound is symmetric
    in m and X.  An SVD counts the matrices it misses: a rank loss, a
    poor conditioning or a wrong or non-finite X.
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
    sure = sigma_floor(m, x) > tol.rank_rel * frobenius(m)
    ranks = np.where(sure, n, 0)
    ranks[~sure] = rank_tol(m[~sure], tol)  # no SVD of an empty stack
    return ranks[()]


def sigma_floor(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A proved lower bound on sigma_min of each square n x n matrix m of
    a stack, from a claimed inverse x; 0 where it proves nothing.

    With r = |I - m x|_F as computed and e = 2 (n^2 + 2) u + 2 n u
    |m|_F |x|_F, u = 2^-53, which bounds the rounding of m x and of r,
    sigma_min(m) >= (1 - r - e) / |x|_F (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., ch. 3 and 6).  A non-finite x
    proves nothing.
    """
    n = m.shape[-1]
    # 2 k u >= gamma_k = k u / (1 - k u)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        nx = frobenius(x)
        e = (n * n + 2 + n * frobenius(m) * nx) * 2.0 ** -52
        low = (1.0 - frobenius(np.eye(n) - m @ x) - e) / nx
    return np.fmax(low, 0.0)  # and 0 for a NaN


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


class Factors(NamedTuple):
    """The pseudoinverse and rank of each matrix of a stack, with the
    orthogonal projector onto its range where a solve reads it (else
    None).  ``svd`` marks the matrices an SVD counted; each other one has
    low <= sigma_rank and sigma_{rank+1} <= high proved by the inverse of
    its completion (kernel_factors).  An SVD-counted one has low 0 and
    high inf: no bound, so no certificate builds on it."""

    pinv: np.ndarray
    rank: np.ndarray
    proj: Optional[np.ndarray]
    low: np.ndarray
    high: np.ndarray
    svd: np.ndarray


def svd_route(m: np.ndarray, tol: Tolerance = DEFAULT_TOL,
              proj: bool = False) -> Factors:
    """Factors of each matrix of m from its SVD, the range projector
    formed only with ``proj``."""
    f = svd_factors(m, tol)
    batch = m.shape[:-2]
    return Factors(f.pinv, f.rank, f.u @ mt(f.u) if proj else None,
                   np.zeros(batch), np.full(batch, np.inf),
                   np.ones(batch, bool))


def _gamma(k: int) -> float:
    """2 (k + 2) u, u = 2^-53: bounds the relative rounding of a product
    of inner dimension k and of the sums after it (Higham, ch. 3)."""
    return (k + 2) * 2.0 ** -52


def kernel_factors(m: np.ndarray, w: np.ndarray, wf: Optional[Factors],
                   tol: Tolerance = DEFAULT_TOL, *,
                   skew: bool = False) -> Factors:
    """Factors of each matrix m of a stack whose right kernel the
    reducibility chain names: the columns of w span it, rank(w) =
    wf.rank, so rank(m) = cols(m) - rank(w) (cols(m) when w has no
    columns; wf is then not read).  One inverse of m completed on that
    kernel replaces the SVD:

    - skew (m square and antisymmetric, so its range is the kernel's
      complement): K = m + a w w^T, a ~ |m|_F / |w|_F^2, pinv(m) =
      K^-1 - pinv(w)^T pinv(w) / a, and the range projector is
      I - w pinv(w);
    - otherwise: K = m^T m + a w w^T, a ~ |m|_F^2 / |w|_F^2, and
      pinv(m) = K^-1 m^T;

    a being the power of 2 nearest the ratio.

    The rank is certified from both sides (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 6 and 12).  Below:
    by Weyl, removing the rank(w) leading terms of a w w^T leaves
    sigma_rank(m) (its square for the Gram form) at least
    sigma_floor(K, K^-1), less K's rounding and a times w's trailing
    singular values squared (wf.high^2).  Above: by Courant-Fischer on
    the span of w's leading left singular vectors, sigma_{rank+1}(m) <=
    |m w| / sigma_rank(w) <= (|m w|_F + m w's rounding) / wf.low, the
    rounding at most gamma_n |m|_F |w|_F (gamma_n ||m| |w||_F where that
    is too weak).  With sigma_max(m) at most |m|_F and at least
    |m|_F / sqrt(min dim) (or _sigma_max_floor where that is too weak),
    a low above rank_rel |m|_F and a high below rank_rel times the lower
    bound of sigma_max prove that an SVD would count this rank.  The
    matrices that miss either bound, or whose K ``inv`` refuses, are
    counted by svd_route, and ``svd`` marks them; where every one misses
    the upper bound, no K is inverted.
    """
    n, k = m.shape[-1], w.shape[-1]
    batch = m.shape[:-2]
    if not min(m.shape[-2:]):
        return Factors(np.zeros(batch + m.shape[:-3:-1]),
                       np.zeros(batch, int), np.zeros(m.shape) if skew
                       else None, np.full(batch, np.inf), np.zeros(batch),
                       np.zeros(batch, bool))
    norm = frobenius(m)
    rank, high = np.full(batch, n), np.zeros(batch)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if k:
            wn, mw = frobenius(w), frobenius(m @ w)
            rank = rank - wf.rank
            high = (mw + _gamma(n) * norm * wn) / wf.low
        fits = high < tol.rank_rel * norm / np.sqrt(min(m.shape[-2:]))
        if not fits.all():
            # the sharper bounds: of m w's rounding, by |m| |w|, and of
            # sigma_max
            if k:
                high = (mw + _gamma(n) * frobenius(np.abs(m) @ np.abs(w))
                        ) / wf.low
            fits = high < tol.rank_rel * _sigma_max_floor(m)
            if not fits.any():
                return svd_route(m, tol, proj=skew)
        comp = m if skew else mt(m) @ m
        size = norm if skew else norm * norm
        # K's rounding: m^T m's, a w w^T's and their sum's
        slack = 0.0 if skew else _gamma(m.shape[-2]) * size
        if k:
            # a power of 2 scales exactly, so a stack and each of its
            # systems alone complete their matrices alike, bit for bit
            coef = np.asarray(np.exp2(np.round(np.log2(size / (wn * wn)))))
            comp = comp + coef[..., None, None] * (w @ mt(w))
            slack = slack + 2.0 * _gamma(k) * size + coef * wf.high ** 2
        try:
            x = np.linalg.inv(comp)
        except np.linalg.LinAlgError:
            x = np.full(comp.shape, np.nan)
        low = sigma_floor(comp, x) - slack
        if not skew:
            low = np.sqrt(low)
        if skew:
            pinv, proj = x, np.eye(n)
            if k:
                pinv = x - mt(wf.pinv) @ wf.pinv / coef[..., None, None]
                proj = proj - w @ wf.pinv
        else:
            pinv, proj = x @ mt(m), None
    sure = fits & (low > tol.rank_rel * norm)
    f = Factors(pinv, rank, proj, low, high, np.zeros(batch, bool))
    if sure.all():
        return f
    # numpy indexes a single matrix by a 0-d mask as a stack of one
    fell = svd_route(m[~sure], tol, proj=skew)
    return Factors(*(None if a is None else _put(a, ~sure, b)
                     for a, b in zip(f, fell)))


def _sigma_max_floor(m: np.ndarray) -> np.ndarray:
    """A lower bound on sigma_max of each matrix of a stack, at least
    |m|_F / sqrt(min dim) and often near sigma_max: |m t| / |t| for
    t = m^T m r, r a fixed vector, less the rounding of m t and of the
    norms (2 gamma_n |m|_F)."""
    def length(v):
        return np.sqrt(np.einsum("...i,...i->...", v, v))

    n = m.shape[-1]
    t = (mt(m) @ (m @ np.cos(np.arange(n)))[..., None])[..., 0]
    power = (length((m @ t[..., None])[..., 0]) / length(t)
             - 2.0 * _gamma(n) * frobenius(m))
    return np.fmax(frobenius(m) / np.sqrt(min(m.shape[-2:])), power)


def _put(a, where: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a, spread over the stack of the mask ``where``, with b at it."""
    a = np.array(np.broadcast_to(a, where.shape + np.shape(b)[1:]))
    a[where] = b
    return a


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

    Requires an integer n >= 0, and even: odd-dimensional antisymmetric
    matrices are singular.
    """
    require_int(n, "n", 0)
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
    factors: Optional[tuple] = None,
):
    """Minimum-norm antisymmetric solution M of ``M @ c ~= target``.

    ``c`` must be square and antisymmetric within weak_eq.  ``factors``
    is the pair (pinv(c), P) with P the orthogonal projector onto
    range(c), from the chain (kernel_factors) or the SVD (svd_route, the
    default): with X = target @ pinv(c), M is the antisymmetric part of
    X - ((I - P) X)^T, which is skew_part(target @ pinv(c)) when
    range(target) lies in range(c).

    Precondition: some antisymmetric M solves the equation, i.e. target
    vanishes on ker(c) and P target pinv(c) P is antisymmetric.  Oblique
    targets I - Z Abar with Z spanning ker(c) and Abar Z = I qualify.
    Otherwise NoSolutionError is raised, as |M c - target| exceeds
    ``weak_eq * (1 + |target|)``.  The result is exactly antisymmetric.
    With ``with_product`` the pair (M, M @ c) is returned unchecked, the
    product formed with c itself, so that the caller records the
    residual of M @ c = target as its own check.  On a stack every
    matrix is solved, and one that fails raises with the worst residual.
    """
    c = check_finite(c, "c")
    target = check_finite(target, "target")
    n = c.shape[-1]
    if c.shape[-2:] != (n, n) or target.shape[-2:] != (n, n):
        raise InvalidInputError("skew_solve needs square matrices of one size")
    if not is_antisymmetric(c, tol):
        raise InvalidInputError("c is not antisymmetric within weak_eq")

    if factors is None:
        f = svd_route(c, tol, proj=True)
        factors = f.pinv, f.proj
    pinv, proj = factors
    x = target @ pinv
    # (I - P) X is the block of M mapping range(c) into ker(c); X lacks
    # its mirrored block -((I - P) X)^T
    m = skew_part(x - mt(x - proj @ x))
    mc = m @ c
    if with_product:
        return m, mc
    residual = frobenius(mc - target)
    if (residual > tol.weak_eq * (1.0 + frobenius(target))).any():
        raise NoSolutionError("target is not reachable as M @ c",
                              float(np.max(residual)))
    return m
