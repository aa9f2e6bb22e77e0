"""Phase-space points, Poisson structures and bracket evaluation.

A phase space is 2N-dimensional with coordinates ``z = (q_1..q_N,
p_1..p_N)`` and a constant antisymmetric invertible bracket matrix J,
``[z^a, z^b] = J^{ab}``.  Functions on the space carry closed-form
gradients when affine or quadratic, and fall back to central finite
differences otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import (
    InvalidInputError,
    check_finite,
    is_antisymmetric,
    mt,
    rank_tol,
    symplectic_block,
)

FD_STEP = 1e-5


def canonical_poisson(n_pairs: int) -> np.ndarray:
    """The canonical block matrix [[0, I_N], [-I_N, 0]]."""
    return symplectic_block(2 * n_pairs)


@dataclass(frozen=True)
class PhaseSpec:
    """N canonical pairs with a constant Poisson matrix.

    ``poisson`` defaults to the canonical block form; any constant
    antisymmetric invertible 2N x 2N matrix is accepted.
    """

    n_pairs: int
    poisson: np.ndarray = None  # type: ignore[assignment]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        dim = 2 * self.n_pairs
        j = self.poisson
        if j is None:
            # antisymmetric and orthogonal, so invertible by construction
            j = canonical_poisson(self.n_pairs)
        else:
            j = check_finite(j, "poisson")
            if j.shape != (dim, dim):
                raise InvalidInputError(
                    f"poisson matrix must be {dim}x{dim}, got {j.shape}"
                )
            if not is_antisymmetric(j):
                raise InvalidInputError(
                    "poisson matrix must be antisymmetric")
            if rank_tol(j) != dim:
                raise InvalidInputError("poisson matrix must be invertible")
        object.__setattr__(self, "poisson", j)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != dim:
                raise InvalidInputError("one label per coordinate required")
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return 2 * self.n_pairs

    def default_labels(self) -> tuple[str, ...]:
        if self.labels is not None:
            return self.labels
        n = self.n_pairs
        return tuple(
            [f"q{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
        )

    def point(self, z: Sequence[float]) -> np.ndarray:
        z = check_finite(np.asarray(z, dtype=float), "point")
        if z.shape != (self.dim,):
            raise InvalidInputError(
                f"point must have length {self.dim}, got {z.shape}"
            )
        return z


@dataclass(frozen=True)
class PhaseFunction:
    """Scalar function of phase-space coordinates.

    kind is one of:

    - ``affine``: b . z + c, gradient b (exact)
    - ``quadratic``: z^T Q z / 2 + b . z + c with Q symmetric (exact)
    - ``opaque``: black-box evaluator, finite-difference gradient
    """

    kind: str
    dim: int
    q: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    c: float = 0.0
    evaluator: Optional[Callable[[np.ndarray], float]] = None
    grad_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("affine", "quadratic", "opaque"):
            raise InvalidInputError(f"unknown function kind {self.kind!r}")
        if self.kind == "opaque":
            if self.evaluator is None:
                raise InvalidInputError("opaque functions need an evaluator")
            return
        b = np.zeros(self.dim) if self.b is None else check_finite(self.b, "b")
        if b.shape != (self.dim,):
            raise InvalidInputError("linear coefficient has wrong length")
        object.__setattr__(self, "b", b)
        if self.kind == "quadratic":
            q = check_finite(self.q, "Q") if self.q is not None else np.zeros(
                (self.dim, self.dim)
            )
            if q.shape != (self.dim, self.dim):
                raise InvalidInputError("quadratic coefficient has wrong shape")
            if np.linalg.norm(q - q.T) > 1e-12 * (1.0 + np.linalg.norm(q)):
                raise InvalidInputError("quadratic coefficient must be symmetric")
            object.__setattr__(self, "q", 0.5 * (q + q.T))
        elif self.q is not None:
            raise InvalidInputError("affine functions take no quadratic term")

    def __call__(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise InvalidInputError(
                f"function of dimension {self.dim} called with {z.shape}"
            )
        if self.kind == "opaque":
            return float(self.evaluator(z))
        val = float(self.b @ z) + self.c
        if self.kind == "quadratic":
            val += 0.5 * float(z @ self.q @ z)
        return val

    def gradient(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.kind == "affine":
            return self.b.copy()
        if self.kind == "quadratic":
            return self.q @ z + self.b
        if self.grad_evaluator is not None:
            return np.asarray(self.grad_evaluator(z), dtype=float)
        return gradient_fd(self, z)


def affine(b: Sequence[float], c: float = 0.0, label: str = "") -> PhaseFunction:
    b = np.asarray(b, dtype=float)
    return PhaseFunction(kind="affine", dim=b.shape[0], b=b, c=c, label=label)


def quadratic(
    q: np.ndarray,
    b: Optional[Sequence[float]] = None,
    c: float = 0.0,
    label: str = "",
) -> PhaseFunction:
    q = np.asarray(q, dtype=float)
    b = None if b is None else np.asarray(b, dtype=float)
    return PhaseFunction(
        kind="quadratic", dim=q.shape[0], q=q, b=b, c=c, label=label
    )


def opaque(
    evaluator: Callable[[np.ndarray], float],
    dim: int,
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    label: str = "",
) -> PhaseFunction:
    return PhaseFunction(
        kind="opaque", dim=dim, evaluator=evaluator, grad_evaluator=grad,
        label=label,
    )


def coordinate(spec_dim: int, index: int, label: str = "") -> PhaseFunction:
    """The coordinate function z^index."""
    b = np.zeros(spec_dim)
    b[index] = 1.0
    return affine(b, label=label or f"z{index}")


def gradient_fd(
    f: PhaseFunction | Callable[[np.ndarray], float],
    at: np.ndarray,
) -> np.ndarray:
    """Central-difference gradient with per-coordinate scaled steps,
    FD_STEP * (1 + |z_i|)."""
    at = np.asarray(at, dtype=float)
    grad = np.empty_like(at)
    for i in range(at.shape[0]):
        h = FD_STEP * (1.0 + abs(at[i]))
        zp = at.copy()
        zm = at.copy()
        zp[i] += h
        zm[i] -= h
        grad[i] = (f(zp) - f(zm)) / (2.0 * h)
    return grad


def poisson_bracket(
    f: PhaseFunction,
    g: PhaseFunction,
    at: np.ndarray,
    spec: PhaseSpec,
) -> float:
    """Evaluate [f, g] = grad(f) . J . grad(g) at a point."""
    at = spec.point(at)
    if f.dim != spec.dim or g.dim != spec.dim:
        raise InvalidInputError("function dimension does not match the space")
    return float(f.gradient(at) @ spec.poisson @ g.gradient(at))


def dirac_matrix(j: np.ndarray, g: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Fundamental Dirac matrix ``J - (J G) M (G^T J)``.

    The columns of g are constraint gradients and m is the matrix that
    contracts their brackets: C_AB^-1 over an independent subset, the
    reducible m1 or m2, the invertible mu2, or c_delta^-1 on the extended
    space.  The Dirac bracket of f and g is grad f @ F @ grad g.  Stacks
    of g and m give the stack of their matrices.
    """
    return j - (j @ g) @ m @ (mt(g) @ j)
