"""Brute-force ground truth: maximal independent constraint subsets and
the textbook Dirac bracket built from them.

Every other bracket formulation in the package is certified against this
one, so the subset selection is deliberately boring: QR with column
pivoting on the constraint gradients, deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np
import scipy.linalg

from .constraints import ConstraintSet
from .numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    Tolerance,
    pinv_rank,
)
from .phase import PhaseFunction, dirac_matrix


class DegenerateSystemError(RuntimeError):
    """The constraint gradients cannot supply the expected independent count."""


@dataclass(frozen=True)
class SubsetSelection:
    """The chosen constraints, their gradients (2N x M, one column per
    index) and their bracket matrix C_AB with its inverse."""

    indices: tuple[int, ...]
    grads: np.ndarray
    cab: np.ndarray
    cab_inv: np.ndarray


def independent_subset(
    cs: ConstraintSet,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    order: Optional[Sequence[int]] = None,
) -> SubsetSelection:
    """Pick a maximal independent constraint subset at a point.

    QR with column pivoting (Businger-Golub) on the gradient matrix: each
    step takes the constraint whose gradient has the largest residual
    after projecting out the span of those already chosen, ties going to
    the earliest column.  ``order`` permutes the columns before the QR,
    so it sets the candidate ranking (used to test invariance of the
    bracket under subset choice).  A pivot with
    ``|R_kk| <= rank_rel * (1 + |grad chi_k|)`` within the expected count
    raises DegenerateSystemError.
    """
    at = cs.spec.point(at)
    cs.require_on_surface(at, tol)
    target = cs.n_independent
    g = cs.gradients(at)
    m0 = cs.m0
    perm = np.arange(m0) if order is None else np.asarray(order)
    if sorted(perm.tolist()) != list(range(m0)):
        raise InvalidInputError("order must be a permutation of 0..M0-1")

    r, piv = scipy.linalg.qr(g[:, perm], mode="r", pivoting=True)
    picked = perm[piv[:target]]
    pivots = np.abs(np.diag(r))[:target]
    scales = np.linalg.norm(g[:, picked], axis=0)
    weak = np.flatnonzero(pivots <= tol.rank_rel * (1.0 + scales))
    if pivots.size < target or weak.size:
        found = weak[0] if weak.size else pivots.size
        raise DegenerateSystemError(
            f"only {found} independent constraints found, expected {target}"
        )

    indices = tuple(sorted(picked.tolist()))
    sub = g[:, indices]
    cab = sub.T @ cs.spec.poisson @ sub
    cab_inv, rank = pinv_rank(cab, tol)
    if rank != target:
        raise DegenerateSystemError(
            "selected subset is not second class: C_AB rank deficient"
        )
    return SubsetSelection(indices=indices, grads=sub, cab=cab,
                           cab_inv=cab_inv)


def dirac_oracle(
    cs: ConstraintSet,
    f: PhaseFunction,
    g: PhaseFunction,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Textbook Dirac bracket over the selected independent subset:
    grad f @ F @ grad g with F from fundamental_matrix_oracle."""
    at = cs.spec.point(at)
    f_orc = fundamental_matrix_oracle(cs, at, tol)
    return float(f.gradient(at) @ f_orc @ g.gradient(at))


def fundamental_matrix_oracle(
    cs: ConstraintSet,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    order: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Matrix of oracle Dirac brackets among the coordinates."""
    sel = independent_subset(cs, at, tol, order)
    return dirac_matrix(cs.spec.poisson, sel.grads, sel.cab_inv)


def compare_fundamental(
    cs: ConstraintSet,
    methods: Dict[str, np.ndarray],
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> Dict[str, float]:
    """Deviations among fundamental matrices evaluated at ``at``.

    ``methods`` maps names to 2N x 2N matrices at that point; the oracle's
    is built there as the reference.  Returns ``vs_<name>``, the max
    entrywise deviation of each from the oracle, and ``max_pairwise``,
    the worst deviation between any two, the oracle included.
    """
    matrices = {"oracle": fundamental_matrix_oracle(cs, at, tol)}
    for name, mat in methods.items():
        matrices[name] = np.asarray(mat, dtype=float)
    out: Dict[str, float] = {}
    names = list(matrices)
    worst = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            dev = float(np.abs(matrices[a] - matrices[b]).max())
            worst = max(worst, dev)
            if a == "oracle":
                out[f"vs_{b}"] = dev
    out["max_pairwise"] = worst
    return out
