"""Brute-force ground truth: maximal independent constraint subsets and
the textbook Dirac bracket built from them.

Every other bracket formulation in the package is certified against this
one, so the subset selection is deliberately boring: QR with column
pivoting on the constraint gradients, deterministic.

A stack of systems (``ConstraintSet.linear`` with a leading axis, the
Fourier blocks of a lattice) is taken in one call, with one point per
system.  Pivoted QR has no stacked LAPACK form, so it alone runs matrix
by matrix, one direct LAPACK geqp3 call each, a single system taking
exactly one; the pivot test, the
gathered subsets, C_AB, its pseudoinverse and the bracket each run once
over the stack.  Each system of a stack gets the bracket it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .constraints import ConstraintSet
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    mt,
    svd_factors,
)
from .phase import dirac_matrix


class DegenerateSystemError(RuntimeError):
    """The constraint gradients cannot supply the expected independent count."""


@dataclass(frozen=True)
class SubsetSelection:
    """The chosen constraints (sorted indices), their gradients (2N x M,
    one column per index) and their bracket matrix C_AB with its inverse.
    On a stack each carries the stack's leading axis."""

    indices: np.ndarray
    grads: np.ndarray
    cab: np.ndarray
    cab_inv: np.ndarray


def pivoted_qr(mats: np.ndarray) -> tuple:
    """R and the column order of QR with column pivoting, for each matrix
    of a stack (G x m x n): the R and pivots that
    ``scipy.linalg.qr(mode="r", pivoting=True)`` gives, from the same
    LAPACK geqp3 with the same workspace, which is sized once for the
    stack rather than once per matrix."""
    # LAPACK takes no empty matrix: give what scipy gives without it
    if mats.size == 0:
        return (np.zeros(mats.shape),
                np.tile(np.arange(mats.shape[-1], dtype=np.int32),
                        (len(mats), 1)))
    geqp3, = scipy.linalg.get_lapack_funcs(("geqp3",), (mats,))
    lwork = int(geqp3(mats[0], lwork=-1)[3][0])
    qrs, pivs = [], []
    for m in mats:
        qr, jpvt, _, _, info = geqp3(m, lwork=lwork)
        if info != 0:
            raise ValueError(f"LAPACK geqp3 failed with info {info}")
        qrs.append(qr)
        pivs.append(jpvt)
    # LAPACK counts columns from 1
    return np.triu(np.array(qrs)), np.array(pivs) - 1


def independent_subset(
    cs: ConstraintSet,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> SubsetSelection:
    """Pick a maximal independent constraint subset at a point, or one
    per system of a stack.

    QR with column pivoting (Businger-Golub) on the gradient matrix: each
    step takes the constraint whose gradient has the largest residual
    after projecting out the span of those already chosen, ties going to
    the earliest column.  A pivot with
    ``|R_kk| <= rank_rel * (1 + |grad chi_k|)`` within the expected count,
    or a rank-deficient C_AB, raises DegenerateSystemError, naming on a
    stack the first failing block.
    """
    at = cs.require_on_surface(at, tol)
    m1, m2 = cs.z2_at(at).shape[-2:]  # read at the point, M1 x M2
    target = cs.m0 - m1 + m2
    g = cs.gradients(at)

    # one matrix per system: b indexes the stack's systems (one alone),
    # and row a of gt[b] is the gradient of chi_a
    g3 = g.reshape((-1,) + g.shape[-2:])
    rs, pivs = pivoted_qr(g3)
    gt = mt(g3)
    b = np.arange(len(gt))[:, None]
    pivots = np.abs(np.diagonal(rs, axis1=1, axis2=2)[:, :target])
    picked = pivs[:, :target]
    scales = np.linalg.norm(gt[b, picked], axis=-1)
    weak = pivots <= tol.rank_rel * (1.0 + scales)

    def too_few(i):
        found = np.flatnonzero(weak[i])
        found = found[0] if found.size else pivots.shape[-1]
        return f"only {found} independent constraints found, expected {target}"

    cs.raise_first(weak.any(axis=-1) | (pivots.shape[-1] < target),
                   DegenerateSystemError, too_few)

    indices = np.sort(picked, axis=-1)
    # the transposed gather lays each matrix out as g[:, indices] does, so
    # a stack's products repeat those of each system alone bit for bit
    sub = mt(gt[b, indices]).reshape(g.shape[:-1] + (target,))
    cab = mt(sub) @ cs.spec.poisson @ sub
    f = svd_factors(cab, tol)
    cs.raise_first(
        f.rank != target, DegenerateSystemError,
        lambda i: "selected subset is not second class: C_AB rank deficient")
    indices = indices.reshape(cs.batch + (target,))
    return SubsetSelection(indices=indices, grads=sub, cab=cab,
                           cab_inv=f.pinv)


def fundamental_matrix_oracle(
    cs: ConstraintSet,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Matrix of oracle Dirac brackets among the coordinates, one per
    system of a stack."""
    sel = independent_subset(cs, at, tol)
    return dirac_matrix(cs.spec.poisson, sel.grads, sel.cab_inv)
