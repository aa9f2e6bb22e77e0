"""First-order reducible Dirac brackets: a lean library route.

For a reducible set of M0 second-class constraints with a single level of
dependencies Z1 (M0 x M1, independent columns), the Dirac bracket can be
written with a noninvertible antisymmetric matrix m1 solving
``m1 @ C ~= d``, where d is the projector complementary to the Z1
directions.

This is the second-order construction with no Z2 (M2 = 0): d11 = I,
abar01 is abar and d00 is d, and second_order_artifacts builds the same
matrix as its m2, with every defining identity checked; ``analyze``
certifies order-1 files that way, and no CLI subcommand uses this
module.  It forms only what the bracket needs, at a fraction of the
cost.  The invertible and irreducible brackets of an order-1 system come
from the one second-order engine (full_artifacts, and
second_order_artifacts then irreducible.build_irreducible), and both
need an even M1: the omega pair and the canonical y pairing alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet
from .numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    Tolerance,
    mt,
    skew_solve,
    svd_factors,
)
from .phase import dirac_matrix


@dataclass(frozen=True)
class FirstOrderArtifacts:
    """Derived matrices of the reducible bracket at one phase-space point.

    c1 is the constraint bracket matrix, abar the minimum-norm left
    inverse of Z1, d = I - Z1 abar the complementary projector, and m1
    the antisymmetric matrix with m1 @ c1 ~= d, and g the gradients at
    ``point``, which the bracket reads.
    """

    c1: np.ndarray
    abar: np.ndarray
    d: np.ndarray
    m1: np.ndarray
    point: np.ndarray
    g: np.ndarray


def first_order_artifacts(
    cs: ConstraintSet,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> FirstOrderArtifacts:
    if cs.order != 1:
        raise InvalidInputError("first-order pipeline needs an order-1 system")
    at = cs.require_on_surface(at, tol)
    z1 = cs.z1_at(at)
    f = svd_factors(z1, tol)
    cs.raise_first(f.rank != z1.shape[-1], InvalidInputError, lambda i:
                   "Z1 columns must be independent for an order-1 system")
    g = cs.gradients(at)
    c1 = mt(g) @ cs.spec.poisson @ g
    abar = f.pinv
    d = np.eye(cs.m0) - z1 @ abar
    m1 = skew_solve(c1, d, tol)
    return FirstOrderArtifacts(c1=c1, abar=abar, d=d, m1=m1, point=at, g=g)


def fundamental_matrix_1(
    cs: ConstraintSet,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Matrix of Dirac brackets among the coordinates, 2N x 2N, or one
    per system of a stack, each the matrix that system gets alone."""
    art = first_order_artifacts(cs, at, tol)
    return dirac_matrix(cs.spec.poisson, art.g, art.m1)
