"""First-order reducible Dirac brackets and the irreducible lift.

For a reducible set of M0 second-class constraints with a single level of
dependencies Z1 (M0 x M1), the Dirac bracket can be written with a
noninvertible antisymmetric matrix M1 solving ``M @ C ~= d`` where d is
the projector complementary to the Z1 directions.  Alternatively one
enlarges the phase space by M1 extra variables Y with an invertible
antisymmetric bracket Gamma and trades the reducible set for the
independent combinations chi + a Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .constraints import ConstraintSet
from .numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    Tolerance,
    pinv_rank,
    rank_tol,
    skew_solve,
    symplectic_block,
)
from .phase import PhaseFunction, dirac_matrix


@dataclass(frozen=True)
class FirstOrderArtifacts:
    """Derived matrices of the reducible bracket at one phase-space point.

    c1 is the constraint bracket matrix, abar the minimum-norm left
    inverse of Z1, d = I - Z1 abar the complementary projector, and m1
    the antisymmetric matrix with m1 @ c1 ~= d.
    """

    c1: np.ndarray
    abar: np.ndarray
    d: np.ndarray
    m1: np.ndarray
    point: np.ndarray


def first_order_artifacts(
    cs: ConstraintSet,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> FirstOrderArtifacts:
    if cs.order != 1:
        raise InvalidInputError("first-order pipeline needs an order-1 system")
    at = cs.spec.point(at)
    cs.require_on_surface(at, tol)
    z1 = cs.z1_at(at)
    abar, rank_z1 = pinv_rank(z1, tol)
    if rank_z1 != cs.m1:
        raise InvalidInputError(
            "Z1 columns must be independent for an order-1 system"
        )
    g = cs.gradients(at)
    c1 = g.T @ cs.spec.poisson @ g
    d = np.eye(cs.m0) - z1 @ abar
    m1 = skew_solve(c1, d, tol)
    return FirstOrderArtifacts(c1=c1, abar=abar, d=d, m1=m1, point=at)


def dirac1(
    cs: ConstraintSet,
    f: PhaseFunction,
    g: PhaseFunction,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Dirac bracket [f, g] - [f, chi] M [chi, g] with the reducible M:
    grad f @ F @ grad g with F from fundamental_matrix_1."""
    at = cs.spec.point(at)
    f1 = fundamental_matrix_1(cs, at, tol)
    return float(f.gradient(at) @ f1 @ g.gradient(at))


def fundamental_matrix_1(
    cs: ConstraintSet,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    artifacts: Optional[FirstOrderArtifacts] = None,
) -> np.ndarray:
    """Matrix of Dirac brackets among the coordinates, 2N x 2N.

    ``artifacts`` are the first_order_artifacts of ``cs`` at ``at`` when
    the caller has built them already.
    """
    if artifacts is None:
        art = first_order_artifacts(cs, at, tol)
    elif np.array_equal(artifacts.point, cs.spec.point(at)):
        art = artifacts
    else:
        raise InvalidInputError("artifacts were built at another point")
    return dirac_matrix(cs.spec.poisson, cs.gradients(art.point), art.m1)


@dataclass(frozen=True)
class FirstOrderLift:
    """Irreducible replacement system on the (z, Y) extended space."""

    base: ConstraintSet
    gamma: np.ndarray
    a_lift: np.ndarray
    dbar: np.ndarray
    mu1_of: object  # (point, tolerance) -> M0 x M0 matrix

    def extended_poisson(self) -> np.ndarray:
        return scipy.linalg.block_diag(self.base.spec.poisson, self.gamma)

    def chi_bar_value(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.base.values(z) + self.a_lift @ y

    def chi_bar_gradients(self, z: np.ndarray) -> np.ndarray:
        """Extended-space gradient matrix of chi-bar, (2N + M1) x M0."""
        gz = self.base.gradients(z)
        return np.vstack([gz, self.a_lift.T])

    def mu1(self, z: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        return self.mu1_of(z, tol)

    def bracket(
        self,
        grad_f: np.ndarray,
        grad_g: np.ndarray,
        z: np.ndarray,
        tol: Tolerance = DEFAULT_TOL,
    ) -> float:
        """Lifted Dirac bracket from extended-space gradients of f and g:
        grad_f @ F @ grad_g over the extended fundamental matrix."""
        return float(grad_f @ self._extended_matrix(z, tol) @ grad_g)

    def bracket_z(
        self,
        f: PhaseFunction,
        g: PhaseFunction,
        z: np.ndarray,
        tol: Tolerance = DEFAULT_TOL,
    ) -> float:
        """Lifted bracket of functions of the original coordinates only,
        which does not depend on Y."""
        z = self.base.spec.point(z)
        pad = np.zeros(self.gamma.shape[0])
        gf = np.concatenate([f.gradient(z), pad])
        gg = np.concatenate([g.gradient(z), pad])
        return self.bracket(gf, gg, z, tol)

    def fundamental_matrix(
        self, z: np.ndarray, tol: Tolerance = DEFAULT_TOL
    ) -> np.ndarray:
        """Lifted Dirac brackets among the original coordinates."""
        dim = self.base.spec.dim
        return self._extended_matrix(z, tol)[:dim, :dim]

    def _extended_matrix(self, z: np.ndarray, tol: Tolerance) -> np.ndarray:
        """Lifted Dirac brackets among all (z, Y) coordinates."""
        return dirac_matrix(
            self.extended_poisson(), self.chi_bar_gradients(z),
            self.mu1(z, tol)
        )


def irreducible_lift_1(
    cs: ConstraintSet,
    tol: Tolerance = DEFAULT_TOL,
) -> FirstOrderLift:
    """Irreducible lift with Y variables: chi_bar = chi + a_lift Y.

    Gamma is the canonical symplectic block (needs even M1) and
    a_lift = Z1, which meets the rank requirement whenever the columns
    of a constant Z1 are independent.
    """
    if cs.order != 1:
        raise InvalidInputError("lift applies to order-1 systems")
    if not isinstance(cs.z1, np.ndarray):
        raise InvalidInputError("lift needs a constant Z1 matrix")
    z1 = cs.z1
    m1 = cs.m1
    gamma = symplectic_block(m1)
    za = z1.T @ z1
    if rank_tol(za, tol) != m1:
        raise InvalidInputError(
            "the columns of Z1 must be independent: Z1^T Z1 is singular"
        )
    dbar = np.linalg.inv(za)
    # the symplectic block is orthogonal: its inverse is its transpose
    lift_term = z1 @ dbar @ gamma.T @ dbar.T @ z1.T

    def mu1_of(z: np.ndarray, call_tol: Tolerance) -> np.ndarray:
        art = first_order_artifacts(cs, z, call_tol)
        return art.m1 + lift_term

    return FirstOrderLift(
        base=cs,
        gamma=gamma,
        a_lift=z1,
        dbar=dbar,
        mu1_of=mu1_of,
    )
