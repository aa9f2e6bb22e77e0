"""Second-order reducible machinery: derived projectors, the mutually
inverse omega-tilde pair, and the invertible mu matrix with its explicit
inverse.

Conventions for shapes, with M0 constraints, M1 first-level and M2
second-level reducibility directions:

- c2: M0 x M0 constraint bracket matrix
- a12: M1 x M2 (defaults to Z2 itself)
- dbar2: M2 x M2, inverse of Z2^T a12
- d11: M1 x M1 projector complementary to the Z2 directions
- abar01: M1 x M0 with abar01 @ Z1 ~= d11
- d00: M0 x M0 projector, I - Z1 @ abar01
- m2: M0 x M0 antisymmetric, m2 @ c2 ~= d00
- omega_low / omega_up: M1 x M1 mutually inverse antisymmetric pair
- mu2 / mu2_inv: M0 x M0 invertible antisymmetric pair

An order-1 system runs through the same construction with M2 = 0 (its
z2_at is M1 x 0): d11 = I, abar01 is a left inverse of Z1, d00 is the
projector complementary to Z1 and mu2 = m2 + Z1 omega_up Z1^T.  The
omega pair needs even M1 and M2; omega_tilde_pair raises
InvalidInputError naming an odd one.  omega_tilde_pair alone decides
each system's omega seed, the canonical J_{M1} or, where that loses
rank, one drawn from its ``seed``, and records the choice in its
report's seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constraints import ConstraintSet, chain_residual
from .numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    NoSolutionError,
    Tolerance,
    kernel_factors,
    mt,
    rank_tol,
    rel_residual,
    require_int,
    require_shape,
    skew_part,
    skew_solve,
    symplectic_block,
)
from .phase import dirac_matrix
from .report import COUNT_TOL, CheckReport


@dataclass(frozen=True)
class SecondOrderArtifacts:
    """The chain's matrices at ``point`` of the system ``base``, and
    base's gradients ``g``, Z1 and Z2 there for every later stage to
    read; the omega and mu pairs are None until they are installed."""

    c2: np.ndarray
    a12: np.ndarray
    dbar2: np.ndarray
    d11: np.ndarray
    abar01: np.ndarray
    d00: np.ndarray
    m2: np.ndarray
    base: ConstraintSet
    point: np.ndarray
    g: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    report: CheckReport
    omega_low: Optional[np.ndarray] = None
    omega_up: Optional[np.ndarray] = None
    mu2: Optional[np.ndarray] = None
    mu2_inv: Optional[np.ndarray] = None


def second_order_artifacts(
    cs: ConstraintSet,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    a12: Optional[np.ndarray] = None,
    abar01: Optional[np.ndarray] = None,
) -> SecondOrderArtifacts:
    """Build the full derived-matrix bundle at one on-surface point.

    Defaults pick canonical representatives: a12 = Z2 (making Z2^T a12
    symmetric positive definite) and abar01 the minimum-norm solution of
    abar01 @ Z1 = d11, under which d11 and d00 are orthogonal projectors.
    Every defining identity is recorded in the bundle's report and a
    failure raises rather than returning a silently broken bundle.  The
    first is the chain Z1 Z2 = 0 (eq_11x), the second the rank of C =
    G^T J G against M0 - M1 + M2 (eq_11d_rank), taken from the factors
    of C that later solve for m2: a C that lost rank is refused before
    anything is built on it.

    On a stack of systems (ConstraintSet.linear) ``at`` holds one point
    per system, a12 and abar01 one matrix per system, and every matrix
    of the bundle gains the stack's leading axis.
    """
    at = cs.require_on_surface(at, tol)
    z1, z2 = cs.z1_at(at), cs.z2_at(at)
    m1, m2 = z2.shape[-2:]  # read at the point, M1 x M2
    rep = CheckReport(system=cs.name, tolerances=tol, blocks=cs.blocks)

    rep.require("eq_11x", chain_residual(z1, z2), tol.weak_eq)

    g = cs.gradients(at)
    # C and its factors are kept on a constant cs; a rank-deficient C
    # cannot be built on
    c2, fc = cs.bracket(g, tol)
    rep.require("eq_11d_rank", abs(fc.rank - (cs.m0 - m1 + m2)), COUNT_TOL)
    z1_c2 = mt(z1) @ c2
    rep.require("eq_11e", rel_residual(z1_c2, np.zeros_like(z1_c2)),
                tol.weak_eq)

    if a12 is None:
        a12 = z2.copy()
    a12 = require_shape(a12, cs.batch + (m1, m2), "a12")
    d2 = mt(z2) @ a12
    try:
        dbar2 = np.linalg.inv(d2)
    except np.linalg.LinAlgError:
        dbar2 = None
    if dbar2 is None or np.any(rank_tol(d2, tol, inverse=dbar2) != m2):
        raise InvalidInputError("Z2^T a12 must have full rank M2")
    d11 = np.eye(m1) - a12 @ dbar2 @ mt(z2)
    # defining relation for the level-2 left inverse
    abar12 = a12 @ mt(dbar2)
    rep.require(
        "eq_a2", rel_residual(mt(z2) @ abar12, np.eye(m2)), tol.weak_eq
    )
    rep.require("eq_ay", rel_residual(d11 @ d11, d11), tol.weak_eq)
    a8 = dbar2 @ mt(a12) @ d11
    rep.require("eq_a8", rel_residual(a8, np.zeros_like(a8)), tol.weak_eq)

    if abar01 is None:
        abar01 = d11 @ cs.z1_factors(z1, tol).pinv
    abar01 = require_shape(abar01, cs.batch + (m1, cs.m0), "abar01")
    # abar01 @ Z1 = d11 must be feasible at tolerance
    rep.require("eq_1qa", rel_residual(abar01 @ z1, d11), tol.weak_eq)
    d00 = np.eye(cs.m0) - z1 @ abar01
    rep.require("eq_15", rel_residual(d00 @ d00, d00), tol.weak_eq)
    rep.require("eq_17", rel_residual(abar01 @ d00, np.zeros_like(abar01)),
                tol.weak_eq)
    k12 = abar01 @ z1 @ a12
    rep.require("eq_12k", rel_residual(k12, np.zeros_like(k12)),
                tol.weak_eq)
    rep.require(
        "eq_12b", rel_residual(d00 @ z1, z1 @ a12 @ dbar2 @ mt(z2)),
        tol.weak_eq,
    )

    # solved with C's factors, checked with C itself
    m2, m2_c2 = skew_solve(c2, d00, tol, with_product=True,
                           factors=(fc.pinv, fc.proj))
    rep.require("eq_11c", rel_residual(m2_c2, d00), tol.weak_eq)
    rep.routes.update(cs.routes(tol))

    return SecondOrderArtifacts(
        c2=c2, a12=a12, dbar2=dbar2, d11=d11, abar01=abar01, d00=d00,
        m2=m2, base=cs, point=at, g=g, z1=z1, z2=z2, report=rep,
    )


def _omega_candidates(art: SecondOrderArtifacts, seed_low: np.ndarray,
                      tol: Tolerance) -> tuple:
    """(omega_bar, omega_hat, omega_low, omega_up, lost, svd) from one
    seed per system: ``lost`` marks the systems whose restricted seed
    loses rank on the range of d11 or whose pair is not invertible, and
    ``svd`` those whose omega_bar an SVD counted.  omega_bar's kernel is
    range(a12) (d11 a12 = 0), so it is factored completed on a12
    (kernel_factors), a12's own rank certified from a12^T a12."""
    m1, m2 = art.a12.shape[-2:]
    seed2 = symplectic_block(m2)
    # enforce exact antisymmetry against rounding
    omega_bar = skew_part(mt(art.d11) @ seed_low @ art.d11)
    a12 = art.a12
    f = kernel_factors(omega_bar, a12,
                       kernel_factors(a12, a12[..., :0], None, tol), tol,
                       skew=True)
    omega_hat = skew_part(art.d11 @ f.pinv @ art.d11)

    p2 = art.dbar2 @ mt(art.a12)  # maps the M1 space onto the M2 labels
    omega_low = omega_bar + mt(p2) @ seed2 @ p2
    # the symplectic block is orthogonal, so its inverse is its transpose;
    # the inverse's completion is on Z2 itself; a12 need only share its span
    omega_up = omega_hat + art.z2 @ seed2.T @ mt(art.z2)

    # where omega_bar kept its rank, each of the pair certifies the other's
    kept = np.array(f.rank == m1 - m2)
    up, low = omega_up[kept], omega_low[kept]
    kept[kept] = ((rank_tol(up, tol, inverse=low) == m1)
                  & (rank_tol(low, tol, inverse=up) == m1))
    return omega_bar, omega_hat, omega_low, omega_up, ~kept, f.svd


def omega_tilde_pair(
    art: SecondOrderArtifacts,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> SecondOrderArtifacts:
    """Install the mutually inverse antisymmetric pair on the M1 space.

    omega_low restricts an invertible antisymmetric seed to the range of
    d11 and fills the complementary Z2 block with the canonical
    symplectic block; omega_up does the same with the pseudoinverse
    restriction and the inverse block, making the two weakly inverse to
    each other.  The seed is the canonical symplectic block J_{M1}.  It
    can lose rank on the range of d11 (on the forward-difference lattice
    three-form it does for a few {k, -k} blocks, such as k = (0, 1, 3)
    and its permutations at d = 3, L = 4), or give a pair that is not
    invertible; the systems where it does are rebuilt, in the same call,
    from s - s^T with s drawn from ``seed``, and the report's seeds
    record "omega" and, on a stack, the labels of the rebuilt blocks as
    "omega_blocks".  The identities are required of the final pair.

    An odd M1 or M2 admits no pair and raises InvalidInputError naming
    it; so does a negative ``seed``, even when no system is rebuilt.  A
    system that loses rank with the drawn seed as well raises
    NoSolutionError naming it.
    """
    require_int(seed, "seed", 0)
    m1, m2 = art.a12.shape[-2:]
    for name, m in (("M1", m1), ("M2", m2)):
        if m % 2:
            raise InvalidInputError(
                f"{name} = {m}: the omega pair needs an invertible "
                f"antisymmetric {name} x {name} seed, and none exists in "
                f"odd dimension {m}"
            )
    rep = CheckReport(system=art.report.system, tolerances=tol,
                      blocks=art.report.blocks)
    canonical = symplectic_block(m1)
    *pair, lost, svd = _omega_candidates(art, canonical, tol)
    if np.any(lost):
        s = np.random.default_rng(seed).standard_normal((m1, m1))
        *pair, still, svd = _omega_candidates(
            art, np.where(lost[..., None, None], s - s.T, canonical), tol)
        rep.seeds["omega"] = seed
        if art.base.batch:
            rep.seeds["omega_blocks"] = [
                rep.blocks[i] for i in np.flatnonzero(lost)]
        art.base.raise_first(
            still, lambda message: NoSolutionError(
                message, float(np.sum(still))),
            lambda i: f"the omega seed loses rank on the range of d11, "
                      f"the canonical one and the one drawn from {seed}")
    omega_bar, omega_hat, omega_low, omega_up = pair
    rep.routes["omega_bar"] = svd
    for name, res in (
        ("eq_a3", rel_residual(omega_hat @ omega_bar, art.d11)),
        ("eq_a18", rel_residual(omega_up @ art.d11 @ omega_low, art.d11)),
        ("eq_a18a", rel_residual(omega_up @ omega_low, np.eye(m1))),
    ):
        rep.require(name, res, tol.weak_eq)
    return replace(art, omega_low=omega_low, omega_up=omega_up,
                   report=art.report.with_stage(rep))


def mu_matrices(art: SecondOrderArtifacts, omega_up: np.ndarray,
                omega_low: np.ndarray) -> tuple:
    """mu2 = m2 + Z1 omega_up Z1^T (the artifacts' Z1) and its inverse
    mu2_inv = c2 + abar01^T omega_low abar01, for an omega pair."""
    mu2 = art.m2 + art.z1 @ omega_up @ mt(art.z1)
    mu2_inv = art.c2 + mt(art.abar01) @ omega_low @ art.abar01
    return mu2, mu2_inv


def mu_pair(
    art: SecondOrderArtifacts,
    tol: Tolerance = DEFAULT_TOL,
) -> SecondOrderArtifacts:
    """Invertible mu matrix and its explicit inverse from the artifacts.

    mu2 adds an invertible completion on the Z1 directions to m2;
    mu2_inv adds the matching completion to the constraint bracket
    matrix, and the product is checked against the identity.
    """
    if art.omega_up is None or art.omega_low is None:
        raise InvalidInputError("omega pair must be installed before mu_pair")
    mu2, mu2_inv = mu_matrices(art, art.omega_up, art.omega_low)
    rep = CheckReport(system=art.report.system, tolerances=tol,
                      blocks=art.report.blocks)
    rep.require("eq_21q", rel_residual(mu2 @ mu2_inv, np.eye(art.base.m0)),
                tol.weak_eq)
    rep.add("eq_20", rel_residual(art.m2, art.d00 @ mu2 @ mt(art.d00)),
            tol.weak_eq)
    return replace(art, mu2=mu2, mu2_inv=mu2_inv,
                   report=art.report.with_stage(rep))


def full_artifacts(
    cs: ConstraintSet,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
) -> SecondOrderArtifacts:
    """Artifacts with the omega pair and mu pair installed, which only
    the invertible and intermediate brackets read: build_irreducible
    takes second_order_artifacts alone.  ``seed`` is omega_tilde_pair's,
    drawn only for the systems whose canonical omega seed loses rank.
    """
    return mu_pair(omega_tilde_pair(second_order_artifacts(cs, at, tol),
                                    seed, tol), tol)


def fundamental_matrix_2(
    cs: ConstraintSet,
    at: np.ndarray,
    mode: str = "noninvertible",
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Matrix of Dirac brackets among the coordinates, 2N x 2N, built
    with m2 (mode "noninvertible") or mu2 (mode "invertible"), or one
    per system of a stack, each the matrix that system gets alone."""
    build = {"noninvertible": second_order_artifacts,
             "invertible": full_artifacts}
    if mode not in build:
        raise InvalidInputError(
            f"mode must be 'noninvertible' or 'invertible', got {mode!r}")
    art = build[mode](cs, at, tol)
    m = art.m2 if mode == "noninvertible" else art.mu2
    return dirac_matrix(cs.spec.poisson, art.g, m)
