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
InvalidInputError naming an odd one.
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
    check_finite,
    mt,
    pinv_rank,
    rank_tol,
    rel_residual,
    skew_part,
    skew_solve,
    symplectic_block,
)
from .phase import dirac_matrix
from .report import CheckReport


class SeedRankError(NoSolutionError):
    """The omega seed loses rank on the range of d11, where a different
    seed need not.  ``blocks`` marks the systems of a stack that lost it
    (a single True for one system)."""

    def __init__(self, message: str, residual: float, blocks: np.ndarray):
        super().__init__(message, residual)
        self.blocks = blocks


@dataclass(frozen=True)
class SecondOrderArtifacts:
    c2: np.ndarray
    a12: np.ndarray
    dbar2: np.ndarray
    d11: np.ndarray
    abar01: np.ndarray
    d00: np.ndarray
    m2: np.ndarray
    point: np.ndarray
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
    failure raises rather than returning a silently broken bundle.

    On a stack of systems (ConstraintSet.linear) ``at`` holds one point
    per system, a12 and abar01 one matrix per system, and every matrix
    of the bundle gains the stack's leading axis.
    """
    at = cs.point(at)
    cs.require_on_surface(at, tol)
    z1 = cs.z1_at(at)
    z2 = cs.z2_at(at)
    rep = CheckReport(system=cs.name, tolerances=tol, blocks=cs.blocks)

    rep.require("eq_11x", chain_residual(z1, z2), tol.weak_eq)

    g = cs.gradients(at)
    c2 = mt(g) @ cs.spec.poisson @ g
    z1_c2 = mt(z1) @ c2
    rep.require("eq_11e", rel_residual(z1_c2, np.zeros_like(z1_c2)),
                tol.weak_eq)

    if a12 is None:
        a12 = z2.copy()
    a12 = check_finite(a12, "a12")
    if a12.shape != cs.batch + (cs.m1, cs.m2):
        raise InvalidInputError("a12 must be M1 x M2")
    d2 = mt(z2) @ a12
    if np.any(rank_tol(d2, tol) != cs.m2):
        raise InvalidInputError("Z2^T a12 must have full rank M2")
    dbar2 = np.linalg.inv(d2)
    d11 = np.eye(cs.m1) - a12 @ dbar2 @ mt(z2)
    # defining relation for the level-2 left inverse
    abar12 = a12 @ mt(dbar2)
    rep.require(
        "eq_a2", rel_residual(mt(z2) @ abar12, np.eye(cs.m2)), tol.weak_eq
    )
    rep.require("eq_ay", rel_residual(d11 @ d11, d11), tol.weak_eq)
    a8 = dbar2 @ mt(a12) @ d11
    rep.require("eq_a8", rel_residual(a8, np.zeros_like(a8)), tol.weak_eq)

    if abar01 is None:
        abar01 = d11 @ cs.factors("z1", z1, tol).pinv
    abar01 = check_finite(abar01, "abar01")
    if abar01.shape != cs.batch + (cs.m1, cs.m0):
        raise InvalidInputError("abar01 must be M1 x M0")
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

    # solved with the factors of C cached on cs, checked with C itself
    m2, m2_c2 = skew_solve(c2, d00, tol, with_product=True,
                           factors=cs.factors("c", c2, tol))
    rep.require("eq_11c", rel_residual(m2_c2, d00), tol.weak_eq)

    return SecondOrderArtifacts(
        c2=c2, a12=a12, dbar2=dbar2, d11=d11, abar01=abar01, d00=d00,
        m2=m2, point=at, report=rep,
    )


def omega_tilde_pair(
    art: SecondOrderArtifacts,
    seed: Optional[int] = None,
    tol: Tolerance = DEFAULT_TOL,
    where: np.ndarray = True,
) -> SecondOrderArtifacts:
    """Install the mutually inverse antisymmetric pair on the M1 space.

    omega_low restricts an invertible antisymmetric seed to the range of
    d11 and fills the complementary Z2 block with the canonical
    symplectic block; omega_up does the same with the pseudoinverse
    restriction and the inverse block, making the two weakly inverse to
    each other.  The seed is the canonical symplectic block, or with an
    integer ``seed`` a random antisymmetric matrix drawn from it, on the
    systems of a stack that the mask ``where`` selects (all by default).

    An odd M1 or M2 admits no pair and raises InvalidInputError naming
    it.  A system whose seed loses rank on the range of d11, or whose
    pair is not invertible, raises SeedRankError marking it; its
    identities are not required then, so that the error names every such
    system of a stack at once.
    """
    m1 = art.d11.shape[-1]
    m2 = art.a12.shape[-1]
    for name, m in (("M1", m1), ("M2", m2)):
        if m % 2:
            raise InvalidInputError(
                f"{name} = {m}: the omega pair needs an invertible "
                f"antisymmetric {name} x {name} seed, and none exists in "
                f"odd dimension {m}"
            )
    seed_low = symplectic_block(m1)
    if seed is not None:
        s = np.random.default_rng(seed).standard_normal((m1, m1))
        seed_low = np.where(np.asarray(where)[..., None, None], s - s.T,
                            seed_low)
    seed2 = symplectic_block(m2)

    omega_bar = mt(art.d11) @ seed_low @ art.d11
    omega_bar_pinv, rank_bar = pinv_rank(omega_bar, tol)
    lost = rank_bar != m1 - m2
    # enforce exact antisymmetry against rounding
    omega_hat = skew_part(art.d11 @ omega_bar_pinv @ art.d11)
    omega_bar = skew_part(omega_bar)

    p2 = art.dbar2 @ mt(art.a12)  # maps the M1 space onto the M2 labels
    z2 = art.a12  # with the default choice a12 is Z2 itself
    omega_low = omega_bar + mt(p2) @ seed2 @ p2
    # the symplectic block is orthogonal: its inverse is its transpose
    omega_up = omega_hat + z2 @ seed2.T @ mt(z2)

    rep = CheckReport(system=art.report.system, tolerances=tol,
                      blocks=art.report.blocks)
    for name, res in (
        ("eq_a3", rel_residual(omega_hat @ omega_bar, art.d11)),
        ("eq_a18", rel_residual(omega_up @ art.d11 @ omega_low, art.d11)),
        ("eq_a18a", rel_residual(omega_up @ omega_low, np.eye(m1))),
    ):
        rep.require(name, np.where(lost, 0.0, res), tol.weak_eq)
    lost = lost | (rank_tol(omega_low, tol) != m1) | (
        rank_tol(omega_up, tol) != m1)
    if np.any(lost):
        raise SeedRankError(
            "restricted seed is rank deficient or the omega pair is not "
            "invertible, reseed required", float(np.sum(lost)), lost)
    return replace(art, omega_low=omega_low, omega_up=omega_up,
                   report=art.report.with_stage(rep))


def mu_matrices(art: SecondOrderArtifacts, z1: np.ndarray,
                omega_up: np.ndarray, omega_low: np.ndarray) -> tuple:
    """mu2 = m2 + Z1 omega_up Z1^T and its explicit inverse
    mu2_inv = c2 + abar01^T omega_low abar01, for an omega pair."""
    mu2 = art.m2 + z1 @ omega_up @ mt(z1)
    mu2_inv = art.c2 + mt(art.abar01) @ omega_low @ art.abar01
    return mu2, mu2_inv


def mu_pair(
    art: SecondOrderArtifacts,
    cs: ConstraintSet,
    tol: Tolerance = DEFAULT_TOL,
) -> SecondOrderArtifacts:
    """Invertible mu matrix and its explicit inverse.

    mu2 adds an invertible completion on the Z1 directions to m2;
    mu2_inv adds the matching completion to the constraint bracket
    matrix, and the product is checked against the identity.
    """
    if art.omega_up is None or art.omega_low is None:
        raise InvalidInputError("omega pair must be installed before mu_pair")
    mu2, mu2_inv = mu_matrices(art, cs.z1_at(art.point), art.omega_up,
                               art.omega_low)
    rep = CheckReport(system=art.report.system, tolerances=tol,
                      blocks=art.report.blocks)
    rep.require("eq_21q", rel_residual(mu2 @ mu2_inv, np.eye(cs.m0)),
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
    """Artifacts with the omega pair and mu pair installed.

    The canonical omega seed can lose rank on the range of d11 (on the
    forward-difference lattice three-form it does for a few {k, -k}
    blocks, such as k = (0, 1, 3) and its permutations at d = 3, L = 4);
    the pair is then rebuilt from the random seed drawn from ``seed``,
    which the report's seeds then record as "omega".  On a stack only
    the systems that lost rank are reseeded, and the seeds record their
    indices in the stack as "omega_blocks" (certify_lattice turns them
    into the blocks' labels).  Only the rank failure reseeds; a failed
    identity raises.
    """
    art = second_order_artifacts(cs, at, tol)
    try:
        paired = omega_tilde_pair(art, tol=tol)
    except SeedRankError as exc:
        paired = omega_tilde_pair(art, seed, tol, where=exc.blocks)
        paired.report.seeds["omega"] = seed
        if cs.batch:
            paired.report.seeds["omega_blocks"] = (
                np.flatnonzero(exc.blocks).tolist())
    return mu_pair(paired, cs, tol)


def fundamental_matrix_2(
    cs: ConstraintSet,
    at: np.ndarray,
    mode: str = "noninvertible",
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Matrix of Dirac brackets among the coordinates, 2N x 2N, built
    with m2 (mode "noninvertible") or mu2 (mode "invertible")."""
    if mode == "noninvertible":
        m = second_order_artifacts(cs, at, tol).m2
    elif mode == "invertible":
        m = full_artifacts(cs, at, tol).mu2
    else:
        raise InvalidInputError(
            f"mode must be 'noninvertible' or 'invertible', got {mode!r}"
        )
    return dirac_matrix(cs.spec.poisson, cs.gradients(cs.spec.point(at)), m)
