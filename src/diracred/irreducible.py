"""Irreducible replacement of a second-order reducible system.

The phase space is extended by M1 variables y with an invertible
antisymmetric bracket omega_y, the canonical pairing -J_{M1} on every
route (so M1 must be even); the reducible constraints chi are traded
for the independent set

    chi_tilde_a0 = chi_a0 + a01 y,    chi_tilde_a2 = Z2^T y,

whose bracket matrix c_delta is invertible with the closed-form inverse
c_delta_inv.  The Dirac bracket built from them weakly reproduces the
reducible one for functions of the original coordinates.  An order-1
system (M2 = 0) has no Z2^T y rows: chi_tilde = chi + a01 y.

An IrreducibleSystem holds artifacts built at one point.  On a constant
base (affine chi, constant Z) they hold everywhere, and its bracket
kernels are computed once and read at every point; otherwise brackets
are available only at the build point, and any other point raises
BuildPointError.

Built on a stack of systems (ConstraintSet.linear), the assembly, the
extended constraints and the irreducible and intermediate fundamental
matrices broadcast over its leading axis.  equivalence_report, eom_step
and evolve take one system and refuse a stack with InvalidInputError.
On a constant base, evolve forms the RK4 map of an
affine or quadratic Hamiltonian once and composes ``steps`` of it by
doubling, in O(dim_z^3 log steps); eom_step takes one step of any
Hamiltonian.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg

from . import oracle as oracle_mod
from . import second_order as so
from .constraints import ConstraintSet, OffSurfaceError
from .numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    Tolerance,
    check_finite,
    mt,
    rank_tol,
    rel_residual,
    require_int,
    require_shape,
    symplectic_block,
)
from .phase import PhaseFunction, dirac_matrix
from .report import COUNT_TOL, CheckReport

# random gradient pairs that contract every difference matrix in
# equivalence_report
_FUNCTION_PAIRS = 10


class BuildPointError(ValueError):
    """A system with a non-constant base is evaluated away from the point
    where its artifacts were built, where they do not hold."""


@dataclass(frozen=True)
class IrreducibleSystem:
    artifacts: so.SecondOrderArtifacts
    ehat: np.ndarray
    ehat_inv: np.ndarray
    a01: np.ndarray
    c_delta: np.ndarray
    c_delta_inv: np.ndarray
    report: CheckReport

    @property
    def base(self) -> ConstraintSet:
        return self.artifacts.base

    @property
    def dim_z(self) -> int:
        return self.base.spec.dim

    @property
    def dim_y(self) -> int:
        return self.a01.shape[-1]

    def extended_poisson(self) -> np.ndarray:
        n = self.dim_z
        out = np.zeros(self.base.batch + (n + self.dim_y,) * 2)
        out[..., :n, :n] = self.base.spec.poisson
        out[..., n:, n:] = -symplectic_block(self.dim_y)
        return out

    def split(self, at: np.ndarray) -> tuple:
        """(z, y) of an extended point, or of one per system of a stack,
        checked for shape and finite entries (else InvalidInputError)."""
        at = require_shape(at, self.base.batch + (self.dim_z + self.dim_y,),
                           "extended point")
        return at[..., :self.dim_z], at[..., self.dim_z:]

    def join(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(z, float), np.asarray(y, float)],
                              axis=-1)

    def chi_tilde_values(self, at: np.ndarray) -> np.ndarray:
        z, y = self.split(at)
        z2 = self.base.z2_at(z)
        top = self.base.values(z) + (self.a01 @ y[..., None])[..., 0]
        bottom = (mt(z2) @ y[..., None])[..., 0]
        return np.concatenate([top, bottom], axis=-1)

    def chi_tilde_gradients(self, at: np.ndarray) -> np.ndarray:
        """Extended gradient matrix, (2N + M1) x (M0 + M2)."""
        z, _ = self.split(at)
        return self._extended_gradients(self.base.gradients(z),
                                        self.base.z2_at(z))

    def _extended_gradients(self, g: np.ndarray, z2: np.ndarray) -> np.ndarray:
        """chi_tilde_gradients from the base's gradients and Z2."""
        m0, m2 = g.shape[-1], z2.shape[-1]
        out = np.zeros(self.base.batch + (self.dim_z + self.dim_y, m0 + m2))
        out[..., :self.dim_z, :m0] = g
        out[..., self.dim_z:, :m0] = mt(self.a01)
        out[..., self.dim_z:, m0:] = z2
        return out

    def require_on_surface(self, at: np.ndarray, tol: Tolerance) -> None:
        """Raise OffSurfaceError unless the extended point, checked by
        split, lies on the surface chi_tilde = 0; on a stack the error
        names the first block off it."""
        r = np.abs(self.chi_tilde_values(at)).max(axis=-1, initial=0.0)
        self.base.raise_first(
            r > tol.surface, OffSurfaceError,
            lambda i: "extended point violates chi_tilde: max residual "
                      f"{r.flat[i]:.3e}")

    def require_build_point(self, z: np.ndarray, tol: Tolerance) -> None:
        """Refuse a base point other than the build point, unless the base
        is constant and the artifacts hold everywhere."""
        if self.base.is_constant:
            return
        p = self.artifacts.point
        if np.abs(z - p).max() > tol.surface * (1.0 + np.abs(p).max()):
            raise BuildPointError(
                "the artifacts of a system with a non-constant base hold "
                "only at their build point; rebuild them at this point"
            )

    @property
    def build_point(self) -> np.ndarray:
        """Extended point (z, y = 0) at which the artifacts were built."""
        return self.join(self.artifacts.point,
                         np.zeros(self.base.batch + (self.dim_y,)))

    @property
    def build_gradients(self) -> np.ndarray:
        """chi_tilde_gradients at the build point, from the gradients and
        Z2 the artifacts carry, with no evaluation of the base."""
        return self._extended_gradients(self.artifacts.g, self.artifacts.z2)

    @cached_property
    def _irred_kernel(self) -> np.ndarray:
        """Irreducible fundamental matrix at the build point, read-only,
        from build_gradients."""
        out = dirac_matrix(self.extended_poisson(), self.build_gradients,
                           self.c_delta_inv)
        out.setflags(write=False)
        return out

    @cached_property
    def _inter_kernel(self) -> np.ndarray:
        """Intermediate-system fundamental matrix at the build point,
        read-only: the constraints (chi, y), whose gradients
        block_diag(grad chi, I_y) and bracket inverse block_diag(mu2,
        omega_y^-1) make it the block_diag of the blocks' own matrices;
        the y block, omega_y - omega_y omega_y^-1 omega_y, is zero.
        Artifacts without the mu pair (not from full_artifacts) raise
        InvalidInputError."""
        art = self.artifacts
        if art.mu2 is None:
            raise InvalidInputError(
                "the intermediate system needs the mu pair; build the "
                "artifacts with full_artifacts")
        f_z = dirac_matrix(self.base.spec.poisson, art.g, art.mu2)
        out = scipy.linalg.block_diag(f_z, np.zeros((self.dim_y,) * 2))
        out.setflags(write=False)
        return out

    def _valid_at(self, at: np.ndarray, tol: Tolerance) -> None:
        self.require_on_surface(at, tol)
        self.require_build_point(self.split(at)[0], tol)


def assemble_irreducible(
    art: so.SecondOrderArtifacts,
    ehat: np.ndarray,
    ehat_inv: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> IrreducibleSystem:
    """Assemble the irreducible system from any second_order_artifacts
    and a congruence (ehat, ehat_inv).

    The y fields are paired canonically, omega_y = -J_{M1} and
    omega_y_inv = J_{M1} (the three-form's [A^l, pi_k] = delta_kl); an
    odd M1 admits no such pairing and raises InvalidInputError naming
    it.  No omega or mu pair is read.  The mixing matrix is a01 =
    abar01^T ehat^-T.  c_delta is the bracket matrix of chi_tilde and
    c_delta_inv its closed-form block inverse, built from m2, the
    congruence and omega_y_inv; no matrix is inverted here.  The closed
    form needs no self-adjoint derivative: it holds for the engine's
    choice and for the lattice three-form's printed choices with forward
    differences alike.  c_delta_inv must invert
    c_delta (eq_p11) at full rank (rank_c_delta), or NoSolutionError;
    whether a congruence other than the identity preserves the d11
    projector sandwich is its caller's record (eq_27qq).  The system,
    Z1 and Z2 are those the artifacts carry.
    """
    m1 = art.d11.shape[-1]
    if m1 % 2:
        raise InvalidInputError(
            f"M1 = {m1}: the y fields need an invertible antisymmetric "
            f"bracket, and none exists in odd dimension {m1}")
    # canonical pairing of the y fields: [A^l, pi_k] = delta_kl
    omega_y = -symplectic_block(m1)
    omega_y_inv = -omega_y
    rep = CheckReport(system=art.report.system, tolerances=tol,
                      blocks=art.report.blocks)
    a01 = mt(art.abar01) @ mt(ehat_inv)

    z1, z2 = art.z1, art.z2
    m0, m2 = art.base.m0, z2.shape[-1]
    abar12 = art.a12 @ mt(art.dbar2)

    c_delta = np.block([
        [art.c2 + a01 @ omega_y @ mt(a01), a01 @ omega_y @ z2],
        [mt(z2) @ omega_y @ mt(a01), mt(z2) @ omega_y @ z2],
    ])
    c_delta_inv = np.block([
        [art.m2 + z1 @ ehat @ omega_y_inv @ mt(ehat) @ mt(z1),
         z1 @ ehat @ omega_y_inv @ abar12],
        [mt(abar12) @ omega_y_inv @ mt(ehat) @ mt(z1),
         mt(abar12) @ omega_y_inv @ abar12],
    ])
    rep.require("eq_p11",
                rel_residual(c_delta @ c_delta_inv, np.eye(m0 + m2)),
                tol.weak_eq)
    rep.require("rank_c_delta",
                abs(rank_tol(c_delta, tol, inverse=c_delta_inv) - (m0 + m2)),
                COUNT_TOL)
    return IrreducibleSystem(
        artifacts=art, ehat=ehat, ehat_inv=ehat_inv, a01=a01,
        c_delta=c_delta, c_delta_inv=c_delta_inv,
        report=art.report.with_stage(rep),
    )


def build_irreducible(
    art: so.SecondOrderArtifacts,
    tol: Tolerance = DEFAULT_TOL,
) -> IrreducibleSystem:
    """The irreducible system of the artifacts' base with the engine's
    choice: the identity congruence, so a01 = abar01^T, and the
    canonical y pairing of assemble_irreducible.  Any
    second_order_artifacts serve; no omega or mu pair is read.
    c_delta_inv is the closed form of assemble_irreducible, the same one
    that certifies the lattice three-form's printed choices with forward
    differences, and its records (eq_p11, rank_c_delta) are the report's
    only new ones.
    """
    eye = np.eye(art.d11.shape[-1])
    return assemble_irreducible(art, eye, eye, tol)


def fundamental_matrix_irred(
    sys: IrreducibleSystem,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Irreducible Dirac brackets among ALL extended coordinates.

    The leading 2N x 2N block is the fundamental matrix of the original
    coordinates; the y rows and columns vanish weakly.  The matrix is
    built once per system and a fresh copy is returned at each call;
    away from the build point of a non-constant base this raises
    BuildPointError.
    """
    sys._valid_at(at, tol)
    return sys._irred_kernel.copy()


def intermediate_bracket_matrix(
    sys: IrreducibleSystem,
    at: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Fundamental brackets of the intermediate system (chi, y) extended.

    Built once per system and copied at each call, like
    fundamental_matrix_irred, and refused likewise away from the build
    point of a non-constant base.  It reads mu2, so a system built
    without the mu pair raises InvalidInputError.
    """
    sys._valid_at(at, tol)
    return sys._inter_kernel.copy()


def equivalence_report(
    sys: IrreducibleSystem,
    points: Sequence[np.ndarray],
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Certify that all bracket formulations agree for z-only functions.

    Built once, from sys: the reducible fundamental matrices in both
    modes (from sys.artifacts and the gradients they carry), the
    intermediate one and the irreducible one, and their pairwise
    deviations; the irreducible and intermediate ones are compared over
    all extended coordinates, y included (eq_32y), the rest over z.  The
    oracle, built from sys.base's own gradients so the certification
    stays independent of what it certifies, is compared with each of
    the four.  Ten random gradient pairs, standing in for quadratic
    functions, contract every difference matrix of z blocks as well;
    ``seed`` + 1 seeds them.

    The points certified are exactly those given; an empty list, a
    negative seed or a stack of systems raises InvalidInputError.  Every
    point is checked at entry by sys.base.require_on_surface, for its
    shape and finite entries (else InvalidInputError) and to lie on the
    surface of the system sys was built from (else OffSurfaceError), and
    then to be one where sys holds.  On a non-constant base it certifies the build point,
    ``[sys.artifacts.point]``, and any other point raises BuildPointError.
    The oracle reads a point only through the gradients, so it is built
    once, at the first point: on a constant base the gradients are the
    same at every point, and on any other base every point that passes is
    the build point, within tol.surface.

    The intermediate kernel reads mu2 and is read first, so artifacts
    without the mu pair raise InvalidInputError before any bracket is
    formed.  At the engine's choice (build_irreducible: ehat = I and the
    canonical y pairing) the z block of the irreducible kernel is
    J - JG (m2 + Z1 J_{M1} Z1^T) G^T J: it differs from the noninvertible
    bracket by (JG Z1) J_{M1} (JG Z1)^T, which vanishes weakly, and reads
    no mu2.  Its max-abs distance to the noninvertible and invertible
    brackets measured 5.6e-16 and 6.7e-16 on the toy, 6.1e-15 and
    1.2e-14 on synth_linear(10, 12, 8, 2) seed 7, 1.0e-12 and 2.3e-12 at
    2N = 200 seed 5, and 2.8e-11 and 4.4e-10 at 2N = 1000 seed 5, where
    the invertible route carries kappa(mu2) = 1.6e8.
    """
    if sys.base.batch:
        raise InvalidInputError("equivalence_report takes one system, "
                                "not a stack")
    if not len(points):
        raise InvalidInputError("equivalence_report needs at least one point")
    require_int(seed, "seed", 0)
    cs = sys.base
    for z in points:
        sys.require_build_point(cs.require_on_surface(z, tol), tol)
    rep = CheckReport(system=cs.name or "constraint-system", tolerances=tol,
                      seeds={"functions": seed + 1})
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 1)
    dim = cs.spec.dim
    # gradients of random quadratic functions at a point are generic
    # vectors; sampling them directly is equivalent and cheaper
    pairs = rng.standard_normal((_FUNCTION_PAIRS, 2, dim))
    gf_rows, gg_rows = pairs[:, 0], pairs[:, 1]

    def deviation(a: np.ndarray, b: np.ndarray) -> float:
        diff = a - b
        contracted = np.einsum("ij,ij->i", gf_rows @ diff, gg_rows)
        return max(float(np.abs(diff).max()),
                   float(np.abs(contracted).max(initial=0.0)))

    # at the build point; the intermediate kernel refuses artifacts
    # without the mu pair, which f_inv reads too
    f_inter, f_irr = sys._inter_kernel, sys._irred_kernel
    art = sys.artifacts
    f_non = dirac_matrix(cs.spec.poisson, art.g, art.m2)
    f_inv = dirac_matrix(cs.spec.poisson, art.g, art.mu2)
    # the two extended matrices, y rows and columns included
    dev_extended = float(np.abs(f_irr - f_inter).max())
    f_inter, f_irr = f_inter[:dim, :dim], f_irr[:dim, :dim]
    mats = [f_non, f_inv, f_inter, f_irr]
    dev_all = max(deviation(a, b)
                  for i, a in enumerate(mats) for b in mats[i + 1:])
    f_oracle = oracle_mod.fundamental_matrix_oracle(cs, points[0], tol)
    dev_all = max([dev_all] + [deviation(f_oracle, m) for m in mats])
    rep.add("eq_24", float(np.abs(f_non - f_inv).max()), tol.weak_eq)
    rep.add("eq_28", float(np.abs(f_inter - f_inv).max()), tol.weak_eq)
    rep.add("eq_32y", dev_extended, tol.weak_eq)
    rep.add("eq_32", dev_all, tol.weak_eq)
    rep.timings["equivalence"] = time.perf_counter() - t0
    return rep


def _require_stepping(sys: IrreducibleSystem, h: PhaseFunction, dt: float,
                      caller: str) -> None:
    """Refuse, for eom_step and evolve alike, a stack of systems, a dt
    that is not finite and positive, a non-constant base or an h of
    another dimension."""
    if sys.base.batch:
        raise InvalidInputError(f"{caller} takes one system, not a stack")
    if not (np.isfinite(dt) and dt > 0.0):
        raise InvalidInputError(f"dt must be finite and positive, got {dt}")
    if not sys.base.is_constant:
        raise BuildPointError(
            f"{caller} needs a constant base: the bracket kernel of a "
            "non-constant base holds only at its build point"
        )
    if h.dim != sys.dim_z:
        raise InvalidInputError(
            f"h has dimension {h.dim}, the phase space {sys.dim_z}")


def eom_step(
    sys: IrreducibleSystem,
    h: PhaseFunction,
    at: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One fixed-step RK4 step of z' = [z, h]* with y held fixed.

    The bracket kernel, the z block of the irreducible fundamental
    matrix, is built once per system and is the same at every point of
    a constant base, so each stage is one matrix-vector product with
    grad h.  A non-constant base raises BuildPointError: its kernel
    holds only at the build point, which the stages leave.  For a
    trajectory of an affine or quadratic h, evolve forms the map of a
    whole step once; eom_step is the path for an opaque h.
    A stack of systems, a dt that is not finite and positive, an h of
    another dimension or a state that split refuses raises
    InvalidInputError.
    """
    _require_stepping(sys, h, dt, "eom_step")
    z, y = sys.split(at)
    kernel = sys._irred_kernel[:sys.dim_z, :sys.dim_z]

    def velocity(zs: np.ndarray) -> np.ndarray:
        return kernel @ h.gradient(zs)

    # an overflow is refused by check_finite below
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = velocity(z)
        k2 = velocity(z + 0.5 * dt * k1)
        k3 = velocity(z + 0.5 * dt * k2)
        k4 = velocity(z + dt * k3)
        z_new = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return sys.join(check_finite(z_new, "stepped state"), y)


def evolve(
    sys: IrreducibleSystem,
    h: PhaseFunction,
    at: np.ndarray,
    dt: float,
    steps: int,
) -> np.ndarray:
    """``steps`` RK4 steps of z' = [z, h]* with y held fixed, the same
    steps as eom_step, for an affine or quadratic h.

    With kernel K, z' = K (Q z + b) is affine, and RK4 maps it exactly to
    z -> z + D z + r with A = dt K Q, phi = I + A/2 (I + A/3 (I + A/4)),
    D = A phi = S - I (S is the RK4 stability polynomial) and
    r = dt phi K b.  n steps are z -> z + D_n z + r_n with D_n = S^n - I
    and r_n = sum_{k<n} S^k r.  These are built by doubling over the bits
    of ``steps``: a map doubles as D_2m = 2 D_m + D_m^2,
    r_2m = 2 r_m + D_m r_m, and two maps compose as
    D_a+b = D_a + D_b + D_b D_a, r_a+b = r_a + r_b + D_b r_a.  That is at
    most 2 floor(log2 steps) products of dim_z x dim_z matrices, so a
    trajectory costs O(dim_z^3 log steps).  Kept as increments, the maps
    round at the size of D, not of S, and the result is added to z as
    eom_step adds its increment, so the constraint drift stays at
    eom_step's level.
    steps, dt, the base, h and the state are checked once: besides the
    checks shared with eom_step, a step count that is not an integer
    >= 0 or an opaque h (use eom_step) raises InvalidInputError.  A
    trajectory that overflows raises InvalidInputError, and so can one
    that eom_step would carry on a bounded path: once a doubled map D_m
    overflows, inf * 0 is NaN, so a start off the growing direction is
    refused too.
    """
    require_int(steps, "steps", 0)
    _require_stepping(sys, h, dt, "evolve")
    z, y = sys.split(at)
    n = sys.dim_z
    if h.kind == "opaque":
        raise InvalidInputError(
            "evolve needs an affine or quadratic h; step an opaque h "
            "with eom_step"
        )
    if steps == 0:
        return sys.join(z, y)
    kernel = sys._irred_kernel[:n, :n]
    eye = np.eye(n)
    # (d, r) is the map of 2^k steps and (d_acc, r_acc) that of the low
    # k bits of steps; an overflow, of the one-step map included, is
    # refused by check_finite below
    d_acc = r_acc = None
    with np.errstate(over="ignore", invalid="ignore"):
        a = (dt * (kernel @ h.q) if h.kind == "quadratic"
             else np.zeros((n, n)))
        phi = eye + a / 2.0 @ (eye + a / 3.0 @ (eye + a / 4.0))
        d, r = a @ phi, dt * (phi @ (kernel @ h.b))
        while True:
            if steps & 1:
                if d_acc is None:
                    d_acc, r_acc = d, r
                else:
                    d_acc, r_acc = d_acc + d + d @ d_acc, r_acc + r + d @ r_acc
            steps >>= 1
            if not steps:
                break
            d, r = 2.0 * d + d @ d, 2.0 * r + d @ r
        z = z + (d_acc @ z + r_acc)
    return sys.join(check_finite(z, "evolved state"), y)
