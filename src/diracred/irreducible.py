"""Irreducible replacement of a second-order reducible system.

The phase space is extended by M1 variables y with an invertible
antisymmetric bracket omega_y; the reducible constraints chi are traded
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
extended constraints and the irreducible fundamental matrix broadcast
over its leading axis; the intermediate system and evolution take one
system.  On a constant base, evolve forms the RK4 map of an
affine or quadratic Hamiltonian once and composes ``steps`` of it by
doubling, in O(dim_z^3 log steps); eom_step takes one step of any
Hamiltonian.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import oracle as oracle_mod
from . import second_order as so
from .constraints import ConstraintSet, sample_surface
from .numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    Tolerance,
    check_finite,
    mt,
    rank_tol,
    rel_residual,
)
from .phase import PhaseFunction, dirac_matrix
from .report import COUNT_TOL, CheckReport

# random gradient pairs that contract every difference matrix in
# equivalence_report
_FUNCTION_PAIRS = 10


class OffSurfaceExtendedError(ValueError):
    """Extended point violates the irreducible constraints."""


class BuildPointError(ValueError):
    """A system with a non-constant base is evaluated away from the point
    where its artifacts were built, where they do not hold."""


@dataclass(frozen=True)
class IrreducibleSystem:
    base: ConstraintSet
    artifacts: so.SecondOrderArtifacts
    omega_y: np.ndarray
    omega_y_inv: np.ndarray
    ehat: np.ndarray
    ehat_inv: np.ndarray
    a01: np.ndarray
    c_delta: np.ndarray
    c_delta_inv: np.ndarray
    report: CheckReport

    @property
    def dim_z(self) -> int:
        return self.base.spec.dim

    @property
    def dim_y(self) -> int:
        return self.omega_y.shape[-1]

    def extended_poisson(self) -> np.ndarray:
        n = self.dim_z
        out = np.zeros(self.base.batch + (n + self.dim_y,) * 2)
        out[..., :n, :n] = self.base.spec.poisson
        out[..., n:, n:] = self.omega_y
        return out

    def split(self, at: np.ndarray) -> tuple:
        at = check_finite(np.asarray(at, dtype=float), "extended point")
        if at.shape != self.base.batch + (self.dim_z + self.dim_y,):
            raise InvalidInputError(
                f"extended point must have length {self.dim_z + self.dim_y}"
            )
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
        gz = self.base.gradients(z)
        z2 = self.base.z2_at(z)
        m0, m2 = self.base.m0, self.base.m2
        out = np.zeros(self.base.batch + (self.dim_z + self.dim_y, m0 + m2))
        out[..., :self.dim_z, :m0] = gz
        out[..., self.dim_z:, :m0] = mt(self.a01)
        out[..., self.dim_z:, m0:] = z2
        return out

    def require_on_surface(self, at: np.ndarray, tol: Tolerance) -> None:
        r = float(np.max(np.abs(self.chi_tilde_values(at))))
        if r > tol.surface:
            raise OffSurfaceExtendedError(
                f"extended point violates chi_tilde: max residual {r:.3e}"
            )

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

    @cached_property
    def _irred_kernel(self) -> np.ndarray:
        """Irreducible fundamental matrix at the build point, read-only."""
        out = dirac_matrix(
            self.extended_poisson(),
            self.chi_tilde_gradients(self.build_point),
            self.c_delta_inv,
        )
        out.setflags(write=False)
        return out

    @cached_property
    def _inter_kernel(self) -> np.ndarray:
        """Intermediate-system fundamental matrix at the build point,
        read-only: the constraints (chi, y) with gradients
        block_diag(grad chi, I_y) and bracket inverse
        block_diag(mu2, omega_y^-1)."""
        g = scipy.linalg.block_diag(
            self.base.gradients(self.artifacts.point), np.eye(self.dim_y)
        )
        m = scipy.linalg.block_diag(self.artifacts.mu2, self.omega_y_inv)
        out = dirac_matrix(self.extended_poisson(), g, m)
        out.setflags(write=False)
        return out

    def _valid_at(self, at: np.ndarray, tol: Tolerance) -> None:
        self.require_on_surface(at, tol)
        self.require_build_point(self.split(at)[0], tol)


def assemble_irreducible(
    cs: ConstraintSet,
    art: so.SecondOrderArtifacts,
    ehat: np.ndarray,
    ehat_inv: np.ndarray,
    omega_y: np.ndarray,
    omega_y_inv: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> IrreducibleSystem:
    """Assemble the irreducible system from artifacts, a congruence
    (ehat, ehat_inv) and a y-space bracket (omega_y, omega_y_inv).

    The mixing matrix is a01 = abar01^T ehat^-T.  c_delta is the bracket
    matrix of chi_tilde and c_delta_inv its closed-form block inverse,
    built from m2, the congruence and omega_y_inv; no matrix is inverted
    here.  The closed form needs no self-adjoint derivative: it holds
    for the engine's choice and for the lattice three-form's printed
    choices with forward differences alike.  c_delta_inv must invert
    c_delta (eq_p11) at full rank (rank_c_delta), or NoSolutionError;
    whether a congruence other than the identity preserves the d11
    projector sandwich is its caller's record (eq_27qq).
    """
    m0, m2 = cs.m0, cs.m2
    rep = CheckReport(system=art.report.system, tolerances=tol,
                      blocks=art.report.blocks)
    a01 = mt(art.abar01) @ mt(ehat_inv)

    z1 = cs.z1_at(art.point)
    z2 = cs.z2_at(art.point)
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
                abs(rank_tol(c_delta, tol) - (m0 + m2)), COUNT_TOL)
    return IrreducibleSystem(
        base=cs, artifacts=art, omega_y=omega_y, omega_y_inv=omega_y_inv,
        ehat=ehat, ehat_inv=ehat_inv, a01=a01, c_delta=c_delta,
        c_delta_inv=c_delta_inv, report=art.report.with_stage(rep),
    )


def build_irreducible(
    cs: ConstraintSet,
    art: so.SecondOrderArtifacts,
    tol: Tolerance = DEFAULT_TOL,
) -> IrreducibleSystem:
    """The irreducible system with the engine's choice: the identity
    congruence and omega_y = omega_low, so a01 = abar01^T.

    The artifacts must carry the omega and mu pairs (full_artifacts).
    c_delta_inv is the closed form of assemble_irreducible, the same one
    that certifies the lattice three-form's printed choices with forward
    differences, and its records are the report's only new ones: a
    defect in the omega pair already fails eq_a18/eq_a18a, one in the
    mu pair eq_21q, and one in c_delta or its inverse eq_p11.
    """
    if art.omega_low is None or art.mu2 is None:
        raise InvalidInputError(
            "artifacts must carry the omega and mu pairs; use full_artifacts"
        )
    eye = np.eye(cs.m1)
    # omega_tilde_pair certified omega_up as omega_low's inverse (eq_a18a)
    return assemble_irreducible(cs, art, eye, eye, art.omega_low,
                                art.omega_up, tol)


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
    point of a non-constant base.
    """
    sys._valid_at(at, tol)
    return sys._inter_kernel.copy()


def equivalence_report(
    cs: ConstraintSet,
    sys: IrreducibleSystem,
    n_points: int = 20,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Certify that all bracket formulations agree for z-only functions.

    Built once, from sys: the reducible fundamental matrices in both
    modes (from sys.artifacts), the intermediate one and the irreducible
    one, and their pairwise deviations; the irreducible and intermediate
    ones are compared over all extended coordinates, y included (eq_32y),
    the rest over z.  The oracle, built from the raw constraint gradients
    so the certification stays independent of what it certifies, is
    compared with each of the four.  Ten random gradient pairs, standing
    in for quadratic functions, contract every difference matrix of z
    blocks as well.

    The points are sample_surface(cs, seed, n_points): on a constant
    system the last draw kept on cs when seed and count match.  Every
    point is checked, before the oracle is built, to lie on the surface
    (else OffSurfaceError) and to be one where sys holds: on a
    non-constant base every point other than the build point raises
    BuildPointError.  The oracle reads a point only through the
    gradients, so it is built once, at the first point: on a constant
    base the gradients are the same at every point, and on any other
    base every point that passes is the build point, within
    tol.surface.
    """
    rep = CheckReport(
        system=cs.name or "constraint-system",
        tolerances=tol,
        seeds={"points": seed, "functions": seed + 1},
    )
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

    points = sample_surface(cs, seed, n_points, tol)
    art = sys.artifacts
    j = cs.spec.poisson
    gz = sys.base.gradients(art.point)
    f_non = dirac_matrix(j, gz, art.m2)
    f_inv = dirac_matrix(j, gz, art.mu2)
    f_inter = intermediate_bracket_matrix(sys, sys.build_point, tol)
    f_irr = fundamental_matrix_irred(sys, sys.build_point, tol)
    # the y rows and columns are where the two extended matrices are
    # formed differently; the z blocks are the same products
    dev_extended = float(np.abs(f_irr - f_inter).max())
    f_inter, f_irr = f_inter[:dim, :dim], f_irr[:dim, :dim]
    mats = [f_non, f_inv, f_inter, f_irr]
    dev_all = max(deviation(a, b)
                  for i, a in enumerate(mats) for b in mats[i + 1:])
    for z in points:
        sys.require_build_point(z, tol)
        cs.require_on_surface(z, tol)
    f_oracle = oracle_mod.fundamental_matrix_oracle(cs, points[0], tol)
    dev_all = max([dev_all] + [deviation(f_oracle, m) for m in mats])
    rep.add("eq_24", float(np.abs(f_non - f_inv).max()), tol.weak_eq)
    rep.add("eq_28", float(np.abs(f_inter - f_inv).max()), tol.weak_eq)
    rep.add("eq_32y", dev_extended, tol.weak_eq)
    rep.add("eq_32", dev_all, tol.weak_eq)
    rep.timings["equivalence"] = time.perf_counter() - t0
    return rep


def _require_dt(dt: float) -> None:
    if not (np.isfinite(dt) and dt > 0.0):
        raise InvalidInputError(f"dt must be finite and positive, got {dt}")


def _require_constant_base(sys: IrreducibleSystem, caller: str) -> None:
    if not sys.base.is_constant:
        raise BuildPointError(
            f"{caller} needs a constant base: the bracket kernel of a "
            "non-constant base holds only at its build point"
        )


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
    """
    _require_dt(dt)
    _require_constant_base(sys, "eom_step")
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
    dt, steps, the base and the state are checked once: a dt that is not
    finite and positive or a negative step count raises
    InvalidInputError, as does an opaque h (use eom_step); a
    non-constant base raises BuildPointError.  A trajectory that
    overflows raises InvalidInputError, and so can one that eom_step
    would carry on a bounded path: once a doubled map D_m overflows,
    inf * 0 is NaN, so a start off the growing direction is refused too.
    """
    _require_dt(dt)
    if steps < 0:
        raise InvalidInputError(f"steps must be >= 0, got {steps}")
    _require_constant_base(sys, "evolve")
    z, y = sys.split(at)
    n = sys.dim_z
    if h.kind == "opaque":
        raise InvalidInputError(
            "evolve needs an affine or quadratic h; step an opaque h "
            "with eom_step"
        )
    if h.dim != n:
        raise InvalidInputError(
            f"h has dimension {h.dim}, the phase space {n}"
        )
    if steps == 0:
        return sys.join(z, y)
    kernel = sys._irred_kernel[:n, :n]
    eye = np.eye(n)
    a = dt * (kernel @ h.q) if h.kind == "quadratic" else np.zeros((n, n))
    phi = eye + a / 2.0 @ (eye + a / 3.0 @ (eye + a / 4.0))
    d, r = a @ phi, dt * (phi @ (kernel @ h.b))
    # (d, r) is the map of 2^k steps and (d_acc, r_acc) that of the low
    # k bits of steps; an overflow is refused by check_finite below
    d_acc = r_acc = None
    with np.errstate(over="ignore", invalid="ignore"):
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
