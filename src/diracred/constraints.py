"""Reducible second-class constraint sets: data model, validation,
surface sampling and generators.

A constraint set bundles M0 constraints chi with their first-order
reducibility matrix Z1 (M0 x M1, ``Z1.T @ chi == 0``) and, for order-2
systems, the second-order matrix Z2 (M1 x M2, ``Z1 @ Z2 ~= 0`` on the
surface).  An order-1 set has no Z2: ``z2_at`` reads M1 x 0 there, so
the second-order stages take it as the case M2 = 0.

``ConstraintSet.linear`` builds an affine system chi = B z + c from the
arrays B, c, Z1 and Z2; it stores them and its ``chi`` is ().  Such a
set is constant (``is_constant``): every derived artifact is the same at
every point, which later stages use to build them once.  The arrays are
stored read-only, so what a set keeps per Tolerance stays valid.  A
leading axis on them makes a stack of systems of one shape (the Fourier
blocks of a lattice), whose points carry the same leading axis; the
second-order stages broadcast over it.  Every generator and the loader
build sets this way.

A set given ``chi`` is a function set: its values and gradients are
evaluated one PhaseFunction at a time, and its Z matrices may be arrays
or point-valued callables.  It is never constant, even with affine rows
and array Z matrices, so ``evolve`` and ``save_system`` refuse it.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import phase
from .numerics import (
    DEFAULT_TOL,
    Factors,
    InvalidInputError,
    Tolerance,
    check_finite,
    frobenius,
    kernel_factors,
    mt,
    null_basis,
    pseudoinverse,
    rank_tol,
    rel_residual,
    require_int,
    require_shape,
    svd_route,
)
from .phase import PhaseFunction, PhaseSpec
from .report import COUNT_TOL, CheckReport

MatrixOrMap = Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]

# Gauss-Newton steps before a projection onto the surface gives up
_PROJECTION_STEPS = 50
# random draws synth_linear makes before it gives up
_SYNTH_DRAWS = 50


def _sup_norm(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if values.size else 0.0


def _read_only(a: np.ndarray) -> np.ndarray:
    """a read-only, copied first if writeable: no caller's array freezes."""
    a = a.copy() if a.flags.writeable else a
    a.setflags(write=False)
    return a


class OffSurfaceError(ValueError):
    """A point violates the constraint surface beyond tolerance."""


class ProjectionError(RuntimeError):
    """Surface projection failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class ConstraintSet:
    spec: PhaseSpec
    chi: tuple[PhaseFunction, ...]
    z1: MatrixOrMap
    z2: Optional[MatrixOrMap] = None
    name: str = ""
    # labels of the systems of a stack (see linear), else ()
    blocks: tuple = ()
    # (B, c) with chi = B z + c on a set built by linear, else None
    _affine: Optional[tuple] = field(default=None, repr=False, compare=False)
    # by (key, Tolerance): the factors of B ("jacobian_pinv") and Z1, and
    # C with its factors ("c")
    _cache: dict = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "chi", tuple(self.chi))
        zs = (self.z1,) if self.z2 is None else (self.z1, self.z2)
        if self._affine is not None:
            if self.chi or not all(isinstance(z, np.ndarray) for z in zs):
                raise InvalidInputError(
                    "a set that stores (B, c) has no chi and array Z1 and "
                    "Z2; build it with ConstraintSet.linear"
                )
            object.__setattr__(self, "_affine",
                               tuple(map(_read_only, self._affine)))
        if any(f.dim != self.spec.dim for f in self.chi):
            raise InvalidInputError(
                "constraint dimension does not match the phase space"
            )
        if len(self.batch) > 1 or len(self.blocks) != sum(self.batch):
            raise InvalidInputError(
                "a stack has one leading axis and one label per system")
        # each message names its field as a system file does
        if isinstance(self.z1, np.ndarray):
            z1 = check_finite(self.z1, "'Z1'")
            if z1.shape[:-1] != self.batch + (self.m0,):
                raise InvalidInputError(
                    "'Z1' must have one row per constraint, shape "
                    f"{self.batch + (self.m0,)} + (M1,), got {z1.shape}")
            object.__setattr__(self, "z1", _read_only(z1))
        if isinstance(self.z2, np.ndarray):
            z2 = check_finite(self.z2, "'Z2'")
            lead = self.batch + (self.z1.shape[-1:] if isinstance(
                self.z1, np.ndarray) else z2.shape[-2:-1])
            if z2.shape[:-1] != lead:
                raise InvalidInputError(
                    "'Z2' must have one row per Z1 column, shape "
                    f"{lead} + (M2,), got {z2.shape}")
            object.__setattr__(self, "z2", _read_only(z2))

    @classmethod
    def linear(
        cls,
        spec: PhaseSpec,
        b: np.ndarray,
        z1: np.ndarray,
        z2: Optional[np.ndarray] = None,
        name: str = "",
        blocks: tuple = (),
        c: Optional[np.ndarray] = None,
    ) -> "ConstraintSet":
        """The affine constraints chi = B z + c (c = 0 when None) with
        constant Z matrices: the one constant set (``is_constant``).

        With a leading axis on b (G x M0 x 2N), c, z1 and z2, the set is
        a stack of G systems, labelled by ``blocks``, one label each.  Its
        chi is empty: values and gradients read B and c.  This is the gate
        of every system file: each shape or finiteness rule raises
        InvalidInputError naming the field as a file spells it ('chi.B',
        'chi.c', 'Z1', 'Z2').
        """
        b = check_finite(b, "'chi.B'")
        if b.ndim < 2 or b.shape[-1] != spec.dim:
            raise InvalidInputError(
                f"'chi.B' must have {spec.dim} columns, one per phase-space "
                f"coordinate, got shape {b.shape}")
        c = np.zeros(b.shape[:-1]) if c is None else check_finite(c, "'chi.c'")
        if c.shape != b.shape[:-1]:
            raise InvalidInputError(
                "'chi.c' must have one entry per row of 'chi.B'")
        return cls(spec=spec, chi=(), z1=z1, z2=z2, name=name,
                   blocks=tuple(blocks), _affine=(b, c))

    @property
    def batch(self) -> tuple:
        """Shape of the leading axes of a stack; () for one system."""
        return self._affine[0].shape[:-2] if self._affine else ()

    def block_name(self, index: int) -> str:
        """Name of the system at ``index`` of a stack."""
        return f"{self.name} {self.blocks[index]}"

    def raise_first(self, failing, error: type,
                    message: Callable[[int], str]) -> None:
        """Raise ``error`` for the first system whose flag in ``failing``
        (one per system) is set, if any, with ``message(i)`` for that
        system at flat index i.  On a stack the message is prefixed with
        that block's name, so it reads as the block's own error, named."""
        failing = np.asarray(failing)
        if failing.any():
            i = int(failing.argmax())
            where = f"{self.block_name(i)}: " if self.batch else ""
            raise error(where + message(i))

    def point(self, z) -> np.ndarray:
        """A point, or one per system of a stack, checked for shape and
        finite entries."""
        return require_shape(z, self.batch + (self.spec.dim,), "point")

    @property
    def order(self) -> int:
        """Reducibility order: 2 when Z2 is given, else 1."""
        return 1 if self.z2 is None else 2

    @property
    def m0(self) -> int:
        return self._affine[0].shape[-2] if self._affine else len(self.chi)

    def _width_at_origin(self, z_at: Callable) -> int:
        try:
            return z_at(np.zeros(self.spec.dim)).shape[-1]
        except (ValueError, ArithmeticError) as exc:
            raise InvalidInputError(
                f"Z is not defined at the origin ({exc}), where M1 and M2 "
                "are read; read Z at a point with z1_at or z2_at") from exc

    @property
    def m1(self) -> int:
        """M1, read from a point-valued Z1 at the origin; the stages read
        it from Z1 at their own points, where Z1 is defined."""
        return self._width_at_origin(self.z1_at)

    @property
    def m2(self) -> int:
        """M2, 0 without Z2; read like m1."""
        return self._width_at_origin(self.z2_at) if self.z2 is not None else 0

    @property
    def n_independent(self) -> int:
        """Number of independent second-class constraints, M0 - M1 + M2
        (M2 = 0 without Z2)."""
        return self.m0 - self.m1 + self.m2

    @property
    def is_constant(self) -> bool:
        """Stores (B, c), so nothing depends on the point (see linear)."""
        return self._affine is not None

    def z1_at(self, at: np.ndarray) -> np.ndarray:
        return self.z1 if isinstance(self.z1, np.ndarray) else np.asarray(
            self.z1(at), dtype=float
        )

    def z2_at(self, at: np.ndarray) -> np.ndarray:
        """Z2 at a point; M1 x 0 for an order-1 system, which has none."""
        if self.z2 is None:
            z1 = self.z1_at(at)
            return np.zeros(z1.shape[:-2] + (z1.shape[-1], 0))
        return self.z2 if isinstance(self.z2, np.ndarray) else np.asarray(
            self.z2(at), dtype=float
        )

    def values(self, at: np.ndarray) -> np.ndarray:
        at = self.point(at)
        if self._affine is not None:
            b, c = self._affine
            return (b @ at[..., None])[..., 0] + c
        return np.array([f(at) for f in self.chi])

    def gradients(self, at: np.ndarray) -> np.ndarray:
        """Gradient matrix, 2N x M0: column a0 is grad(chi_{a0})."""
        at = self.point(at)
        if self._affine is not None:
            return mt(self._affine[0]).copy()
        return np.column_stack([f.gradient(at) for f in self.chi])

    def affine_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of (B, c) with chi = B z + c, on a constant set."""
        if self._affine is None:
            raise InvalidInputError("constraint set stores no (B, c)")
        b, c = self._affine
        return b.copy(), c.copy()

    def _cached(self, key, tol: Tolerance, make: Callable):
        """make(), kept per key and tolerance from the first call on a
        constant set, where it is the same at every point."""
        if not self.is_constant:
            return make()
        kept = self._cache.get((key, tol))
        if kept is None:
            kept = self._cache[key, tol] = make()
        return kept

    def _chain_factors(self, m: np.ndarray, tol: Tolerance,
                       skew: bool = False) -> Factors:
        """kernel_factors of m, whose right kernel Z1 spans."""
        return kernel_factors(m, self.z1, self.z1_factors(self.z1, tol), tol,
                              skew=skew)

    def z1_factors(self, z1: np.ndarray, tol: Tolerance) -> Factors:
        """Factors of Z1, the given z1 (one per point, stacked, when Z1 is
        point-valued).  On a constant set they are kept per tolerance and
        come from the chain: kernel_factors of Z1 on the kernel Z2 spans,
        with Z2's own rank certified from the inverse of Z2^T Z2 (no
        kernel; an order-1 set has no Z2, and Z1 full column rank).  On
        a function set they come from the SVD at each call."""
        if not self.is_constant:
            return svd_route(z1, tol)

        def make():
            # a constant set's Z2 is an array, read at no point
            z2 = self.z2_at(None)
            return kernel_factors(
                z1, z2, kernel_factors(z2, z2[..., :0], None, tol), tol)
        return self._cached("z1", tol, make)

    def bracket(self, g: np.ndarray, tol: Tolerance) -> tuple:
        """(C, its factors) for C = G^T J G from the gradients g (stacked
        over points on a function set), with C's range projector.  A
        constant set forms C once per tolerance, from the first g, factors
        it on the kernel Z1 spans (kernel_factors, skew) and keeps both,
        C read-only; a function set forms and factors C by SVD at each
        call."""
        def make():
            c = mt(g) @ self.spec.poisson @ g
            if not self.is_constant:
                return c, svd_route(c, tol, proj=True)
            c.setflags(write=False)
            return c, self._chain_factors(c, tol, skew=True)
        return self._cached("c", tol, make)

    def _jacobian_pinv(self, at: np.ndarray, tol: Tolerance) -> np.ndarray:
        """Pseudoinverse of the M0 x 2N constraint Jacobian at a point.  On
        a constant set it is pinv(B), kept per tolerance, from B B^T
        completed on Z1 (kernel_factors of B^T, whose kernel Z1 spans)."""
        if not self.is_constant:
            return pseudoinverse(mt(self.gradients(at)), tol)
        f = self._cached("jacobian_pinv", tol, lambda: self._chain_factors(
            mt(self._affine[0]), tol))
        return mt(f.pinv)

    def routes(self, tol: Tolerance) -> dict:
        """The ``svd`` mask (Factors) of each factorisation kept for tol,
        by its key ("c", "z1", "jacobian_pinv"); none on a function set."""
        return {key: (kept[1] if key == "c" else kept).svd
                for (key, t), kept in self._cache.items() if t == tol}

    def surface_residual(self, at: np.ndarray) -> float:
        return _sup_norm(self.values(at))

    def require_on_surface(self, at: np.ndarray, tol: Tolerance) -> np.ndarray:
        """The gate of every stage that takes a point: the point, one per
        system of a stack, checked for shape and finite entries (point,
        else InvalidInputError) and to lie on the surface (else
        OffSurfaceError, naming on a stack the first block off it)."""
        at = self.point(at)
        r = np.abs(self.values(at)).max(axis=-1, initial=0.0)
        self.raise_first(
            r > tol.surface, OffSurfaceError,
            lambda i: "point violates the constraint surface: "
                      f"max |chi| = {r.flat[i]:.3e}")
        return at


def chain_residual(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """The reducibility chain residual |Z1 Z2| / (1 + |Z1| |Z2|), in
    Frobenius norms, per system of a stack (eq_11x)."""
    return frobenius(z1 @ z2) / (1.0 + frobenius(z1) * frobenius(z2))


def validate(
    cs: ConstraintSet,
    points: Sequence[np.ndarray],
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Check reducibility relations and second-class rank counts.

    Reducibility is checked in its gradient form Z1^T G^T = 0 (eq_2),
    relative to 1 + |Z1^T G^T|, and the chain Z1 Z2 = 0 (eq_11x), once on
    a constant set and at every point otherwise.  On a stack of systems
    each record holds one residual per system.  Points must already lie
    on the surface; off-surface input is refused, and so is an empty list
    of points.
    """
    if not len(points):
        raise InvalidInputError("validate needs at least one point")
    points = [cs.require_on_surface(p, tol) for p in points]

    # M1 and M2 as read at the points, where a point-valued Z is defined
    z1s = [cs.z1_at(p) for p in points]
    z2s = [cs.z2_at(p) for p in points] if cs.order == 2 else []
    m1, m2 = z1s[0].shape[-1], z2s[0].shape[-1] if z2s else 0
    # a constant set's C and Z1 are ranked once, from the factors kept on
    # cs; a function set's C and a point-valued Z1 at every point, stacked
    g = (cs.gradients(points[0]) if cs.is_constant
         else np.stack([cs.gradients(p) for p in points]))
    rank_c = cs.bracket(g, tol)[1].rank
    z1 = cs.z1 if isinstance(cs.z1, np.ndarray) else np.stack(z1s)
    # a constant set's records are taken once, one residual per system of
    # a stack; a function set's are the worst over its points
    worst = np.asarray if cs.is_constant else np.max

    rep = CheckReport(system=cs.name, tolerances=tol, blocks=cs.blocks)
    # the gradient form of Z1^T chi = 0, Z1^T G^T = 0, holds at every
    # surface point, where Z1^T chi itself reads 0 whatever Z1 is
    z1_g = mt(z1) @ mt(g)
    rep.add("eq_2", worst(rel_residual(z1_g, np.zeros_like(z1_g))),
            tol.weak_eq)
    rep.add("eq_11d_rank", worst(np.abs(rank_c - (cs.m0 - m1 + m2))),
            COUNT_TOL)
    if z2s:
        z2 = cs.z2 if isinstance(cs.z2, np.ndarray) else np.stack(z2s)
        rep.add("eq_11x", worst(chain_residual(z1, z2)), tol.weak_eq)
        rep.add("z2_rank", worst(np.abs(rank_tol(z2, tol) - m2)), COUNT_TOL)
    rep.add("z1_rank", worst(np.abs(cs.z1_factors(z1, tol).rank
                                    - (m1 - m2))), COUNT_TOL)
    rep.routes.update(cs.routes(tol))
    return rep


def project_to_surface(
    cs: ConstraintSet,
    start: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Gauss-Newton projection onto the constraint surface, at most
    _PROJECTION_STEPS steps.

    For affine systems the Jacobian is B everywhere: its pseudoinverse is
    computed once per system and tolerance, and a single step is the
    exact minimum-norm correction.
    """
    z = cs.point(start).copy()
    vals = cs.values(z)
    for step in range(_PROJECTION_STEPS + 1):
        residual = _sup_norm(vals)
        if residual <= tol.surface:
            return z
        if step == _PROJECTION_STEPS:
            break
        z = z - (cs._jacobian_pinv(z, tol) @ vals[..., None])[..., 0]
        vals = cs.values(z)
    raise ProjectionError("surface projection did not converge", residual)


def sample_surface(
    cs: ConstraintSet,
    seed: int,
    count: int,
    tol: Tolerance = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Deterministic on-surface points: projected Gaussian perturbations.

    On a stack each point holds one per system, all projected from the
    same Gaussian draw.  Projections on affine chi read pinv(B), kept on
    cs.  The points are not kept: a caller that certifies one draw twice,
    as analyze does with validate and equivalence_report, draws once and
    hands both the same list.  A ``count`` too large to draw raises
    InvalidInputError naming it.
    """
    require_int(count, "count", 1)
    require_int(seed, "seed", 0)  # numpy's generators take no negative seed
    try:
        starts = np.random.default_rng(seed).standard_normal(
            (count, cs.spec.dim))
    except (ValueError, MemoryError) as exc:
        raise InvalidInputError(f"count must be small enough to draw, got "
                                f"{count} ({exc})") from None
    return [project_to_surface(cs, s + np.zeros(cs.batch + s.shape), tol)
            for s in starts]


def synth_linear(
    n_pairs: int,
    m0: int,
    m1: int,
    m2: int,
    seed: int,
) -> ConstraintSet:
    """Random affine second-order reducible second-class system.

    The reducibility chain is built backwards: a random full-column-rank
    Z2, then Z1 with null space spanned by Z2, then a constraint matrix B
    whose rows live in null(Z1.T).  Resampled, at most _SYNTH_DRAWS
    times, until the bracket matrix B J B.T has the full second-class
    rank m0 - m1 + m2.  n_pairs, m0, m1 and m2 must be integers >= 1.
    """
    require_int(n_pairs, "n_pairs", 1)
    for name, value in (("m0", m0), ("m1", m1), ("m2", m2)):
        require_int(value, name, 1)
    require_int(seed, "seed", 0)
    n_ind = m0 - m1 + m2
    if not (0 < m2 <= m1 <= m0):
        raise InvalidInputError("need 0 < m2 <= m1 <= m0")
    if m1 % 2 or m2 % 2:
        raise InvalidInputError("m1 and m2 must be even")
    if n_ind % 2 or n_ind <= 0 or n_ind > 2 * n_pairs:
        raise InvalidInputError(
            "independent count m0 - m1 + m2 must be even, positive and "
            "at most the phase-space dimension"
        )
    spec = PhaseSpec(n_pairs=n_pairs)
    j = spec.poisson
    rng = np.random.default_rng(seed)
    for _ in range(_SYNTH_DRAWS):
        z2 = rng.standard_normal((m1, m2))
        if rank_tol(z2) != m2:
            continue
        s = null_basis(z2.T)  # m1 x (m1 - m2)
        n = rng.standard_normal((m0, m1 - m2))
        if rank_tol(n) != m1 - m2:
            continue
        z1 = n @ s.T
        u = null_basis(z1.T)  # m0 x n_ind
        if u.shape[1] != n_ind:
            continue
        r = rng.standard_normal((n_ind, 2 * n_pairs))
        if rank_tol(r) != n_ind:
            continue
        b = u @ r
        if rank_tol(b @ j @ b.T) != n_ind:
            continue
        return ConstraintSet.linear(spec, b, z1, z2, f"synth(seed={seed})")
    raise RuntimeError(
        "failed to sample a second-class system within the resample budget"
    )


def toy_system() -> ConstraintSet:
    """Two canonical pairs with triply repeated constraints on (q1, p1).

    chi = (q1, q1, q1, p1, p1, p1); the three copies of each function are
    related by the columns of K, whose single dependency v gives the
    second-order matrix.  M0 = M1 = 6, M2 = 2, two independent constraints.
    """
    spec = PhaseSpec(n_pairs=2)
    k = np.array([
        [1.0, 0.0, 1.0],
        [-1.0, 1.0, 0.0],
        [0.0, -1.0, -1.0],
    ])
    v = np.array([[1.0], [1.0], [-1.0]])
    z1 = np.block([
        [k, np.zeros((3, 3))],
        [np.zeros((3, 3)), k],
    ])
    z2 = np.block([
        [v, np.zeros((3, 1))],
        [np.zeros((3, 1)), v],
    ])
    b = np.zeros((6, 4))
    b[:3, 0] = 1.0  # three copies of q1
    b[3:, 2] = 1.0  # three copies of p1
    return ConstraintSet.linear(spec, b, z1, z2, "toy")


def duplicated_pair_system() -> ConstraintSet:
    """Order-1 system on two pairs: chi = (q1, p1, q1), Z = (1, 0, -1)."""
    spec = PhaseSpec(n_pairs=2)
    b = np.zeros((3, 4))
    b[0, 0] = 1.0
    b[1, 2] = 1.0
    b[2, 0] = 1.0
    z1 = np.array([[1.0], [0.0], [-1.0]])
    return ConstraintSet.linear(spec, b, z1, name="duplicated-pair")


def curved_first_order_system() -> ConstraintSet:
    """Order-1 system with curved constraints chi = (q1, q1 e^q2, p1, p1 e^q2).

    The reducibility matrix is point-dependent; its two columns kill the
    exponential copies exactly at every point.
    """
    spec = PhaseSpec(n_pairs=2)
    dim = spec.dim

    def expfun(coef_index: int, label: str) -> PhaseFunction:
        def ev(z: np.ndarray) -> float:
            return z[coef_index] * np.exp(z[1])

        def gr(z: np.ndarray) -> np.ndarray:
            g = np.zeros(dim)
            g[coef_index] = np.exp(z[1])
            g[1] = z[coef_index] * np.exp(z[1])
            return g

        return phase.opaque(ev, dim, grad=gr, label=label)

    chi = (
        phase.coordinate(dim, 0, "q1"),
        expfun(0, "q1*exp(q2)"),
        phase.coordinate(dim, 2, "p1"),
        expfun(2, "p1*exp(q2)"),
    )

    def z1_at(z: np.ndarray) -> np.ndarray:
        e = np.exp(z[1])
        return np.array([
            [-e, 0.0],
            [1.0, 0.0],
            [0.0, -e],
            [0.0, 1.0],
        ])

    return ConstraintSet(spec=spec, chi=chi, z1=z1_at, name="curved")


def save_system(cs: ConstraintSet, path: Union[str, Path]) -> None:
    """Write a constant system, not a stack, to the JSON file format,
    each array field encoded (see _encoded), so load_system reads back
    the same bits; "poisson" only when it is not the canonical matrix."""
    if not cs.is_constant:
        raise InvalidInputError(
            "only constant systems (ConstraintSet.linear) are serializable")
    if cs.batch:
        raise InvalidInputError("a stack of systems is not serializable")
    b, c = cs.affine_matrix()
    doc = {
        "n_pairs": cs.spec.n_pairs,
        "chi": {"B": _encoded(b), "c": _encoded(c)},
        "Z1": _encoded(cs.z1),
    }
    canonical = phase.canonical_poisson(cs.spec.n_pairs)
    if not np.array_equal(cs.spec.poisson, canonical):
        doc["poisson"] = _encoded(cs.spec.poisson)
    if cs.order == 2:
        doc["Z2"] = _encoded(cs.z2)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _encoded(a: np.ndarray) -> dict:
    """An array field's encoded form: its shape and its little-endian
    float64 bytes in C order, base64-encoded (RFC 4648)."""
    a = np.asarray(a, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": base64.b64encode(a.tobytes()).decode("ascii")}


def _array_field(value, field: str) -> np.ndarray:
    """A finite numeric array, owned and writeable, from a system file
    field in nested lists or in _encoded's form, else InvalidInputError
    naming the field."""
    name = f"system file field {field!r}"
    if isinstance(value, dict):
        shape = value.get("shape")
        try:
            if (sorted(value) != ["base64", "dtype", "shape"]
                    or value["dtype"] != "<f8" or type(shape) is not list
                    or any(type(n) is not int or n < 0 for n in shape)):
                raise ValueError("an encoded array has the keys dtype "
                                 "('<f8'), shape (integers >= 0) and base64")
            # numpy refuses a byte count other than 8 * prod(shape)
            data = base64.b64decode(value["base64"], validate=True)
            value = np.frombuffer(data, "<f8").reshape(shape).astype(float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"{name} is not a numeric array: {exc}")
    return check_finite(value, name)


def load_system(path: Union[str, Path]) -> ConstraintSet:
    """Read a system from the JSON file format; order follows Z2 presence.
    Array fields may be nested lists, as in hand-written files, or encoded
    as save_system writes them; either form gets the same checks.  Here
    the keys, n_pairs, each field's decoding and a 2-D chi.B (a file
    holds one system) with 2 n_pairs columns are checked, the last before
    any 2N x 2N matrix is allocated; ConstraintSet.linear checks the
    other shapes."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read system file {path}: {exc}")
    for key in ("n_pairs", "chi", "Z1"):
        if not isinstance(doc, dict) or key not in doc:
            raise InvalidInputError(f"system file missing field {key!r}")
    n_pairs = doc["n_pairs"]
    require_int(n_pairs, "system file field 'n_pairs'", 1)
    chi_doc = doc["chi"]
    if not isinstance(chi_doc, dict) or "B" not in chi_doc:
        raise InvalidInputError("system file field 'chi' needs a 'B' array")
    b = _array_field(chi_doc["B"], "chi.B")
    # before PhaseSpec allocates its 2N x 2N matrix
    if b.ndim != 2 or b.shape[1] != 2 * n_pairs:
        raise InvalidInputError(
            f"'chi.B' must be M0 x {2 * n_pairs} (2 'n_pairs' columns, "
            "one per phase-space coordinate): a file holds one system, "
            f"not a stack, got shape {b.shape}")
    poisson = None
    if "poisson" in doc:
        poisson = _array_field(doc["poisson"], "poisson")
    spec = PhaseSpec(n_pairs=n_pairs, poisson=poisson)
    c = None if "c" not in chi_doc else _array_field(chi_doc["c"], "chi.c")
    z1 = _array_field(doc["Z1"], "Z1")
    z2 = None if doc.get("Z2") is None else _array_field(doc["Z2"], "Z2")
    return ConstraintSet.linear(spec, b, z1, z2, Path(path).name, c=c)
