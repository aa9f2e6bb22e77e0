"""Reducible second-class constraint sets: data model, validation,
surface sampling and generators.

A constraint set bundles M0 constraint functions chi with their
first-order reducibility matrix Z1 (M0 x M1, ``Z1.T @ chi == 0``) and,
for order-2 systems, the second-order matrix Z2 (M1 x M2,
``Z1 @ Z2 ~= 0`` on the surface).  Z matrices may be constant arrays or
point-valued callables; all bundled generators produce constant ones.
An order-1 set has no Z2: ``z2_at`` reads M1 x 0 there, so the
second-order stages take it as the case M2 = 0.

A set whose chi are all affine stores them natively as (B, c) with
chi = B z + c.  With constant Z matrices as well it is a constant
system (``is_constant``): every derived artifact is then the same at
every point, which later stages use to build them once.  B, c, Z1 and
Z2 are stored read-only, so what a set keeps per Tolerance stays valid.

``ConstraintSet.linear`` builds such a set from the arrays B, Z1 and
Z2 alone.  A leading axis on them makes a stack of systems of one
shape (the Fourier blocks of a lattice), whose points carry the same
leading axis; the second-order stages broadcast over it.
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
    InvalidInputError,
    Tolerance,
    check_finite,
    frobenius,
    mt,
    null_basis,
    pseudoinverse,
    rank_tol,
    svd_factors,
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
    # (B, c) with chi = B z + c when every chi is affine, else None
    _affine: Optional[tuple] = field(default=None, repr=False, compare=False)
    # by (key, Tolerance): pinv(B), C's and Z1's factors, the last sample
    _cache: dict = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "chi", tuple(self.chi))
        # the arrays of linear() stand for an empty chi; given chi win
        if self.chi or self._affine is None:
            object.__setattr__(self, "_affine", None)
        if self._affine is None and all(f.kind == "affine"
                                        for f in self.chi):
            b = (np.vstack([f.b for f in self.chi]) if self.chi
                 else np.zeros((0, self.spec.dim)))
            if b.shape[1] != self.spec.dim:
                raise InvalidInputError(
                    "constraint dimension does not match the phase space"
                )
            c = np.array([f.c for f in self.chi], dtype=float)
            object.__setattr__(self, "_affine", (b, c))
        if self._affine is not None:
            object.__setattr__(self, "_affine",
                               tuple(map(_read_only, self._affine)))
        if isinstance(self.z1, np.ndarray):
            z1 = check_finite(self.z1, "Z1")
            if z1.shape[-2] != self.m0:
                raise InvalidInputError("Z1 must have M0 rows")
            object.__setattr__(self, "z1", _read_only(z1))
        if isinstance(self.z2, np.ndarray):
            z2 = check_finite(self.z2, "Z2")
            object.__setattr__(self, "z2", _read_only(z2))

    @classmethod
    def linear(
        cls,
        spec: PhaseSpec,
        b: np.ndarray,
        z1: np.ndarray,
        z2: Optional[np.ndarray],
        name: str,
        blocks: tuple,
    ) -> "ConstraintSet":
        """The linear constraints chi = B z with constant Z matrices.

        With a leading axis on b (G x M0 x 2N), z1 and z2, the set is a
        stack of G systems, labelled by ``blocks``, one label each.  Its
        chi is empty, since the rows of different systems are no
        functions on one space: values and gradients read B.
        """
        b = check_finite(b, "B")
        if b.shape[-1] != spec.dim:
            raise InvalidInputError(
                "constraint dimension does not match the phase space"
            )
        batch = b.shape[:-2]
        if (len(batch) > 1 or len(blocks) != sum(batch)
                or any(z.shape[:-2] != batch for z in (z1, z2)
                       if z is not None)):
            raise InvalidInputError(
                "a stack has one leading axis, shared by B, Z1 and Z2, "
                "and one label per system"
            )
        return cls(spec=spec, chi=(), z1=z1, z2=z2, name=name,
                   blocks=tuple(blocks),
                   _affine=(b, np.zeros(b.shape[:-1])))

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
        """A point, or one per system of a stack, checked for shape."""
        z = check_finite(np.asarray(z, dtype=float), "point")
        if z.shape != self.batch + (self.spec.dim,):
            raise InvalidInputError(
                f"point must have shape {self.batch + (self.spec.dim,)}, "
                f"got {z.shape}"
            )
        return z

    @property
    def order(self) -> int:
        """Reducibility order: 2 when Z2 is given, else 1."""
        return 1 if self.z2 is None else 2

    @property
    def m0(self) -> int:
        return self._affine[0].shape[-2] if self._affine else len(self.chi)

    @property
    def m1(self) -> int:
        z1 = self.z1 if isinstance(self.z1, np.ndarray) else self.z1(
            np.zeros(self.spec.dim)
        )
        return z1.shape[-1]

    @property
    def m2(self) -> int:
        if self.z2 is None:
            return 0
        z2 = self.z2 if isinstance(self.z2, np.ndarray) else self.z2(
            np.zeros(self.spec.dim)
        )
        return z2.shape[-1]

    @property
    def n_independent(self) -> int:
        """Number of independent second-class constraints, M0 - M1 + M2
        (M2 = 0 without Z2)."""
        return self.m0 - self.m1 + self.m2

    @property
    def is_affine(self) -> bool:
        return self._affine is not None

    @property
    def is_constant(self) -> bool:
        """Affine chi and constant Z matrices: nothing depends on the point."""
        return (
            self.is_affine
            and isinstance(self.z1, np.ndarray)
            and (self.z2 is None or isinstance(self.z2, np.ndarray))
        )

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
        """(B, c) with chi = B z + c for fully affine systems."""
        if self._affine is None:
            raise InvalidInputError("constraint set is not affine")
        b, c = self._affine
        return b.copy(), c.copy()

    def _cached(self, key, tol: Tolerance, make: Callable, keep: bool):
        """make(), kept per key and tolerance from the first call if keep."""
        if not keep:
            return make()
        kept = self._cache.get((key, tol))
        if kept is None:
            kept = self._cache[key, tol] = make()
        return kept

    def factors(self, name: str, m: np.ndarray, tol: Tolerance):
        """svd_factors(m, tol) of C = G^T J G (name "c") or Z1 ("z1"), kept
        where it is the same at every point: on affine chi, a constant Z1."""
        keep = {"c": self.is_affine, "z1": isinstance(self.z1, np.ndarray)}
        return self._cached(name, tol, lambda: svd_factors(m, tol),
                            keep[name])

    def _jacobian_pinv(self, at: np.ndarray, tol: Tolerance) -> np.ndarray:
        """Pseudoinverse of the M0 x 2N constraint Jacobian at a point,
        kept on affine chi, where it is pinv(B) everywhere."""
        return self._cached("jacobian_pinv", tol, lambda: pseudoinverse(
            mt(self.gradients(at)), tol), self.is_affine)

    def surface_residual(self, at: np.ndarray) -> float:
        return _sup_norm(self.values(at))

    def require_on_surface(self, at: np.ndarray, tol: Tolerance) -> None:
        """Raise OffSurfaceError unless the point, one per system of a
        stack, lies on the surface; on a stack the error names the first
        block off it."""
        r = np.abs(self.values(at)).max(axis=-1, initial=0.0)
        self.raise_first(
            r > tol.surface, OffSurfaceError,
            lambda i: "point violates the constraint surface: "
                      f"max |chi| = {r.flat[i]:.3e}")


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

    Points must already lie on the surface; off-surface input is refused,
    and so is an empty list of points.
    """
    if not len(points):
        raise InvalidInputError("validate needs at least one point")
    for p in points:
        cs.require_on_surface(p, tol)

    z1s = [cs.z1_at(p) for p in points]
    # C on affine chi and a constant Z are ranked once, C and Z1 from the
    # factors kept on cs; a point-valued one at every point, in one stack
    g = (cs.gradients(points[0]) if cs.is_affine
         else np.stack([cs.gradients(p) for p in points]))
    rank_c = cs.factors("c", mt(g) @ cs.spec.poisson @ g, tol).rank
    z1 = cs.z1 if isinstance(cs.z1, np.ndarray) else np.stack(z1s)

    rep = CheckReport(system=cs.name, tolerances=tol)
    rep.add("eq_2", max(float(np.linalg.norm(z.T @ cs.values(p)))
                        for z, p in zip(z1s, points)), tol.weak_eq)
    rep.add("eq_11d_rank", np.abs(rank_c - cs.n_independent).max(),
            COUNT_TOL)
    if cs.order == 2:
        z2s = [cs.z2_at(p) for p in points]
        rep.add("eq_11x", max(float(chain_residual(a, b))
                              for a, b in zip(z1s, z2s)), tol.weak_eq)
        z2 = cs.z2 if isinstance(cs.z2, np.ndarray) else np.stack(z2s)
        rep.add("z2_rank", np.abs(rank_tol(z2, tol) - cs.m2).max(),
                COUNT_TOL)
    rep.add("z1_rank", np.abs(cs.factors("z1", z1, tol).rank
                              - (cs.m1 - cs.m2)).max(), COUNT_TOL)
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


def _require_seed(seed: int) -> None:
    if seed < 0:  # numpy's generators take no negative seed
        raise InvalidInputError(f"seed must be >= 0, got {seed}")


def sample_surface(
    cs: ConstraintSet,
    seed: int,
    count: int,
    tol: Tolerance = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Deterministic on-surface points: projected Gaussian perturbations.

    On a stack each point holds one per system, all projected from the
    same Gaussian draw.  Projections on affine chi read pinv(B), kept on
    cs; a constant system keeps its last draw too, so a repeated seed and
    count projects nothing.  Every call returns copies.
    """
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    _require_seed(seed)
    last = cs._cached("points", tol, dict, cs.is_constant)
    if (seed, count) not in last:
        last.clear()
        starts = np.random.default_rng(seed).standard_normal(
            (count, cs.spec.dim))
        last[seed, count] = [project_to_surface(
            cs, s + np.zeros(cs.batch + s.shape), tol) for s in starts]
    return [p.copy() for p in last[seed, count]]


def _affine_set(
    spec: PhaseSpec,
    b: np.ndarray,
    c: np.ndarray,
    z1: np.ndarray,
    z2: Optional[np.ndarray],
    name: str,
) -> ConstraintSet:
    chi = tuple(
        phase.affine(b[i], float(c[i]), label=f"chi{i}")
        for i in range(b.shape[0])
    )
    return ConstraintSet(spec=spec, chi=chi, z1=z1, z2=z2, name=name)


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
    rank m0 - m1 + m2.
    """
    _require_seed(seed)
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
        return _affine_set(
            spec, b, np.zeros(m0), z1, z2, name=f"synth(seed={seed})"
        )
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
    return _affine_set(spec, b, np.zeros(6), z1, z2, name="toy")


def duplicated_pair_system() -> ConstraintSet:
    """Order-1 system on two pairs: chi = (q1, p1, q1), Z = (1, 0, -1)."""
    spec = PhaseSpec(n_pairs=2)
    b = np.zeros((3, 4))
    b[0, 0] = 1.0
    b[1, 2] = 1.0
    b[2, 0] = 1.0
    z1 = np.array([[1.0], [0.0], [-1.0]])
    return _affine_set(spec, b, np.zeros(3), z1, None, name="duplicated-pair")


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
    """Write an affine constant-Z system to the JSON file format, each
    array field encoded (see _encoded), so load_system reads back the
    same bits; "poisson" only when it is not the canonical matrix."""
    if not cs.is_affine:
        raise InvalidInputError("only affine systems are serializable")
    if not isinstance(cs.z1, np.ndarray):
        raise InvalidInputError("only constant Z matrices are serializable")
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
    try:
        if isinstance(value, dict):
            shape = value.get("shape")
            if (sorted(value) != ["base64", "dtype", "shape"]
                    or value["dtype"] != "<f8" or type(shape) is not list
                    or any(type(n) is not int or n < 0 for n in shape)):
                raise ValueError("an encoded array has the keys dtype "
                                 "('<f8'), shape (integers >= 0) and base64")
            # numpy refuses a byte count other than 8 * prod(shape)
            data = base64.b64decode(value["base64"], validate=True)
            a = np.frombuffer(data, dtype="<f8").reshape(shape).astype(float)
        else:
            a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"system file field {field!r} is not a "
                                f"numeric array: {exc}")
    return check_finite(a, f"system file field {field!r}")


def load_system(path: Union[str, Path]) -> ConstraintSet:
    """Read a system from the JSON file format; order follows Z2 presence.
    Array fields may be nested lists, as in hand-written files, or encoded
    as save_system writes them; either form gets the same checks."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read system file {path}: {exc}")
    for key in ("n_pairs", "chi", "Z1"):
        if not isinstance(doc, dict) or key not in doc:
            raise InvalidInputError(f"system file missing field {key!r}")
    n_pairs = doc["n_pairs"]
    if type(n_pairs) is not int or n_pairs < 1:
        raise InvalidInputError(
            f"system file field 'n_pairs' must be a positive integer, "
            f"got {n_pairs!r}"
        )
    poisson = None
    if "poisson" in doc:
        poisson = _array_field(doc["poisson"], "poisson")
    spec = PhaseSpec(n_pairs=n_pairs, poisson=poisson)
    chi_doc = doc["chi"]
    if not isinstance(chi_doc, dict) or "B" not in chi_doc:
        raise InvalidInputError("system file field 'chi' needs a 'B' array")
    b = _array_field(chi_doc["B"], "chi.B")
    if b.ndim != 2 or b.shape[1] != spec.dim:
        raise InvalidInputError(
            f"'chi.B' must be M0 x {spec.dim}, got {b.shape}"
        )
    c = _array_field(chi_doc.get("c", np.zeros(b.shape[0])), "chi.c")
    if c.shape != (b.shape[0],):
        raise InvalidInputError("'chi.c' length must match the rows of B")
    z1 = _array_field(doc["Z1"], "Z1")
    if z1.ndim != 2 or z1.shape[0] != b.shape[0]:
        raise InvalidInputError("'Z1' must have one row per constraint")
    z2 = None
    if "Z2" in doc and doc["Z2"] is not None:
        z2 = _array_field(doc["Z2"], "Z2")
        if z2.ndim != 2 or z2.shape[0] != z1.shape[1]:
            raise InvalidInputError("'Z2' must have one row per Z1 column")
    name = str(Path(path).name)
    return _affine_set(spec, b, c, z1, z2, name=name)
