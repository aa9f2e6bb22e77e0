"""Gauge-fixed three-form gauge fields on a periodic spatial lattice.

Field content per lattice mode: A with one component per increasing index
triple and its conjugate momentum pi.  The Gauss-type constraints

    chi(1)_{i1 i2} = -3 del^{i3} pi_{i3 i1 i2}
    chi(2)^{j1 j2} = -del_{j3} A^{j3 j1 j2}

are second-class and second-order reducible.  In each family B, Z1 and
Z2 are the divergence complex on antisymmetric tensors, three-forms to
functions: each is one signed incidence of index tuples (_incidence)
summed against the derivatives (_blocks), and the chain Z1^T B = 0,
Z1 Z2 = 0 is delta delta = 0, exact as the derivatives commute.  The
constant lattice mode is projected out of every field component so the
Laplacian is invertible.

Fields are expanded in a real Fourier basis of the zero-mean functions.
Every derivative is circulant, so each pair of opposite wavevectors
{k, -k} spans a block that no operator leaves, on which derivative i
acts as the closed-form symbol of the 1-d derivative at k_i.
build_threeform assembles the system from the derivative symbols.
Permuting the axes carries a block onto another up to a signed
relabelling, and so does reflecting an axis in spectral mode, where the
derivative is odd.  certify_lattice checks exactly, without building
them, that every block is such an image of its orbit's first block: its
symbols and Laplacian are the relabelled ones, and build_threeform
carries random symbols onto their images under the generators of the
relabellings.  It stacks the representatives by shape on a leading axis
and runs every stage once per stack.

Operator conventions: del_i is the forward difference ell_i; del^i is
u_i = -ell_i^T (the adjoint rule that replaces integration by parts on
the lattice).  In spectral mode (odd lattice sizes) the derivative is
antisymmetric, u_i = ell_i, and every printed closed form holds verbatim;
in forward-difference mode some closed forms pair an operator with its
adjoint, which the transcriptions below track explicitly.

Index normalization: the printed equations sum repeated pair and triple
indices over their full antisymmetric range, while this module uses
increasing tuples as independent components.  Converting a full-range
pair sum to an ordered sum yields a factor 2 (3! for triples), which is
why several printed prefactors (1/2Delta on the pair left inverse, the
1/3! on the triple projector) appear here with the compensating factor
absorbed.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import constraints as con
from . import irreducible as irr
from . import oracle as oracle_mod
from . import second_order as so
from .numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    NoSolutionError,
    Tolerance,
    max_abs,
    mt,
    rank_tol,
    rel_residual,
    require_int,
    symplectic_block,
)
from .phase import PhaseSpec, dirac_matrix
from .report import COUNT_TOL, CheckReport

# how far the Fourier modes may be from orthonormal, and the derivative's
# image of a mode from that mode times its symbol, before decoupling is
# refused
_BLOCK_TOL = 1e-12
# the matrix entries one stacked pass may hold per matrix of its largest
# shape, (M0 + M1 + 2N)^2 per block: a shape group is cut into passes of
# as many blocks as fit, which bounds the memory of a pass
_STACK_ENTRIES = 2 ** 20


@dataclass(frozen=True)
class LatticeSpec:
    d: int
    L: int
    derivative: str = "fd"

    def __post_init__(self):
        require_int(self.d, "the spatial dimension of a three-form", 3)
        require_int(self.L, "the lattice size", 3)
        if self.derivative not in ("fd", "spectral"):
            raise InvalidInputError("derivative must be 'fd' or 'spectral'")
        if self.derivative == "spectral" and self.L % 2 == 0:
            raise InvalidInputError(
                "spectral derivatives need an odd lattice size "
                "(the top mode has no antisymmetric derivative)"
            )

    @property
    def sites(self) -> int:
        return self.L ** self.d

    @property
    def modes(self) -> int:
        return self.sites - 1


def _derivative_1d(lat: LatticeSpec) -> np.ndarray:
    """The L x L derivative along one periodic axis: the forward
    difference, or the exact antisymmetric (spectral) one for odd L."""
    eye = np.eye(lat.L)
    if lat.derivative == "fd":
        return np.roll(eye, -1, axis=0) - eye
    w = 2.0 * np.pi * np.fft.fftfreq(lat.L)
    return np.real(np.fft.ifft(1j * w[:, None] * np.fft.fft(eye, axis=0),
                               axis=0))


def _symbols(lat: LatticeSpec) -> np.ndarray:
    """Eigenvalue of the 1-d derivative on each Fourier mode
    e^{2 pi i k x / L}, k = 0..L-1: e^{2 pi i k / L} - 1 for the forward
    difference, i w(k) for the spectral derivative.

    Decoupling is checked, not assumed: the L modes must be orthogonal,
    and the L x L derivative must map each onto itself times its
    eigenvalue, or NoSolutionError.  This costs O(L^3).  Derivative i on
    the lattice is the Kronecker product of this one with identities, so
    every d-dimensional mode e^{2 pi i k.x / L} is an eigenvector with
    the eigenvalue at k_i.
    """
    L = lat.L
    x = np.arange(L)
    # reduce k x mod L before scaling so every phase is exact
    e = np.exp((2j * np.pi / L) * (np.outer(x, x) % L))
    if lat.derivative == "fd":
        lam = e[1] - 1.0
    else:
        lam = 2j * np.pi * np.fft.fftfreq(L)
    # the symbol at -k is the conjugate of the one at k; making it so
    # exactly makes the blocks of k and -k exact relabellings of each
    # other, which certify_lattice's orbit maps rely on
    lam = 0.5 * (lam + np.conj(lam[-x % L]))
    err = max(np.abs(_derivative_1d(lat) @ e - e * lam).max(),
              np.abs(e.conj().T @ e / L - np.eye(L)).max())
    if err > _BLOCK_TOL:
        raise NoSolutionError(
            "the lattice derivative is not diagonal on the Fourier modes",
            float(err))
    return lam


def _self_conjugate(lat: LatticeSpec, ks) -> np.ndarray:
    """Whether each wavevector of ks is its own negative, k = -k, which
    makes its block one cosine (even L)."""
    return np.all(2 * np.reshape(ks, (-1, lat.d)) % lat.L == 0, axis=1)


def _orbits(lat: LatticeSpec) -> np.ndarray:
    """The first wavevector, in lexicographic order, of every {k, -k}
    orbit of nonzero wavevectors, one row each: one per Fourier block,
    together spanning the n - 1 zero-mean functions.  The {k, -k} pairs
    come first, then at even L the self-conjugate k = -k, each group in
    lexicographic order."""
    shape = (lat.L,) * lat.d
    k = np.indices(shape).reshape(lat.d, -1)
    # lexicographic order is the order of the flat index
    flat = np.arange(k.shape[1])
    first = flat <= np.ravel_multi_index(-k % lat.L, shape)
    k = k[:, first & (flat > 0)].T
    return k[np.argsort(_self_conjugate(lat, k), kind="stable")]


def _stacks(lat: LatticeSpec, ks) -> list:
    """The wavevectors ks, in their order, in stacks of one block shape:
    the {k, -k} pairs (m_g = 2), then the self-conjugate k = -k
    (m_g = 1), each cut into stacks of as many blocks as hold
    _STACK_ENTRIES entries of (M0 + M1 + 2N)^2 each (one block at
    least)."""
    conj = _self_conjugate(lat, ks).tolist()
    out = []
    for m, flag in ((2, False), (1, True)):
        g = [k for k, c in zip(ks, conj) if c == flag]
        n = _pass_blocks(lat.d, m)
        out += [tuple(g[i:i + n]) for i in range(0, len(g), n)]
    return out


def _pass_blocks(d: int, m: int) -> int:
    """How many blocks of m_g = m one stacked pass holds: as many as hold
    _STACK_ENTRIES entries of (M0 + M1 + 2N)^2 each, one at least."""
    # M0, M1 and 2N: m rows per pair, axis and triple of each family
    size = 2 * m * (math.comb(d, 2) + d + math.comb(d, 3))
    return max(1, _STACK_ENTRIES // size ** 2)


def axis_orbits(lat: LatticeSpec) -> tuple:
    """The Fourier blocks grouped into orbits under relabellings of the
    axes.

    Permuting the axes of k, or of -k, carries a {k, -k} block onto a
    block of the same shape.  The spectral derivative is odd,
    w(-k) = -w(k), so in spectral mode reflecting one axis does too, and
    negates that axis's derivative.  The forward difference has no such
    symmetry (a reflection turns it into minus the backward difference),
    so its orbits are those of the permutations alone.

    Returns (ks, rep, perm, conj, sign): ks the wavevectors of the blocks
    in _orbits order; rep[j] the index in ks of the representative
    of block j's orbit, its first block; and the relabelling that carries
    the representative onto block j, under which derivative i of block j
    is sign[j, i] times derivative perm[j, i] of the representative,
    conjugated (k -> -k) where conj[j].  sign is +1 throughout in fd
    mode.  In spectral mode conjugation is the reflection of every axis,
    and a block is taken as the image of -k where that reflects fewer of
    its axes than the image of k.  A representative is its own image
    under the identity.
    """
    k = _orbits(lat)
    ks = tuple(zip(*k.T.tolist()))
    neg = -k % lat.L
    spectral = lat.derivative == "spectral"
    if spectral:
        # an orbit's key is the sorted distances of the k_i from 0
        size = np.minimum(k, neg)
        key = np.sort(size, axis=1)
    else:
        # the lesser, lexicographically, of sorted k and sorted -k
        up, down = np.sort(k, axis=1), np.sort(neg, axis=1)
        rows = np.arange(len(k))
        first = np.argmax(up != down, axis=1)
        flip = down[rows, first] < up[rows, first]
        key = np.where(flip[:, None], down, up)
    _, firsts, which = np.unique(
        np.ravel_multi_index(key.T, (lat.L,) * lat.d), return_index=True,
        return_inverse=True)
    rep = firsts[which]
    if spectral:
        this, that = size, size[rep]
    else:
        conj = np.any(up != up[rep], axis=1)
        this, that = k, np.where(conj[:, None], neg[rep], k[rep])
    # this[j, x] = that[j, perm[j, x]]: match the sorted components
    perm = np.empty_like(k)
    np.put_along_axis(perm, np.argsort(this, axis=1, kind="stable"),
                      np.argsort(that, axis=1, kind="stable"), axis=1)
    if spectral:
        # the image of -k where that reflects fewer axes than that of k
        moved = k != np.take_along_axis(k[rep], perm, axis=1)
        conj = 2 * moved.sum(axis=1) > np.count_nonzero(k, axis=1)
    # a component that the permutation carries onto its negative is a
    # reflected axis
    source = np.where(conj[:, None], neg[rep], k[rep])
    sign = np.where(k == np.take_along_axis(source, perm, axis=1), 1, -1)
    return ks, rep, perm, conj, sign


def _symbol_blocks(lat: LatticeSpec, ks: tuple) -> tuple:
    """Derivative i on the Fourier block of each wavevector of ks, one
    G x m_g x m_g stack per direction.  On the (cos, sin) pair it is the
    real 2 x 2 form [[a, b], [-b, a]] of the eigenvalue a + i b at k_i; on
    a self-conjugate block (cos alone) it is the real eigenvalue, -2 at
    k_i = L/2 for the forward difference and 0 at k_i = 0."""
    # several times faster than converting a tuple of tuples whole
    k = np.fromiter(itertools.chain.from_iterable(ks), dtype=int)
    k = k.reshape(-1, lat.d)
    if not len(k) or not k.any(axis=1).all():
        raise InvalidInputError("blocks need nonzero wavevectors")
    conj = _self_conjugate(lat, k)
    if conj.any() != conj.all():
        raise InvalidInputError("a stack holds blocks of one shape")
    lam = _symbols(lat)[k].T  # d x G
    a, b = lam.real, lam.imag
    if conj[0]:
        return tuple(a[:, :, None, None])
    return tuple(np.stack([np.stack([a, b], axis=-1),
                           np.stack([-b, a], axis=-1)], axis=-2))


def _lattice_name(lat: LatticeSpec) -> str:
    return f"threeform(d={lat.d}, L={lat.L}, {lat.derivative})"


@dataclass(frozen=True)
class ThreeFormSystem:
    lattice: LatticeSpec
    cs: con.ConstraintSet
    ell: tuple          # del_i as m x m matrices (G x m x m on a stack)
    u: tuple            # del^i as m x m matrices
    delta: np.ndarray   # Laplacian on zero-mean functions
    delta_inv: np.ndarray
    triples: tuple
    pairs: tuple
    m: int

    @property
    def n_field(self) -> int:
        return len(self.triples) * self.m


def _sorting(d: int, tuples: np.ndarray) -> tuple:
    """Where each tuple of axes on the last axis of ``tuples`` lands once
    sorted, one-hot over the increasing tuples of the d axes of its
    length in itertools.combinations order (nowhere for a tuple that
    repeats an axis), and the sign of the permutation that sorts it."""
    # the inversions: positions i < j that hold their axes out of order
    inverted = np.triu(tuples[..., :, None] > tuples[..., None, :])
    increasing = list(itertools.combinations(range(d), tuples.shape[-1]))
    hit = (np.sort(tuples, axis=-1)[..., None, :]
           == np.array(increasing, dtype=int)).all(axis=-1)
    return hit, 1.0 - 2.0 * (inverted.sum(axis=(-2, -1)) % 2)


@functools.cache
def _incidence(d: int, p: int) -> np.ndarray:
    """The signed incidence of p-forms in (p+1)-forms, d x C(d, p) x
    C(d, p + 1) and read-only: entry [i, P, Q] is the sign of sorting
    (i, *P) into Q, and 0 where i is in P.  Summed against derivative i
    it is the divergence of (p+1)-forms; I_p I_{p+1} is antisymmetric in
    its two derivative axes, so two divergences in a row cancel (delta
    delta = 0) when the derivatives commute."""
    tuples = np.array([(i, *P) for i in range(d)
                       for P in itertools.combinations(range(d), p)])
    hit, sign = _sorting(d, tuples.reshape(d, -1, p + 1))
    out = np.where(hit, sign[..., None], 0.0)
    out.flags.writeable = False
    return out


@functools.cache
def _families(d: int, p: int, first: float = 1.0, second: float = 1.0,
              swap: bool = False) -> np.ndarray:
    """Coefficients, over two families of operators stacked (the first's,
    then the second's), of a 2 x 2 matrix of family blocks, read-only:
    the first family fills the upper family row with first * I_p, the
    second the lower with second * I_p, on the diagonal, or off it where
    ``swap``."""
    place = np.zeros((2, 2, 2))
    place[[0, 1], [0, 1], [int(swap), 1 - int(swap)]] = first, second
    out = np.kron(place, _incidence(d, p))
    out.flags.writeable = False
    return out


def _blocks(coef: np.ndarray, ops) -> np.ndarray:
    """The block matrix whose (r, c) block is sum_i coef[i, r, c] ops[i],
    for a stack of operators that are m x m, or G x m x m on a stack of
    G blocks."""
    ops = np.asarray(ops)
    n, r, c = coef.shape
    m, k = ops.shape[-2:]
    # one matrix product over the operator axis, which BLAS makes
    # without a loop over the zero coefficients
    out = (np.moveaxis(ops, 0, -1).reshape(-1, n) @ coef.reshape(n, -1))
    return (out.reshape(-1, m, k, r, c).transpose(0, 3, 1, 4, 2)
            .reshape(ops.shape[1:-2] + (r * m, c * k)))


def _laplacian(down: np.ndarray) -> tuple:
    """The Laplacian sum_i del^i del_i of the derivatives ``down`` (d x m x
    m, or d x G x m x m on a stack) and its inverse, which build_threeform
    and the orbit check both take from here.

    The terms are summed in ascending and in descending order and
    averaged, so that the sum depends neither on the order of the
    directions nor on a common sign: a relabelling of the axes carries
    delta exactly as it carries the symbols.
    """
    terms = mt(down) @ down
    np.negative(terms, out=terms)
    # sorted along the directions, entry by entry, by an odd-even
    # transposition network: d rounds of min/max, which sort as np.sort
    # does and much faster on a short axis
    n = len(terms)
    for r in range(n):
        a, b = terms[r % 2:n - 1:2], terms[r % 2 + 1:n:2]
        low = np.minimum(a, b)
        np.maximum(a, b, out=b)
        a[...] = low
    delta = 0.5 * (terms.sum(axis=0) + terms[::-1].sum(axis=0))
    return delta, np.linalg.inv(delta)


def build_threeform(lat: LatticeSpec, ell, blocks: tuple = ()
                    ) -> ThreeFormSystem:
    """Assemble the constraint system from the derivative symbols and
    validate it.

    ``ell`` holds derivative i for each direction i: one m x m matrix for
    one system, or one G x m x m stack for a stack of G blocks, which
    ``blocks`` labels in order (certify_lattice passes _symbol_blocks and
    the wavevectors).  The reducibility chain must hold exactly, or
    NoSolutionError.
    """
    if len(ell) != lat.d:
        raise InvalidInputError(
            f"need one derivative per direction ({lat.d}), got {len(ell)}")
    d = lat.d
    down = np.stack(ell)
    up = -mt(down)
    delta, delta_inv = _laplacian(down)

    # the divergences of three-, two- and one-forms, del^i on the pi
    # family and del_i on the A family
    ops = np.concatenate([up, down])
    b = _blocks(_families(d, 2, -3.0, -1.0, swap=True), ops)
    z1 = _blocks(mt(_families(d, 1, -1.0, -1.0)), mt(ops))
    z2 = _blocks(mt(_families(d, 0)), mt(ops))

    cs = con.ConstraintSet.linear(PhaseSpec(n_pairs=b.shape[-1] // 2), b,
                                  z1, z2, _lattice_name(lat), blocks)
    # reducibility must be exact here, not merely weak
    broken = max(np.abs(mt(z1) @ b).max(), np.abs(z1 @ z2).max())
    if broken > 1e-12:
        raise NoSolutionError(
            "lattice transcription broke the reducibility chain",
            float(broken))
    return ThreeFormSystem(
        lattice=lat, cs=cs, ell=tuple(ell), u=tuple(up), delta=delta,
        delta_inv=delta_inv, m=down.shape[-1],
        triples=tuple(itertools.combinations(range(d), 3)),
        pairs=tuple(itertools.combinations(range(d), 2)),
    )


def _projector(inc: np.ndarray, first, second,
               delta_inv: np.ndarray) -> np.ndarray:
    """I - X Y (I (x) 1/Delta), where X's (Q, P) block is
    sum_i inc[i, P, Q] first_i and Y's (P, Q') block is
    sum_j inc[j, P, Q'] second_j."""
    xy = _blocks(mt(inc), first) @ _blocks(inc, second)
    return (np.eye(xy.shape[-1])
            - xy @ _blocks(np.eye(inc.shape[2])[None], [delta_inv]))


def closed_form_projector(sys: ThreeFormSystem) -> np.ndarray:
    """Triple-index projector giving the fundamental [A, pi] brackets.

    Transcribed with increasing triples as components; the printed 1/3!
    cancels against the full-range-to-ordered conversion of the inner
    triple sum, leaving 1/(2 Delta) on the derivative term summed over
    ordered pairs, which is 1/Delta over the increasing pairs.
    """
    return _projector(_incidence(sys.lattice.d, 2), sys.u, sys.ell,
                      sys.delta_inv)


def pair_projector(sys: ThreeFormSystem) -> np.ndarray:
    """Block-diagonal pair-index projector matching the engine's d00.

    Each family block is the printed pair projector with the ordered-pair
    normalization (factor 2 absorbed into the leading 1/2); the second
    family is the adjoint transcription, as its constraints carry the
    opposite derivative type.
    """
    return _projector(_families(sys.lattice.d, 1),
                      sys.ell + sys.u, sys.u + sys.ell, sys.delta_inv)


def _unserialised():
    return dataclasses.field(default=None, repr=False, compare=False)


@dataclass
class EngineReport(CheckReport):
    """Report of run_threeform_checks.  It also carries what
    paper_choices_artifacts reuses on the same system, none of it
    serialised: the sampled ``point``, the closed-form projectors ``d30``
    and ``dpair``, and ``f_engine``, the 2N x 2N fundamental matrix of the
    engine's noninvertible route at the point (compared in eq_14r)."""

    point: Optional[np.ndarray] = _unserialised()
    d30: Optional[np.ndarray] = _unserialised()
    dpair: Optional[np.ndarray] = _unserialised()
    f_engine: Optional[np.ndarray] = _unserialised()


def run_threeform_checks(
    sys: ThreeFormSystem,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
) -> EngineReport:
    """Generic pipeline on the lattice system against the closed forms.

    The report holds every record of the stages it ran (the artifacts,
    the omega and mu pairs and the irreducible build), then the routes'
    and the closed forms' records.  A block whose chain or whose C fails
    (eq_11x, eq_11d_rank) stops the run in second_order_artifacts, which
    names it; G is evaluated and C formed there alone.  On a stack of
    Fourier blocks every stage, the oracle that eq_32 checks the routes
    against included, runs once over the stack, and each record takes
    one residual per block.  The report's point, projectors and f_engine
    carry the stack's leading axis, and its seeds take the irreducible
    build's (an omega reseed and, on a stack, the indices of the
    reseeded blocks).
    """
    cs = sys.cs
    rep = EngineReport(system=cs.name, tolerances=tol,
                       seeds={"points": seed}, blocks=cs.blocks)
    t0 = time.perf_counter()
    nf = sys.n_field
    z = con.sample_surface(cs, seed, 1, tol)[0]
    art = so.full_artifacts(cs, z, tol, seed)
    irs = irr.build_irreducible(art, tol)
    rep.merge(irs.report)

    j = cs.spec.poisson
    f_non = dirac_matrix(j, art.g, art.m2)
    f_inv = dirac_matrix(j, art.g, art.mu2)
    dim = cs.spec.dim
    f_irr = irr.fundamental_matrix_irred(irs, irs.build_point,
                                         tol)[..., :dim, :dim]
    mats = [oracle_mod.fundamental_matrix_oracle(cs, z, tol),
            f_non, f_inv, f_irr]
    rep.add("eq_32", np.max([max_abs(a - b) for i, a in enumerate(mats)
                             for b in mats[i + 1:]], axis=0), tol.weak_eq)

    d30 = closed_form_projector(sys)
    if _printed_forms_apply(sys):
        rep.add("eq_v23", max_abs(f_non[..., :nf, nf:] - d30), tol.weak_eq)
    rep.add("eq_29", np.maximum(max_abs(f_non[..., :nf, :nf]),
                                max_abs(f_non[..., nf:, nf:])), tol.weak_eq)
    rep.add("eq_30", rel_residual(d30 @ d30, d30), tol.weak_eq)
    rank_d00 = rank_tol(art.d00, tol)
    rep.add("eq_12a", abs(rank_d00 - cs.n_independent), COUNT_TOL)
    # the projector trace counts the physical A degrees of freedom
    n_phys = cs.spec.n_pairs - cs.n_independent // 2
    rep.add("eq_30_trace",
            abs(np.trace(d30, axis1=-2, axis2=-1) - n_phys), 1e-6)

    dpair = pair_projector(sys)
    rep.add("eq_w23", rel_residual(art.d00, dpair), tol.weak_eq)
    rep.add("eq_x23", rel_residual(dpair @ dpair, dpair), tol.weak_eq)
    rep.point, rep.d30, rep.dpair, rep.f_engine = z, d30, dpair, f_non
    rep.timings["engine_checks"] = time.perf_counter() - t0
    return rep


def _paper_a12(sys: ThreeFormSystem) -> np.ndarray:
    return _blocks(mt(_families(sys.lattice.d, 0)),
                   sys.ell + sys.u)


def _paper_abar01(sys: ThreeFormSystem) -> np.ndarray:
    """Printed pair left inverse with the ordered-pair factor (1/Delta)."""
    # each block is one product 1/Delta del^T, as an exact relabelling
    # of the blocks needs
    ops = sys.delta_inv @ mt(np.asarray(sys.ell + sys.u))
    return _blocks(_families(sys.lattice.d, 1, -1.0, -1.0), ops)


def _paper_ehat(sys: ThreeFormSystem) -> tuple:
    """Congruence pair: (1/Delta, 2/Delta) per family and its inverse."""
    w = np.repeat([1.0, 2.0], sys.lattice.d)
    return (_blocks(np.diag(w)[None], [sys.delta_inv]),
            _blocks(np.diag(1.0 / w)[None], [sys.delta]))


def _sigma_factorizations(sys: ThreeFormSystem, a12: np.ndarray,
                          a01: np.ndarray) -> tuple:
    """Residuals of the sigma-matrix factorizations of a12 and a01.

    Both choice matrices factor through the reducibility operators via a
    family-swapping symmetric sigma pair: each is its Z matrix with every
    m x m block transposed and the two families of rows and of columns
    exchanged.  The pair-index sigma carries the ordered-pair
    normalization (+1, +1/2 per family block).
    """
    m = sys.m

    def swapped(z):
        r, c = z.shape[-2:]
        t = (z.reshape(z.shape[:-2] + (r // m, m, c // m, m))
             .swapaxes(-1, -3).reshape(z.shape))
        return np.roll(t, (r // 2, c // 2), axis=(-2, -1))

    half = np.repeat([1.0, 0.5], len(sys.pairs) * m)[:, None]
    return (max_abs(a12 - swapped(np.asarray(sys.cs.z2))),
            max_abs(a01 - half * swapped(np.asarray(sys.cs.z1))))


def chi_tilde_printed(sys: ThreeFormSystem) -> np.ndarray:
    """Direct transcription of the printed irreducible constraint rows.

    Row layout matches the irreducible system: the M0 mixed constraints
    over (A, pi, y) followed by the M2 divergence constraints on y alone,
    where y holds pi_k in its first d blocks and A^l in its last d.
    Assembled independently from the printed formulas: the mixed rows add
    -del_[i1 pi_i2] and -(1/2) del^[j1 A^j2] to B, and the divergence
    rows are del^k pi_k and del_l A^l.
    """
    d, cs = sys.lattice.d, sys.cs
    dim = cs.spec.dim
    rows = np.zeros(cs.batch + (cs.m0 + cs.m2, dim + cs.m1))
    rows[..., :cs.m0, :dim] = cs.affine_matrix()[0]
    rows[..., :cs.m0, dim:] = _blocks(
        mt(_families(d, 1, -1.0, -0.5)), sys.ell + sys.u)
    rows[..., cs.m0:, dim:] = _blocks(_families(d, 0), sys.u + sys.ell)
    return rows


def _printed_forms_apply(sys: ThreeFormSystem) -> bool:
    """Whether the printed bracket closed forms hold in this representation.

    The printed forms contract a derivative with itself through 1/Delta,
    which requires the anti-self-adjoint (spectral) derivative; at d = 3
    the projector is forced to zero and representation independent.
    """
    return sys.lattice.derivative == "spectral" or sys.lattice.d == 3


def _site_stencil_ok(lat: LatticeSpec) -> float:
    """Largest Chebyshev stencil radius over all site-space constraint rows.

    The irreducible constraints are built from single first-order
    difference operators, so every row must touch only sites within
    distance one of its own; the returned value is the radius beyond
    one, the locality residual (zero when local).  Each site operator is
    the 1-d derivative along one axis, so the radius is the periodic
    reach of that derivative's stencil; it depends on the lattice alone,
    not on the mode block.
    """
    rows, cols = np.nonzero(np.abs(_derivative_1d(lat)) > 1e-12)
    diff = np.abs(rows - cols)
    diff = np.minimum(diff, lat.L - diff)  # periodic wrap
    return float(max(int(diff.max(initial=0)) - 1, 0))


def _printed_closed_forms(
    sys: ThreeFormSystem, art: so.SecondOrderArtifacts, dpair: np.ndarray,
    tol: Tolerance,
) -> CheckReport:
    """Printed noninvertible/invertible bracket matrices and omega pair.

    These closed forms pair a derivative with itself through 1/Delta, so
    they hold only in the anti-self-adjoint (spectral, u = ell)
    representation.  The ordered-index normalization makes the effective
    prefactors 1/(3 Delta) on the M matrix, 1/(3 Delta^2) on the omega
    pair and 1/(3 Delta) on the mu matrix (printed: 1/Delta,
    1/(2 Delta^2), 1/(2 Delta)).
    """
    rep = CheckReport(system=sys.cs.name + " [printed closed forms]",
                      tolerances=tol)
    dinv = sys.delta_inv
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # the printed mu matrix; the printed M matrix is dpair times it
    q30 = np.kron(np.kron(-j, np.eye(len(sys.pairs))), dinv) / 3.0
    rep.add("eq_y23", max_abs(art.m2 - dpair @ q30), tol.weak_eq)

    om_up = np.kron(np.kron(j, np.eye(sys.lattice.d)), dinv @ dinv) / 3.0
    om_low = np.linalg.inv(om_up)
    rep.add("eq_q31", rel_residual(om_up @ art.d11 @ om_low, art.d11),
            tol.weak_eq)

    mu2, _ = so.mu_matrices(art, om_up, om_low)
    rep.add("eq_q30", max_abs(mu2 - q30), tol.weak_eq)
    return rep


def paper_choices_artifacts(
    sys: ThreeFormSystem,
    tol: Tolerance = DEFAULT_TOL,
    *,
    engine: EngineReport,
) -> tuple:
    """Second-order artifacts and irreducible system with the printed
    choices installed instead of the engine defaults.

    Returns (artifacts, irreducible_system, report).  The report holds
    every record of second_order_artifacts and assemble_irreducible (from
    eq_11x to rank_c_delta), then the route's own.  The printed a12,
    abar01 and congruence ehat, with the canonical vector-field pairing
    as the y-space bracket, go through irreducible.assemble_irreducible:
    the mixing matrix a01 = abar01^T ehat^-T is derived there, the
    gradient rows of the assembled chi_tilde are checked row by row
    against the printed irreducible constraints (eq_58, eq_59, eq_72)
    and a01 against their sigma factorization (eq_27qw), and eq_p11
    certifies the paper's closed-form inverse of c_delta.  This is the
    one route whose congruence is not the identity, so it records
    whether ehat preserves the d11 projector sandwich (eq_27qq).  The
    closed form holds for the forward difference as well as for the
    spectral derivative.  On a stack of Fourier blocks everything is
    built once over the stack, with one residual per block.

    ``engine`` is the report of run_threeform_checks on the same system:
    its point, point seed and closed-form projectors are reused, and its
    ``f_engine`` is the fundamental matrix that eq_14r compares against.
    """
    t0 = time.perf_counter()
    cs = sys.cs
    rep = CheckReport(system=cs.name + " [paper choices]", tolerances=tol,
                      seeds={"points": engine.seeds["points"]},
                      blocks=cs.blocks)
    z = engine.point
    a12 = _paper_a12(sys)
    art = so.second_order_artifacts(cs, z, tol, a12=a12,
                                    abar01=_paper_abar01(sys))
    ehat, ehat_inv = _paper_ehat(sys)
    # canonical pairing of the y fields: [A^l, pi_k] = delta_kl
    omega_y = -symplectic_block(cs.m1)
    irs = irr.assemble_irreducible(art, ehat, ehat_inv, omega_y, -omega_y,
                                   tol)
    rep.merge(irs.report)
    # recorded, not required: a bad printed congruence still yields a
    # full report, and the closed-form inverse it breaks is eq_p11
    rep.add("eq_27qq", rel_residual(ehat_inv @ art.d11 @ ehat, art.d11),
            tol.weak_eq)

    # row-for-row match of the assembled constraints against the
    # independently transcribed printed forms
    dim, m0 = cs.spec.dim, cs.m0
    diff = (mt(irs.chi_tilde_gradients(irs.build_point))
            - chi_tilde_printed(sys))
    npair_rows = len(sys.pairs) * sys.m
    rep.add("eq_58", max_abs(diff[..., :npair_rows, :]), tol.weak_eq)
    rep.add("eq_59", max_abs(diff[..., npair_rows:m0, :]), tol.weak_eq)
    rep.add("eq_72", max_abs(diff[..., m0:, :]), tol.weak_eq)
    rep.add("locality", _site_stencil_ok(sys.lattice), COUNT_TOL)

    res_27ww, res_27qw = _sigma_factorizations(sys, a12, irs.a01)
    rep.add("eq_27ww", res_27ww, tol.weak_eq)
    rep.add("eq_27qw", res_27qw, tol.weak_eq)

    if sys.lattice.derivative == "spectral":
        rep.merge(_printed_closed_forms(sys, art, engine.dpair, tol))

    # the printed route must reproduce the engine's fundamental brackets
    f_paper = irr.fundamental_matrix_irred(irs, irs.build_point,
                                           tol)[..., :dim, :dim]
    rep.add("eq_14r", max_abs(f_paper - engine.f_engine), tol.weak_eq)
    if _printed_forms_apply(sys):
        nf = sys.n_field
        rep.add("eq_v23", max_abs(f_paper[..., :nf, nf:] - engine.d30),
                tol.weak_eq)
    rep.timings["paper_choices"] = time.perf_counter() - t0
    return art, irs, rep


def _stack_system(lat: LatticeSpec, ks: tuple) -> ThreeFormSystem:
    return build_threeform(lat, _symbol_blocks(lat, ks),
                           tuple(f"mode k={k}" for k in ks))


def _sine_flip(conj: np.ndarray, m: int) -> np.ndarray:
    """The signs, G x m, that carry a block's m basis functions by k -> -k
    where conj[g]: the sine of the (cos, sin) pair flips sign."""
    return np.where(conj[:, None], [1.0, -1.0], 1.0)[:, :m]


def _conjugation(conj: np.ndarray, m: int) -> np.ndarray:
    """The signs, G x m x m, that carry a block's m x m matrices by k -> -k
    where conj[g], on both sides (_sine_flip)."""
    flip = _sine_flip(conj, m)
    return flip[:, :, None] * flip[:, None, :]


def _relabel(down: np.ndarray, rows: np.ndarray, perm: np.ndarray,
             conj: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The images, G x d x m x m, of blocks of stacked symbols ``down``
    (d x G' x m x m) under the relabellings of axis_orbits: derivative i
    of image g is sign[g, i] times derivative perm[g, i] of block
    rows[g], conjugated where conj[g]."""
    out = down[perm, rows[:, None]]
    out *= sign[:, :, None, None]
    out *= _conjugation(conj, down.shape[-1])[:, None]
    return out


def _axis_maps(d: int, m: int, perm: np.ndarray, conj: np.ndarray,
               sign: np.ndarray) -> dict:
    """The signed permutations that carry a block onto its image under
    each relabelling of axis_orbits (_relabel), one per index space, each
    of two families: "c" the constraints (pairs), "f" the fields
    (triples, A then pi), "1" the Z1 columns (directions) and "2" the Z2
    columns (one function each).  Each is (index, sign), one row per
    relabelling: entry a of the block's space is entry index[g, a] of the
    image's, times sign[g, a].
    """
    to = np.argsort(perm, axis=1)  # axis i of the block is axis to[g, i]
    # the image's derivative at to[g, i] is the block's derivative i times
    # this reflection sign
    back = np.take_along_axis(sign, to, axis=1)
    mode = _sine_flip(conj, m)
    out = {}
    for space, size in (("2", 0), ("1", 1), ("c", 2), ("f", 3)):
        tuples = np.array(list(itertools.combinations(range(d), size)),
                          dtype=int)
        # a tuple's image is its sorted axes, signed by the sorting and by
        # the reflection of each of its axes
        hit, flip = _sorting(d, to[:, tuples])
        flip = flip * np.prod(back[:, tuples], axis=-1)
        pos = hit.argmax(axis=-1)
        index = ((np.arange(2)[:, None] * len(tuples) + pos[:, None, :])
                 [..., None] * m + np.arange(m))
        signs = flip[:, None, :, None] * mode[:, None, None, :]
        out[space] = (index.reshape(len(to), -1),
                      np.broadcast_to(signs, index.shape).reshape(len(to), -1))
    return out


def _orbit_matrices(sys: ThreeFormSystem, paper_choices: bool) -> dict:
    """The matrices that a stack's records are built from, the point
    aside: B, Z1 and Z2, and with the printed choices a12, abar01, ehat
    and its inverse, each with the index spaces (_axis_maps) of its rows
    and columns."""
    cs = sys.cs
    out = {"B": (cs.affine_matrix()[0], "cf"), "Z1": (cs.z1, "c1"),
           "Z2": (cs.z2, "12")}
    if paper_choices:
        ehat, ehat_inv = _paper_ehat(sys)
        out.update(a12=(_paper_a12(sys), "12"),
                   abar01=(_paper_abar01(sys), "1c"),
                   ehat=(ehat, "11"), ehat_inv=(ehat_inv, "11"))
    return out


@functools.cache
def _builder_deviation(d: int, m: int, paper_choices: bool) -> float:
    """How far build_threeform is from carrying a block onto its images
    under the generators of the axis relabellings, for blocks of m_g = m
    at dimension d: 0.0 where it carries them exactly.

    The relabellings of axis_orbits, signed permutations of the axes with
    k -> -k, form the group B_d x Z_2.  The d - 1 transpositions
    (i, i + 1) of adjacent axes, the reflection of axis 0 and the
    conjugation k -> -k generate it (Humphreys, Reflection Groups and
    Coxeter Groups, 1990, sections 1.1 and 2.10), and these d + 1 are
    the relabellings checked.

    The block is one seeded random draw of symbols of the block shape,
    [[a, b], [-b, a]] per direction (a alone at m = 1), which commute as
    every lattice's do.  It and its images (_relabel) are built in stacked
    passes, _pass_blocks blocks at most, and each matrix that
    _orbit_matrices names, the Poisson matrix and the engine's canonical
    omega and Z2 seeds is compared, with no tolerance, with the random
    block's carried by _axis_maps.  The builder sums the symbols against
    integer coefficients, so a generator it does not carry exactly shows
    on a random draw with probability one (Schwartz-Zippel), on any
    lattice size: the result depends on no L and is kept.
    """
    a, b = np.random.default_rng(0).standard_normal((2, d))
    generic = np.stack([np.stack([a, b], axis=-1),
                        np.stack([-b, a], axis=-1)], axis=-2)[:, :m, :m]
    # the transpositions, then the conjugation, then the reflection
    perm = np.tile(np.arange(d), (d + 1, 1))
    i = np.arange(d - 1)
    perm[i, i], perm[i, i + 1] = i + 1, i
    conj = np.arange(d + 1) == d - 1
    sign = np.ones((d + 1, d), dtype=int)
    sign[d, 0] = -1
    images = _relabel(generic[:, None], np.zeros(d + 1, dtype=int),
                      perm, conj, sign)
    n = max(1, _pass_blocks(d, m) - 1)
    dev = [0.0]
    for lo in range(0, d + 1, n):
        part = slice(lo, lo + n)
        ell = np.concatenate([generic[None], images[part]])
        sys = build_threeform(LatticeSpec(d, 3), tuple(np.moveaxis(ell, 1, 0)),
                              tuple(map(str, range(len(ell)))))
        cs = sys.cs
        mats = _orbit_matrices(sys, paper_choices)
        for name, shared, space in (
                ("poisson", cs.spec.poisson, "ff"),
                ("omega seed", symplectic_block(cs.m1), "11"),
                ("Z2 seed", symplectic_block(cs.m2), "22")):
            mats[name] = (np.broadcast_to(shared, (len(ell),) + shared.shape),
                          space)
        spaces = _axis_maps(d, m, perm[part], conj[part], sign[part])
        for mat, (rows, cols) in mats.values():
            (ri, rs), (ci, cs_) = spaces[rows], spaces[cols]
            # entry (a, b) of the block is entry at[a, b] of the image
            at = (ri[:, :, None] * mat.shape[-1]
                  + ci[:, None, :]).reshape(len(ri), -1)
            want = (rs[:, :, None] * cs_[:, None, :]).reshape(at.shape) \
                * mat[0].ravel()
            image = np.take_along_axis(mat[1:].reshape(len(ri), -1), at,
                                       axis=1)
            dev.append(np.abs(image - want).max())
    # a NaN propagates, so it counts as a mismatch
    return float(np.max(dev))


def _check_orbit_maps(lat: LatticeSpec, orbits: tuple,
                      paper_choices: bool) -> None:
    """Check that every block is the exact image of its orbit
    representative (axis_orbits), or NoSolutionError naming the first
    block that is not.  No block is built.

    Two checks, each with no tolerance, show that building a member
    would give its representative's matrices carried by the signed
    permutations of _axis_maps:

    - its inputs: every block's symbols are read through _symbol_blocks,
      and its Delta and Delta^-1 through _laplacian, as certification
      reads them; a member's must be its representative's carried by the
      relabelling (_relabel);
    - the builder: build_threeform carries a random block onto its
      images under the d + 1 generators of the axis relabellings
      (_builder_deviation).  A member's relabelling is a product of
      generators, so the builder carries it too, and the maps of
      _axis_maps need no such check: members are never built, their
      records are spread from the representative, and every record is
      invariant under any signed permutation of the index spaces, which
      a product of generator maps is.  A builder that does not carry a
      generator marks every member of the shape group.

    A defect that treats one block label differently, rather than one
    axis, is outside what this sees; full certification of every block
    is the reference for that (tests/lattice_reference.py).
    """
    ks, rep, perm, conj, sign = orbits
    dev = np.zeros(len(ks))
    # the {k, -k} pairs come first (_orbits), then the self-conjugate
    split = bisect.bisect(ks, False,
                          key=lambda k: bool(_self_conjugate(lat, k)[0]))
    for at in (slice(0, split), slice(split, len(ks))):
        if at.start == at.stop:
            continue
        down = np.stack(_symbol_blocks(lat, ks[at]))
        m = down.shape[-1]
        delta, delta_inv = _laplacian(down)
        ell = np.moveaxis(down, 0, 1)
        src = rep[at] - at.start
        sines = _conjugation(conj[at], m)
        # a representative is its own image under the identity
        for got, want in (
                (ell, _relabel(down, src, perm[at], conj[at], sign[at])),
                (delta, delta[src] * sines),
                (delta_inv, delta_inv[src] * sines)):
            # the deviation is taken only where an entry differs; a NaN
            # differs from everything, itself included
            axes = tuple(range(1, got.ndim))
            bad = np.flatnonzero((got != want).any(axis=axes))
            dev[at.start + bad] = np.maximum(
                dev[at.start + bad],
                np.abs(got[bad] - want[bad]).max(axis=axes))
        dev[at] = np.maximum(dev[at],
                             _builder_deviation(lat.d, m, paper_choices))
    members = np.flatnonzero(rep != np.arange(len(ks)))
    for j in members[np.flatnonzero(dev[members])][:1]:
        raise NoSolutionError(
            f"{_lattice_name(lat)} mode k={ks[j]}: not the exact image of "
            f"its axis orbit representative mode k={ks[rep[j]]}",
            float(dev[j]))


def certify_lattice(
    lat: LatticeSpec,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
    paper_choices: bool = False,
) -> tuple:
    """The lattice three-form's checks, one representative per orbit of
    Fourier blocks under relabellings of the axes.

    Every lattice derivative is circulant, so each {k, -k} block is a
    constraint system of its own (M0 = 2 C(d,2) m_g, m_g = 2, or 1 for
    k = -k), built from the closed-form symbols of the derivative.  A
    permutation of the axes, and in spectral mode a reflection of one,
    carries a block onto another, up to a signed relabelling of its
    pairs, triples and Z columns (axis_orbits).  Before any block is
    certified, every block is checked, with no tolerance and without
    being built, to be the image of its orbit's representative
    (_check_orbit_maps); a block that is not raises NoSolutionError
    naming it.

    The representatives, in stacks of one shape (as many blocks each as
    _STACK_ENTRIES allows at their size), are then built and go through
    run_threeform_checks, and with ``paper_choices`` also
    paper_choices_artifacts, one stack at a time.  Each route's report
    holds every record its stages made, eq_20 included.
    Each record keeps its worst residual, in one report per route under
    the lattice's name; its per-block residuals cover every block, each
    block carrying its representative's.  Each report's ``blocks`` labels
    every block, and ``filled`` counts those that are not
    representatives.  The engine report's seeds list the blocks whose
    omega pair was reseeded, by label, as "omega_blocks": a reseeded
    representative lists its whole orbit.  A failed construction
    identity raises, naming the first failing block, which is a
    representative.  Returns (engine report, paper-choices report or
    None).
    """
    name = _lattice_name(lat)
    engine = CheckReport(system=name, tolerances=tol, seeds={"points": seed})
    paper = (CheckReport(system=name + " [paper choices]", tolerances=tol,
                         seeds={"points": seed}) if paper_choices else None)
    t0 = time.perf_counter()
    orbits = axis_orbits(lat)
    ks, rep = orbits[:2]
    certified = np.flatnonzero(rep == np.arange(len(ks)))
    source = np.searchsorted(certified, rep)
    _check_orbit_maps(lat, orbits, paper_choices)
    engine.timings["orbit_maps"] = time.perf_counter() - t0

    reseeded = set()
    for stack in _stacks(lat, [ks[i] for i in certified]):
        sys = _stack_system(lat, stack)
        part = run_threeform_checks(sys, tol, seed)
        engine.fold(part)
        if "omega" in part.seeds:
            engine.seeds["omega"] = seed
            reseeded.update(part.blocks[i]
                            for i in part.seeds["omega_blocks"])
        if paper is not None:
            paper.fold(paper_choices_artifacts(sys, tol, engine=part)[2])
    labels = tuple(f"mode k={k}" for k in ks)
    for report in (engine, paper):
        if report is not None:
            report.spread(labels, source)
    if reseeded:
        engine.seeds["omega_blocks"] = [
            label for label, r in zip(labels, rep) if labels[r] in reseeded]
    return engine, paper
