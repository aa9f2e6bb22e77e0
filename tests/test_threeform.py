import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import diracred.threeform as tf
import lattice_reference
from diracred.cli import main
from diracred.constraints import sample_surface, validate
from diracred.second_order import second_order_artifacts
from diracred.numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    NoSolutionError,
    rank_tol,
)
from diracred.threeform import (
    LatticeSpec,
    build_threeform,
    certify_lattice,
    chi_tilde_printed,
    closed_form_projector,
    pair_projector,
    paper_choices_artifacts,
    run_threeform_checks,
)
from lattice_reference import (
    basis_symbols,
    block,
    block_stacks,
    certify_every_block,
    complete_basis,
    dense_threeform,
    fourier_bases,
    site_ops,
    stack_threeform,
)


def test_lattice_spec_validation():
    with pytest.raises(InvalidInputError):
        LatticeSpec(d=2, L=4)
    with pytest.raises(InvalidInputError):
        LatticeSpec(d=3, L=2)
    with pytest.raises(InvalidInputError):
        LatticeSpec(d=3, L=3, derivative="bogus")
    with pytest.raises(InvalidInputError):
        # spectral antisymmetric derivatives need odd L
        LatticeSpec(d=3, L=4, derivative="spectral")
    lat = LatticeSpec(d=3, L=4)
    assert lat.sites == 64
    assert lat.modes == 63


def test_build_counts_d3_l4():
    sys = dense_threeform(LatticeSpec(d=3, L=4))
    m = 63
    assert sys.m == m
    assert sys.cs.spec.dim == 2 * 1 * m  # one A component per mode
    assert sys.cs.m0 == 2 * 3 * m
    assert sys.cs.m1 == 2 * 3 * m
    assert sys.cs.m2 == 2 * m
    assert sys.cs.n_independent == 2 * m


def test_build_counts_d4_l3():
    sys = dense_threeform(LatticeSpec(d=4, L=3))
    m = 80
    assert sys.cs.spec.dim == 2 * 4 * m  # C(4,3) = 4 components
    # per-mode counts M0 = 2 C(d,2) = 12, M1 = 2d = 8, M2 = 2
    assert sys.cs.m0 == 12 * m
    assert sys.cs.m1 == 8 * m
    assert sys.cs.m2 == 2 * m
    assert sys.cs.n_independent == 6 * m


def test_exact_reducibility_chain():
    sys = dense_threeform(LatticeSpec(d=3, L=3))
    z1, z2 = sys.cs.z1, sys.cs.z2
    b, _ = sys.cs.affine_matrix()
    assert np.abs(z1.T @ b).max() < 1e-13
    assert np.abs(z1 @ z2).max() < 1e-13
    pts = sample_surface(sys.cs, seed=0, count=2)
    assert validate(sys.cs, pts).passed


def test_closed_form_projector_idempotent_and_trace():
    for spec in (LatticeSpec(d=3, L=4), LatticeSpec(d=4, L=3)):
        sys = dense_threeform(spec)
        d30 = closed_form_projector(sys)
        assert np.abs(d30 @ d30 - d30).max() < 1e-9
        n_phys = sys.cs.spec.n_pairs - sys.cs.n_independent // 2
        assert np.trace(d30) == pytest.approx(n_phys, abs=1e-8)
        if n_phys == 0:
            # relative rank cutoffs are meaningless on an all-noise
            # matrix, so check the norm instead
            assert np.abs(d30).max() < 1e-12
        else:
            assert rank_tol(d30) == n_phys


def test_projector_symbol_value_d3():
    # d = 3 has a single A component; the symbol-space reduction of the
    # projector at kappa = (1, 0, 0) is 1 - (kappa contraction)/kappa^2,
    # which collapses to zero, so the whole matrix vanishes
    kappa = np.array([1.0, 0.0, 0.0])
    forced = 1.0 - (kappa @ kappa) / (kappa @ kappa)
    assert forced == 0.0
    d30 = closed_form_projector(dense_threeform(LatticeSpec(d=3, L=3)))
    assert np.abs(d30).max() < 1e-12


def test_pair_projector_idempotent():
    for spec in (LatticeSpec(d=3, L=3), LatticeSpec(d=4, L=3)):
        sys = dense_threeform(spec)
        d41 = pair_projector(sys)
        assert np.abs(d41 @ d41 - d41).max() < 1e-9


def test_engine_checks_fd():
    sys = dense_threeform(LatticeSpec(d=3, L=4))
    rep = run_threeform_checks(sys, DEFAULT_TOL)
    assert rep.passed
    for tag in ("eq_v23", "eq_29", "eq_21q", "eq_p11", "eq_32",
                "eq_w23", "eq_x23", "eq_12a", "eq_30_trace"):
        assert rep.record(tag).passed, tag


def test_engine_checks_fd_d4():
    # at d = 3 every bracket is zero; at d4 L5 it is not, so eq_32
    # compares brackets that a wrong route would miss.  The printed
    # closed form eq_v23 is not claimed for fd at d4
    engine, _ = certify_lattice(LatticeSpec(d=4, L=5))
    assert engine.passed
    for tag in ("eq_29", "eq_21q", "eq_p11", "eq_32", "eq_w23", "eq_x23",
                "eq_12a", "eq_30_trace"):
        assert engine.record(tag).passed, tag
    with pytest.raises(KeyError):
        engine.record("eq_v23")


def test_engine_checks_spectral_d4(dense):
    _, rep, _ = dense(LatticeSpec(d=4, L=3, derivative="spectral"))
    assert rep.passed
    assert rep.record("eq_v23").residual < 1e-8
    assert rep.record("eq_29").residual < 1e-8


def test_fd_d4_closed_forms_not_claimed(dense):
    # with one-sided differences at d >= 4 the printed projector form
    # presupposes an anti-self-adjoint derivative, so the engine report
    # must not claim it
    _, rep, _ = dense(LatticeSpec(d=4, L=3))
    assert rep.passed
    with pytest.raises(KeyError):
        rep.record("eq_v23")


def _engine_bracket(sys, tol=DEFAULT_TOL, seed=0):
    """The engine's fundamental matrix rebuilt from its own
    second_order_artifacts at the point paper_choices_artifacts samples."""
    cs = sys.cs
    z = sample_surface(cs, seed, 1, tol)[0]
    m2 = second_order_artifacts(cs, z, tol).m2
    j = cs.spec.poisson
    g = cs.gradients(z)
    return j - (j @ g) @ m2 @ (g.T @ j)


def _engine_inputs(sys, tol=DEFAULT_TOL, seed=0):
    """An engine report holding only what paper_choices_artifacts reuses,
    each part rebuilt apart from run_threeform_checks."""
    return tf.EngineReport(
        system=sys.cs.name, tolerances=tol, seeds={"points": seed},
        point=sample_surface(sys.cs, seed, 1, tol)[0],
        d30=closed_form_projector(sys), dpair=pair_projector(sys),
        f_engine=_engine_bracket(sys, tol, seed),
    )


def test_paper_choices_chi_tilde_rows():
    sys = dense_threeform(LatticeSpec(d=3, L=4))
    art, irs, rep = paper_choices_artifacts(sys, DEFAULT_TOL,
                                            engine=_engine_inputs(sys))
    assert rep.passed
    for tag in ("eq_58", "eq_59", "eq_72", "eq_27qq", "eq_p11",
                "locality", "eq_14r"):
        assert rep.record(tag).passed, tag
    printed = chi_tilde_printed(sys)
    ext_dim = sys.cs.spec.dim + sys.cs.m1
    assert printed.shape == (sys.cs.m0 + sys.cs.m2, ext_dim)


def test_paper_choices_chi_tilde_rows_d4():
    # eq_14r compares the printed route's bracket with the engine's, which
    # at d4 L5 is not zero
    _, paper = certify_lattice(LatticeSpec(d=4, L=5), paper_choices=True)
    assert paper.passed
    for tag in ("eq_58", "eq_59", "eq_72", "eq_27qq", "eq_p11",
                "locality", "eq_14r"):
        assert paper.record(tag).passed, tag


def test_paper_choices_spectral_closed_forms(dense):
    # the engine report's f_engine equals _engine_bracket bit for bit
    # (test_paper_choices_reuse_engine_artifacts)
    _, _, rep = dense(LatticeSpec(d=4, L=3, derivative="spectral"))
    assert rep.passed
    for tag in ("eq_y23", "eq_q30", "eq_q31"):
        assert rep.record(tag).residual < 1e-8, tag


@pytest.mark.parametrize("derivative", ["fd", "spectral"])
def test_paper_choices_reuse_engine_artifacts(derivative, monkeypatch):
    import diracred.threeform as tf

    sys = dense_threeform(LatticeSpec(d=3, L=3, derivative=derivative))
    rep = run_threeform_checks(sys, DEFAULT_TOL)
    assert np.array_equal(rep.f_engine, _engine_bracket(sys))
    inputs = _engine_inputs(sys)
    for part in ("point", "d30", "dpair"):
        assert np.array_equal(getattr(rep, part), getattr(inputs, part)), part
    assert not {"point", "d30", "dpair", "f_engine"} & set(rep.to_dict())
    _, _, own = paper_choices_artifacts(sys, DEFAULT_TOL, engine=inputs)
    calls = []

    def count(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name)
                            or real(*a, **k))

    count(tf.so, "second_order_artifacts")
    for name in ("closed_form_projector", "pair_projector"):
        count(tf, name)
    count(tf.con, "sample_surface")
    _, _, shared = paper_choices_artifacts(sys, DEFAULT_TOL, engine=rep)
    # only the printed-choice build runs: the point and the projectors
    # come from the engine report, and every record keeps its value
    assert calls == ["second_order_artifacts"]
    assert shared.to_dict()["checks"] == own.to_dict()["checks"]


def _stencil_ops(lat):
    """Site derivative matrices built entry by entry: a shift minus the
    identity (fd), or a Kronecker product with the exact 1-d derivative."""
    n = lat.sites
    idx = np.arange(n).reshape((lat.L,) * lat.d)
    if lat.derivative == "fd":
        ops = []
        for axis in range(lat.d):
            p = -np.eye(n)
            p[np.arange(n), np.roll(idx, -1, axis=axis).reshape(-1)] += 1.0
            ops.append(p)
        return ops
    w = 2.0 * np.pi * np.fft.fftfreq(lat.L)
    k1 = np.real(np.fft.ifft(
        1j * w[:, None] * np.fft.fft(np.eye(lat.L), axis=0), axis=0))
    ops = []
    for axis in range(lat.d):
        p = np.eye(1)
        for a in range(lat.d):
            p = np.kron(p, k1 if a == axis else np.eye(lat.L))
        ops.append(p)
    return ops


@pytest.mark.parametrize("lat", [
    LatticeSpec(d=3, L=3), LatticeSpec(d=3, L=4),
    LatticeSpec(d=3, L=5, derivative="spectral"),
    LatticeSpec(d=4, L=3, derivative="spectral"),
], ids=str)
def test_site_ops_match_stencils(lat):
    got = site_ops(lat, np.eye(lat.sites))
    for got, want in zip(got, _stencil_ops(lat)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("lat", [
    LatticeSpec(d=3, L=3), LatticeSpec(d=3, L=4), LatticeSpec(d=3, L=5),
    LatticeSpec(d=3, L=3, derivative="spectral"),
    LatticeSpec(d=3, L=5, derivative="spectral"),
    LatticeSpec(d=4, L=3), LatticeSpec(d=4, L=3, derivative="spectral"),
], ids=str)
def test_locality_matches_site_operator_stencils(lat):
    # reference: the Chebyshev stencil radius over every row of the n x n
    # site operators and their transposes, which the 1-d reading replaces
    n = lat.sites
    coords = np.array(np.unravel_index(np.arange(n), (lat.L,) * lat.d)).T
    worst = 0
    for op in _stencil_ops(lat):
        for mat in (op, op.T):
            rows, cols = np.nonzero(np.abs(mat) > 1e-12)
            diff = np.abs(coords[rows] - coords[cols])
            worst = max(worst, int(np.minimum(diff, lat.L - diff).max()))
    assert tf._site_stencil_ok(lat) == float(max(worst - 1, 0))
    # forward differences are local; the spectral stencil spans the axis
    want = 0.0 if lat.derivative == "fd" else float((lat.L - 1) // 2 - 1)
    assert tf._site_stencil_ok(lat) == want


@given(d=st.sampled_from([3, 4]), size=st.integers(3, 7),
       derivative=st.sampled_from(["fd", "spectral"]))
def test_fourier_blocks_decouple(d, size, derivative):
    assume(derivative == "fd" or size % 2 == 1)
    lat = LatticeSpec(d=d, L=size, derivative=derivative)
    bases = fourier_bases(lat)
    q = np.hstack(list(bases.values()))
    n = lat.sites
    # orthonormal, orthogonal to the constant, n - 1 of them: complete
    assert q.shape == (n, n - 1)
    assert np.abs(q.T @ q - np.eye(n - 1)).max() < 1e-12
    assert np.abs(q.sum(axis=0)).max() < 1e-12 * np.sqrt(n)
    # a block is one cosine exactly when k = -k
    assert [b.shape[1] for b in bases.values()] == [
        1 if all(2 * ki % size == 0 for ki in k) else 2 for k in bases]
    bounds = np.cumsum([0] + [b.shape[1] for b in bases.values()])
    for image in site_ops(lat, q):
        for b, lo, hi in zip(bases.values(), bounds, bounds[1:]):
            blk = b.T @ image[:, lo:hi]
            assert np.abs(image[:, lo:hi] - b @ blk).max() < 1e-12


def test_reference_refuses_broken_decoupling(monkeypatch):
    lat = LatticeSpec(d=3, L=3)
    bases = fourier_bases(lat)
    # a missing block leaves the zero-mean functions incomplete
    first = next(iter(bases))
    monkeypatch.setattr(lattice_reference, "fourier_bases", lambda lat: {
        k: q for k, q in bases.items() if k != first})
    with pytest.raises(NoSolutionError):
        dense_threeform(lat)
    # rotating two blocks into each other keeps the basis orthonormal and
    # complete, so the dense build, whose span is the same, accepts it;
    # read off each rotated block alone, a derivative leaves the block
    qs = list(bases.values())
    c, s_ = np.cos(0.3), np.sin(0.3)
    rot = np.eye(4)
    rot[np.ix_([0, 2], [0, 2])] = [[c, -s_], [s_, c]]
    mixed = np.hstack(qs[:2]) @ rot
    rotated = [mixed[:, :2], mixed[:, 2:], *qs[2:]]
    basis_symbols(lat, complete_basis(lat, rotated))
    for q in rotated[:2]:
        with pytest.raises(NoSolutionError, match="leaves its mode block"):
            basis_symbols(lat, q)


REFERENCE_LATTICES = [
    LatticeSpec(d=3, L=3), LatticeSpec(d=3, L=3, derivative="spectral"),
    LatticeSpec(d=3, L=4),
    LatticeSpec(d=3, L=5), LatticeSpec(d=3, L=5, derivative="spectral"),
    LatticeSpec(d=4, L=3), LatticeSpec(d=4, L=3, derivative="spectral"),
]


def _verdicts(rep):
    return [(r.name, r.tolerance, r.passed) for r in rep.records]


@pytest.mark.parametrize("lat", REFERENCE_LATTICES, ids=str)
def test_per_mode_matches_dense(lat, dense):
    sys, rep, prep = dense(lat)
    engine, paper = certify_lattice(lat, DEFAULT_TOL, paper_choices=True)
    assert engine.system == sys.cs.name
    assert paper.system == prep.system
    assert _verdicts(engine) == _verdicts(rep)
    assert _verdicts(paper) == _verdicts(prep)
    # each block's bracket in the stacks is its diagonal block of the
    # dense bracket, and the dense bracket couples no two blocks; the
    # dense basis takes the blocks in orbit order
    f = rep.f_engine
    scale = 1.0 + np.abs(f).max()
    nt, m = len(sys.triples), sys.m
    widths = {k: q.shape[1] for k, q in fourier_bases(lat).items()}
    starts = dict(zip(widths, np.cumsum([0, *widths.values()])))
    label = np.full(f.shape[0], -1)
    for ks in block_stacks(lat):
        stacked = run_threeform_checks(stack_threeform(lat, ks),
                                       DEFAULT_TOL).f_engine
        for g, k in enumerate(ks):
            cols = [t * m + starts[k] + c for t in range(nt)
                    for c in range(widths[k])]
            idx = np.array(cols + [nt * m + i for i in cols])
            label[idx] = starts[k]
            assert np.abs(stacked[g] - f[np.ix_(idx, idx)]).max() \
                <= 1e-12 * scale
    assert (label >= 0).all()
    off = label[:, None] != label[None, :]
    assert np.abs(f[off]).max() <= 1e-12


def _halved_congruence(real):
    """real (_paper_ehat) with the printed 2/Delta of the second family
    transcribed as 1/Delta, and the inverse congruence to match."""
    def halved(sys):
        e, einv = (x.copy() for x in real(sys))
        half = sys.lattice.d * sys.m
        e[..., half:, half:] *= 0.5
        einv[..., half:, half:] *= 2.0
        return e, einv
    return halved


@pytest.mark.parametrize("derivative", ["fd", "spectral"])
def test_printed_congruence_error_fails_its_records(derivative, monkeypatch):
    # transcribe the printed 2/Delta of the second family as 1/Delta, with
    # the inverse congruence to match: the derived a01 then misses the
    # printed second-family rows and their sigma factorization
    monkeypatch.setattr(tf, "_paper_ehat", _halved_congruence(tf._paper_ehat))
    _, paper = certify_lattice(LatticeSpec(3, 3, derivative),
                               paper_choices=True)
    assert {r.name for r in paper.records if not r.passed} == {
        "eq_59", "eq_27qw"}


def test_printed_congruence_error_fails_its_records_d4(monkeypatch):
    # the same at d4 L5 fd, where the bracket is not zero: the congruence
    # and its inverse cancel in the bracket, so eq_14r still passes
    monkeypatch.setattr(tf, "_paper_ehat", _halved_congruence(tf._paper_ehat))
    _, paper = certify_lattice(LatticeSpec(4, 5), paper_choices=True)
    assert {r.name for r in paper.records if not r.passed} == {
        "eq_59", "eq_27qw"}


@pytest.mark.parametrize("lat", [
    LatticeSpec(d=3, L=3), LatticeSpec(d=3, L=4), LatticeSpec(d=3, L=5),
    LatticeSpec(d=3, L=6), LatticeSpec(d=3, L=3, derivative="spectral"),
    LatticeSpec(d=3, L=5, derivative="spectral"),
    LatticeSpec(d=4, L=3), LatticeSpec(d=4, L=3, derivative="spectral"),
], ids=str)
def test_symbol_blocks_match_mode_bases(lat):
    # each stacked block's derivative is its closed-form symbol, which
    # must equal q^T D q read off the block's n-vector basis q
    bases = fourier_bases(lat)
    stacked = [k for ks in block_stacks(lat) for k in ks]
    assert sorted(stacked) == sorted(bases)
    for ks in block_stacks(lat):
        sys = stack_threeform(lat, ks)
        assert sys.cs.blocks == tuple(f"mode k={k}" for k in ks)
        for g, k in enumerate(ks):
            q = bases[k]
            for ell, image in zip(sys.ell, site_ops(lat, q)):
                assert ell[g].shape == (q.shape[1],) * 2
                assert np.abs(ell[g] - q.T @ image).max() < 1e-12


def test_certify_path_takes_no_block_alone(monkeypatch):
    # every stage, the oracle included, runs once over a stack: the
    # certify path never splits one into its blocks
    calls = []
    subset = tf.oracle_mod.independent_subset

    def counting(cs, *args, **kwargs):
        calls.append(cs.batch)
        return subset(cs, *args, **kwargs)

    monkeypatch.setattr(tf.oracle_mod, "independent_subset", counting)
    for lat in (LatticeSpec(d=3, L=4), LatticeSpec(3, 5, "spectral")):
        calls.clear()
        engine, paper = certify_lattice(lat, paper_choices=True)
        assert engine.passed
        assert {r.name for r in paper.records if not r.passed} <= {
            "locality"}
        # one call per stack of orbit representatives
        ks, rep = tf.axis_orbits(lat)[:2]
        certified = [k for j, k in enumerate(ks) if rep[j] == j]
        assert calls == [(len(s),) for s in tf._stacks(lat, certified)]


def test_symbols_refuse_a_derivative_they_do_not_diagonalise(monkeypatch):
    lat = LatticeSpec(d=3, L=5)
    real = tf._derivative_1d
    # a derivative that is no longer circulant mixes the Fourier modes
    monkeypatch.setattr(tf, "_derivative_1d",
                        lambda lat: real(lat) + 1e-6 * np.eye(lat.L)[::-1])
    with pytest.raises(NoSolutionError):
        certify_lattice(lat)


def test_build_refuses_a_broken_chain():
    # symbols that do not commute break Z1^T B = 0 and Z1 Z2 = 0, which
    # hold exactly only for commuting derivatives
    lat = LatticeSpec(d=3, L=3)
    rng = np.random.default_rng(0)
    ell = tuple(rng.standard_normal((3, 2, 2)))
    assert np.abs(ell[0] @ ell[1] - ell[1] @ ell[0]).max() > 0.1
    with pytest.raises(NoSolutionError,
                       match="broke the reducibility chain") as exc:
        build_threeform(lat, ell)
    assert exc.value.residual > 1.0


@given(d=st.integers(3, 7), m=st.sampled_from([1, 2, 5]),
       blocks=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_laplacian_sorts_as_np_sort(d, m, blocks, seed):
    # the sorting network sums the terms in the order np.sort gives, so
    # Delta is bit for bit the sum over np.sort's order, ties and signed
    # zeros included
    rng = np.random.default_rng(seed)
    down = rng.standard_normal((d, blocks, m, m))
    # equal terms: a repeated and a negated direction; and a zero one
    down[1], down[2] = down[0], -down[0]
    if d > 3:
        down[3] = 0.0
    terms = np.sort(-np.swapaxes(down, -1, -2) @ down, axis=0)
    delta = tf._laplacian(down)[0]
    want = 0.5 * (terms.sum(axis=0) + terms[::-1].sum(axis=0))
    assert np.array_equal(delta, want)
    assert np.array_equal(np.signbit(delta), np.signbit(want))


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_incidence_is_the_divergence_complex(d):
    # entry [i, P, Q] is the sign of sorting (i, *P) into Q, counted here
    # by inversions over every tuple; and two divergences in a row cancel
    # exactly: I_p I_{p+1} is antisymmetric in its two derivative axes
    for p in range(d - 1):
        inc, up = tf._incidence(d, p), tf._incidence(d, p + 1)
        rows = list(itertools.combinations(range(d), p))
        cols = list(itertools.combinations(range(d), p + 1))
        want = np.zeros((d, len(rows), len(cols)))
        for i in range(d):
            for r, tup in enumerate(rows):
                if i not in tup:
                    t = (i, *tup)
                    flips = sum(a > b for a, b in itertools.combinations(t, 2))
                    want[i, r, cols.index(tuple(sorted(t)))] = (-1) ** flips
        assert np.array_equal(inc, want)
        assert not inc.flags.writeable
        twice = np.einsum("iPQ,jQR->ijPR", inc, up)
        assert np.array_equal(twice, -twice.transpose(1, 0, 2, 3))


@pytest.mark.parametrize("p", [0, 1, 2])
def test_build_refuses_any_flipped_incidence_sign(p, monkeypatch):
    # a sign flipped anywhere in the incidence that builds B (p = 2), Z1
    # (p = 1) or Z2 (p = 0) breaks the chain, and the build refuses it
    lat = LatticeSpec(d=4, L=5)
    ks = block_stacks(lat)[0]
    real = tf._incidence
    entries = np.argwhere(real(lat.d, p))
    assert len(entries) == (4, 12, 12)[p]
    try:
        for entry in map(tuple, entries):
            flipped = real(lat.d, p).copy()
            flipped[entry] *= -1
            monkeypatch.setattr(tf, "_incidence", lambda d, q, f=flipped: (
                f if q == p else real(d, q)))
            # the family coefficients are cached from the incidence
            tf._families.cache_clear()
            with pytest.raises(NoSolutionError,
                               match="broke the reducibility chain"):
                stack_threeform(lat, ks)
    finally:
        monkeypatch.setattr(tf, "_incidence", real)
        tf._families.cache_clear()
    stack_threeform(lat, ks)


def test_build_refuses_mislabelled_or_short_input():
    lat = LatticeSpec(d=3, L=5)
    ks = block_stacks(lat)[0][:3]
    ell = tf._symbol_blocks(lat, ks)
    labels = tuple(f"mode k={k}" for k in ks)
    assert build_threeform(lat, ell, labels).cs.blocks == labels
    for wrong in ((), labels[:2], labels + ("mode k=extra",)):
        with pytest.raises(InvalidInputError):
            build_threeform(lat, ell, wrong)
    # one system takes no labels
    one = tuple(e[0] for e in ell)
    assert build_threeform(lat, one).cs.batch == ()
    with pytest.raises(InvalidInputError):
        build_threeform(lat, one, labels[:1])
    with pytest.raises(InvalidInputError):
        build_threeform(lat, ell[:2], labels)


def test_symbol_blocks_refuse_bad_wavevectors():
    lat = LatticeSpec(d=3, L=4)
    pair, conj = block_stacks(lat)
    tf._symbol_blocks(lat, pair[:2] + pair[-1:])
    tf._symbol_blocks(lat, conj)
    for ks in ((), ((0, 0, 0),), pair[:1] + ((0, 0, 0),),
               pair[:1] + conj[:1], conj[:1] + pair[:1]):
        with pytest.raises(InvalidInputError):
            tf._symbol_blocks(lat, ks)


def test_lattice_reports_name_reseeded_blocks():
    # at d3 L4 fd the canonical omega seed loses rank on three {k, -k}
    # blocks of the first stack; the engine report names them, over all
    # stacks, and the paper route, which installs its own pair, does not
    engine, paper = certify_lattice(LatticeSpec(3, 4), paper_choices=True)
    assert engine.seeds == {"points": 0, "omega": 0, "omega_blocks": [
        "mode k=(0, 1, 3)", "mode k=(1, 0, 3)", "mode k=(1, 3, 0)"]}
    assert paper.seeds == {"points": 0}
    assert engine.to_dict()["seeds"] == engine.seeds
    engine, paper = certify_lattice(LatticeSpec(3, 5), seed=4,
                                    paper_choices=True)
    assert engine.seeds == paper.seeds == {"points": 4}


@pytest.mark.parametrize("lat,blocks,orbits", [
    (LatticeSpec(3, 5), 62, 18), (LatticeSpec(3, 4), 35, 12),
    (LatticeSpec(3, 8), 259, 64), (LatticeSpec(4, 5), 312, 37),
    (LatticeSpec(3, 32), 16387, 3008),
    # reflections fold the spectral blocks further
    (LatticeSpec(3, 5, "spectral"), 62, 9),
    (LatticeSpec(5, 7, "spectral"), 8403, 55),
], ids=str)
def test_axis_orbits_enumerate_the_blocks(lat, blocks, orbits):
    ks, rep, perm, conj, sign = tf.axis_orbits(lat)
    assert ks == tuple(k for stack in block_stacks(lat) for k in stack)
    assert (len(ks), len(set(rep.tolist()))) == (blocks, orbits)
    # each representative is its orbit's first block, and its own image
    j = np.arange(len(ks))
    assert (rep <= j).all() and (rep[rep] == rep).all()
    own = rep == j
    assert (perm[own] == np.arange(lat.d)).all() and not conj[own].any()
    assert (sign[own] == 1).all()
    # only the spectral derivative is odd, and there a conjugation stands
    # for the reflection of every axis: at most half the nonzero axes of
    # a block are reflected
    if lat.derivative == "fd":
        assert (sign == 1).all()
    else:
        moved = np.sum(sign == -1, axis=1)
        assert (2 * moved <= np.count_nonzero(ks, axis=1)).all()
    # an orbit keeps to one shape group of block_stacks
    k = np.array(ks)
    self_conj = np.all(2 * k % lat.L == 0, axis=1)
    assert (self_conj == self_conj[rep]).all()
    # block j is the representative with its axes relabelled by perm[j],
    # negated where conj[j], and reflected where sign[j] is -1
    source = np.where(conj[:, None], -k[rep] % lat.L, k[rep])
    assert (k == sign * np.take_along_axis(source, perm, axis=1)
            % lat.L).all()


def _cli_reports(args, tmp_path):
    out = tmp_path / "tf.json"
    code = main(["threeform", *args, "--paper-choices", "--json", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("lat", [
    LatticeSpec(3, 4), LatticeSpec(3, 5), LatticeSpec(3, 6),
    LatticeSpec(3, 7), LatticeSpec(3, 8),
    LatticeSpec(3, 5, "spectral"), LatticeSpec(3, 7, "spectral"),
    LatticeSpec(4, 5), LatticeSpec(4, 5, "spectral"),
    LatticeSpec(5, 3, "spectral"),
], ids=str)
def test_orbit_route_matches_every_block_certified(lat, tmp_path, capsys):
    # the representatives' residuals stand for their orbits: the verdicts,
    # exit code and reseeded blocks are those of certifying every block,
    # and every residual, worst or per block, is within 1e-5 of its
    # tolerance of the full run's
    code, doc = _cli_reports(["--dim", str(lat.d), "--lattice", str(lat.L),
                              "--derivative", lat.derivative], tmp_path)
    capsys.readouterr()
    ref = certify_every_block(lat, paper_choices=True)
    assert code == (0 if all(r.passed for r in ref) else 1)
    ks, rep = tf.axis_orbits(lat)[:2]
    mine = certify_lattice(lat, paper_choices=True)
    for part, full, fill in zip(("engine", "paper_choices"), ref, mine):
        got = doc[part]
        assert got["seeds"] == full.seeds
        assert got["blocks"] == {"total": len(ks),
                                 "certified": len(set(rep.tolist()))}
        assert [(c["name"], c["tolerance"], c["pass"])
                for c in got["checks"]] == [
            (r.name, r.tolerance, r.passed) for r in full.records]
        for c, r, f in zip(got["checks"], full.records, fill.records):
            assert abs(c["residual"] - r.residual) <= 1e-5 * r.tolerance
            assert f.residual == c["residual"]
            if r.per_block is not None:
                assert np.abs(f.per_block - r.per_block).max() \
                    <= 1e-5 * r.tolerance, r.name
                # each block carries its representative's residual
                assert (f.per_block == f.per_block[rep]).all()


@pytest.mark.parametrize("lat", [LatticeSpec(3, 4), LatticeSpec(3, 8)],
                         ids=str)
def test_orbit_route_reseeds_the_blocks_a_full_run_does(lat):
    engine, _ = certify_lattice(lat)
    full, _ = certify_every_block(lat)
    assert engine.seeds["omega_blocks"] == full.seeds["omega_blocks"]
    assert len(engine.seeds["omega_blocks"]) == 3


def _planted(real, k, scale):
    """real with the symbol of block k's first nonzero direction scaled."""
    def planted(lat, ks):
        ell = tuple(e.copy() for e in real(lat, ks))
        if k in ks:
            ell[np.flatnonzero(k)[0]][ks.index(k)] *= scale
        return ell
    return planted


@pytest.fixture
def plant(monkeypatch):
    """monkeypatch for a planted defect, with the memoised builder check
    of the orbit maps and the family coefficients cleared before and
    after, so that nothing built without the plant hides it and nothing
    built with it outlives it."""
    caches = (tf._builder_deviation, tf._families)
    for cached in caches:
        cached.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    for cached in caches:
        cached.cache_clear()


def _refused_uncertified(plant, lat, match, paper_choices=True):
    """certify_lattice raises NoSolutionError matching ``match`` before
    it certifies any block."""
    calls = []
    plant.setattr(tf, "run_threeform_checks",
                  lambda *a, **kw: calls.append(a))
    with pytest.raises(NoSolutionError, match=match):
        certify_lattice(lat, paper_choices=paper_choices)
    assert calls == []


@pytest.mark.parametrize("lat,conj", [
    (LatticeSpec(3, 5), False), (LatticeSpec(3, 5), True),
    (LatticeSpec(4, 5, "spectral"), True),
], ids=str)
def test_planted_symmetry_defect_is_refused(lat, conj, monkeypatch):
    # a member block no longer the image of its representative is named,
    # and no block is certified
    ks, rep, _, flags, _ = tf.axis_orbits(lat)
    j = next(j for j in range(len(ks)) if rep[j] != j and flags[j] == conj)
    monkeypatch.setattr(tf, "_symbol_blocks",
                        _planted(tf._symbol_blocks, ks[j], 1 + 1e-9))
    calls = []
    monkeypatch.setattr(tf, "run_threeform_checks",
                        lambda *a, **kw: calls.append(a))
    with pytest.raises(NoSolutionError,
                       match=re.escape(f"mode k={ks[j]}: not the exact")):
        certify_lattice(lat, paper_choices=True)
    assert calls == []


@pytest.mark.parametrize("lat", [
    LatticeSpec(3, 5), LatticeSpec(4, 5, "spectral"),
], ids=str)
def test_planted_reflected_symbol_is_refused(lat, plant):
    # a member's symbol negated along one axis: in spectral mode that is
    # another block's symbol, yet not this block's relabelled one
    ks, rep, _, _, _ = tf.axis_orbits(lat)
    j = next(j for j in range(len(ks)) if rep[j] != j)
    plant.setattr(tf, "_symbol_blocks", _planted(tf._symbol_blocks, ks[j],
                                                 -1.0))
    _refused_uncertified(plant, lat,
                         re.escape(f"mode k={ks[j]}: not the exact"))


@pytest.mark.parametrize("lat", [
    LatticeSpec(4, 5), LatticeSpec(4, 3, "spectral"),
], ids=str)
def test_planted_incidence_sign_is_refused(lat, plant):
    # the sign of one triple flipped throughout the incidence that builds
    # B.  The triples are the free index of delta delta, so the chain
    # holds and every block builds, but a permutation that moves the
    # triple no longer carries B onto the relabelled block's
    real = tf._incidence
    flipped = real(lat.d, 2).copy()
    flipped[:, :, 0] *= -1
    plant.setattr(tf, "_incidence", lambda d, p: (
        flipped if (d, p) == (lat.d, 2) else real(d, p)))
    for ks in block_stacks(lat):
        stack_threeform(lat, ks)
    _refused_uncertified(plant, lat, "not the exact image",
                         paper_choices=False)


@pytest.mark.parametrize("lat", [
    LatticeSpec(3, 5), LatticeSpec(4, 5, "spectral"),
], ids=str)
def test_planted_laplacian_defect_is_refused(lat, plant):
    # Delta^-1 of one member perturbed in the helper that certification
    # builds from, keyed by the member's symbols
    ks, rep = tf.axis_orbits(lat)[:2]
    j = next(j for j in range(len(ks)) if rep[j] != j)
    target = np.stack(tf._symbol_blocks(lat, (ks[j],)))
    real = tf._laplacian

    def planted(down):
        delta, delta_inv = real(down)
        if down.ndim == target.ndim and down.shape[2:] == target.shape[2:]:
            delta_inv = delta_inv.copy()
            delta_inv[(down == target).all(axis=(0, 2, 3))] *= 1 + 1e-9
        return delta, delta_inv

    plant.setattr(tf, "_laplacian", planted)
    _refused_uncertified(plant, lat,
                         re.escape(f"mode k={ks[j]}: not the exact"))


def test_planted_seed_defect_is_refused(plant):
    # an omega seed that a relabelling does not carry onto itself would
    # make a member's seed differ from its representative's
    lat = LatticeSpec(3, 5)
    ks, rep = tf.axis_orbits(lat)[:2]
    first = next(j for j in range(len(ks)) if rep[j] != j)
    plant.setattr(tf, "symplectic_block",
                  lambda n: np.diag(np.arange(n, dtype=float)))
    with pytest.raises(NoSolutionError,
                       match=re.escape(f"mode k={ks[first]}: not the")):
        certify_lattice(lat)


def test_planted_printed_choice_defect_is_refused(plant):
    # the printed choices enter only the paper route's records: an abar01
    # that treats one direction apart from the others is not carried onto
    # the relabelled blocks, which fails with them, and passes without
    # them
    lat = LatticeSpec(3, 5)
    real = tf._paper_abar01

    def planted(sys):
        ell = (sys.ell[0] * (1 + 1e-9),) + sys.ell[1:]
        return real(dataclasses.replace(sys, ell=ell))

    plant.setattr(tf, "_paper_abar01", planted)
    assert certify_lattice(lat)[0].passed
    _refused_uncertified(plant, lat, "not the exact image")


def test_builder_check_builds_the_generators_alone(plant):
    # the builder is checked on the d + 1 generators of the axis
    # relabellings, one random block and its images, kept per dimension,
    # block shape and printed choices whatever relabellings the lattice's
    # members take
    built = []
    real = tf.build_threeform

    def counting(lat, ell, blocks=()):
        built.append(len(blocks) or 1)
        return real(lat, ell, blocks)

    plant.setattr(tf, "build_threeform", counting)
    for lat in (LatticeSpec(7, 3), LatticeSpec(7, 3, "spectral")):
        tf._check_orbit_maps(lat, tf.axis_orbits(lat), True)
    assert 0 < sum(built) <= 7 + 2
    assert tf._builder_deviation.cache_info().currsize == 1


@st.composite
def relabellings(draw):
    """A dimension, a block shape and a signed relabelling of the axes,
    (perm, conj, sign) as axis_orbits gives one, each one row."""
    d = draw(st.integers(3, 6))
    perm = draw(st.permutations(range(d)))
    sign = draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d))
    return (d, draw(st.sampled_from([1, 2])), np.array([perm]),
            np.array([draw(st.booleans())]), np.array([sign]))


@given(relabellings(), st.integers(0, 2 ** 16))
def test_builder_carries_any_relabelling_exactly(case, seed):
    # certification checks the builder on generators of the relabellings
    # alone; any product of them must be carried exactly too: every
    # matrix that a block's records are built from is the random block's
    # under the relabelling's signed permutations (_axis_maps)
    d, m, perm, conj, sign = case
    a, b = np.random.default_rng(seed).standard_normal((2, d))
    down = np.stack([np.stack([a, b], axis=-1),
                     np.stack([-b, a], axis=-1)], axis=-2)[:, :m, :m]
    image = tf._relabel(down[:, None], np.zeros(1, dtype=int), perm, conj,
                        sign)[0]
    spaces = tf._axis_maps(d, m, perm, conj, sign)
    built = [build_threeform(LatticeSpec(d, 3), tuple(ell))
             for ell in (down, image)]
    for paper_choices in (False, True):
        mats, images = (tf._orbit_matrices(sys, paper_choices)
                        for sys in built)
        assert mats.keys() == images.keys()
        for name, (mat, (rows, cols)) in mats.items():
            (ri, rs), (ci, cs) = spaces[rows], spaces[cols]
            want = np.zeros_like(mat)
            want[np.ix_(ri[0], ci[0])] = np.outer(rs[0], cs[0]) * mat
            assert np.array_equal(images[name][0], want), name


def test_package_exports():
    import diracred

    assert len(diracred.__all__) == len(set(diracred.__all__))
    for name in diracred.__all__:
        assert getattr(diracred, name) is not None, name
    for gone in ("FourierMode", "fourier_modes", "mode_systems"):
        assert gone not in diracred.__all__
        assert not hasattr(diracred, gone)
        assert not hasattr(tf, gone)
    # the order-1 lift and the scalar-bracket wrappers are gone: an
    # order-1 system runs through the second-order engine, and a scalar
    # bracket is grad f @ F @ grad g
    for gone in ("FirstOrderLift", "irreducible_lift_1", "dirac1", "dirac2",
                 "dirac_oracle", "dirac_irred"):
        assert gone not in diracred.__all__
        assert not hasattr(diracred, gone)
    for gone in ("FirstOrderLift", "irreducible_lift_1"):
        assert not hasattr(diracred.first_order, gone)


def _block_alone(sys, g):
    """Block g of a stacked system as a three-form system of its own."""
    return dataclasses.replace(
        sys, cs=block(sys.cs, g), ell=tuple(e[g] for e in sys.ell),
        u=tuple(x[g] for x in sys.u), delta=sys.delta[g],
        delta_inv=sys.delta_inv[g],
    )


def _omega_pair(cs, point):
    """The engine's omega_low and the blocks it reseeded."""
    art = tf.so.full_artifacts(cs, point, DEFAULT_TOL, 0)
    seeds = art.report.seeds
    return art.omega_low, seeds.get("omega_blocks",
                                    [0] if "omega" in seeds else [])


# blocks of a stack that the stacked-pass property runs at most; the
# stacked code is the same at every stack size, and a window keeps d4 L7
# (1200 blocks a stack) cheap
WINDOW = 48


@given(d=st.sampled_from([3, 4]), size=st.integers(3, 7),
       derivative=st.sampled_from(["fd", "spectral"]),
       start=st.integers(0, 2 ** 16),
       picks=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=3))
@example(d=3, size=4, derivative="fd", start=0, picks=[0])  # 3 reseeds
@example(d=4, size=4, derivative="fd", start=0, picks=[0])  # k=(0,0,1,3)
def test_stacked_pass_matches_each_block_alone(d, size, derivative, start,
                                               picks):
    # every stage runs once over a stack of blocks; each block's records,
    # reseed and bracket must be those of the same stages run on that
    # block alone.  The blocks checked alone are the reseeded ones and a
    # drawn few; a stack that fails must fail as its first failing block
    assume(derivative == "fd" or size % 2 == 1)
    lat = LatticeSpec(d=d, L=size, derivative=derivative)
    for ks in block_stacks(lat):
        lo = start % max(1, len(ks) - WINDOW + 1)
        ks = ks[lo:lo + WINDOW]
        sys = stack_threeform(lat, ks)
        try:
            rep = run_threeform_checks(sys, DEFAULT_TOL)
        except NoSolutionError as exc:
            k = str(exc).split("mode k=")[1].split(":")[0]
            g = [str(kk) for kk in ks].index(k)
            with pytest.raises(NoSolutionError) as alone:
                run_threeform_checks(_block_alone(sys, g), DEFAULT_TOL)
            assert str(alone.value) == str(exc)
            continue
        _, _, prep = paper_choices_artifacts(sys, DEFAULT_TOL, engine=rep)
        omega, reseeded = _omega_pair(sys.cs, rep.point)
        for g in sorted(set(reseeded) | {p % len(ks) for p in picks}):
            one = _block_alone(sys, g)
            rep1 = run_threeform_checks(one, DEFAULT_TOL)
            _, _, prep1 = paper_choices_artifacts(one, DEFAULT_TOL,
                                                  engine=rep1)
            omega1, reseeded1 = _omega_pair(one.cs, rep1.point)
            assert (g in reseeded) == bool(reseeded1)
            assert np.abs(omega[g] - omega1).max() < 1e-13
            assert np.abs(rep.f_engine[g] - rep1.f_engine).max() < 1e-13
            for stacked, alone in ((rep, rep1), (prep, prep1)):
                assert [r.name for r in stacked.records] == [
                    r.name for r in alone.records]
                for r, r1 in zip(stacked.records, alone.records):
                    value = r.residual if r.per_block is None \
                        else r.per_block[g]
                    assert abs(value - r1.residual) <= 1e-13, r.name
