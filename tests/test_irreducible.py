from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import diracred.irreducible as irr_mod
import diracred.oracle as oracle_mod
from diracred.constraints import (
    ConstraintSet,
    OffSurfaceError,
    project_to_surface,
    sample_surface,
    synth_linear,
    toy_system,
)
from diracred.irreducible import (
    BuildPointError,
    assemble_irreducible,
    build_irreducible,
    eom_step,
    equivalence_report,
    evolve,
    fundamental_matrix_irred,
    intermediate_bracket_matrix,
)
from diracred.numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    NoSolutionError,
    rank_tol,
)
from diracred.oracle import fundamental_matrix_oracle
from diracred.phase import affine, opaque, poisson_bracket, quadratic
from diracred.second_order import full_artifacts


@pytest.fixture(scope="module")
def toy_irr():
    cs = toy_system()
    at = sample_surface(cs, seed=0, count=1)[0]
    art = full_artifacts(cs, at)
    return cs, at, build_irreducible(cs, art)


def test_c_delta_invertible_and_irreducible(toy_irr):
    cs, at, irs = toy_irr
    n = cs.m0 + cs.m2
    assert irs.c_delta.shape == (n, n)
    assert rank_tol(irs.c_delta) == n
    assert np.abs(irs.c_delta @ irs.c_delta_inv - np.eye(n)).max() < 1e-8
    assert irs.report.residuals["eq_p11"] < 1e-9
    assert irs.report.residuals["rank_c_delta"] == 0.0
    # the stage that counts the rank sets its tolerance, not the name
    assert irs.report.record("rank_c_delta").tolerance == 0.5
    assert irs.report.record("eq_p11").tolerance == DEFAULT_TOL.weak_eq
    ext = irs.join(at, np.zeros(irs.dim_y))
    # independence of the replacement constraints
    grads = irs.chi_tilde_gradients(ext)
    assert np.linalg.matrix_rank(grads) == n


def recover(irs, at):
    """Original chi values and y recovered from the chi_tilde values of
    irs at the extended point ``at``: chi = d00^T top and
    y = ehat^T Z1^T top + a12 dbar2^T bottom."""
    z, _ = irs.split(at)
    vals = irs.chi_tilde_values(at)
    top, bottom = vals[:irs.base.m0], vals[irs.base.m0:]
    art = irs.artifacts
    chi = art.d00.T @ top
    y = (irs.ehat.T @ irs.base.z1_at(z).T @ top
         + art.a12 @ art.dbar2.T @ bottom)
    return chi, y


def test_extended_surface_and_recovery(toy_irr):
    cs, at, irs = toy_irr
    ext = irs.join(at, np.zeros(irs.dim_y))
    assert np.abs(irs.chi_tilde_values(ext)).max() < 1e-12
    chi, y = recover(irs, ext)
    assert np.abs(chi).max() < 1e-12
    assert np.abs(y).max() < 1e-12
    # recovery inverts the mixing for nonzero chi_tilde too
    y_in = np.arange(1.0, irs.dim_y + 1.0) * 0.1
    ext2 = irs.join(at, y_in)
    chi2, y2 = recover(irs, ext2)
    assert np.allclose(y2, y_in, atol=1e-10)
    assert np.abs(chi2).max() < 1e-10


def test_fundamental_matches_oracle(toy_irr):
    cs, at, irs = toy_irr
    ext = irs.join(at, np.zeros(irs.dim_y))
    full = fundamental_matrix_irred(irs, ext)
    fo = fundamental_matrix_oracle(cs, at)
    nz = irs.dim_z
    assert np.abs(full[:nz, :nz] - fo).max() < 1e-9
    # y rows and columns vanish weakly
    assert np.abs(full[nz:, :]).max() < 1e-8
    inter = intermediate_bracket_matrix(irs, ext)
    assert np.abs(inter[:nz, :nz] - fo).max() < 1e-9


def test_y_and_chi_tilde_are_casimirs(toy_irr):
    cs, at, irs = toy_irr
    ext = irs.join(at, np.zeros(irs.dim_y))
    full = fundamental_matrix_irred(irs, ext)
    # a function of z alone has vanishing y derivatives
    grad_f = np.concatenate([np.arange(1.0, cs.spec.dim + 1.0),
                             np.zeros(irs.dim_y)])
    for i in range(irs.dim_y):
        assert abs(full[irs.dim_z + i] @ grad_f) < 1e-8
    # every chi_tilde commutes with f, through its extended gradient
    gt = irs.chi_tilde_gradients(ext)
    for col in range(cs.m0 + cs.m2):
        assert abs(gt[:, col] @ full @ grad_f) < 1e-8


def test_scalar_bracket_consistency(toy_irr):
    cs, at, irs = toy_irr
    ext = irs.join(at, np.zeros(irs.dim_y))
    full = fundamental_matrix_irred(irs, ext)
    # the free pair (q2, p2) keeps its canonical bracket
    assert full[1, 3] == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    s = rng.standard_normal((4, 4))
    f = quadratic(s + s.T, rng.standard_normal(4))
    g = quadratic(np.eye(4), rng.standard_normal(4))
    # a scalar bracket is grad f @ F @ grad g; the textbook formula on
    # the extended space, through the Poisson brackets of f and g with
    # chi_tilde and c_delta_inv, must give the same number
    pad = np.zeros(irs.dim_y)
    gf = np.concatenate([f.gradient(at), pad])
    gg = np.concatenate([g.gradient(at), pad])
    j = irs.extended_poisson()
    gt = irs.chi_tilde_gradients(ext)
    expected = poisson_bracket(f, g, at, cs.spec) - (gf @ j @ gt) @ (
        irs.c_delta_inv @ (gt.T @ j @ gg))
    assert gf @ full @ gg == pytest.approx(expected, abs=1e-10)


def test_congruence_choice_preserves_bracket():
    cs = toy_system()
    at = sample_surface(cs, seed=1, count=1)[0]
    art = full_artifacts(cs, at)
    base = build_irreducible(cs, art)

    def congruent(ehat_inv):
        # the y-space bracket carried along by the congruence
        ehat = np.linalg.inv(ehat_inv)
        return assemble_irreducible(
            cs, art, ehat, ehat_inv, ehat.T @ base.omega_y @ ehat,
            ehat_inv @ base.omega_y_inv @ ehat_inv.T)

    scaled = congruent(0.5 * np.eye(cs.m1))
    assert np.abs(scaled.a01 - 0.5 * base.a01).max() < 1e-15
    ext = base.join(at, np.zeros(base.dim_y))
    fa = fundamental_matrix_irred(base, ext)[:4, :4]
    fb = fundamental_matrix_irred(scaled, ext)[:4, :4]
    assert np.abs(fa - fb).max() < 1e-9
    # assemble_irreducible does not record eq_27qq, which only the
    # paper-choices route records; the closed-form inverse a bad
    # congruence breaks is required
    with pytest.raises(NoSolutionError, match="eq_p11"):
        rng = np.random.default_rng(6)
        bad = np.eye(cs.m1) + 0.5 * rng.standard_normal((cs.m1, cs.m1))
        congruent(bad)


def test_equivalence_report_passes():
    cs = synth_linear(8, 10, 6, 2, seed=4)
    at = sample_surface(cs, seed=0, count=1)[0]
    irs = build_irreducible(cs, full_artifacts(cs, at))
    rep = equivalence_report(cs, irs, n_points=5)
    assert rep.passed
    for tag in ("eq_24", "eq_28", "eq_32y", "eq_32"):
        assert rep.record(tag).residual < 1e-8


def test_eom_step_preserves_surface_and_y():
    cs = toy_system()
    z0 = np.array([0.0, 1.0, 0.0, 0.0])  # on-surface: q1 = p1 = 0
    irs = build_irreducible(cs, full_artifacts(cs, z0))
    h = quadratic(np.diag([0.0, 1.0, 0.0, 1.0]))
    y0 = np.full(irs.dim_y, 0.25)
    state = irs.join(z0, y0)
    for _ in range(10):
        state = eom_step(irs, h, state, 0.01)
    z, y = irs.split(state)
    assert np.array_equal(y, y0)
    assert cs.surface_residual(z) < 1e-10
    # free harmonic pair rotates
    t = 0.1
    assert z[1] == pytest.approx(np.cos(t), abs=1e-8)
    assert z[3] == pytest.approx(-np.sin(t), abs=1e-8)


def curved_toy_system():
    """The toy system with its first copy of q1 replaced by q1 e^{q2}.

    Row 0 of Z1 takes the factor e^{-q2}, so Z1^T chi = 0 and Z1 Z2 = 0
    still hold everywhere, while Z1 and the gradients vary with q2.
    """
    toy = toy_system()
    dim = toy.spec.dim

    def grad(z):
        g = np.zeros(dim)
        g[0] = np.exp(z[1])
        g[1] = z[0] * np.exp(z[1])
        return g

    chi = (opaque(lambda z: z[0] * np.exp(z[1]), dim, grad=grad),)
    chi += toy.chi[1:]

    def z1_at(z):
        z1 = toy.z1.copy()
        z1[0] *= np.exp(-z[1])
        return z1

    return ConstraintSet(spec=toy.spec, chi=chi, z1=z1_at, z2=toy.z2,
                         name="curved-toy")


def test_curved_order2_valid_only_at_build_point():
    cs = curved_toy_system()
    assert cs.order == 2 and not cs.is_constant
    pts = sample_surface(cs, seed=3, count=2)
    for p in pts:
        assert np.abs(cs.z1_at(p) @ cs.z2_at(p)).max() < 1e-12
        assert np.abs(cs.z1_at(p).T @ cs.values(p)).max() < 1e-12
    irs = build_irreducible(cs, full_artifacts(cs, pts[0]))
    nz = irs.dim_z
    f0 = fundamental_matrix_irred(irs, irs.build_point)[:nz, :nz]
    assert np.abs(f0 - fundamental_matrix_oracle(cs, pts[0])).max() < 1e-9
    # the frozen artifacts give a wrong bracket elsewhere: refuse it
    other = irs.join(pts[1], np.zeros(irs.dim_y))
    assert abs(pts[1][1] - pts[0][1]) > 0.1
    for evaluate in (fundamental_matrix_irred, intermediate_bracket_matrix):
        with pytest.raises(BuildPointError):
            evaluate(irs, other)
    with pytest.raises(BuildPointError):
        equivalence_report(cs, irs, n_points=2, seed=3)
    h = quadratic(np.diag([0.0, 1.0, 0.0, 1.0]))
    for step in (lambda state: eom_step(irs, h, state, 0.01),
                 lambda state: evolve(irs, h, state, 0.01, 3)):
        with pytest.raises(BuildPointError):
            step(irs.build_point)
    # rebuilt at the second point, the system is right there
    irs1 = build_irreducible(cs, full_artifacts(cs, pts[1]))
    f1 = fundamental_matrix_irred(irs1, other)[:nz, :nz]
    assert np.abs(f1 - fundamental_matrix_oracle(cs, pts[1])).max() < 1e-9


def test_bracket_matrices_are_fresh_copies(toy_irr):
    cs, at, irs = toy_irr
    ext = irs.join(at, np.zeros(irs.dim_y))
    for evaluate in (fundamental_matrix_irred, intermediate_bracket_matrix):
        first = evaluate(irs, ext)
        kept = first.copy()
        first[:] = 0.0
        assert np.array_equal(evaluate(irs, ext), kept)


def test_eom_step_constant_kernel_matches_per_stage_rebuild():
    cs = toy_system()
    z0 = sample_surface(cs, seed=2, count=1)[0]
    irs = build_irreducible(cs, full_artifacts(cs, z0))
    nz = irs.dim_z
    rng = np.random.default_rng(8)
    s = rng.standard_normal((nz, nz))
    h = quadratic(s + s.T, rng.standard_normal(nz))

    def per_stage_step(state, dt):
        # each stage projects onto the surface and rebuilds the kernel
        z, y = irs.split(state)
        jext = irs.extended_poisson()

        def velocity(zs):
            zk = project_to_surface(cs, zs)
            gt = irs.chi_tilde_gradients(irs.join(zk, 0.0 * y))
            kernel = jext - (jext @ gt) @ irs.c_delta_inv @ (gt.T @ jext)
            return kernel[:nz, :nz] @ h.gradient(zs)

        k1 = velocity(z)
        k2 = velocity(z + 0.5 * dt * k1)
        k3 = velocity(z + 0.5 * dt * k2)
        k4 = velocity(z + dt * k3)
        return irs.join(z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), y)

    state = ref = irs.join(z0, np.full(irs.dim_y, 0.5))
    for _ in range(25):
        state = eom_step(irs, h, state, 0.02)
        ref = per_stage_step(ref, 0.02)
    assert np.abs(state - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def _per_point_report(cs, irs, n_points, seed):
    """equivalence_report's residuals with every artifact rebuilt at each
    point, and the largest fundamental-matrix entry seen."""
    rng = np.random.default_rng(seed + 1)
    dim = cs.spec.dim
    grads = [(rng.standard_normal(dim), rng.standard_normal(dim))
             for _ in range(irr_mod._FUNCTION_PAIRS)]
    j = cs.spec.poisson
    jext = irs.extended_poisson()
    dev = dict.fromkeys(("eq_24", "eq_28", "eq_32y", "eq_32"), 0.0)
    scale = 0.0
    for z in sample_surface(cs, seed, n_points):
        art = full_artifacts(cs, z)
        gz = cs.gradients(z)
        f_non = j - (j @ gz) @ art.m2 @ (gz.T @ j)
        f_inv = j - (j @ gz) @ art.mu2 @ (gz.T @ j)
        gt = irs.chi_tilde_gradients(irs.join(z, np.zeros(irs.dim_y)))
        f_irr = jext - (jext @ gt) @ irs.c_delta_inv @ (gt.T @ jext)
        gchi = np.zeros((dim + irs.dim_y, cs.m0))
        gchi[:dim] = gz
        f_inter = jext - (jext @ gchi) @ art.mu2 @ (gchi.T @ jext)
        # the y constraints: gradients I_y, bracket inverse omega_y^-1
        f_inter[dim:, dim:] -= irs.omega_y @ irs.omega_y_inv @ irs.omega_y
        dev["eq_32y"] = max(dev["eq_32y"], np.abs(f_irr - f_inter).max())
        f_irr, f_inter = f_irr[:dim, :dim], f_inter[:dim, :dim]
        mats = [fundamental_matrix_oracle(cs, z), f_non, f_inv, f_inter,
                f_irr]
        dev["eq_24"] = max(dev["eq_24"], np.abs(f_non - f_inv).max())
        dev["eq_28"] = max(dev["eq_28"], np.abs(f_inter - f_inv).max())
        for i, a in enumerate(mats):
            scale = max(scale, np.abs(a).max())
            for b in mats[i + 1:]:
                entry = np.abs(a - b).max()
                for gf, gg in grads:
                    entry = max(entry, abs(gf @ (a - b) @ gg))
                dev["eq_32"] = max(dev["eq_32"], entry)
    return dev, scale


@st.composite
def synth_shapes(draw):
    """(n_pairs, m0, m1, m2) accepted by synth_linear, with M1 > M2."""
    m2 = draw(st.sampled_from([2, 4]))
    m1 = m2 + 2 * draw(st.integers(1, 3))
    n_ind = 2 * draw(st.integers(m2 // 2, 5))
    n_pairs = draw(st.integers(n_ind // 2, n_ind // 2 + 3))
    return n_pairs, n_ind + m1 - m2, m1, m2


@given(synth_shapes(), st.integers(0, 10_000), st.integers(0, 100))
def test_equivalence_report_matches_per_point_rebuild(shape, seed, pseed):
    cs = synth_linear(*shape, seed=seed)
    at = sample_surface(cs, seed=pseed + 7, count=1)[0]
    irs = build_irreducible(cs, full_artifacts(cs, at))
    # a planted 1e-6 error in c_delta_inv must read the same both ways
    rng = np.random.default_rng(seed)
    planted = replace(irs, c_delta_inv=irs.c_delta_inv + 1e-6 * (
        rng.standard_normal(irs.c_delta_inv.shape)))
    for sys in (irs, planted):
        rep = equivalence_report(cs, sys, n_points=4, seed=pseed)
        ref, scale = _per_point_report(cs, sys, 4, pseed)
        for name, value in ref.items():
            assert (abs(rep.record(name).residual - value)
                    <= 1e-12 * (1 + scale)), name
    assert ref["eq_32"] > 1e-7


def test_eq_32y_reads_the_y_rows():
    cs = synth_linear(10, 12, 8, 2, seed=7)
    art = full_artifacts(cs, sample_surface(cs, seed=0, count=1)[0])
    clean = equivalence_report(cs, build_irreducible(cs, art))
    irs = build_irreducible(cs, art)
    kernel = irs._irred_kernel.copy()
    dim = cs.spec.dim
    # an error in the zy block only, where no z-block record looks
    kernel[:dim, dim:] += 1e-6 * np.abs(kernel).max()
    irs.__dict__["_irred_kernel"] = kernel
    rep = equivalence_report(cs, irs)
    assert not rep.record("eq_32y").passed
    for name in ("eq_24", "eq_28", "eq_32"):
        assert rep.record(name) == clean.record(name), name


AFFINE_SYSTEMS = {
    "toy": toy_system,
    "synth-2N20": lambda: synth_linear(10, 12, 8, 2, seed=7),
    "synth-2N200": lambda: synth_linear(100, 150, 60, 10, seed=0),
}


def _count_oracle_calls(monkeypatch):
    calls = []
    real = oracle_mod.fundamental_matrix_oracle

    def counted(cs, at, *args, **kwargs):
        calls.append(at)
        return real(cs, at, *args, **kwargs)

    monkeypatch.setattr(oracle_mod, "fundamental_matrix_oracle", counted)
    return calls


@pytest.mark.parametrize("name", sorted(AFFINE_SYSTEMS))
def test_affine_oracle_is_one_matrix_built_once(name, monkeypatch):
    cs = AFFINE_SYSTEMS[name]()
    assert cs.is_affine
    # the oracle is the same matrix at every point the report samples
    points = sample_surface(cs, seed=0, count=20)
    first = fundamental_matrix_oracle(cs, points[0])
    for z in points[1:]:
        assert np.array_equal(fundamental_matrix_oracle(cs, z), first)
    irs = build_irreducible(cs, full_artifacts(cs, points[0]))
    calls = _count_oracle_calls(monkeypatch)
    equivalence_report(cs, irs, n_points=20, seed=0)
    assert len(calls) == 1
    assert np.array_equal(calls[0], points[0])


def test_non_affine_oracle_is_built_once(monkeypatch):
    toy = toy_system()
    # the toy's own constraints, opaque, so nothing marks them affine
    chi = tuple(opaque(f, f.dim, grad=f.gradient) for f in toy.chi)
    cs = ConstraintSet(spec=toy.spec, chi=chi, z1=toy.z1, z2=toy.z2)
    assert not cs.is_affine
    at = sample_surface(cs, seed=0, count=1)[0]
    irs = build_irreducible(cs, full_artifacts(cs, at))
    # only the build point is valid on a non-constant base
    monkeypatch.setattr(irr_mod, "sample_surface",
                        lambda cs, seed, count, tol: [at] * count)
    calls = _count_oracle_calls(monkeypatch)
    rep = equivalence_report(cs, irs, n_points=3)
    # every point that passes is the build point: one oracle serves all
    assert len(calls) == 1
    assert rep.passed


def test_equivalence_report_checks_every_point_on_the_surface(monkeypatch):
    cs = synth_linear(10, 12, 8, 2, seed=7)
    points = sample_surface(cs, seed=0, count=20)
    irs = build_irreducible(cs, full_artifacts(cs, points[0]))
    normal = cs.gradients(points[7])[:, 0]
    moved = list(points)
    moved[7] = points[7] + 1e-3 * normal / np.linalg.norm(normal)
    assert cs.surface_residual(moved[7]) > 1e-4
    monkeypatch.setattr(irr_mod, "sample_surface",
                        lambda cs, seed, count, tol: moved[:count])
    with pytest.raises(OffSurfaceError):
        equivalence_report(cs, irs, n_points=20, seed=0)


@given(synth_shapes(), st.integers(0, 4), st.integers(0, 10_000),
       st.floats(1e-4, 5e-2), st.integers(0, 200))
def test_evolve_matches_eom_step(shape, extra_pairs, seed, dt, steps):
    n_pairs, m0, m1, m2 = shape
    cs = synth_linear(n_pairs + extra_pairs, m0, m1, m2, seed=seed)
    at = sample_surface(cs, seed=seed, count=1)[0]
    irs = build_irreducible(cs, full_artifacts(cs, at))
    n = irs.dim_z
    assert n <= 24
    rng = np.random.default_rng(seed)
    # eigenvalues of Q within about [-2, 2], so 200 steps stay finite
    s = rng.standard_normal((n, n)) / np.sqrt(n)
    h = quadratic(s + s.T, rng.standard_normal(n))
    start = irs.join(at, rng.standard_normal(irs.dim_y))
    ref = start
    for _ in range(steps):
        ref = eom_step(irs, h, ref, dt)
    kept = start.copy()
    got = evolve(irs, h, start, dt, steps)
    assert np.array_equal(start, kept)
    assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())
    assert np.array_equal(got[n:], start[n:])
    assert np.array_equal(evolve(irs, h, start, dt, 0), start)


@pytest.fixture(scope="module")
def synth_irr():
    cs = synth_linear(10, 12, 8, 2, seed=7)
    at = sample_surface(cs, seed=0, count=1)[0]
    return cs, at, build_irreducible(cs, full_artifacts(cs, at))


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 8, 9, 255, 256, 257,
                                   1023, 1024, 1025])
def test_evolve_doubling_matches_eom_step(synth_irr, steps):
    # powers of two, and one either side, walk every branch of the
    # doubling: a lone top bit, all bits set, and a low bit after a run
    # of squarings
    _, at, irs = synth_irr
    n = irs.dim_z
    rng = np.random.default_rng(steps)
    s = rng.standard_normal((n, n)) / np.sqrt(n)
    h = quadratic(s + s.T, rng.standard_normal(n))
    start = irs.join(at, rng.standard_normal(irs.dim_y))
    ref = start
    for _ in range(steps):
        ref = eom_step(irs, h, ref, 0.01)
    got = evolve(irs, h, start, 0.01, steps)
    assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())
    assert np.array_equal(got[n:], start[n:])


def test_evolve_affine_h_drifts_linearly(synth_irr):
    _, at, irs = synth_irr
    n = irs.dim_z
    b = np.random.default_rng(3).standard_normal(n)
    start = irs.join(at, np.full(irs.dim_y, 0.5))
    got = evolve(irs, affine(b), start, 0.01, 10**6)
    kernel = fundamental_matrix_irred(irs, irs.build_point)[:n, :n]
    expected = at + 10**6 * 0.01 * (kernel @ b)
    assert np.abs(got[:n] - expected).max() <= 1e-12 * (
        1.0 + np.abs(expected).max())
    assert np.array_equal(got[n:], start[n:])


@pytest.mark.parametrize("seed", range(4))
def test_long_trajectory_stays_on_the_surface(seed):
    cs = synth_linear(10, 12, 8, 2, seed=seed)
    points = sample_surface(cs, seed=seed, count=5)
    irs = build_irreducible(cs, full_artifacts(cs, points[0]))
    h = quadratic(np.eye(irs.dim_z))
    for z0 in points:
        got = evolve(irs, h, irs.join(z0, np.zeros(irs.dim_y)), 1e-3, 10**5)
        assert cs.surface_residual(got[:irs.dim_z]) <= 1e-12


def test_overflowing_trajectory_is_refused(toy_irr):
    irs = toy_irr[2]
    # h = q2 p2 on the free pair: q2' = q2 grows, p2' = -p2 decays
    q = np.zeros((4, 4))
    q[1, 3] = q[3, 1] = 1.0
    h = quadratic(q)
    growing = irs.join(np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(irs.dim_y))
    decaying = irs.join(np.array([0.0, 0.0, 0.0, 1.0]), np.zeros(irs.dim_y))
    # at dt = 1 each step multiplies q2 by 1 + 1 + 1/2 + 1/6 + 1/24, so
    # 2000 steps overflow
    with pytest.raises(InvalidInputError, match="non-finite"):
        evolve(irs, h, growing, 1.0, 2000)
    state = growing
    with pytest.raises(InvalidInputError, match="non-finite"), \
            np.errstate(over="ignore"):
        for _ in range(2000):
            state = eom_step(irs, h, state, 1.0)
    # stepped one at a time, a start off the growing direction stays
    # bounded; the doubled map overflows all the same, and inf * 0 = NaN
    state = decaying
    for _ in range(2000):
        state = eom_step(irs, h, state, 1.0)
    assert np.all(np.isfinite(state)) and state[1] == 0.0
    with pytest.raises(InvalidInputError, match="non-finite"):
        evolve(irs, h, decaying, 1.0, 2000)


def test_overflowing_step_is_refused(toy_irr):
    # one step from q2 = 1e308 under h = q2 p2 overflows; the step itself
    # refuses its non-finite state rather than returning it
    irs = toy_irr[2]
    q = np.zeros((4, 4))
    q[1, 3] = q[3, 1] = 1.0
    start = irs.join(np.array([0.0, 1e308, 0.0, 0.0]), np.zeros(irs.dim_y))
    with pytest.raises(InvalidInputError, match="stepped state"):
        eom_step(irs, quadratic(q), start, 1.0)


def test_evolve_refuses_bad_input(toy_irr):
    cs, at, irs = toy_irr
    n = irs.dim_z
    start = irs.join(at, np.zeros(irs.dim_y))
    h = quadratic(np.eye(n))
    with pytest.raises(InvalidInputError, match="eom_step"):
        evolve(irs, opaque(lambda z: float(z @ z), n), start, 0.01, 3)
    with pytest.raises(InvalidInputError, match="dimension"):
        evolve(irs, quadratic(np.eye(n + 2)), start, 0.01, 3)
    for dt, steps in ((0.0, 3), (-1.0, 0), (np.nan, 3), (np.inf, 3),
                      (0.01, -1)):
        with pytest.raises(InvalidInputError):
            evolve(irs, h, start, dt, steps)
    for dt in (0.0, np.nan):
        with pytest.raises(InvalidInputError):
            eom_step(irs, h, start, dt)
    with pytest.raises(InvalidInputError):
        evolve(irs, h, start[:-1], 0.01, 3)
