"""End-to-end acceptance checks for the full pipeline.

Each test mirrors one acceptance property: agreement of all four bracket
formulations, the inverse-pair theorems, projector ranks, Casimir
behavior, ambiguity invariance, the lattice three-form example, the
Jacobi identity on a curved system, and constrained dynamics.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from diracred.constraints import (
    curved_first_order_system,
    sample_surface,
    synth_linear,
    toy_system,
)
from diracred.first_order import first_order_artifacts, fundamental_matrix_1
from diracred.irreducible import (
    build_irreducible,
    eom_step,
    fundamental_matrix_irred,
)
from diracred.numerics import Tolerance, rank_tol
from diracred.oracle import fundamental_matrix_oracle
from diracred.phase import affine, opaque, quadratic
from diracred.second_order import (
    full_artifacts,
    fundamental_matrix_2,
    mu_pair,
)
from diracred.threeform import LatticeSpec


@pytest.fixture(scope="module")
def suite():
    """Toy system plus five seeded synthetic systems, with 20 on-surface
    points and the derived artifact bundles each."""
    systems = [toy_system()]
    systems += [synth_linear(10, 12, 8, 2, seed=s) for s in range(5)]
    out = []
    for cs in systems:
        points = sample_surface(cs, seed=0, count=20)
        art = full_artifacts(cs, points[0])
        irs = build_irreducible(cs, art)
        out.append((cs, points, art, irs))
    return out


def test_1_four_formulations_agree(suite):
    start = time.perf_counter()
    for cs, points, art, irs in suite:
        j = cs.spec.poisson
        for at in points:
            fo = fundamental_matrix_oracle(cs, at)
            a = full_artifacts(cs, at)
            g = cs.gradients(at)
            f_non = j - (j @ g) @ a.m2 @ (g.T @ j)
            f_inv = j - (j @ g) @ a.mu2 @ (g.T @ j)
            ext = irs.join(at, np.zeros(irs.dim_y))
            nz = irs.dim_z
            f_irr = fundamental_matrix_irred(irs, ext)[:nz, :nz]
            for f in (f_non, f_inv, f_irr):
                assert np.abs(f - fo).max() < 1e-8
    assert time.perf_counter() - start < 10.0


def test_2_mu_pair_inverse(suite):
    for cs, points, art, irs in suite:
        assert art.report.residuals["eq_21q"] < 1e-9
        assert np.abs(
            art.mu2 @ art.mu2_inv - np.eye(cs.m0)
        ).max() < 1e-8


def test_3_omega_pair_inverse(suite):
    for cs, points, art, irs in suite:
        assert art.report.residuals["eq_a18"] < 1e-9
        assert art.report.residuals["eq_a18a"] < 1e-9


def test_4_c_delta_inverse_and_irreducibility(suite):
    for cs, points, art, irs in suite:
        n = cs.m0 + cs.m2
        assert irs.report.residuals["eq_p11"] < 1e-9
        assert rank_tol(irs.c_delta) == n
        ext = irs.join(points[0], np.zeros(irs.dim_y))
        assert np.linalg.matrix_rank(irs.chi_tilde_gradients(ext)) == n


def test_5_projectors_ranks_and_casimirs(suite):
    for cs, points, art, irs in suite:
        assert np.abs(art.d00 @ art.d00 - art.d00).max() < 1e-9
        assert np.abs(art.d11 @ art.d11 - art.d11).max() < 1e-9
        assert rank_tol(art.d00) == cs.m0 - cs.m1 + cs.m2
        at = points[0]
        rng = np.random.default_rng(1)
        f = affine(rng.standard_normal(cs.spec.dim))
        for mode in ("noninvertible", "invertible"):
            f2 = fundamental_matrix_2(cs, at, mode)
            for chi in cs.chi[:4]:
                assert abs(chi.gradient(at) @ f2 @ f.gradient(at)) < 1e-8
        ext = irs.join(at, np.zeros(irs.dim_y))
        full = fundamental_matrix_irred(irs, ext)
        grad_f = np.concatenate([f.gradient(at), np.zeros(irs.dim_y)])
        for i in range(min(irs.dim_y, 4)):
            # the bracket of y_i with f is row i of the y block
            assert abs(full[irs.dim_z + i] @ grad_f) < 1e-8


def test_6_ambiguity_invariance(suite):
    # second-order shifts on the toy system and one synthetic one
    rng = np.random.default_rng(2)
    for cs, points, art, irs in (suite[0], suite[1]):
        at = points[0]
        j = cs.spec.poisson
        g = cs.gradients(at)
        base = j - (j @ g) @ art.mu2 @ (g.T @ j)
        for _ in range(10):
            s1 = rng.standard_normal((cs.m1, cs.m1))
            m2_shift = art.m2 + cs.z1 @ (s1 - s1.T) @ cs.z1.T
            alt = j - (j @ g) @ m2_shift @ (g.T @ j)
            assert np.abs(alt - base).max() < 1e-8
            s2 = rng.standard_normal((cs.m2, cs.m2))
            hat = replace(
                art, omega_up=art.omega_up + cs.z2 @ (s2 - s2.T) @ cs.z2.T
            )
            shifted = mu_pair(hat, cs)
            alt2 = j - (j @ g) @ shifted.mu2 @ (g.T @ j)
            assert np.abs(alt2 - base).max() < 1e-8
    # first-order shift on the curved system
    curved = curved_first_order_system()
    at = sample_surface(curved, seed=0, count=1)[0]
    art1 = first_order_artifacts(curved, at)
    z1 = curved.z1_at(at)
    j = curved.spec.poisson
    g = curved.gradients(at)
    base = j - (j @ g) @ art1.m1 @ (g.T @ j)
    for _ in range(10):
        s = rng.standard_normal((curved.m1, curved.m1))
        shift = art1.m1 + z1 @ (s - s.T) @ z1.T
        alt = j - (j @ g) @ shift @ (g.T @ j)
        assert np.abs(alt - base).max() < 1e-8


def test_7_threeform_example(dense):
    start = time.perf_counter()
    configs = (
        LatticeSpec(d=3, L=4),
        LatticeSpec(d=4, L=3, derivative="spectral"),
    )
    for spec in configs:
        # built afresh so the bound times real builds in any test order;
        # the build is left in the session cache for later tests
        _, rep, prep = dense.build(spec)
        assert rep.passed
        assert rep.record("eq_v23").residual < 1e-8
        assert rep.record("eq_29").residual < 1e-8
        assert prep.passed
        for tag in ("eq_58", "eq_59", "eq_72", "eq_27qq"):
            assert prep.record(tag).passed, tag
    assert time.perf_counter() - start < 30.0


def test_8_jacobi_identity_curved():
    # tolerance is dominated by the nested central differences used for
    # the gradient of an already finite-differenced bracket value, so the
    # bound is 1e-4 rather than the algebraic 1e-8
    cs = curved_first_order_system()
    loose = Tolerance(rank_rel=1e-10, weak_eq=1e-4, surface=1e-3)
    dim = cs.spec.dim
    rng = np.random.default_rng(3)
    f = affine(rng.standard_normal(dim))
    g = affine(rng.standard_normal(dim))
    h = affine(rng.standard_normal(dim))

    def dirac(a, b, z):
        return a.gradient(z) @ fundamental_matrix_1(cs, z, loose) @ (
            b.gradient(z))

    def bracket_fn(a, b):
        return opaque(lambda z: dirac(a, b, z), dim=dim)

    for at in sample_surface(cs, seed=4, count=5):
        jac = (
            dirac(bracket_fn(f, g), h, at)
            + dirac(bracket_fn(g, h), f, at)
            + dirac(bracket_fn(h, f), g, at)
        )
        assert abs(jac) < 1e-4


def test_9_toy_dynamics_harmonic():
    cs = toy_system()
    z0 = np.array([0.0, 1.0, 0.0, 0.0])
    irs = build_irreducible(cs, full_artifacts(cs, z0))
    h = quadratic(np.diag([0.0, 1.0, 0.0, 1.0]))
    y0 = np.zeros(irs.dim_y)
    state = irs.join(z0, y0)
    t = np.pi / 2
    dt = 1e-3
    n = int(t // dt)
    for _ in range(n):
        state = eom_step(irs, h, state, dt)
    rem = t - n * dt
    if rem > 0.0:
        state = eom_step(irs, h, state, rem)
    z, y = irs.split(state)
    assert np.array_equal(y, y0)
    assert cs.surface_residual(z) < 1e-6
    # analytic rotation of the free pair: q2 -> cos t, p2 -> -sin t
    assert abs(z[1] - np.cos(t)) < 1e-6
    assert abs(z[3] + np.sin(t)) < 1e-6
    assert abs(z[0]) < 1e-6 and abs(z[2]) < 1e-6
