import json
import numpy as np
import pytest
from dataclasses import replace

from diracred.cli import main
from diracred.constraints import (
    ConstraintSet,
    sample_surface,
    save_system,
    synth_linear,
    toy_system,
)
from diracred.numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    NoSolutionError,
    rank_tol,
    rel_residual,
)
from diracred.oracle import fundamental_matrix_oracle
from diracred.phase import PhaseSpec, affine
from diracred.second_order import (
    SeedRankError,
    full_artifacts,
    fundamental_matrix_2,
    mu_pair,
    omega_tilde_pair,
    second_order_artifacts,
)


@pytest.fixture(scope="module")
def toy_art():
    cs = toy_system()
    at = sample_surface(cs, seed=0, count=1)[0]
    return cs, at, full_artifacts(cs, at)


def test_projector_identities(toy_art):
    cs, at, art = toy_art
    assert np.abs(art.d00 @ art.d00 - art.d00).max() < 1e-9
    assert np.abs(art.d11 @ art.d11 - art.d11).max() < 1e-9
    assert rank_tol(art.d00) == cs.m0 - cs.m1 + cs.m2
    assert rank_tol(art.d11) == cs.m1 - cs.m2
    assert np.abs(art.abar01 @ cs.z1 - art.d11).max() < 1e-9
    assert np.abs(art.m2 @ art.c2 - art.d00).max() < 1e-9
    assert np.allclose(art.m2, -art.m2.T, atol=1e-14)


def test_omega_pair_mutually_inverse(toy_art):
    cs, at, art = toy_art
    m1 = cs.m1
    assert art.report.residuals["eq_a18"] < 1e-9
    assert art.report.residuals["eq_a18a"] < 1e-9
    assert np.abs(art.omega_up @ art.omega_low - np.eye(m1)).max() < 1e-8
    assert np.allclose(art.omega_low, -art.omega_low.T, atol=1e-12)
    assert np.allclose(art.omega_up, -art.omega_up.T, atol=1e-12)


def test_mu_pair_inverse_and_weak_equality(toy_art):
    cs, at, art = toy_art
    assert art.report.residuals["eq_21q"] < 1e-9
    assert np.abs(art.mu2 @ art.mu2_inv - np.eye(cs.m0)).max() < 1e-8
    # the noninvertible matrix is the projected invertible one
    assert art.report.residuals["eq_20"] < 1e-9


def test_both_modes_match_oracle(toy_art):
    cs, at, _ = toy_art
    fo = fundamental_matrix_oracle(cs, at)
    for mode in ("noninvertible", "invertible"):
        f2 = fundamental_matrix_2(cs, at, mode)
        assert np.abs(f2 - fo).max() < 1e-9


def test_constraints_are_casimirs(toy_art):
    cs, at, _ = toy_art
    f = affine(np.arange(1.0, 5.0))
    for mode in ("noninvertible", "invertible"):
        f2 = fundamental_matrix_2(cs, at, mode)
        assert np.abs(cs.gradients(at).T @ f2 @ f.gradient(at)).max() < 1e-8


def test_representative_choices_leave_bracket_unchanged():
    cs = synth_linear(10, 12, 8, 2, seed=11)
    at = sample_surface(cs, seed=0, count=1)[0]
    base = fundamental_matrix_2(cs, at, "noninvertible")
    # a12 representatives are pinned to the span of Z2 by the identity
    # dbar2 a12^T d11 = 0, so only span-preserving rescalings are valid
    art = second_order_artifacts(cs, at, a12=3.0 * cs.z2)
    j = cs.spec.poisson
    g = cs.gradients(at)
    alt = j - (j @ g) @ art.m2 @ (g.T @ j)
    assert np.abs(alt - base).max() < 1e-8
    # the omega pair completes on Z2 itself, not on the rescaled a12
    paired = mu_pair(omega_tilde_pair(art))
    assert paired.report.residuals["eq_a18a"] < 1e-12
    alt = j - (j @ g) @ paired.mu2 @ (g.T @ j)
    assert np.abs(alt - base).max() < 1e-8


def test_ambiguity_shifts(toy_art):
    """Antisymmetric shifts along the reducibility directions are gauge."""
    cs, at, art = toy_art
    j = cs.spec.poisson
    g = cs.gradients(at)
    base = j - (j @ g) @ art.mu2 @ (g.T @ j)
    rng = np.random.default_rng(12)
    for _ in range(10):
        s1 = rng.standard_normal((cs.m1, cs.m1))
        q1 = s1 - s1.T
        m2_shift = art.m2 + cs.z1 @ q1 @ cs.z1.T
        alt = j - (j @ g) @ m2_shift @ (g.T @ j)
        assert np.abs(alt - base).max() < 1e-8
        s2 = rng.standard_normal((cs.m2, cs.m2))
        q2 = s2 - s2.T
        hat_shift = replace(
            art, omega_up=art.omega_up + cs.z2 @ q2 @ cs.z2.T,
        )
        shifted = mu_pair(hat_shift)
        alt2 = j - (j @ g) @ shifted.mu2 @ (g.T @ j)
        assert np.abs(alt2 - base).max() < 1e-8


def test_custom_seeds_accepted_and_checked(toy_art):
    cs, at, canonical = toy_art
    art = omega_tilde_pair(second_order_artifacts(cs, at), seed=13)
    # a random seed installs another pair, which passes the same checks
    assert np.abs(art.omega_low - canonical.omega_low).max() > 1e-3
    art = mu_pair(art)
    for key in ("eq_a3", "eq_a18", "eq_a18a", "eq_21q"):
        assert art.report.residuals[key] < 1e-9, key


def test_input_validation(toy_art):
    cs, at, _ = toy_art
    with pytest.raises(InvalidInputError):
        fundamental_matrix_2(cs, at, "bogus")
    with pytest.raises(InvalidInputError):
        second_order_artifacts(cs, at, a12=np.zeros((cs.m1, cs.m2)))
    art = second_order_artifacts(cs, at)
    with pytest.raises(InvalidInputError):
        mu_pair(art)  # omega pair not installed yet


def test_singular_z2_a12_is_refused(toy_art, svd_args):
    # an exactly singular Z2^T a12 has no inverse; a nearly singular one
    # (sigma ratio 1e-13) has one, and one with a subnormal singular value
    # an infinite one: the certificate falls back to the SVD, which
    # counts the rank loss
    cs, at, _ = toy_art
    svd_args.clear()
    second_order_artifacts(cs, at)
    assert (cs.m2, cs.m2) not in [a.shape[-2:] for a in svd_args]
    for scale, svds in ((0.0, []), (1e-13, [(cs.m2, cs.m2)]),
                        (1e-320, [(cs.m2, cs.m2)])):
        svd_args.clear()
        with pytest.raises(InvalidInputError,
                           match=r"Z2\^T a12 must have full rank M2"):
            second_order_artifacts(cs, at, a12=cs.z2 * [1.0, scale])
        assert [a.shape[-2:] for a in svd_args] == svds, scale


def test_synth_systems_full_chain():
    for seed in (0, 1):
        cs = synth_linear(10, 12, 8, 2, seed=seed)
        at = sample_surface(cs, seed=0, count=1)[0]
        art = full_artifacts(cs, at)
        for key in ("eq_21q", "eq_a18", "eq_a18a", "eq_11c", "eq_15"):
            assert art.report.residuals[key] < 1e-9, key


def test_rerun_stage_replaces_its_records(toy_art):
    cs, _, art = toy_art
    names = [r.name for r in art.report.records]
    rng = np.random.default_rng(17)
    s = rng.standard_normal((cs.m1, cs.m1))
    # a small non-ambiguity shift, still within tolerance, moves eq_21q
    bumped = replace(art, omega_up=art.omega_up + 1e-10 * (s - s.T))
    again = mu_pair(bumped)
    assert [r.name for r in again.report.records] == names
    eq_21q = rel_residual(again.mu2 @ again.mu2_inv, np.eye(cs.m0))
    eq_20 = rel_residual(again.m2, again.d00 @ again.mu2 @ again.d00.T)
    assert again.report.residuals["eq_21q"] == eq_21q
    assert again.report.residuals["eq_20"] == eq_20
    assert eq_21q != art.report.residuals["eq_21q"]
    # the input bundle's report is left as it was
    assert [r.name for r in art.report.records] == names
    # a stage ahead of others keeps its records where they were
    assert [r.name for r in omega_tilde_pair(art).report.records] == names


def test_violated_identity_raises_naming_its_record(toy_art):
    cs, at, art = toy_art
    rng = np.random.default_rng(19)
    bad = art.abar01 + rng.standard_normal(art.abar01.shape)
    with pytest.raises(NoSolutionError, match="eq_1qa") as info:
        second_order_artifacts(cs, at, abar01=bad)
    assert info.value.residual > DEFAULT_TOL.weak_eq


def test_isotropic_canonical_seed_reseeds(tmp_path, capsys):
    # Z2 spans the second half of the M1 space, so d11 projects onto
    # (e1, e2), on which the canonical seed [[0, I], [-I, 0]] vanishes
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
    z1 = np.zeros((4, 4))
    z1[:, :2] = q[:, :2]
    b = q[:, 2:] @ np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 0.0, 1.0, 0.0]])
    cs = ConstraintSet.linear(PhaseSpec(n_pairs=2), b, z1, np.eye(4)[:, 2:],
                              "isotropic")
    at = sample_surface(cs, seed=0, count=1)[0]
    art = second_order_artifacts(cs, at)
    with pytest.raises(SeedRankError):
        omega_tilde_pair(art)
    full = full_artifacts(cs, at, seed=5)
    assert np.array_equal(full.omega_low, omega_tilde_pair(art, 5).omega_low)
    assert full.report.passed and full.report.seeds == {"omega": 5}
    # analyze builds on the fallback seed and says so
    path = tmp_path / "isotropic.json"
    save_system(cs, path)
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["seeds"] == {
        "points": 0, "omega": 0, "functions": 1}
    capsys.readouterr()
