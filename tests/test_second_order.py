import numpy as np
import pytest
from dataclasses import replace

from diracred.constraints import sample_surface, synth_linear, toy_system
from diracred.numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    NoSolutionError,
    rank_tol,
    rel_residual,
)
from diracred.oracle import fundamental_matrix_oracle
from diracred.phase import affine, coordinate
from diracred.second_order import (
    dirac2,
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
    for chi in cs.chi:
        assert abs(dirac2(cs, chi, f, at, "noninvertible")) < 1e-8
        assert abs(dirac2(cs, chi, f, at, "invertible")) < 1e-8


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
            omega_hat=art.omega_hat,
        )
        shifted = mu_pair(hat_shift, cs)
        alt2 = j - (j @ g) @ shifted.mu2 @ (g.T @ j)
        assert np.abs(alt2 - base).max() < 1e-8


def test_custom_seeds_accepted_and_checked(toy_art):
    cs, at, _ = toy_art
    art = second_order_artifacts(cs, at)
    rng = np.random.default_rng(13)
    s = rng.standard_normal((cs.m1, cs.m1))
    art = omega_tilde_pair(art, seed_low=s - s.T)
    art = mu_pair(art, cs)
    assert art.report.residuals["eq_21q"] < 1e-9
    with pytest.raises(InvalidInputError):
        omega_tilde_pair(second_order_artifacts(cs, at),
                         seed_low=np.eye(cs.m1))
    with pytest.raises(InvalidInputError):
        omega_tilde_pair(second_order_artifacts(cs, at),
                         seed2=np.zeros((cs.m2, cs.m2)))


def test_input_validation(toy_art):
    cs, at, _ = toy_art
    with pytest.raises(InvalidInputError):
        fundamental_matrix_2(cs, at, "bogus")
    with pytest.raises(InvalidInputError):
        second_order_artifacts(cs, at, a12=np.zeros((cs.m1, cs.m2)))
    art = second_order_artifacts(cs, at)
    with pytest.raises(InvalidInputError):
        mu_pair(art, cs)  # omega pair not installed yet


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
    again = mu_pair(bumped, cs)
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
