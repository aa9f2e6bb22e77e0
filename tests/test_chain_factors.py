"""The chain's completed inverses against the SVD they replace.

On a constant set B, C = G^T J G, Z1 and omega_bar are factored by one
inverse each of the matrix completed on the kernel the reducibility
chain names (numerics.kernel_factors).  Where every certificate holds,
each pseudoinverse matches the SVD's within 50 n kappa u, kappa the
condition number of the completed matrix and n its size; where one
fails, the SVD counts the matrix, the report says so and the record
that reads the rank fails as it does with the SVD alone.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracred.second_order as so
from diracred.cli import main
from diracred.constraints import (
    ConstraintSet,
    sample_surface,
    save_system,
    synth_linear,
    validate,
)
from diracred.numerics import (
    DEFAULT_TOL,
    NoSolutionError,
    mt,
    pseudoinverse,
    rank_tol,
    skew_part,
    symplectic_block,
)

U = 2.0 ** -53


@st.composite
def small_systems(draw):
    """synth_linear systems with 2N <= 40."""
    m2 = 2 * draw(st.integers(1, 3))
    n_pairs = draw(st.integers(max(2, m2 // 2), 20))
    m1 = m2 + 2 * draw(st.integers(1, 4))
    n_ind = 2 * draw(st.integers(m2 // 2, n_pairs))
    return synth_linear(n_pairs, n_ind + m1 - m2, m1, m2,
                        draw(st.integers(0, 1000)))


def _agrees(chain, svd, completed):
    """chain within 50 n kappa u of svd, relative, n and kappa the size
    and condition number of the completed matrix."""
    bound = 50 * completed.shape[-1] * np.linalg.cond(completed) * U
    return np.linalg.norm(chain - svd) <= bound * np.linalg.norm(svd)


def _scaled(m, w):
    """m + |m|_F / |w|_F^2 w w^T: the skew completion, up to a power of
    2 in its second term."""
    return m + np.linalg.norm(m) / np.linalg.norm(w) ** 2 * (w @ w.T)


def _gram(m, w):
    """m^T m completed on w: the Gram completion, likewise."""
    return _scaled(m.T @ m, w)


def _with(cs, b=None, z1=None):
    """cs with B or Z1 replaced."""
    return ConstraintSet.linear(
        cs.spec, cs.affine_matrix()[0] if b is None else b,
        cs.z1 if z1 is None else z1, cs.z2, cs.name)


def _routes(rep):
    return rep.to_dict()["factorizations"]


@settings(max_examples=20)
@given(small_systems())
def test_completed_inverses_match_the_svd(cs):
    tol = DEFAULT_TOL
    b, z1, z2 = cs.affine_matrix()[0], cs.z1, cs.z2
    pts = sample_surface(cs, 0, 2)
    rep = validate(cs, pts)
    assert rep.passed
    assert _routes(rep) == {"jacobian_pinv": "inverse", "z1": "inverse",
                            "c": "inverse"}
    c, fc = cs.bracket(mt(b), tol)
    assert _agrees(fc.pinv, pseudoinverse(c), _scaled(c, z1))
    assert _agrees(cs.z1_factors(z1, tol).pinv, pseudoinverse(z1),
                   _gram(z1, z2))
    assert _agrees(cs._jacobian_pinv(pts[0], tol), pseudoinverse(b),
                   _gram(b.T, z1))

    art = so.second_order_artifacts(cs, pts[0], tol)
    assert _routes(so.omega_tilde_pair(art).report)["omega_bar"] == "inverse"
    omega_bar, hat, *_ = so._omega_candidates(art, symplectic_block(cs.m1),
                                              tol)
    svd_hat = skew_part(art.d11 @ pseudoinverse(omega_bar) @ art.d11)
    assert _agrees(hat, svd_hat, _scaled(omega_bar, art.a12))


@settings(max_examples=20)
@given(small_systems())
def test_planted_defects_take_the_svd_and_fail_their_record(cs):
    b, z1 = cs.affine_matrix()[0], cs.z1
    # a rank loss in C: B loses a direction of its range, which Z1^T
    # still kills
    u = b[:, :1] / np.linalg.norm(b[:, :1])
    lost = _with(cs, b=b - u @ (u.T @ b))
    rep = validate(lost, sample_surface(lost, 0, 2))
    # the SVD's count of C (one of rounding noise alone when B kept one
    # direction)
    c = lost.affine_matrix()[0] @ cs.spec.poisson @ lost.affine_matrix()[0].T
    assert rep.residuals["eq_11d_rank"] == abs(rank_tol(c) - cs.n_independent)
    assert not rep.checks["eq_11d_rank"]
    assert rep.checks["eq_2"] and rep.checks["z1_rank"]
    assert _routes(rep)["c"] == "svd"

    # a rank loss in Z1: a direction of its row space, which Z2 kills
    v = z1[:1].T / np.linalg.norm(z1[:1])
    lost = _with(cs, z1=z1 - (z1 @ v) @ v.T)
    rep = validate(lost, sample_surface(lost, 0, 2))
    assert rep.residuals["z1_rank"] == 1 and not rep.checks["z1_rank"]
    assert rep.checks["eq_2"] and rep.checks["eq_11x"]
    assert rep.checks["eq_11d_rank"]
    assert _routes(rep)["z1"] == "svd"

    # a broken chain: Z1^T B != 0
    r = np.random.default_rng(0).standard_normal((1, cs.spec.dim))
    broken = _with(cs, b=b + 1e-3 * z1[:, :1] @ r)
    rep = validate(broken, sample_surface(broken, 0, 2))
    assert not rep.checks["eq_2"]
    assert _routes(rep)["c"] == _routes(rep)["jacobian_pinv"] == "svd"

    # a seed that loses rank on the range of d11 is counted by the SVD
    # and reported lost, so omega_tilde_pair reseeds it
    art = so.second_order_artifacts(cs, sample_surface(cs, 0, 1)[0])
    *_, lost, svd = so._omega_candidates(art, np.zeros((cs.m1,) * 2),
                                         DEFAULT_TOL)
    assert lost and svd


def test_broken_chain_fails_analyze(tmp_path, capsys):
    cs = synth_linear(10, 12, 8, 2, seed=7)
    b = cs.affine_matrix()[0]
    r = np.random.default_rng(0).standard_normal((1, cs.spec.dim))
    path, out = tmp_path / "broken.json", tmp_path / "report.json"
    save_system(_with(cs, b=b + 1e-3 * cs.z1[:, :1] @ r), path)
    assert main(["analyze", str(path), "--json", str(out)]) == 1
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["eq_2"]
    assert doc["factorizations"] == {"jacobian_pinv": "svd", "z1": "inverse",
                                     "c": "svd"}


def test_omega_seeds_that_lose_rank_raise_as_before(monkeypatch):
    # both the canonical seed and the drawn one lose rank on the range of
    # d11: omega_tilde_pair raises, naming the seed
    candidates = so._omega_candidates
    monkeypatch.setattr(so, "_omega_candidates",
                        lambda art, seed, tol: candidates(art, 0 * seed, tol))
    cs = synth_linear(10, 12, 8, 2, seed=7)
    art = so.second_order_artifacts(cs, sample_surface(cs, 0, 1)[0])
    with pytest.raises(NoSolutionError, match="omega seed loses rank"):
        so.omega_tilde_pair(art)


def test_a_stack_falls_back_block_by_block():
    # one block keeps its chain, the other's is broken: the SVD counts
    # that block alone, and each block gets what it gets alone
    cs = synth_linear(10, 12, 8, 2, seed=7)
    b = cs.affine_matrix()[0]
    r = np.random.default_rng(0).standard_normal((1, cs.spec.dim))
    systems = [cs, _with(cs, b=b + 1e-3 * cs.z1[:, :1] @ r)]
    stack = ConstraintSet.linear(
        cs.spec, np.stack([s.affine_matrix()[0] for s in systems]),
        np.stack([cs.z1] * 2), np.stack([cs.z2] * 2), "pair", ("a", "b"))
    _, fc = stack.bracket(mt(stack.affine_matrix()[0]), DEFAULT_TOL)
    assert fc.svd.tolist() == [False, True]
    for i, one in enumerate(systems):
        _, alone = one.bracket(mt(one.affine_matrix()[0]), DEFAULT_TOL)
        assert np.allclose(fc.pinv[i], alone.pinv, rtol=0, atol=1e-12)
        assert np.allclose(fc.proj[i], alone.proj, rtol=0, atol=1e-12)
        assert fc.rank[i] == alone.rank
    rep = validate(stack, sample_surface(stack, 0, 2))
    assert _routes(rep) == {"jacobian_pinv": 1, "z1": 0, "c": 1}
