from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from diracred.constraints import (
    ConstraintSet,
    sample_surface,
    synth_linear,
    toy_system,
)
from diracred.numerics import DEFAULT_TOL, rank_tol
from diracred.oracle import (
    DegenerateSystemError,
    fundamental_matrix_oracle,
    independent_subset,
    pivoted_qr,
)
from diracred.phase import PhaseSpec, coordinate


@st.composite
def synth_systems(draw):
    """A synth_linear system and one of its surface points."""
    m2 = draw(st.sampled_from([2, 4]))
    m1 = m2 + 2 * draw(st.integers(1, 3))
    n_ind = 2 * draw(st.integers(m2 // 2, 5))
    n_pairs = draw(st.integers(n_ind // 2, n_ind // 2 + 3))
    seed = draw(st.integers(0, 10_000))
    cs = synth_linear(n_pairs, n_ind + m1 - m2, m1, m2, seed=seed)
    return cs, sample_surface(cs, seed=seed, count=1)[0]


def permuted(cs, order):
    """cs with its constraints taken in ``order``: the chi tuple and the
    rows of Z1, a map's included, or on a set built by linear() the rows
    of B and Z1 of every system of its stack.  The surface and the
    bracket are unchanged; only the candidate ranking of the subset
    selection moves."""
    order = np.asarray(order)
    if cs.is_constant:
        b, _ = cs.affine_matrix()
        return ConstraintSet.linear(cs.spec, b[..., order, :],
                                    cs.z1[..., order, :], cs.z2, cs.name,
                                    cs.blocks)
    z1 = (cs.z1[order] if isinstance(cs.z1, np.ndarray)
          else lambda z: cs.z1(z)[order])
    return replace(cs, chi=[cs.chi[i] for i in order], z1=z1)


def with_scaled_pair(cs, scale):
    """cs plus one canonical pair (q, p) constrained by scale*q and p/scale.

    The q gradient has norm ``scale`` and is orthogonal to every other
    gradient, so it is the last QR pivot and that pivot equals ``scale``;
    the bracket {scale*q, p/scale} = 1 keeps C_AB well conditioned.
    """
    n = cs.spec.n_pairs
    spec = PhaseSpec(n_pairs=n + 1)
    b, c = cs.affine_matrix()
    # old coordinates q_0..q_{n-1}, p_0..p_{n-1} go to their new slots
    old = np.r_[0:n, n + 1:2 * n + 1]
    rows = np.zeros((cs.m0 + 2, spec.dim))
    rows[:cs.m0, old] = b
    rows[cs.m0, n] = scale
    rows[cs.m0 + 1, 2 * n + 1] = 1.0 / scale
    assert spec.poisson[n, 2 * n + 1] == 1.0
    z1 = np.vstack([cs.z1, np.zeros((2, cs.m1))])
    return ConstraintSet.linear(spec, rows, z1, cs.z2,
                                c=np.r_[c, 0.0, 0.0]), old


def test_subset_size_and_invertibility():
    cs = toy_system()
    at = sample_surface(cs, seed=0, count=1)[0]
    sel = independent_subset(cs, at)
    assert len(sel.indices) == cs.n_independent
    assert rank_tol(sel.cab) == cs.n_independent
    assert np.allclose(sel.cab @ sel.cab_inv, np.eye(2), atol=1e-12)


def test_subset_choice_does_not_change_bracket():
    cs = synth_linear(6, 8, 4, 2, seed=2)
    at = sample_surface(cs, seed=0, count=1)[0]
    base = fundamental_matrix_oracle(cs, at)
    rng = np.random.default_rng(4)
    for _ in range(5):
        alt = fundamental_matrix_oracle(permuted(cs, rng.permutation(cs.m0)),
                                        at)
        assert np.abs(alt - base).max() < 1e-9


def test_constraints_are_casimirs_of_oracle_bracket():
    cs = toy_system()
    at = sample_surface(cs, seed=1, count=1)[0]
    f = coordinate(cs.spec.dim, 1)
    f_orc = fundamental_matrix_oracle(cs, at)
    assert np.abs(cs.gradients(at).T @ f_orc @ f.gradient(at)).max() < 1e-10


def test_degenerate_system_detected():
    cs = toy_system()
    # claim more independent constraints than the gradients can supply
    bad = replace(cs, z1=cs.z1[:, :2], z2=None, name="broken")
    at = sample_surface(cs, seed=0, count=1)[0]
    with pytest.raises(DegenerateSystemError):
        independent_subset(bad, at)


def test_oracle_builds_gradients_once(monkeypatch):
    cs = synth_linear(6, 8, 4, 2, seed=2)
    at = sample_surface(cs, seed=0, count=1)[0]
    expected = fundamental_matrix_oracle(cs, at)
    calls = []
    gradients = ConstraintSet.gradients

    def counting(self, z):
        calls.append(z)
        return gradients(self, z)

    monkeypatch.setattr(ConstraintSet, "gradients", counting)
    for n in (1, 2):
        assert np.array_equal(fundamental_matrix_oracle(cs, at), expected)
        assert len(calls) == n


@given(synth_systems())
def test_subset_property_full_rank(system):
    cs, at = system
    sel = independent_subset(cs, at)
    assert len(set(sel.indices)) == cs.n_independent
    assert rank_tol(sel.cab) == cs.n_independent
    assert np.allclose(sel.cab @ sel.cab_inv, np.eye(cs.n_independent),
                       atol=1e-8)


@given(synth_systems(), st.data())
def test_subset_property_order_invariance(system, data):
    cs, at = system
    order = data.draw(st.permutations(range(cs.m0)))
    base = fundamental_matrix_oracle(cs, at)
    alt = fundamental_matrix_oracle(permuted(cs, order), at)
    assert np.abs(alt - base).max() < 1e-9


@given(synth_systems())
def test_subset_property_pivot_cutoff(system):
    cs, at = system
    rank_rel = DEFAULT_TOL.rank_rel
    weak, old = with_scaled_pair(cs, 0.1 * rank_rel)
    at_ext = np.zeros(weak.spec.dim)
    at_ext[old] = at
    with pytest.raises(DegenerateSystemError):
        independent_subset(weak, at_ext)
    strong, _ = with_scaled_pair(cs, 10.0 * rank_rel)
    sel = independent_subset(strong, at_ext)
    assert {cs.m0, cs.m0 + 1} <= set(sel.indices)


@given(rows=st.integers(0, 9), cols=st.integers(0, 14),
       rank=st.integers(0, 9), count=st.integers(1, 4),
       seed=st.integers(0, 10_000))
def test_pivoted_qr_matches_scipy(rows, cols, rank, count, seed):
    # direct geqp3 gives scipy's R and pivots bit for bit, rank-deficient
    # (rank below min(rows, cols)) and empty matrices and exact ties
    # included
    rank = min(rank, rows, cols)
    rng = np.random.default_rng(seed)
    mats = (rng.standard_normal((count, rows, rank))
            @ rng.standard_normal((count, rank, cols)))
    if cols:
        mats[0, :, -1] = mats[0, :, 0]  # a tie for the first pivot
    r, piv = pivoted_qr(mats)
    for m, rm, pm in zip(mats, r, piv):
        want_r, want_piv = scipy.linalg.qr(m, mode="r", pivoting=True)
        assert np.array_equal(rm, want_r)
        assert np.array_equal(pm, want_piv)
