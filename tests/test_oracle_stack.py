"""The oracle on a stack of systems: each block gets, bit for bit, what it
gets alone, and a single system gets what the one-system formula gives."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from diracred.constraints import (
    ConstraintSet,
    OffSurfaceError,
    curved_first_order_system,
    sample_surface,
    synth_linear,
    toy_system,
)
from diracred.numerics import DEFAULT_TOL, svd_factors
from diracred.oracle import (
    DegenerateSystemError,
    fundamental_matrix_oracle,
    independent_subset,
)
from diracred.phase import PhaseSpec, dirac_matrix
from diracred.threeform import LatticeSpec
from lattice_reference import block, block_stacks, stack_threeform
from test_oracle import permuted


def one_system_oracle(cs, at):
    """The reference: the oracle's formula for one system, step by step."""
    g = cs.gradients(at)
    _, piv = scipy.linalg.qr(g, mode="r", pivoting=True)
    indices = tuple(sorted(piv[:cs.n_independent].tolist()))
    sub = g[:, indices]
    cab_inv = svd_factors(sub.T @ cs.spec.poisson @ sub, DEFAULT_TOL).pinv
    return dirac_matrix(cs.spec.poisson, sub, cab_inv)


def _reference_cases():
    toy = toy_system()
    yield pytest.param(toy, sample_surface(toy, 0, 1)[0], id="toy")
    curved = curved_first_order_system()
    for i, at in enumerate(sample_surface(curved, 3, 3)):
        yield pytest.param(curved, at, id=f"curved-{i}")
    for seed in (0, 23, 31):
        cs = synth_linear(100, 150, 60, 10, seed)
        yield pytest.param(cs, sample_surface(cs, seed, 1)[0],
                           id=f"synth-{seed}")
    # a lattice block: its gathered gradients are where a stacked gather
    # laid out in another memory order changed the last bits
    lat = LatticeSpec(d=4, L=3)
    stack = stack_threeform(lat, block_stacks(lat)[0]).cs
    at = sample_surface(stack, 0, 1)[0]
    yield pytest.param(block(stack, 9), at[9], id="d4L3-block9")


@pytest.mark.parametrize("cs,at", _reference_cases())
def test_one_system_oracle_is_its_formula(cs, at):
    rng = np.random.default_rng(cs.m0)
    for system in (cs, permuted(cs, rng.permutation(cs.m0))):
        assert np.array_equal(fundamental_matrix_oracle(system, at),
                              one_system_oracle(system, at))


def stack_of(systems, name="stack"):
    """Linear systems of one shape as one stack, labelled by position."""
    b = np.stack([cs.affine_matrix()[0] for cs in systems])
    z1 = np.stack([cs.z1 for cs in systems])
    z2 = (None if systems[0].z2 is None
          else np.stack([cs.z2 for cs in systems]))
    return ConstraintSet.linear(systems[0].spec, b, z1, z2, name,
                                tuple(f"#{i}" for i in range(len(systems))))


@st.composite
def synth_stacks(draw):
    """A stack of synth_linear systems of one shape, a point per system
    and one constraint order shared by the stack."""
    m2 = draw(st.sampled_from([2, 4]))
    m1 = m2 + 2 * draw(st.integers(1, 2))
    n_ind = 2 * draw(st.integers(m2 // 2, 4))
    n_pairs = draw(st.integers(n_ind // 2, n_ind // 2 + 2))
    seed = draw(st.integers(0, 10_000))
    size = draw(st.integers(1, 4))
    systems = [synth_linear(n_pairs, n_ind + m1 - m2, m1, m2, seed + i)
               for i in range(size)]
    stack = stack_of(systems)
    order = draw(st.permutations(range(stack.m0)))
    return stack, sample_surface(stack, seed, 1)[0], order


@given(synth_stacks())
def test_stack_gives_each_block_its_oracle(case):
    stack, at, order = case
    for ranked in (stack, permuted(stack, order)):
        sel = independent_subset(ranked, at)
        f = fundamental_matrix_oracle(ranked, at)
        for i in range(stack.batch[0]):
            one, at_i = block(ranked, i), at[i]
            sel1 = independent_subset(one, at_i)
            assert np.array_equal(sel.indices[i], sel1.indices)
            assert np.array_equal(sel.cab_inv[i], sel1.cab_inv)
            assert np.array_equal(f[i], fundamental_matrix_oracle(one, at_i))


def _failure(call, error):
    with pytest.raises(error) as exc:
        call()
    return str(exc.value)


def _middle_block_fails_as_alone(stack, at, call, error):
    stacked = _failure(lambda: call(stack, at), error)
    alone = _failure(lambda: call(block(stack, 1), at[1]), error)
    assert stacked == f"{stack.name} #1: {alone}"


def test_stack_error_names_a_block_with_degenerate_gradients():
    systems = [synth_linear(4, 8, 4, 2, seed) for seed in (1, 2, 3)]
    # the middle block loses a gradient direction: one pivot too few
    b = systems[1].affine_matrix()[0]
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    s[np.flatnonzero(s > 1e-8)[-1]] = 0.0
    systems[1] = ConstraintSet.linear(
        systems[1].spec, (u * s) @ vt, systems[1].z1, systems[1].z2,
        "", ())
    stack = stack_of(systems)
    at = np.zeros(stack.batch + (stack.spec.dim,))
    _middle_block_fails_as_alone(stack, at, independent_subset,
                                 DegenerateSystemError)
    assert "only 5 independent constraints found, expected 6" in _failure(
        lambda: independent_subset(stack, at), DegenerateSystemError)


def test_stack_error_names_a_block_whose_subset_is_first_class():
    spec = PhaseSpec(n_pairs=2)
    # q1, p1 are second class; q1, q2 commute, so C_AB vanishes
    rows = {"q1": [1, 0, 0, 0], "q2": [0, 1, 0, 0], "p1": [0, 0, 1, 0]}
    b = np.array([[rows["q1"], rows["p1"]], [rows["q1"], rows["q2"]],
                  [rows["q1"], rows["p1"]]], dtype=float)
    stack = ConstraintSet.linear(spec, b, np.zeros((3, 2, 0)), None,
                                 "stack", ("#0", "#1", "#2"))
    at = np.zeros((3, spec.dim))
    _middle_block_fails_as_alone(stack, at, independent_subset,
                                 DegenerateSystemError)
    assert "C_AB rank deficient" in _failure(
        lambda: independent_subset(stack, at), DegenerateSystemError)


def test_stack_error_names_a_block_off_the_surface():
    stack = stack_of([synth_linear(4, 8, 4, 2, seed) for seed in (1, 2, 3)])
    at = np.zeros(stack.batch + (stack.spec.dim,))
    at[1] = np.random.default_rng(0).standard_normal(stack.spec.dim)
    _middle_block_fails_as_alone(stack, at, fundamental_matrix_oracle,
                                 OffSurfaceError)
