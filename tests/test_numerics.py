import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diracred.numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    NoSolutionError,
    Tolerance,
    frobenius,
    is_antisymmetric,
    null_basis,
    pseudoinverse,
    rank_tol,
    rel_residual,
    skew_part,
    skew_solve,
    svd_factors,
    symplectic_block,
)
from diracred.constraints import sample_surface, synth_linear, toy_system
from diracred.irreducible import build_irreducible, evolve
from diracred.phase import PhaseSpec, quadratic
from diracred.second_order import (
    full_artifacts,
    omega_tilde_pair,
    second_order_artifacts,
)
from diracred.threeform import LatticeSpec


def range_projector(m, tol=DEFAULT_TOL):
    """Orthogonal projector onto the numerical column space of m: the
    reference target of the skew_solve tests."""
    u = svd_factors(m, tol).u
    return u @ u.T


def test_tolerance_validation():
    with pytest.raises(InvalidInputError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(InvalidInputError):
        Tolerance(weak_eq=1.5)
    with pytest.raises(InvalidInputError):
        Tolerance(rank_rel=1e-6, weak_eq=1e-8)
    t = Tolerance(rank_rel=1e-12, weak_eq=1e-6, surface=1e-9)
    assert t.rank_rel == 1e-12


def test_rank_tol_detects_numerical_rank():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((8, 3))
    v = rng.standard_normal((3, 8))
    m = u @ v
    assert rank_tol(m) == 3
    assert rank_tol(np.zeros((4, 4))) == 0
    assert rank_tol(np.eye(5)) == 5


def _with_singular_values(s, seed=0):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((len(s), len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((len(s), len(s))))
    return (u * s) @ v.T


def test_rank_tol_certifies_a_well_conditioned_stack(svd_args):
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((7, 6, 6)) + 6.0 * np.eye(6)
    inverse = np.linalg.inv(stack)
    svd_args.clear()
    assert rank_tol(stack, inverse=inverse).tolist() == [6] * 7
    assert rank_tol(stack[0], inverse=inverse[0]) == 6
    assert svd_args == []
    assert rank_tol(stack).tolist() == [6] * 7
    with pytest.raises(InvalidInputError):
        rank_tol(stack, inverse=inverse[0])


@pytest.mark.parametrize("ratio, rank", [(2e-10, 6), (5e-11, 5)])
def test_rank_tol_falls_back_to_the_svd_near_the_cutoff(svd_args, ratio,
                                                        rank):
    # at a sigma ratio of a few rank_rel, with five singular values at
    # sigma_max, |m|_F |X|_F exceeds 1 / rank_rel and the certificate
    # cannot hold, nor with a wrong or non-finite inverse; the SVD then
    # counts, on the missed blocks only
    m = _with_singular_values([3.0] * 5 + [ratio * 3.0])
    inverse = np.linalg.inv(m)
    stack = np.array([np.eye(6), m, m])
    for x in (inverse, 0.5 * inverse, np.eye(6), np.full((6, 6), np.inf)):
        svd_args.clear()
        assert rank_tol(m, inverse=x) == rank_tol(m) == rank
        got = rank_tol(stack, inverse=np.array([np.eye(6), x, inverse]))
        assert got.tolist() == [6, rank, rank]
        assert [a.shape for a in svd_args] == [(1, 6, 6), (6, 6), (2, 6, 6)]


def test_pseudoinverse_moore_penrose():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 4))
    p = pseudoinverse(m)
    assert np.allclose(m @ p @ m, m, atol=1e-12)
    assert np.allclose(p @ m @ p, p, atol=1e-12)


def test_null_basis_orthonormal_and_complete():
    m = np.array([[1.0, 1.0, 0.0, 0.0]])
    nb = null_basis(m)
    assert nb.shape == (4, 3)
    assert np.allclose(m @ nb, 0.0, atol=1e-14)
    assert np.allclose(nb.T @ nb, np.eye(3), atol=1e-14)
    # zero matrix: the whole space is the null space
    assert null_basis(np.zeros((2, 3))).shape == (3, 3)


def test_symplectic_block():
    j = symplectic_block(4)
    assert np.allclose(j @ j, -np.eye(4))
    assert is_antisymmetric(j)
    with pytest.raises(InvalidInputError):
        symplectic_block(3)


def test_range_projector_idempotent():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 2))
    p = range_projector(m)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p @ m, m, atol=1e-12)
    assert rank_tol(p) == 2


def test_skew_solve_projector_path():
    # c antisymmetric of rank 4 inside a 6-dim space
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 4))
    c = b @ symplectic_block(4) @ b.T
    target = range_projector(c)
    m = skew_solve(c, target)
    assert np.allclose(m, -m.T, atol=1e-14)
    assert np.linalg.norm(m @ c - target) < 1e-9


def test_skew_solve_general_path_and_failure():
    c = symplectic_block(4)
    target = 0.5 * np.eye(4)
    m = skew_solve(c, target)
    assert np.allclose(m @ c, target, atol=1e-9)
    assert np.allclose(m, -m.T, atol=1e-14)
    with pytest.raises(NoSolutionError):
        # M @ 0 can never reach the identity
        skew_solve(np.zeros((2, 2)), np.eye(2))


def test_skew_solve_input_checks():
    with pytest.raises(InvalidInputError):
        skew_solve(np.eye(3), np.eye(3))
    with pytest.raises(InvalidInputError):
        skew_solve(symplectic_block(2), np.eye(4))


def test_weak_equal_and_rel_residual_scale_aware():
    a = np.eye(3) * 1e6
    b = a + 1e-4
    # absolute difference is large-ish but relative to the scale it passes
    assert rel_residual(a, b) < 1e-9


def test_skew_part():
    m = np.arange(9.0).reshape(3, 3)
    s = skew_part(m)
    assert np.allclose(s, -s.T)
    assert np.allclose(s + 0.5 * (m + m.T), m)


@st.composite
def antisymmetric_of_even_rank(draw):
    """(c, basis of ker c) for a random antisymmetric c of even rank < n."""
    n = draw(st.integers(3, 10))
    r = 2 * draw(st.integers(1, (n - 1) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    b = rng.standard_normal((n, r))
    c = b @ symplectic_block(r) @ b.T
    return c, null_basis(c), rng


def _solves(c, target):
    m = skew_solve(c, target)
    assert np.array_equal(m, -m.T)
    # with_product returns the same M and its product with c
    m_again, mc = skew_solve(c, target, with_product=True)
    assert np.array_equal(m_again, m)
    assert np.array_equal(mc, m @ c)
    scale = 1.0 + np.linalg.norm(target)
    assert np.linalg.norm(m @ c - target) <= DEFAULT_TOL.weak_eq * scale


@given(antisymmetric_of_even_rank())
def test_skew_solve_property_projector_and_oblique(system):
    c, ker, rng = system
    _solves(c, range_projector(c))
    # oblique: I - Z Abar with Z spanning ker(c) and Abar Z = I, so the
    # range of the target leaves range(c)
    w = ker + 0.5 * rng.standard_normal(ker.shape)
    abar = np.linalg.solve(w.T @ ker, w.T)
    oblique = np.eye(c.shape[0]) - ker @ abar
    assert np.linalg.norm(ker.T @ oblique) > 1e-3
    _solves(c, oblique)


@given(antisymmetric_of_even_rank())
def test_skew_solve_property_outside_range_fails(system):
    c, ker, rng = system
    # rows with a component along ker(c): M @ c can never produce them
    v = rng.standard_normal(c.shape[0])
    target = range_projector(c) + np.outer(v, ker[:, 0])
    with pytest.raises(NoSolutionError):
        skew_solve(c, target)


def test_stack_is_worked_matrix_by_matrix():
    # one call on a stack of antisymmetric matrices of ranks 6, 4 and 2
    # gives what a call on each matrix gives
    rng = np.random.default_rng(11)
    stack = []
    for r in (6, 4, 2):
        b = rng.standard_normal((6, r))
        stack.append(b @ symplectic_block(r) @ b.T)
    stack = np.array(stack)
    targets = np.array([range_projector(c) for c in stack])
    assert rank_tol(stack).tolist() == [6, 4, 2]
    factors = svd_factors(stack)
    pinv = factors.pinv
    assert factors.rank.tolist() == [6, 4, 2]
    solved = skew_solve(stack, targets)
    noise = rng.standard_normal(stack.shape)
    residuals = rel_residual(stack, stack + noise)
    assert is_antisymmetric(stack) and not is_antisymmetric(stack + noise)
    for i, c in enumerate(stack):
        assert np.abs(pinv[i] - pseudoinverse(c)).max() < 1e-12
        assert np.abs(solved[i] - skew_solve(c, targets[i])).max() < 1e-12
        assert residuals[i] == pytest.approx(rel_residual(c, c + noise[i]))
        assert np.array_equal(skew_part(stack)[i], skew_part(c))
    with pytest.raises(NoSolutionError):
        # one unreachable target fails the whole stack
        skew_solve(np.array([symplectic_block(2), np.zeros((2, 2))]),
                   np.array([np.eye(2), np.eye(2)]))


@pytest.mark.parametrize("count", [31, 2048])
def test_frobenius_stack_matches_each_matrix_norm(count):
    rng = np.random.default_rng(count)
    stack = rng.standard_normal((count, 12, 12)) * rng.uniform(
        1e-3, 1e3, (count, 1, 1))
    norms = frobenius(stack)
    assert norms.shape == (count,)
    each = np.array([np.linalg.norm(m) for m in stack])
    assert (np.abs(norms - each) <= 1e-14 * each).all()
    # one matrix keeps numpy's norm, bit for bit
    assert frobenius(stack[0]) == np.linalg.norm(stack[0])


def _toy_at_a_point():
    cs = toy_system()
    return cs, sample_surface(cs, seed=0, count=1)[0]


def _toy_evolve(steps):
    cs, z = _toy_at_a_point()
    irs = build_irreducible(full_artifacts(cs, z))
    return evolve(irs, quadratic(np.eye(cs.spec.dim)),
                  irs.join(z, np.zeros(irs.dim_y)), 0.01, steps)


# every integer and seed argument is refused with InvalidInputError, not
# with whatever numpy or Python raises further in
BAD_INTEGERS = {
    "n_pairs=-1": lambda: PhaseSpec(n_pairs=-1),
    "n_pairs=0": lambda: PhaseSpec(n_pairs=0),
    "n_pairs=2.0": lambda: PhaseSpec(n_pairs=2.0),
    "n_pairs=True": lambda: PhaseSpec(n_pairs=True),
    "lattice d=3.0": lambda: LatticeSpec(3.0, 5),
    "lattice L=5.0": lambda: LatticeSpec(3, 5.0),
    "omega seed=-1": lambda: omega_tilde_pair(
        second_order_artifacts(*_toy_at_a_point()), seed=-1),
    "full_artifacts seed=-1": lambda: full_artifacts(*_toy_at_a_point(),
                                                     seed=-1),
    "evolve steps=2.5": lambda: _toy_evolve(2.5),
    "evolve steps=-1": lambda: _toy_evolve(-1),
    "sample seed=-1": lambda: sample_surface(toy_system(), -1, 1),
    "sample seed=0.5": lambda: sample_surface(toy_system(), 0.5, 1),
    "sample count=0": lambda: sample_surface(toy_system(), 0, 0),
    "sample count=2.5": lambda: sample_surface(toy_system(), 0, 2.5),
    "sample count=2**63-1": lambda: sample_surface(toy_system(), 0,
                                                   2 ** 63 - 1),
    "synth seed=-1": lambda: synth_linear(10, 12, 8, 2, seed=-1),
}


@pytest.mark.parametrize("case", sorted(BAD_INTEGERS))
def test_integer_and_seed_arguments_are_refused(case):
    with pytest.raises(InvalidInputError, match="must be"):
        BAD_INTEGERS[case]()


def test_numpy_integers_are_integers():
    assert PhaseSpec(n_pairs=np.int64(2)).dim == 4
    assert LatticeSpec(np.int32(3), np.int64(5)).sites == 125
    cs, z = _toy_at_a_point()
    assert full_artifacts(cs, z, seed=np.int64(3)).report.passed
    assert _toy_evolve(np.int64(2)).shape == (4 + cs.m1,)
