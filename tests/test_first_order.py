import numpy as np
import pytest
from dataclasses import replace

from diracred.constraints import (
    ConstraintSet,
    OffSurfaceError,
    curved_first_order_system,
    duplicated_pair_system,
    sample_surface,
    toy_system,
)
from diracred.first_order import (
    dirac1,
    first_order_artifacts,
    fundamental_matrix_1,
    irreducible_lift_1,
)
from diracred.irreducible import (
    build_irreducible,
    dirac_irred,
    fundamental_matrix_irred,
)
from diracred.numerics import DEFAULT_TOL, InvalidInputError, Tolerance
from diracred.oracle import dirac_oracle, fundamental_matrix_oracle
from diracred.phase import PhaseSpec, affine, coordinate
from diracred.second_order import dirac2, full_artifacts, fundamental_matrix_2


def doubled_pair_system() -> ConstraintSet:
    """Order-1 system with even M1: chi = (q1, p1, q1, p1)."""
    spec = PhaseSpec(n_pairs=2)
    b = np.zeros((4, 4))
    b[0, 0] = b[2, 0] = 1.0  # two copies of q1
    b[1, 2] = b[3, 2] = 1.0  # two copies of p1
    z1 = np.array([
        [1.0, 0.0],
        [0.0, 1.0],
        [-1.0, 0.0],
        [0.0, -1.0],
    ])
    chi = tuple(affine(b[i], label=f"chi{i}") for i in range(4))
    return ConstraintSet(spec=spec, chi=chi, z1=z1, name="doubled")


def _scalar_case(name):
    """(bracket of two functions, fundamental matrix, function dimension,
    whether the pair (q2, p2) is free) for one bracket formulation."""
    if name == "dirac1":
        cs = curved_first_order_system()
        at = sample_surface(cs, seed=2, count=1)[0]
        return (lambda f, g: dirac1(cs, f, g, at),
                fundamental_matrix_1(cs, at), cs.spec.dim, False)
    if name == "lift":
        cs = doubled_pair_system()
        lift = irreducible_lift_1(cs)
        at = sample_surface(cs, seed=4, count=1)[0]
        return (lambda f, g: lift.bracket_z(f, g, at),
                lift.fundamental_matrix(at), cs.spec.dim, True)
    cs = toy_system()
    at = sample_surface(cs, seed=0, count=1)[0]
    if name == "oracle":
        return (lambda f, g: dirac_oracle(cs, f, g, at),
                fundamental_matrix_oracle(cs, at), cs.spec.dim, True)
    if name == "irreducible":
        irs = build_irreducible(cs, full_artifacts(cs, at))
        ext = irs.join(at, np.zeros(irs.dim_y))
        return (lambda f, g: dirac_irred(irs, f, g, ext),
                fundamental_matrix_irred(irs, ext), ext.shape[0], True)
    mode = name.split("-", 1)[1]
    return (lambda f, g: dirac2(cs, f, g, at, mode),
            fundamental_matrix_2(cs, at, mode), cs.spec.dim, True)


@pytest.mark.parametrize("name", [
    "oracle", "dirac1", "dirac2-noninvertible", "dirac2-invertible",
    "irreducible", "lift",
])
def test_scalar_bracket_matches_matrix(name):
    bracket, mat, dim, free_pair = _scalar_case(name)
    for i in range(dim):
        for k in range(dim):
            value = bracket(coordinate(dim, i), coordinate(dim, k))
            assert value == pytest.approx(mat[i, k], abs=1e-12)
    if free_pair:
        # the unconstrained pair keeps its canonical bracket
        assert mat[1, 3] == pytest.approx(1.0)


def test_artifact_identities():
    cs = duplicated_pair_system()
    at = sample_surface(cs, seed=0, count=1)[0]
    art = first_order_artifacts(cs, at)
    assert np.allclose(art.d @ art.d, art.d, atol=1e-12)
    assert np.allclose(art.abar @ cs.z1, np.eye(cs.m1), atol=1e-12)
    assert np.allclose(art.m1, -art.m1.T, atol=1e-14)
    assert np.abs(art.m1 @ art.c1 - art.d).max() < 1e-9


def test_reducible_bracket_matches_oracle():
    cs = duplicated_pair_system()
    for at in sample_surface(cs, seed=1, count=5):
        f1 = fundamental_matrix_1(cs, at)
        fo = fundamental_matrix_oracle(cs, at)
        assert np.abs(f1 - fo).max() < 1e-9


def test_curved_system_bracket_matches_oracle():
    cs = curved_first_order_system()
    for at in sample_surface(cs, seed=2, count=5):
        f1 = fundamental_matrix_1(cs, at)
        fo = fundamental_matrix_oracle(cs, at)
        assert np.abs(f1 - fo).max() < 1e-8


def test_constraints_are_casimirs():
    cs = duplicated_pair_system()
    at = sample_surface(cs, seed=3, count=1)[0]
    f = coordinate(cs.spec.dim, 3)
    for chi in cs.chi:
        assert abs(dirac1(cs, chi, f, at)) < 1e-10


def test_lift_matches_reducible_and_oracle():
    cs = doubled_pair_system()
    lift = irreducible_lift_1(cs)
    for at in sample_surface(cs, seed=4, count=4):
        lifted = lift.fundamental_matrix(at)
        direct = fundamental_matrix_1(cs, at)
        oracle = fundamental_matrix_oracle(cs, at)
        assert np.abs(lifted - direct).max() < 1e-9
        assert np.abs(lifted - oracle).max() < 1e-9
        q2 = coordinate(4, 1)
        p2 = coordinate(4, 3)
        assert lift.bracket_z(q2, p2, at) == pytest.approx(lifted[1, 3])


@pytest.mark.parametrize("method", ["fundamental_matrix", "bracket_z",
                                    "bracket"])
def test_lift_honours_callers_tolerance(method):
    # the lift is built under DEFAULT_TOL; each call must use its own tol
    cs = doubled_pair_system()
    lift = irreducible_lift_1(cs)
    off = sample_surface(cs, seed=8, count=1)[0]
    off[0] += 1e-9  # chi0 = q1 = 1e-9, beyond DEFAULT_TOL.surface
    q2, p2 = coordinate(4, 1), coordinate(4, 3)
    ext = cs.spec.dim + cs.m1
    calls = {
        "fundamental_matrix": lambda tol: lift.fundamental_matrix(off, tol),
        "bracket_z": lambda tol: lift.bracket_z(q2, p2, off, tol=tol),
        "bracket": lambda tol: lift.bracket(np.eye(ext)[1], np.eye(ext)[3],
                                            off, tol),
    }
    with pytest.raises(OffSurfaceError):
        calls[method](DEFAULT_TOL)
    loose = Tolerance(surface=1e-6)
    value = calls[method](loose)
    direct = fundamental_matrix_1(cs, off, loose)
    if method == "fundamental_matrix":
        assert np.abs(value - direct).max() < 1e-9
    else:
        assert value == pytest.approx(direct[1, 3], abs=1e-12)


def test_fundamental_matrix_1_reuses_artifacts():
    cs = duplicated_pair_system()
    at, other = sample_surface(cs, seed=9, count=2)
    art = first_order_artifacts(cs, at)
    assert np.array_equal(fundamental_matrix_1(cs, at, artifacts=art),
                          fundamental_matrix_1(cs, at))
    with pytest.raises(InvalidInputError):
        fundamental_matrix_1(cs, other, artifacts=art)


def test_lifted_constraints_vanish_with_matching_y():
    cs = doubled_pair_system()
    lift = irreducible_lift_1(cs)
    at = sample_surface(cs, seed=5, count=1)[0]
    y = np.array([0.3, -0.7])
    vals = lift.chi_bar_value(at, y)
    # chi = 0 on the surface, so chi_bar = a_lift @ y exactly
    assert np.allclose(vals, lift.a_lift @ y, atol=1e-12)
    grads = lift.chi_bar_gradients(at)
    assert np.linalg.matrix_rank(grads) == cs.m0


def test_lift_rank_condition_enforced():
    with pytest.raises(InvalidInputError):
        # odd M1 has no invertible antisymmetric gamma
        irreducible_lift_1(duplicated_pair_system())
    cs = doubled_pair_system()
    # a_lift = Z1 with dependent columns fails rank(Z1^T a_lift) = M1
    dependent = replace(cs, z1=np.column_stack([cs.z1[:, 0], cs.z1[:, 0]]))
    with pytest.raises(InvalidInputError, match="Z1"):
        irreducible_lift_1(dependent)


def test_ambiguity_shift_leaves_bracket_unchanged():
    cs = doubled_pair_system()
    at = sample_surface(cs, seed=6, count=1)[0]
    art = first_order_artifacts(cs, at)
    j = cs.spec.poisson
    g = cs.gradients(at)
    base = j - (j @ g) @ art.m1 @ (g.T @ j)
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = rng.standard_normal((cs.m1, cs.m1))
        q = s - s.T
        shifted = art.m1 + cs.z1 @ q @ cs.z1.T
        alt = j - (j @ g) @ shifted @ (g.T @ j)
        assert np.abs(alt - base).max() < 1e-8


def test_first_order_requires_order_one():
    cs = toy_system()
    at = sample_surface(cs, seed=0, count=1)[0]
    with pytest.raises(InvalidInputError):
        first_order_artifacts(cs, at)
