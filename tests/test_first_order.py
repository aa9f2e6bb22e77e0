import math

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from diracred.constraints import (
    ConstraintSet,
    OffSurfaceError,
    curved_first_order_system,
    duplicated_pair_system,
    sample_surface,
    toy_system,
    validate,
)
from diracred.first_order import first_order_artifacts, fundamental_matrix_1
from diracred.irreducible import (
    build_irreducible,
    equivalence_report,
    fundamental_matrix_irred,
    intermediate_bracket_matrix,
)
from diracred.numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    NoSolutionError,
    Tolerance,
    null_basis,
    rank_tol,
)
from diracred.oracle import fundamental_matrix_oracle, independent_subset
from diracred.phase import (
    PhaseSpec,
    coordinate,
    opaque,
    poisson_bracket,
    quadratic,
)
from diracred.second_order import (
    full_artifacts,
    fundamental_matrix_2,
    second_order_artifacts,
)
from test_constraints import function_rows


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
    return ConstraintSet.linear(spec, b, z1, name="doubled")


def log_first_order_system() -> ConstraintSet:
    """curved_first_order_system with e^q2 replaced by log|q2|: chi = (q1,
    q1 log|q2|, p1, p1 log|q2|), defined wherever q2 != 0, so at every
    sampled point but not at the origin, where math.log raises."""
    spec = PhaseSpec(n_pairs=2)

    def logged(i: int, label: str):
        def grad(z):
            g = np.zeros(4)
            g[i], g[1] = math.log(abs(z[1])), z[i] / z[1]
            return g

        return opaque(lambda z: z[i] * math.log(abs(z[1])), 4, grad, label)

    def z1_at(z):
        lg = math.log(abs(z[1]))
        return np.array([[-lg, 0.0], [1.0, 0.0], [0.0, -lg], [0.0, 1.0]])

    chi = (coordinate(4, 0, "q1"), logged(0, "q1*log|q2|"),
           coordinate(4, 2, "p1"), logged(2, "p1*log|q2|"))
    return ConstraintSet(spec=spec, chi=chi, z1=z1_at, name="log")


def _engine(cs, at, tol=DEFAULT_TOL):
    """The irreducible system the second-order engine builds at ``at``."""
    return build_irreducible(full_artifacts(cs, at, tol), tol)


def _scalar_case(name):
    """(system, point, fundamental matrix among the coordinates, matrix M
    of the textbook bracket [f, g] - [f, chi] M [chi, g], whether the
    pair (q2, p2) is free) for one bracket formulation.  Rows of M beyond
    the M0 constraints belong to the Z2^T y constraints of the
    irreducible system, which commute with functions of z."""
    if name == "dirac1":
        # the lean order-1 reducible bracket
        cs = curved_first_order_system()
        at = sample_surface(cs, seed=2, count=1)[0]
        return (cs, at, fundamental_matrix_1(cs, at),
                first_order_artifacts(cs, at).m1, False)
    if name == "lift":
        # an order-1 system through the second-order engine
        cs = doubled_pair_system()
        at = sample_surface(cs, seed=4, count=1)[0]
        irs = _engine(cs, at)
        ext = irs.join(at, np.zeros(irs.dim_y))
        return (cs, at, fundamental_matrix_irred(irs, ext)[:4, :4],
                irs.c_delta_inv, True)
    cs = toy_system()
    at = sample_surface(cs, seed=0, count=1)[0]
    if name == "oracle":
        sel = independent_subset(cs, at)
        m = np.zeros((cs.m0, cs.m0))
        m[np.ix_(sel.indices, sel.indices)] = sel.cab_inv
        return cs, at, fundamental_matrix_oracle(cs, at), m, True
    if name == "irreducible":
        irs = _engine(cs, at)
        ext = irs.join(at, np.zeros(irs.dim_y))
        return (cs, at, fundamental_matrix_irred(irs, ext)[:4, :4],
                irs.c_delta_inv, True)
    mode = name.split("-", 1)[1]
    art = full_artifacts(cs, at)
    m = art.m2 if mode == "noninvertible" else art.mu2
    return cs, at, fundamental_matrix_2(cs, at, mode), m, True


# the ids name the bracket formulations: "dirac1" the order-1 reducible
# bracket, "dirac2-*" the order-2 reducible ones, "lift" the irreducible
# system of an order-1 system
@pytest.mark.parametrize("name", [
    "oracle", "dirac1", "dirac2-noninvertible", "dirac2-invertible",
    "irreducible", "lift",
])
def test_scalar_bracket_matches_matrix(name):
    # a scalar bracket is grad f @ F @ grad g: it must equal the textbook
    # formula built from Poisson brackets with the constraints
    cs, at, mat, m, free_pair = _scalar_case(name)
    rng = np.random.default_rng(11)
    dim = cs.spec.dim
    for _ in range(3):
        s, t = rng.standard_normal((2, dim, dim))
        f = quadratic(s + s.T, rng.standard_normal(dim))
        g = quadratic(t + t.T, rng.standard_normal(dim))
        pad = np.zeros(m.shape[0] - cs.m0)
        chi = cs.chi or function_rows(cs)
        f_chi = np.concatenate([[poisson_bracket(f, c, at, cs.spec)
                                 for c in chi], pad])
        chi_g = np.concatenate([[poisson_bracket(c, g, at, cs.spec)
                                 for c in chi], pad])
        textbook = poisson_bracket(f, g, at, cs.spec) - f_chi @ m @ chi_g
        value = f.gradient(at) @ mat @ g.gradient(at)
        scale = 1.0 + np.abs(f.gradient(at)).max() * np.abs(
            g.gradient(at)).max() * (1.0 + np.abs(mat).max())
        assert value == pytest.approx(textbook, abs=1e-12 * scale)
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
    f1 = fundamental_matrix_1(cs, at)
    f = coordinate(cs.spec.dim, 3)
    assert np.abs(cs.gradients(at).T @ f1 @ f.gradient(at)).max() < 1e-10


def test_lift_matches_reducible_and_oracle():
    # the engine's irreducible system of an order-1 system reproduces the
    # reducible bracket and the oracle at every point of a constant base
    cs = doubled_pair_system()
    pts = sample_surface(cs, seed=4, count=4)
    irs = _engine(cs, pts[0])
    assert irs.dim_y == cs.m1 and irs.c_delta.shape == (cs.m0, cs.m0)
    for at in pts:
        ext = irs.join(at, np.zeros(irs.dim_y))
        lifted = fundamental_matrix_irred(irs, ext)[:4, :4]
        direct = fundamental_matrix_1(cs, at)
        oracle = fundamental_matrix_oracle(cs, at)
        assert np.abs(lifted - direct).max() < 1e-9
        assert np.abs(lifted - oracle).max() < 1e-9
        inter = intermediate_bracket_matrix(irs, ext)[:4, :4]
        assert np.abs(inter - oracle).max() < 1e-9


@pytest.mark.parametrize("method", ["fundamental_matrix", "bracket_z",
                                    "bracket"])
def test_lift_honours_callers_tolerance(method):
    # every stage, from the artifacts to the bracket, uses the caller's tol
    cs = doubled_pair_system()
    off = sample_surface(cs, seed=8, count=1)[0]
    off[0] += 1e-9  # chi0 = q1 = 1e-9, beyond DEFAULT_TOL.surface
    ext = np.concatenate([off, np.zeros(cs.m1)])
    e1, e3 = np.eye(ext.size)[1], np.eye(ext.size)[3]
    calls = {
        "fundamental_matrix":
            lambda tol: fundamental_matrix_2(cs, off, "invertible", tol),
        "bracket_z": lambda tol: fundamental_matrix_irred(
            _engine(cs, off, tol), ext, tol)[1, 3],
        "bracket": lambda tol: e1 @ intermediate_bracket_matrix(
            _engine(cs, off, tol), ext, tol) @ e3,
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
        # a system built under the loose tolerance still checks the
        # extended point against the tolerance of each call
        with pytest.raises(OffSurfaceError):
            fundamental_matrix_irred(_engine(cs, off, loose), ext)


def test_lifted_constraints_vanish_with_matching_y():
    cs = doubled_pair_system()
    at = sample_surface(cs, seed=5, count=1)[0]
    irs = _engine(cs, at)
    y = np.array([0.3, -0.7])
    ext = irs.join(at, y)
    # chi = 0 on the surface and there are no Z2^T y rows, so
    # chi_tilde = a01 @ y exactly
    vals = irs.chi_tilde_values(ext)
    assert vals.shape == (cs.m0,)
    assert np.allclose(vals, irs.a01 @ y, atol=1e-12)
    grads = irs.chi_tilde_gradients(ext)
    assert np.linalg.matrix_rank(grads) == cs.m0


def test_lift_rank_condition_enforced():
    with pytest.raises(InvalidInputError, match="odd dimension 1"):
        # odd M1 has no invertible antisymmetric omega pair
        full_artifacts(duplicated_pair_system(), np.zeros(4))
    with pytest.raises(InvalidInputError, match="M1 = 1"):
        # nor a canonical pairing of the y fields
        build_irreducible(second_order_artifacts(duplicated_pair_system(),
                                                 np.zeros(4)))
    cs = doubled_pair_system()
    at = sample_surface(cs, seed=5, count=1)[0]
    # dependent Z1 columns admit no abar01 with abar01 Z1 = d11 = I
    dependent = replace(cs, z1=np.column_stack([cs.z1[:, 0], cs.z1[:, 0]]))
    with pytest.raises(NoSolutionError, match="eq_1qa"):
        full_artifacts(dependent, at)


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


@pytest.mark.parametrize("make", [duplicated_pair_system, doubled_pair_system,
                                  curved_first_order_system])
def test_engine_noninvertible_is_the_lean_bracket(make):
    # with M2 = 0 the engine forms the lean route's matrices, bit for bit
    cs = make()
    for at in sample_surface(cs, seed=3, count=3):
        assert np.array_equal(fundamental_matrix_2(cs, at, "noninvertible"),
                              fundamental_matrix_1(cs, at))


def test_engine_builds_curved_order_one_system_at_its_point():
    # point-valued Z1: the irreducible system holds at its build point
    cs = curved_first_order_system()
    for at in sample_surface(cs, seed=2, count=3):
        irs = _engine(cs, at)
        assert irs.report.passed
        f_irr = fundamental_matrix_irred(irs, irs.build_point)[:4, :4]
        oracle = fundamental_matrix_oracle(cs, at)
        assert np.abs(f_irr - oracle).max() < 1e-12 * (
            1.0 + np.abs(oracle).max())


@st.composite
def order_one_systems(draw):
    """A random affine order-1 system: 2N <= 12, even M1, and B with rows
    in null(Z1^T) and a bracket matrix of full rank M0 - M1."""
    n_pairs = draw(st.integers(1, 6))
    m1 = draw(st.sampled_from([2, 4]))
    n_ind = 2 * draw(st.integers(1, n_pairs))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    spec = PhaseSpec(n_pairs=n_pairs)
    m0 = n_ind + m1
    z1 = rng.standard_normal((m0, m1))
    b = null_basis(z1.T) @ rng.standard_normal((n_ind, spec.dim))
    assert rank_tol(b @ spec.poisson @ b.T) == n_ind
    return ConstraintSet.linear(spec, b, z1, name="random order-1")


@settings(max_examples=10)
@given(order_one_systems(), st.integers(0, 100))
def test_engine_serves_random_order_one_systems(cs, seed):
    at = sample_surface(cs, seed, 1)[0]
    assert np.array_equal(fundamental_matrix_1(cs, at),
                          fundamental_matrix_2(cs, at, "noninvertible"))
    art = full_artifacts(cs, at)
    irs = build_irreducible(art)
    failed = [r.name for r in irs.report.records if not r.passed]
    assert not failed
    oracle = fundamental_matrix_oracle(cs, at)
    bound = 1e-10 * (1.0 + np.abs(oracle).max())
    ext = irs.join(at, np.zeros(irs.dim_y))
    dim = cs.spec.dim
    for mat in (fundamental_matrix_2(cs, at, "invertible"),
                fundamental_matrix_irred(irs, ext)[:dim, :dim]):
        assert np.abs(mat - oracle).max() <= bound


def test_point_valued_z_is_read_only_at_the_certified_points():
    # the stages read M1 from Z1 at their own point; they used to read
    # cs.m1, which evaluates Z1 at the origin, outside this Z1's domain
    cs = log_first_order_system()
    for width in ("m1", "n_independent"):
        with pytest.raises(InvalidInputError, match="math domain error"):
            getattr(cs, width)
    points = sample_surface(cs, seed=1, count=3)
    assert validate(cs, points).passed
    at = points[0]
    oracle = fundamental_matrix_oracle(cs, at)
    irs = _engine(cs, at)
    ext = irs.join(at, np.zeros(irs.dim_y))
    for mat in (fundamental_matrix_1(cs, at),
                fundamental_matrix_2(cs, at, "noninvertible"),
                fundamental_matrix_2(cs, at, "invertible"),
                fundamental_matrix_irred(irs, ext)[:4, :4]):
        assert np.abs(mat - oracle).max() <= DEFAULT_TOL.weak_eq
    assert equivalence_report(irs, [irs.artifacts.point]).passed


@pytest.mark.parametrize("route", [
    fundamental_matrix_1,
    lambda cs, at: fundamental_matrix_2(cs, at, "noninvertible"),
    lambda cs, at: fundamental_matrix_2(cs, at, "invertible"),
], ids=["fm1", "fm2-noninvertible", "fm2-invertible"])
def test_each_route_evaluates_the_gradients_once(route, gradient_points):
    # the bracket reads the gradients its artifacts were built with; on
    # the curved system each evaluation calls the opaque gradients again
    cs = curved_first_order_system()
    at = sample_surface(cs, seed=0, count=1)[0]
    gradient_points.clear()
    route(cs, at)
    assert len(gradient_points) == 1
    assert np.array_equal(gradient_points[0], at)
