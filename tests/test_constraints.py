import dataclasses
import json

import numpy as np
import pytest

from diracred.constraints import (
    ConstraintSet,
    OffSurfaceError,
    _array_field,
    curved_first_order_system,
    duplicated_pair_system,
    load_system,
    project_to_surface,
    sample_surface,
    save_system,
    synth_linear,
    toy_system,
    validate,
)
from diracred.numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    pseudoinverse,
    rank_tol,
)
from diracred.phase import PhaseSpec, affine
from diracred.report import CheckReport
from lattice_reference import block


def test_toy_system_counts_and_validation():
    cs = toy_system()
    assert (cs.m0, cs.m1, cs.m2) == (6, 6, 2)
    assert cs.n_independent == 2
    pts = sample_surface(cs, seed=0, count=5)
    rep = validate(cs, pts)
    assert rep.passed
    assert rep.residuals["eq_2"] < 1e-10
    assert rep.residuals["eq_11x"] < 1e-10
    assert rep.residuals["eq_11d_rank"] == 0.0


def test_validate_needs_a_point():
    cs = toy_system()
    for points in ([], np.empty((0, cs.spec.dim))):
        with pytest.raises(InvalidInputError, match="at least one point"):
            validate(cs, points)


def test_duplicated_pair_first_order():
    cs = duplicated_pair_system()
    assert cs.order == 1
    assert cs.n_independent == 2
    pts = sample_surface(cs, seed=1, count=4)
    rep = validate(cs, pts)
    assert rep.passed
    assert "eq_11x" not in rep.residuals


def test_curved_system_point_dependent_z1():
    cs = curved_first_order_system()
    pts = sample_surface(cs, seed=2, count=4)
    rep = validate(cs, pts)
    assert rep.passed
    z1a = cs.z1_at(pts[0])
    z1b = cs.z1_at(pts[1])
    assert not np.allclose(z1a, z1b)


def test_synth_linear_seeded_and_valid():
    cs = synth_linear(10, 12, 8, 2, seed=5)
    assert (cs.m0, cs.m1, cs.m2) == (12, 8, 2)
    assert cs.n_independent == 6
    pts = sample_surface(cs, seed=0, count=10)
    assert validate(cs, pts).passed
    again = synth_linear(10, 12, 8, 2, seed=5)
    b1, c1 = cs.affine_matrix()
    b2, c2 = again.affine_matrix()
    assert np.array_equal(b1, b2) and np.array_equal(c1, c2)


def test_synth_linear_rejects_bad_counts():
    with pytest.raises(InvalidInputError):
        synth_linear(10, 8, 12, 2, seed=0)  # m1 > m0
    with pytest.raises(InvalidInputError):
        synth_linear(10, 12, 7, 2, seed=0)  # odd m1
    with pytest.raises(InvalidInputError):
        synth_linear(2, 12, 8, 2, seed=0)  # too few pairs


def test_projection_and_surface_guard():
    cs = toy_system()
    z = np.array([1.0, 2.0, -1.0, 0.5])
    on = project_to_surface(cs, z)
    assert cs.surface_residual(on) <= DEFAULT_TOL.surface
    # the free pair (q2, p2) is untouched by the projection
    assert on[1] == pytest.approx(2.0)
    assert on[3] == pytest.approx(0.5)
    with pytest.raises(OffSurfaceError):
        cs.require_on_surface(z, DEFAULT_TOL)


def test_sample_surface_deterministic():
    cs = toy_system()
    a = sample_surface(cs, seed=7, count=3)
    b = sample_surface(cs, seed=7, count=3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_save_load_round_trip(tmp_path):
    # every array comes back bit for bit, on order 1 and order 2, with a
    # non-canonical Poisson matrix and, planted in B, values a decimal
    # writer could lose: -0.0, a subnormal and +-1e308
    base = synth_linear(6, 8, 4, 2, seed=1)
    rng = np.random.default_rng(3)
    q = rng.standard_normal((12, 12))
    spec = PhaseSpec(n_pairs=6, poisson=q @ base.spec.poisson @ q.T)
    b = base.affine_matrix()[0]
    b[0, :4] = [-0.0, 5e-324, 1e308, -1e308]
    chi = tuple(affine(row, c) for row, c in zip(b, rng.standard_normal(8)))
    path = tmp_path / "sys.json"
    for z2 in (None, base.z2):
        cs = ConstraintSet(spec=spec, chi=chi, z1=base.z1, z2=z2)
        save_system(cs, path)
        back = load_system(path)
        assert (back.order, back.m0, back.m1, back.m2) == (
            cs.order, cs.m0, cs.m1, cs.m2)
        for x, y in zip((*cs.affine_matrix(), cs.z1, cs.z2_at(None),
                         cs.spec.poisson),
                        (*back.affine_matrix(), back.z1, back.z2_at(None),
                         back.spec.poisson)):
            assert x.shape == y.shape
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    # a decoded field is an owned, writeable copy, as a list field is
    z1 = _array_field(json.loads(path.read_text())["Z1"], "Z1")
    assert z1.flags.owndata and z1.flags.writeable


def test_load_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_system(bad)
    bad.write_text('{"n_pairs": 2}')
    with pytest.raises(InvalidInputError):
        load_system(bad)
    with pytest.raises(InvalidInputError):
        load_system(tmp_path / "absent.json")


def test_constraint_set_structure_checks():
    spec = PhaseSpec(n_pairs=1)
    chi = (affine([1.0, 0.0]),)
    with pytest.raises(InvalidInputError):
        ConstraintSet(spec=spec, chi=chi, z1=np.ones((2, 1)))


def _per_function(cs, z):
    """Values and gradient matrix evaluated one constraint at a time."""
    values = np.array([f(z) for f in cs.chi])
    gradients = np.column_stack([f.gradient(z) for f in cs.chi])
    return values, gradients


def _shifted_toy():
    """The toy system on the surface q1 = 1, p1 = -2 (nonzero c)."""
    toy = toy_system()
    chi = tuple(affine(f.b, c=-1.0 if i < 3 else 2.0)
                for i, f in enumerate(toy.chi))
    return ConstraintSet(spec=toy.spec, chi=chi, z1=toy.z1, z2=toy.z2)


@pytest.mark.parametrize("cs", [
    toy_system(),
    _shifted_toy(),
    synth_linear(10, 12, 8, 2, seed=3),
    synth_linear(100, 150, 60, 10, seed=0),
])
def test_native_affine_arithmetic_matches_per_function_loop(cs):
    rng = np.random.default_rng(11)
    b, c = cs.affine_matrix()
    z = sample_surface(cs, seed=2, count=1)[0]
    for at in (z, z + rng.standard_normal(cs.spec.dim), 1e3 * z):
        vals_ref, grads_ref = _per_function(cs, at)
        # B z sums in another order than the per-function dot products:
        # relative to the summed magnitudes, both are exact to 1e-12
        terms = 1.0 + np.abs(b) @ np.abs(at) + np.abs(c)
        assert np.all(np.abs(cs.values(at) - vals_ref) <= 1e-12 * terms)
        assert np.array_equal(cs.gradients(at), grads_ref)
    # the returned arrays are copies of the stored (B, c)
    b[:] = 0.0
    c[:] = 1.0
    assert np.array_equal(cs.gradients(z), grads_ref)
    assert cs.surface_residual(z) <= DEFAULT_TOL.surface


def test_constant_detected_from_structure():
    toy = toy_system()
    assert toy.is_affine and toy.is_constant
    assert duplicated_pair_system().is_constant
    curved = curved_first_order_system()
    assert not curved.is_affine and not curved.is_constant
    # affine chi with a point-valued Z1 is not constant
    mapped = ConstraintSet(spec=toy.spec, chi=toy.chi,
                           z1=lambda z: toy.z1, z2=toy.z2)
    assert mapped.is_affine and not mapped.is_constant


def test_sample_surface_factors_affine_matrix_once(monkeypatch):
    import diracred.constraints as con

    calls = []

    def counting(m, tol=DEFAULT_TOL):
        calls.append(m.shape)
        return pseudoinverse(m, tol)

    monkeypatch.setattr(con, "pseudoinverse", counting)
    cs = synth_linear(10, 12, 8, 2, seed=1)
    pts = sample_surface(cs, seed=0, count=6)
    pts += [project_to_surface(cs, 3.0 * pts[0] + 1.0)]
    assert calls == [(cs.m0, cs.spec.dim)]
    assert max(cs.surface_residual(p) for p in pts) <= DEFAULT_TOL.surface
    # opaque constraints still take a Gauss-Newton step per iterate
    calls.clear()
    sample_surface(curved_first_order_system(), seed=0, count=2)
    assert len(calls) >= 2


@pytest.mark.parametrize("make, per_point", [
    (lambda: synth_linear(10, 12, 8, 2, seed=3), False),
    (curved_first_order_system, True),
], ids=["synth_linear", "curved"])
def test_validate_ranks_c_once_on_affine_system(svd_args, make, per_point):
    cs = make()
    pts = sample_surface(cs, seed=0, count=4)
    # the per-point rank deviation, as validate took it at every point
    c_at = [cs.gradients(p).T @ cs.spec.poisson @ cs.gradients(p)
            for p in pts]
    expected = max(abs(rank_tol(c) - cs.n_independent) for c in c_at)
    svd_args.clear()
    rep = validate(cs, pts)
    # C is factored once on affine chi, else at every point (in one stack)
    c_factored = sum(a.size // cs.m0 ** 2 for a in svd_args
                     if a.shape[-2:] == (cs.m0, cs.m0))
    assert c_factored == (len(pts) if per_point else 1)
    assert rep.residuals["eq_11d_rank"] == expected
    assert rep.passed
    # a second validate on the same system factors no C afresh
    svd_args.clear()
    validate(cs, pts)
    assert any(a.shape[-2:] == (cs.m0, cs.m0)
               for a in svd_args) == per_point


def _scaled_column(z_at, column):
    """z_at with the given column scaled by max(0, q2) at each point."""
    def scaled(z):
        out = np.array(z_at(z), dtype=float)
        out[:, column] *= max(0.0, z[1])
        return out
    return scaled


@pytest.mark.parametrize("which", ["z1", "z2"])
def test_validate_ranks_point_valued_z_at_every_point(which):
    # Z1 (curved system) or Z2 (toy) with one column scaled by max(0, q2):
    # the chain still holds, but the rank drops where q2 < 0, which the
    # first sampled point does not show
    if which == "z1":
        base = curved_first_order_system()
        cs = dataclasses.replace(base, z1=_scaled_column(base.z1_at, 1))
    else:
        base = toy_system()
        cs = dataclasses.replace(base, z2=_scaled_column(base.z2_at, 1))
    pts = sample_surface(cs, seed=1, count=5)
    q2 = np.array([p[1] for p in pts])
    assert q2[0] > 0 and (q2 < 0).any()
    rep = validate(cs, pts)
    assert rep.residuals[f"{which}_rank"] == 1.0
    assert not rep.checks[f"{which}_rank"]
    assert rep.residuals["eq_2"] < 1e-10
    # at the first point alone the rank is full
    assert validate(cs, pts[:1]).passed


def test_stored_arrays_are_read_only_and_the_cache_per_set():
    cs = synth_linear(10, 12, 8, 2, seed=7)
    for stored in (cs.z1, cs.z2, cs._affine[0], cs._affine[1]):
        with pytest.raises(ValueError):
            stored[0] = 1.0
    # the caller's arrays are copied, not frozen
    b, z1, z2 = cs.affine_matrix()[0], cs.z1.copy(), cs.z2.copy()
    lin = ConstraintSet.linear(cs.spec, b, z1, z2, "lin", ())
    b[0, 0] = z1[0, 0] = z2[0, 0] = 5.0
    assert lin.affine_matrix()[0][0, 0] != 5.0
    assert lin.z1[0, 0] != 5.0 and lin.z2[0, 0] != 5.0
    # a set made by replace starts with an empty cache
    validate(cs, sample_surface(cs, seed=0, count=2))
    assert cs._cache
    other = dataclasses.replace(cs, z1=2.0 * cs.z1)
    assert other._cache == {}
    assert other.factors("z1", other.z1, DEFAULT_TOL).rank == cs.m1 - cs.m2


def test_sample_surface_caches_points_on_constant_systems():
    cs = synth_linear(10, 12, 8, 2, seed=7)
    first = sample_surface(cs, seed=4, count=3)
    first[0][:] = 9.0  # a caller's copy; the cache keeps its own
    again = sample_surface(cs, seed=4, count=3)
    fresh = sample_surface(synth_linear(10, 12, 8, 2, seed=7), 4, 3)
    assert all(np.array_equal(a, f) for a, f in zip(again, fresh))
    assert again[0] is not sample_surface(cs, seed=4, count=3)[0]
    # only the last draw is kept, so a long-lived system sampled with
    # many seeds does not grow
    for seed in range(5):
        sample_surface(cs, seed, 1)
    assert len(cs._cache["points", DEFAULT_TOL]) == 1
    assert sum(key[0] == "points" for key in cs._cache) == 1


@pytest.mark.parametrize("make", [toy_system, duplicated_pair_system])
def test_validate_returns_check_report(make):
    cs = make()
    rep = validate(cs, sample_surface(cs, seed=0, count=3))
    assert isinstance(rep, CheckReport)
    assert rep.passed
    counts = {"eq_11d_rank", "z1_rank", "z2_rank"}
    for r in rep.records:
        want = 0.5 if r.name in counts else DEFAULT_TOL.weak_eq
        assert r.tolerance == want, r.name
    assert dict(rep.checks) == {r.name: r.passed for r in rep.records}
    with pytest.raises(TypeError):
        rep.residuals["eq_2"] = 0.0


def test_linear_stack_is_its_systems_side_by_side():
    toy = toy_system()
    b, _ = toy.affine_matrix()
    scales = np.array([1.0, 2.0, -0.5])
    stack = ConstraintSet.linear(
        toy.spec, scales[:, None, None] * b, np.stack([toy.z1] * 3),
        np.stack([toy.z2] * 3), name="toys", blocks=("a", "b", "c"))
    assert (stack.batch, stack.m0, stack.m1, stack.m2) == ((3,), 6, 6, 2)
    z = np.random.default_rng(0).standard_normal((3, toy.spec.dim))
    for i in range(3):
        one = block(stack, i)
        assert one.name == f"toys {'abc'[i]}" and one.batch == ()
        assert np.array_equal(stack.values(z)[i], one.values(z[i]))
        assert np.array_equal(stack.gradients(z)[i], one.gradients(z[i]))
    points = sample_surface(stack, seed=1, count=1)[0]
    assert points.shape == (3, toy.spec.dim)
    assert np.abs(stack.values(points)).max() < 1e-12
    with pytest.raises(InvalidInputError):
        stack.point(np.zeros(toy.spec.dim))
    with pytest.raises(InvalidInputError):
        # one label per system
        ConstraintSet.linear(toy.spec, np.stack([b] * 2),
                             np.stack([toy.z1] * 2), None, "toys", ("a",))
