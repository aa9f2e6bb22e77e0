"""Every public entry point that takes a point or a state refuses a bad one
with the package's own error: a wrong shape or a non-finite entry with
InvalidInputError, a point off its surface (chi = 0, or chi_tilde = 0 for
an extended point) with OffSurfaceError, a Hamiltonian of another
dimension with InvalidInputError.  No numpy or Python error escapes."""

import numpy as np
import pytest

from diracred.constraints import (
    ConstraintSet,
    OffSurfaceError,
    duplicated_pair_system,
    project_to_surface,
    sample_surface,
    synth_linear,
    toy_system,
    validate,
)
from diracred.first_order import first_order_artifacts, fundamental_matrix_1
from diracred.irreducible import (
    build_irreducible,
    eom_step,
    equivalence_report,
    evolve,
    fundamental_matrix_irred,
    intermediate_bracket_matrix,
)
from diracred.numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    Tolerance,
    symplectic_block,
)
from diracred.oracle import fundamental_matrix_oracle, independent_subset
from diracred.phase import (
    canonical_poisson,
    coordinate,
    poisson_bracket,
    quadratic,
)
from diracred.second_order import (
    full_artifacts,
    fundamental_matrix_2,
    second_order_artifacts,
)
from diracred.report import COUNT_TOL
from lattice_reference import block
from test_oracle_stack import stack_of

TOY = toy_system()
DUP = duplicated_pair_system()
AT = {cs.name: sample_surface(cs, seed=0, count=1)[0] for cs in (TOY, DUP)}
IRS = build_irreducible(full_artifacts(TOY, AT["toy"]))
EXT = IRS.join(AT["toy"], np.zeros(IRS.dim_y))

# entry point -> (system, call on a point); the off-surface case applies
# to those that certify at the point
POINT_ENTRIES = {
    "ConstraintSet.point": (TOY, lambda cs, z: cs.point(z)),
    "ConstraintSet.values": (TOY, lambda cs, z: cs.values(z)),
    "ConstraintSet.gradients": (TOY, lambda cs, z: cs.gradients(z)),
    "ConstraintSet.require_on_surface":
        (TOY, lambda cs, z: cs.require_on_surface(z, DEFAULT_TOL)),
    "poisson_bracket": (TOY, lambda cs, z: poisson_bracket(
        coordinate(4, 0), coordinate(4, 2), z, cs.spec)),
    "project_to_surface": (TOY, project_to_surface),
    "validate": (TOY, lambda cs, z: validate(cs, [z])),
    "independent_subset": (TOY, independent_subset),
    "fundamental_matrix_oracle": (TOY, fundamental_matrix_oracle),
    "second_order_artifacts": (TOY, second_order_artifacts),
    "full_artifacts": (TOY, full_artifacts),
    "fundamental_matrix_2 noninvertible":
        (TOY, lambda cs, z: fundamental_matrix_2(cs, z, "noninvertible")),
    "fundamental_matrix_2 invertible":
        (TOY, lambda cs, z: fundamental_matrix_2(cs, z, "invertible")),
    "equivalence_report":
        (TOY, lambda cs, z: equivalence_report(IRS, [z])),
    "first_order_artifacts": (DUP, first_order_artifacts),
    "fundamental_matrix_1": (DUP, fundamental_matrix_1),
}
SURFACE_FREE = {"ConstraintSet.point", "ConstraintSet.values",
                "ConstraintSet.gradients", "poisson_bracket",
                "project_to_surface"}

H = quadratic(np.eye(4))
STATE_ENTRIES = {
    "IrreducibleSystem.split": lambda s, h: IRS.split(s),
    "IrreducibleSystem.chi_tilde_values":
        lambda s, h: IRS.chi_tilde_values(s),
    "IrreducibleSystem.chi_tilde_gradients":
        lambda s, h: IRS.chi_tilde_gradients(s),
    "IrreducibleSystem.require_on_surface":
        lambda s, h: IRS.require_on_surface(s, DEFAULT_TOL),
    "fundamental_matrix_irred":
        lambda s, h: fundamental_matrix_irred(IRS, s),
    "intermediate_bracket_matrix":
        lambda s, h: intermediate_bracket_matrix(IRS, s),
    "eom_step": lambda s, h: eom_step(IRS, h, s, 0.01),
    "evolve": lambda s, h: evolve(IRS, h, s, 0.01, 3),
}
ON_CHI_TILDE = {"IrreducibleSystem.require_on_surface",
                "fundamental_matrix_irred", "intermediate_bracket_matrix"}


# inputs that are no array of numbers at all: numpy used to raise its own
# ValueError or TypeError on them
NOT_NUMERIC = {"text": "abc", "ragged": [[1.0, 2.0], [3.0]],
               "mapping": {"a": 1}}


def _bad(point, case):
    """The point made bad in one way: a coordinate dropped, a NaN entry,
    q1 moved off the surface (every system here constrains q1), or no
    numeric array at all (NOT_NUMERIC)."""
    if case in NOT_NUMERIC:
        return NOT_NUMERIC[case]
    if case == "shape":
        return point[:-1]
    bad = point.copy()
    bad[0] = np.nan if case == "nan" else bad[0] + 1e-3
    return bad


ERRORS = {"shape": InvalidInputError, "nan": InvalidInputError,
          "off": OffSurfaceError,
          **dict.fromkeys(NOT_NUMERIC, InvalidInputError)}


@pytest.mark.parametrize("entry,case", [
    (entry, case) for entry in POINT_ENTRIES for case in ERRORS
    if case != "off" or entry not in SURFACE_FREE])
def test_point_entries_refuse_bad_points(entry, case):
    cs, call = POINT_ENTRIES[entry]
    call(cs, AT[cs.name])  # the good point passes
    with pytest.raises(ERRORS[case]):
        call(cs, _bad(AT[cs.name], case))


# builders called with good arguments, and with bad ones that name the
# argument they refuse; these used to raise a builtin TypeError or
# IndexError, blame another argument, or wrap a negative index
GOOD_ARGUMENTS = {
    "synth_linear": lambda: synth_linear(10, 12, 8, 2, seed=np.int64(0)),
    "synth_linear smallest": lambda: synth_linear(1, 2, 2, 2, seed=0),
    "symplectic_block(0)": lambda: symplectic_block(0),
    "symplectic_block": lambda: symplectic_block(np.int64(4)),
    "canonical_poisson": lambda: canonical_poisson(1),
    "coordinate first": lambda: coordinate(4, 0),
    "coordinate last": lambda: coordinate(4, np.int64(3)),
    "Tolerance": lambda: Tolerance(rank_rel=1e-11, weak_eq=np.float64(1e-7),
                                   surface=1e-9),
}
BAD_ARGUMENTS = [
    ("synth_linear", lambda: synth_linear(10, 12.0, 8, 2, seed=0), "m0"),
    ("synth_linear", lambda: synth_linear(10, 12, 0, 2, seed=0), "m1"),
    ("synth_linear", lambda: synth_linear(10, 12, 8, True, seed=0), "m2"),
    ("synth_linear", lambda: synth_linear(0, 4, 2, 2, seed=0), "n_pairs"),
    ("synth_linear", lambda: synth_linear(1.5, 4, 2, 2, seed=0), "n_pairs"),
    ("symplectic_block", lambda: symplectic_block(4.0), "n"),
    ("symplectic_block", lambda: symplectic_block(-2), "n"),
    ("canonical_poisson", lambda: canonical_poisson(1.0), "n_pairs"),
    ("canonical_poisson", lambda: canonical_poisson(0), "n_pairs"),
    ("coordinate", lambda: coordinate(4, 7), "index"),
    ("coordinate", lambda: coordinate(4, 4), "index"),
    ("coordinate", lambda: coordinate(4, -1), "index"),
    ("coordinate", lambda: coordinate(4.0, 1), "spec_dim"),
    ("coordinate", lambda: coordinate(0, 0), "spec_dim"),
    ("Tolerance", lambda: Tolerance(rank_rel="a"), "rank_rel"),
    ("Tolerance", lambda: Tolerance(surface=None), "surface"),
]


@pytest.mark.parametrize("entry", GOOD_ARGUMENTS)
def test_builders_take_good_arguments(entry):
    GOOD_ARGUMENTS[entry]()


@pytest.mark.parametrize("entry,call,argument", BAD_ARGUMENTS,
                         ids=[f"{e}-{a}-{i}" for i, (e, _, a)
                              in enumerate(BAD_ARGUMENTS)])
def test_builders_refuse_bad_arguments(entry, call, argument):
    with pytest.raises(InvalidInputError, match=f"^{argument} must"):
        call()


@pytest.mark.parametrize("entry,case", [
    (entry, case) for entry in STATE_ENTRIES
    for case in (*ERRORS, "hamiltonian")
    if (case != "off" or entry in ON_CHI_TILDE)
    and (case != "hamiltonian" or entry in ("eom_step", "evolve"))])
def test_state_entries_refuse_bad_states(entry, case):
    call = STATE_ENTRIES[entry]
    call(EXT, H)  # the good state passes
    if case == "hamiltonian":
        # the wrong dimension used to end in numpy's matmul in eom_step
        with pytest.raises(InvalidInputError, match="dimension"):
            call(EXT, quadratic(np.eye(6)))
    else:
        with pytest.raises(ERRORS[case]):
            call(_bad(EXT, case), H)


def _scaled_stack(cs, scales):
    """Copies of a linear system with B scaled, as one stack."""
    b, _ = cs.affine_matrix()
    return stack_of([ConstraintSet.linear(cs.spec, s * b, cs.z1, cs.z2)
                     for s in scales])


@pytest.mark.parametrize("entry", [
    "fundamental_matrix_1", "fundamental_matrix_2 noninvertible",
    "fundamental_matrix_2 invertible"])
def test_stack_point_gives_each_block_its_own_matrix(entry):
    # these used to build the stacked artifacts and then refuse the point
    one, call = POINT_ENTRIES[entry]
    stack = (_scaled_stack(DUP, (1.0, 2.0, -0.5)) if one is DUP
             else stack_of([synth_linear(4, 8, 4, 2, s) for s in (1, 2, 3)]))
    at = sample_surface(stack, seed=2, count=1)[0]
    got = call(stack, at)
    assert got.shape == stack.batch + (stack.spec.dim,) * 2
    for i in range(len(at)):
        assert np.array_equal(got[i], call(block(stack, i), at[i]))
    # a point for one system is not a stack's point
    with pytest.raises(InvalidInputError):
        call(stack, at[0])


STACK = stack_of([synth_linear(4, 8, 4, 2, s) for s in (1, 2, 3)])
STACK_AT = sample_surface(STACK, seed=2, count=1)[0]
STACK_IRS = build_irreducible(full_artifacts(STACK, STACK_AT))


def test_validate_on_a_stack_gives_each_block_its_own_records():
    # this used to end in a builtin TypeError, from float() of eq_11x's
    # per-block residuals
    points = sample_surface(STACK, seed=0, count=2)
    rep = validate(STACK, points)
    assert rep.blocks == STACK.blocks
    for i in range(len(STACK.blocks)):
        one = validate(block(STACK, i), [p[i] for p in points])
        assert [r.name for r in one.records] == [r.name for r in rep.records]
        for r, mine in zip(rep.records, one.records):
            if r.tolerance == COUNT_TOL:
                assert r.per_block[i] == mine.residual
            else:
                assert abs(r.per_block[i] - mine.residual) <= 1e-14


ONE_SYSTEM = {
    "equivalence_report": lambda irs, h: equivalence_report(irs, [STACK_AT]),
    "eom_step": lambda irs, h: eom_step(irs, h, irs.build_point, 0.01),
    "evolve": lambda irs, h: evolve(irs, h, irs.build_point, 0.01, 3),
}


@pytest.mark.parametrize("entry", ONE_SYSTEM)
def test_one_system_entries_refuse_a_stack(entry):
    # these used to end in numpy's einsum or matmul ValueError
    with pytest.raises(InvalidInputError, match=f"{entry} takes one system"):
        ONE_SYSTEM[entry](STACK_IRS, quadratic(np.eye(STACK.spec.dim)))


def test_stack_intermediate_matrix_gives_each_block_its_own():
    got = intermediate_bracket_matrix(STACK_IRS, STACK_IRS.build_point)
    for i, at in enumerate(STACK_AT):
        one = build_irreducible(full_artifacts(block(STACK, i), at))
        assert np.array_equal(
            got[i], intermediate_bracket_matrix(one, one.build_point))
