"""Irreducible treatment of reducible second-class constraint systems.

The package converts a set of second-class constraints with up to two
levels of dependencies into an equivalent irreducible set on an enlarged
phase space, builds the Dirac bracket in four formulations (independent
subset, reducible noninvertible, reducible invertible, irreducible) and
certifies numerically that they agree weakly.
"""

from .numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    NoSolutionError,
    Tolerance,
    null_basis,
    pseudoinverse,
    rank_tol,
    skew_solve,
    symplectic_block,
)
from .phase import (
    PhaseFunction,
    PhaseSpec,
    affine,
    canonical_poisson,
    coordinate,
    opaque,
    poisson_bracket,
    quadratic,
)
from .constraints import (
    ConstraintSet,
    OffSurfaceError,
    ProjectionError,
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
from .first_order import (
    FirstOrderArtifacts,
    first_order_artifacts,
    fundamental_matrix_1,
)
from .second_order import (
    SecondOrderArtifacts,
    full_artifacts,
    fundamental_matrix_2,
    mu_pair,
    omega_tilde_pair,
    second_order_artifacts,
)
from .irreducible import (
    BuildPointError,
    IrreducibleSystem,
    build_irreducible,
    eom_step,
    equivalence_report,
    evolve,
    fundamental_matrix_irred,
    intermediate_bracket_matrix,
)
from .oracle import (
    DegenerateSystemError,
    SubsetSelection,
    fundamental_matrix_oracle,
    independent_subset,
)
from .threeform import (
    LatticeSpec,
    ThreeFormSystem,
    build_threeform,
    certify_lattice,
    chi_tilde_printed,
    closed_form_projector,
    pair_projector,
    paper_choices_artifacts,
    run_threeform_checks,
)
from .report import CheckRecord, CheckReport

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "InvalidInputError",
    "NoSolutionError",
    "Tolerance",
    "null_basis",
    "pseudoinverse",
    "rank_tol",
    "skew_solve",
    "symplectic_block",
    "PhaseFunction",
    "PhaseSpec",
    "affine",
    "canonical_poisson",
    "coordinate",
    "opaque",
    "poisson_bracket",
    "quadratic",
    "ConstraintSet",
    "OffSurfaceError",
    "ProjectionError",
    "curved_first_order_system",
    "duplicated_pair_system",
    "load_system",
    "project_to_surface",
    "sample_surface",
    "save_system",
    "synth_linear",
    "toy_system",
    "validate",
    "FirstOrderArtifacts",
    "first_order_artifacts",
    "fundamental_matrix_1",
    "SecondOrderArtifacts",
    "full_artifacts",
    "fundamental_matrix_2",
    "mu_pair",
    "omega_tilde_pair",
    "second_order_artifacts",
    "BuildPointError",
    "IrreducibleSystem",
    "build_irreducible",
    "eom_step",
    "equivalence_report",
    "evolve",
    "fundamental_matrix_irred",
    "intermediate_bracket_matrix",
    "DegenerateSystemError",
    "SubsetSelection",
    "fundamental_matrix_oracle",
    "independent_subset",
    "LatticeSpec",
    "ThreeFormSystem",
    "build_threeform",
    "certify_lattice",
    "chi_tilde_printed",
    "closed_form_projector",
    "pair_projector",
    "paper_choices_artifacts",
    "run_threeform_checks",
    "CheckRecord",
    "CheckReport",
]
