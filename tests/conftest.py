import numpy as np
import pytest
from hypothesis import settings

from diracred.constraints import ConstraintSet
from diracred.numerics import DEFAULT_TOL
from diracred.threeform import paper_choices_artifacts, run_threeform_checks
from lattice_reference import dense_threeform

# Property tests draw the same examples on every run (derandomize) and
# carry no per-example deadline, so a slow shared host cannot fail them.
settings.register_profile(
    "diracred", deadline=None, derandomize=True, max_examples=20
)
settings.load_profile("diracred")


class DenseThreeforms(dict):
    """Dense full-lattice three-form references, keyed by lattice:
    (system, engine irreducible system, engine report, paper-choices
    report).  They are the slowest objects the suite builds, so one
    session builds each once."""

    def build(self, lat):
        """Build the reference afresh and keep it, whatever is cached."""
        sys = dense_threeform(lat)
        irs, rep = run_threeform_checks(sys, DEFAULT_TOL)
        _, prep = paper_choices_artifacts(sys, DEFAULT_TOL, engine=irs)
        self[lat] = (sys, irs, rep, prep)
        return self[lat]

    def __call__(self, lat):
        return self[lat] if lat in self else self.build(lat)


@pytest.fixture(scope="session")
def dense():
    return DenseThreeforms()


@pytest.fixture
def svd_args(monkeypatch):
    """Every matrix or stack numpy.linalg.svd is called on, in call order:
    the dense factorisations a call makes, counted by shape or value."""
    seen = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        seen.append(np.asarray(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return seen


@pytest.fixture
def inv_args(monkeypatch):
    """Every matrix or stack numpy.linalg.inv is called on, in call order:
    the completions the chain inverts, counted by shape or value."""
    seen = []
    inv = np.linalg.inv

    def counting(a, *args, **kwargs):
        seen.append(np.asarray(a))
        return inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return seen


@pytest.fixture
def gradient_points(monkeypatch):
    """Every point ConstraintSet.gradients is evaluated at, in call order."""
    seen = []
    gradients = ConstraintSet.gradients

    def counting(self, at):
        seen.append(at)
        return gradients(self, at)

    monkeypatch.setattr(ConstraintSet, "gradients", counting)
    return seen
