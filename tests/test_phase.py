import numpy as np
import pytest

from diracred import phase
from diracred.numerics import InvalidInputError
from diracred.phase import (
    PhaseSpec,
    affine,
    canonical_poisson,
    coordinate,
    gradient_fd,
    opaque,
    poisson_bracket,
    quadratic,
)


def test_phase_spec_defaults_and_labels():
    spec = PhaseSpec(n_pairs=2)
    assert spec.dim == 4
    assert np.allclose(spec.poisson, canonical_poisson(2))
    assert spec.default_labels() == ("q1", "q2", "p1", "p2")


def test_phase_spec_rejects_bad_poisson():
    with pytest.raises(InvalidInputError):
        PhaseSpec(n_pairs=1, poisson=np.eye(2))
    with pytest.raises(InvalidInputError):
        PhaseSpec(n_pairs=1, poisson=np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        PhaseSpec(n_pairs=1, poisson=canonical_poisson(2))


def test_phase_spec_checks_invertibility_of_a_given_poisson(monkeypatch):
    # the canonical matrix is invertible by construction and takes no
    # SVD; a given one is still checked
    j = np.zeros((4, 4))
    j[0, 1], j[1, 0] = 1.0, -1.0
    with pytest.raises(InvalidInputError, match="must be invertible"):
        PhaseSpec(n_pairs=2, poisson=j)
    calls = []
    real = phase.rank_tol
    monkeypatch.setattr(phase, "rank_tol",
                        lambda m: calls.append(m.shape) or real(m))
    PhaseSpec(n_pairs=100)
    assert calls == []
    PhaseSpec(n_pairs=2, poisson=canonical_poisson(2))
    assert calls == [(4, 4)]


def test_affine_value_and_gradient():
    f = affine([1.0, 2.0, 0.0, -1.0], c=0.5)
    z = np.array([1.0, 1.0, 3.0, 2.0])
    assert f(z) == pytest.approx(1 + 2 + 0 - 2 + 0.5)
    assert np.allclose(f.gradient(z), [1.0, 2.0, 0.0, -1.0])


def test_quadratic_value_and_gradient():
    q = np.array([[2.0, 1.0], [1.0, 0.0]])
    f = quadratic(q, b=[0.0, 1.0], c=-1.0)
    z = np.array([1.0, 2.0])
    assert f(z) == pytest.approx(0.5 * (2 + 2 + 2) + 2.0 - 1.0)
    assert np.allclose(f.gradient(z), q @ z + np.array([0.0, 1.0]))
    with pytest.raises(InvalidInputError):
        quadratic(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_opaque_finite_difference_gradient():
    f = opaque(lambda z: float(np.sin(z[0]) * z[1]), dim=2)
    z = np.array([0.3, 2.0])
    expected = np.array([np.cos(0.3) * 2.0, np.sin(0.3)])
    assert np.allclose(f.gradient(z), expected, atol=1e-8)
    # supplied gradient takes precedence over finite differences
    g = opaque(lambda z: z[0] ** 2, dim=1, grad=lambda z: np.array([7.0]))
    assert g.gradient(np.array([1.0]))[0] == 7.0


def test_gradient_fd_scaled_steps():
    grad = gradient_fd(lambda z: float(z[0] ** 2), np.array([1e4]))
    assert grad[0] == pytest.approx(2e4, rel=1e-6)


def test_canonical_brackets():
    spec = PhaseSpec(n_pairs=2)
    q1 = coordinate(4, 0)
    p1 = coordinate(4, 2)
    q2 = coordinate(4, 1)
    z = np.zeros(4)
    assert poisson_bracket(q1, p1, z, spec) == pytest.approx(1.0)
    assert poisson_bracket(p1, q1, z, spec) == pytest.approx(-1.0)
    assert poisson_bracket(q1, q2, z, spec) == pytest.approx(0.0)


def test_dimension_mismatch_rejected():
    spec = PhaseSpec(n_pairs=1)
    f = affine([1.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        poisson_bracket(f, f, np.zeros(2), spec)
    with pytest.raises(InvalidInputError):
        f(np.zeros(2))


@pytest.mark.parametrize("make", [
    lambda c: affine([1.0, 0.0], c=c),
    lambda c: quadratic(np.eye(2), c=c),
    lambda c: phase.PhaseFunction(kind="opaque", dim=2,
                                  evaluator=lambda z: 0.0, c=c),
], ids=["affine", "quadratic", "opaque"])
@pytest.mark.parametrize("c", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_constant_rejected(make, c):
    with pytest.raises(InvalidInputError, match="c contains non-finite"):
        make(c)
    assert make(-2.5).c == -2.5
