import numpy as np
import pytest

from diracred.constraints import sample_surface, validate
from diracred.second_order import second_order_artifacts
from diracred.numerics import DEFAULT_TOL, InvalidInputError, rank_tol
from diracred.threeform import (
    LatticeSpec,
    build_threeform,
    chi_tilde_printed,
    closed_form_projector,
    pair_projector,
    paper_choices_artifacts,
    run_threeform_checks,
)


def test_lattice_spec_validation():
    with pytest.raises(InvalidInputError):
        LatticeSpec(d=2, L=4)
    with pytest.raises(InvalidInputError):
        LatticeSpec(d=3, L=2)
    with pytest.raises(InvalidInputError):
        LatticeSpec(d=3, L=3, derivative="bogus")
    with pytest.raises(InvalidInputError):
        # spectral antisymmetric derivatives need odd L
        LatticeSpec(d=3, L=4, derivative="spectral")
    lat = LatticeSpec(d=3, L=4)
    assert lat.sites == 64
    assert lat.modes == 63


def test_build_counts_d3_l4():
    sys = build_threeform(LatticeSpec(d=3, L=4))
    m = 63
    assert sys.m == m
    assert sys.cs.spec.dim == 2 * 1 * m  # one A component per mode
    assert sys.cs.m0 == 2 * 3 * m
    assert sys.cs.m1 == 2 * 3 * m
    assert sys.cs.m2 == 2 * m
    assert sys.cs.n_independent == 2 * m


def test_build_counts_d4_l3():
    sys = build_threeform(LatticeSpec(d=4, L=3))
    m = 80
    assert sys.cs.spec.dim == 2 * 4 * m  # C(4,3) = 4 components
    # per-mode counts M0 = 2 C(d,2) = 12, M1 = 2d = 8, M2 = 2
    assert sys.cs.m0 == 12 * m
    assert sys.cs.m1 == 8 * m
    assert sys.cs.m2 == 2 * m
    assert sys.cs.n_independent == 6 * m


def test_exact_reducibility_chain():
    sys = build_threeform(LatticeSpec(d=3, L=3))
    z1, z2 = sys.cs.z1, sys.cs.z2
    b, _ = sys.cs.affine_matrix()
    assert np.abs(z1.T @ b).max() < 1e-13
    assert np.abs(z1 @ z2).max() < 1e-13
    pts = sample_surface(sys.cs, seed=0, count=2)
    assert validate(sys.cs, pts).passed


def test_closed_form_projector_idempotent_and_trace():
    for spec in (LatticeSpec(d=3, L=4), LatticeSpec(d=4, L=3)):
        sys = build_threeform(spec)
        d30 = closed_form_projector(sys)
        assert np.abs(d30 @ d30 - d30).max() < 1e-9
        n_phys = sys.cs.spec.n_pairs - sys.cs.n_independent // 2
        assert np.trace(d30) == pytest.approx(n_phys, abs=1e-8)
        if n_phys == 0:
            # relative rank cutoffs are meaningless on an all-noise
            # matrix, so check the norm instead
            assert np.abs(d30).max() < 1e-12
        else:
            assert rank_tol(d30) == n_phys


def test_projector_symbol_value_d3():
    # d = 3 has a single A component; the symbol-space reduction of the
    # projector at kappa = (1, 0, 0) is 1 - (kappa contraction)/kappa^2,
    # which collapses to zero, so the whole matrix vanishes
    kappa = np.array([1.0, 0.0, 0.0])
    forced = 1.0 - (kappa @ kappa) / (kappa @ kappa)
    assert forced == 0.0
    d30 = closed_form_projector(build_threeform(LatticeSpec(d=3, L=3)))
    assert np.abs(d30).max() < 1e-12


def test_pair_projector_idempotent():
    for spec in (LatticeSpec(d=3, L=3), LatticeSpec(d=4, L=3)):
        sys = build_threeform(spec)
        d41 = pair_projector(sys)
        assert np.abs(d41 @ d41 - d41).max() < 1e-9


def test_engine_checks_fd():
    sys = build_threeform(LatticeSpec(d=3, L=4))
    rep = run_threeform_checks(sys, DEFAULT_TOL)
    assert rep.passed
    for tag in ("eq_v23", "eq_29", "eq_21q", "eq_p11", "eq_32",
                "eq_w23", "eq_x23", "eq_12a", "eq_30_trace"):
        assert rep.record(tag).passed, tag


def test_engine_checks_spectral_d4():
    sys = build_threeform(LatticeSpec(d=4, L=3, derivative="spectral"))
    rep = run_threeform_checks(sys, DEFAULT_TOL)
    assert rep.passed
    assert rep.record("eq_v23").residual < 1e-8
    assert rep.record("eq_29").residual < 1e-8


def test_fd_d4_closed_forms_not_claimed():
    # with one-sided differences at d >= 4 the printed projector form
    # presupposes an anti-self-adjoint derivative, so the engine report
    # must not claim it
    sys = build_threeform(LatticeSpec(d=4, L=3))
    rep = run_threeform_checks(sys, DEFAULT_TOL)
    assert rep.passed
    with pytest.raises(KeyError):
        rep.record("eq_v23")


def _engine_bracket(sys, tol=DEFAULT_TOL, seed=0):
    """The engine's fundamental matrix rebuilt from its own
    second_order_artifacts at the point paper_choices_artifacts samples."""
    cs = sys.cs
    z = sample_surface(cs, seed, 1, tol)[0]
    m2 = second_order_artifacts(cs, z, tol).m2
    j = cs.spec.poisson
    g = cs.gradients(z)
    return j - (j @ g) @ m2 @ (g.T @ j)


def test_paper_choices_chi_tilde_rows():
    sys = build_threeform(LatticeSpec(d=3, L=4))
    art, irs, rep = paper_choices_artifacts(sys, DEFAULT_TOL,
                                            f_engine=_engine_bracket(sys))
    assert rep.passed
    for tag in ("eq_58", "eq_59", "eq_72", "eq_27qq", "eq_p11",
                "locality", "eq_14r"):
        assert rep.record(tag).passed, tag
    printed = chi_tilde_printed(sys)
    ext_dim = sys.cs.spec.dim + sys.cs.m1
    assert printed.shape == (sys.cs.m0 + sys.cs.m2, ext_dim)


def test_paper_choices_spectral_closed_forms():
    sys = build_threeform(LatticeSpec(d=4, L=3, derivative="spectral"))
    art, irs, rep = paper_choices_artifacts(sys, DEFAULT_TOL,
                                            f_engine=_engine_bracket(sys))
    assert rep.passed
    for tag in ("eq_y23", "eq_q30", "eq_q31"):
        assert rep.record(tag).residual < 1e-8, tag


@pytest.mark.parametrize("derivative", ["fd", "spectral"])
def test_paper_choices_reuse_engine_artifacts(derivative, monkeypatch):
    import diracred.threeform as tf

    sys = build_threeform(LatticeSpec(d=3, L=3, derivative=derivative))
    rep = run_threeform_checks(sys, DEFAULT_TOL)
    assert np.array_equal(rep.f_engine, _engine_bracket(sys))
    assert "f_engine" not in rep.to_dict()
    _, _, own = paper_choices_artifacts(sys, DEFAULT_TOL,
                                        f_engine=_engine_bracket(sys))
    builds = []
    real = tf.so.second_order_artifacts
    monkeypatch.setattr(tf.so, "second_order_artifacts",
                        lambda *a, **k: builds.append(1) or real(*a, **k))
    _, _, shared = paper_choices_artifacts(sys, DEFAULT_TOL,
                                           f_engine=rep.f_engine)
    # only the printed-choice build runs; eq_14r keeps its value
    assert len(builds) == 1
    assert shared.to_dict()["checks"] == own.to_dict()["checks"]
