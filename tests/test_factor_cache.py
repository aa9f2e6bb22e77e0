"""One factorisation per point-independent matrix: on affine chi, C =
G^T J G, Z1 and B are each completed on the kernel the chain names and
inverted once per system and tolerance, with no SVD, and the records
that read the kept factors still fail when the factors do not belong
to the matrix they stand for."""

import re

import numpy as np
import pytest

import diracred.constraints as con
import diracred.threeform as tf
from diracred.cli import main
from diracred.numerics import (
    DEFAULT_TOL,
    Factors,
    NoSolutionError,
    mt,
    skew_part,
    svd_factors,
)
from diracred.second_order import second_order_artifacts
from diracred.threeform import LatticeSpec, certify_lattice


def _bracket(cs):
    """C = B J B^T of an affine system or stack of them."""
    b = cs.affine_matrix()[0]
    return b @ cs.spec.poisson @ mt(b)


def _representative_stacks(lat):
    """The stacks of orbit representatives certify_lattice builds."""
    ks, rep = tf.axis_orbits(lat)[:2]
    certified = [k for j, k in enumerate(ks) if rep[j] == j]
    return [tf._stack_system(lat, s) for s in tf._stacks(lat, certified)]


def _completing(c, mats):
    """The matrices of mats, of C's shape, whose antisymmetric part is C:
    C's completions C + a Z1 Z1^T."""
    scale = 1e-12 * (1 + np.abs(c).max())
    return [a for a in mats if a.shape == c.shape
            and np.abs(skew_part(a) - c).max() <= scale]


def _is(c, mats):
    """The matrices of mats equal to C."""
    scale = 1e-12 * (1 + np.abs(c).max())
    return [a for a in mats if a.shape == c.shape
            and np.abs(a - c).max() <= scale]


def test_analyze_factors_c_and_z1_once(svd_args, inv_args, monkeypatch,
                                       tmp_path, capsys):
    cs = con.synth_linear(10, 12, 8, 2, seed=7)
    path = tmp_path / "s.json"
    con.save_system(cs, path)
    projected = []
    project = con.project_to_surface

    def counting(*args, **kwargs):
        projected.append(1)
        return project(*args, **kwargs)

    monkeypatch.setattr(con, "project_to_surface", counting)
    svd_args.clear()
    inv_args.clear()
    assert main(["analyze", str(path), "--points", "20", "--seed", "7"]) == 0
    capsys.readouterr()
    # the SVDs left are the oracle's of C_AB and validate's of Z2
    n = cs.n_independent
    assert sorted(a.shape for a in svd_args) == sorted([(n, n),
                                                       (cs.m1, cs.m2)])
    shapes = [a.shape for a in inv_args]
    # one inverse each: C's completion and B B^T's (M0 x M0), Z1^T Z1's
    # and omega_bar's (M1 x M1)
    assert shapes.count((cs.m0, cs.m0)) == 2
    assert len(_completing(_bracket(cs), inv_args)) == 1
    assert shapes.count((cs.m1, cs.m1)) == 2
    # equivalence_report reads the points validate was given
    assert len(projected) == 20


def test_lattice_factors_each_c_stack_once(svd_args, inv_args):
    lat = LatticeSpec(3, 5)
    svd_args.clear()
    inv_args.clear()
    engine, paper = certify_lattice(lat, paper_choices=True)
    assert engine.passed and paper.passed
    assert engine.to_dict()["factorizations"] == {"z1": 0, "c": 0,
                                                  "omega_bar": 0}
    stacks = _representative_stacks(lat)
    assert stacks
    for sys in stacks:
        c = _bracket(sys.cs)
        assert len(_completing(c, inv_args)) == 1, sys.cs.blocks
        assert not _is(c, svd_args), sys.cs.blocks


def _plant(cs, c, scale=1.0, zeroed=None, key="c"):
    """Plant in cs's cache, beside C, the SVD factors of scale * c (key
    "c"), or of Z1 = c (key "z1"), with the smallest kept singular value
    of the block ``zeroed`` (an index into a stack, or () for one
    system) dropped."""
    f = svd_factors(scale * c, DEFAULT_TOL)
    if zeroed is not None:
        at = zeroed + (int(f.rank[zeroed]) - 1,)
        s_inv, u = f.s_inv.copy(), f.u.copy()
        s_inv[at] = 0.0
        u[zeroed + (slice(None), at[-1])] = 0.0
        f = f._replace(s_inv=s_inv, u=u)
    batch = c.shape[:-2]
    planted = Factors(f.pinv, f.rank, f.u @ mt(f.u), np.zeros(batch),
                      np.full(batch, np.inf), np.ones(batch, bool))
    cs._cache[key, DEFAULT_TOL] = (c, planted) if key == "c" else planted


def test_planted_factors_fail_eq_11c():
    # eq_11c multiplies by C itself, so factors of C (1 + 1e-6) fail it
    cs = con.synth_linear(10, 12, 8, 2, seed=7)
    pt = con.sample_surface(cs, 0, 1)[0]
    assert second_order_artifacts(cs, pt).report.passed
    _plant(cs, _bracket(cs), 1 + 1e-6)
    with pytest.raises(NoSolutionError, match="eq_11c"):
        second_order_artifacts(cs, pt)

    sys = _representative_stacks(LatticeSpec(4, 5))[0]
    _plant(sys.cs, _bracket(sys.cs), 1 + 1e-6)
    with pytest.raises(NoSolutionError, match="eq_11c"):
        tf.run_threeform_checks(sys)


def test_planted_rank_loss_fails_eq_11d_rank():
    cs = con.synth_linear(10, 12, 8, 2, seed=7)
    pts = con.sample_surface(cs, 0, 3)
    _plant(cs, _bracket(cs), zeroed=())
    rep = con.validate(cs, pts)
    assert rep.residuals["eq_11d_rank"] == 1.0 and not rep.passed

    sys = _representative_stacks(LatticeSpec(4, 5))[0]
    last = len(sys.cs.blocks) - 1
    _plant(sys.cs, _bracket(sys.cs), zeroed=(last,))
    name = re.escape(sys.cs.blocks[last])
    with pytest.raises(NoSolutionError, match=f"{name}: construction "
                                              "identity eq_11d_rank"):
        tf.run_threeform_checks(sys)


def test_planted_rank_loss_fails_z1_rank():
    cs = con.synth_linear(10, 12, 8, 2, seed=7)
    pts = con.sample_surface(cs, 0, 3)
    _plant(cs, cs.z1, zeroed=(), key="z1")
    rep = con.validate(cs, pts)
    assert rep.residuals["z1_rank"] == 1.0 and not rep.passed
    assert rep.to_dict()["factorizations"]["z1"] == "svd"
