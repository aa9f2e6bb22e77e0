"""One factorisation per point-independent matrix: C = G^T J G on affine
chi and a constant Z1 are factored once per system and tolerance, and
the records that read the cached factors still fail when the factors do
not belong to the matrix they stand for."""

import re

import numpy as np
import pytest

import diracred.constraints as con
import diracred.threeform as tf
from diracred.cli import main
from diracred.numerics import DEFAULT_TOL, NoSolutionError, mt, svd_factors
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


def test_analyze_factors_c_and_z1_once(svd_args, monkeypatch, tmp_path,
                                       capsys):
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
    assert main(["analyze", str(path), "--points", "20", "--seed", "7"]) == 0
    capsys.readouterr()
    shapes = [a.shape for a in svd_args]
    # C is the only M0 x M0 and Z1 the only M0 x M1 matrix factored
    assert shapes.count((cs.m0, cs.m0)) == 1
    assert shapes.count((cs.m0, cs.m1)) == 1
    # the oracle keeps its own factorisation of C_AB
    n = cs.n_independent
    assert shapes.count((n, n)) == 1
    # equivalence_report reads the points validate was given
    assert len(projected) == 20


def test_lattice_factors_each_c_stack_once(svd_args):
    lat = LatticeSpec(3, 5)
    svd_args.clear()
    engine, paper = certify_lattice(lat, paper_choices=True)
    assert engine.passed and paper.passed
    stacks = _representative_stacks(lat)
    assert stacks
    for sys in stacks:
        c = _bracket(sys.cs)
        hits = [a for a in svd_args if a.shape == c.shape
                and np.abs(a - c).max() <= 1e-12 * (1 + np.abs(c).max())]
        assert len(hits) == 1, sys.cs.blocks


def _plant(cs, c, scale=1.0, zeroed=None):
    """Plant in cs's cache the factors of scale * c, with the smallest
    kept singular value of the block ``zeroed`` (an index into a stack,
    or () for one system) dropped."""
    f = svd_factors(scale * c, DEFAULT_TOL)
    if zeroed is not None:
        s_inv = f.s_inv.copy()
        s_inv[zeroed + (int(f.rank[zeroed]) - 1,)] = 0.0
        f = f._replace(s_inv=s_inv)
    cs._cache["c", DEFAULT_TOL] = f


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
