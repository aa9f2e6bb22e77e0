import base64
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracred
from diracred import cli, irreducible
from diracred import second_order as so
from diracred import threeform as tf
from diracred.cli import main, parse_qspec
from diracred.constraints import (
    duplicated_pair_system,
    load_system,
    sample_surface,
    save_system,
    synth_linear,
    toy_system,
)
from diracred.first_order import first_order_artifacts, fundamental_matrix_1
from diracred.numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    rel_residual,
    skew_part,
)
from diracred.oracle import fundamental_matrix_oracle
from diracred.phase import canonical_poisson
from diracred.report import COUNT_TOL, CheckReport
import lattice_reference
from test_first_order import doubled_pair_system


@pytest.fixture()
def synth_file(tmp_path):
    path = tmp_path / "synth.json"
    save_system(synth_linear(10, 12, 8, 2, seed=7), path)
    return str(path)


@pytest.fixture()
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    save_system(toy_system(), path)
    return str(path)


def test_qspec_parser():
    labels = ("q1", "q2", "p1", "p2")
    h = parse_qspec("0.5*q1^2 + 0.5*p1^2", labels)
    z = np.array([2.0, 0.0, 3.0, 0.0])
    assert h(z) == pytest.approx(0.5 * 4 + 0.5 * 9)
    assert np.allclose(h.gradient(z), [2.0, 0.0, 3.0, 0.0])
    mixed = parse_qspec("q1*p2 - 2*q2 + 1.5", labels)
    z = np.array([1.0, 1.0, 0.0, 4.0])
    assert mixed(z) == pytest.approx(4.0 - 2.0 + 1.5)
    for power in (0, 3):
        with pytest.raises(InvalidInputError, match="must be 1 or 2"):
            parse_qspec(f"q1^{power}", labels)
    with pytest.raises(InvalidInputError):
        parse_qspec("q1*q2*p1", labels)
    with pytest.raises(InvalidInputError):
        parse_qspec("x7", labels)
    with pytest.raises(InvalidInputError):
        parse_qspec("", labels)
    # a sign after a mantissa's e/E belongs to the number's exponent
    z = np.array([2.0, 0.0, 3.0, 0.0])
    for text, value in (("1e-3*q1^2", 4e-3), ("2.5e+2*q1*p1", 1500.0),
                        ("1E-2*q1", 2e-2), ("q1 - 1e-3*p1 + 2E+1", 21.997)):
        assert parse_qspec(text, labels)(z) == pytest.approx(value)
    with pytest.raises(InvalidInputError):
        parse_qspec("q1e-3", labels)


def test_validate_and_analyze_pass(synth_file, tmp_path, capsys):
    assert main(["validate", synth_file]) == 0
    out = str(tmp_path / "rep.json")
    assert main(["analyze", synth_file, "--points", "5", "--json", out]) == 0
    doc = json.loads(open(out).read())
    names = [c["name"] for c in doc["checks"]]
    for tag in ("eq_21q", "eq_32", "eq_p11", "eq_11x"):
        assert tag in names
    assert len(names) == len(set(names))
    assert doc["passed"] is True


def test_analyze_detects_corrupted_z2(synth_file, tmp_path, capsys):
    cs = load_system(synth_file)
    z2 = cs.z2.copy()
    z2[0, 0] += 1.0
    bad = tmp_path / "bad.json"
    save_system(dataclasses.replace(cs, z2=z2), bad)
    assert main(["analyze", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "eq_11x" in out and "FAIL" in out


def _as_lists(field):
    """A saved array field decoded to the nested lists a hand-written
    file holds."""
    data = base64.b64decode(field["base64"])
    return np.frombuffer(data, "<f8").reshape(field["shape"]).tolist()


def test_missing_and_malformed_files_exit_2(synth_file, tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 2
    junk = tmp_path / "junk.json"
    junk.write_text("{oops")
    assert main(["validate", str(junk)]) == 2
    # a field of the wrong type, with a non-finite entry or a malformed
    # encoded array is an input error that names the field
    saved = json.loads(open(synth_file).read())
    z1, z2 = saved["Z1"], saved["Z2"]
    inf_c = [np.inf] + [0.0] * 11
    inf_bytes = base64.b64encode(np.array(inf_c, "<f8").tobytes()).decode()
    bad = tmp_path / "bad.json"
    # an n_pairs that disagrees with chi.B is named before PhaseSpec is
    # built: 2N = 2e8 once ended in numpy's ArrayMemoryError (284 PiB)
    for field, value in (("n_pairs", "two"), ("n_pairs", -1),
                         ("n_pairs", 100000000), ("n_pairs", 3),
                         ("chi.B", [[1, "x"]]), ("Z1", [["a"]]),
                         ("chi.c", inf_c), ("chi.c", [np.nan] * 12),
                         ("chi.c", {**saved["chi"]["c"],
                                    "base64": inf_bytes}),
                         ("Z1", {**z1, "base64": "!" + z1["base64"]}),
                         ("Z1", {**z1, "base64": z1["base64"][:-4]}),
                         ("Z1", {**z1, "shape": [12, 9]}),
                         ("Z1", {**z1, "shape": "12x8"}),
                         ("Z1", {**z1, "shape": [12, -8]}),
                         ("Z1", {**z1, "shape": [12, 8.0]}),
                         ("Z2", {**z2, "dtype": "<f4"}),
                         ("Z2", {**z2, "order": "C"}),
                         ("poisson", {"dtype": "<f8", "shape": [20, 20]})):
        doc = json.loads(open(synth_file).read())
        *parent, key = field.split(".")
        (doc[parent[0]] if parent else doc)[key] = value
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(field) in err


def test_list_encoded_copy_loads_the_same_bits(synth_file, tmp_path,
                                                capsys):
    # a hand-written file holds nested lists: same arrays, same report
    doc = json.loads(open(synth_file).read())
    doc["chi"] = {key: _as_lists(v) for key, v in doc["chi"].items()}
    doc["Z1"], doc["Z2"] = _as_lists(doc["Z1"]), _as_lists(doc["Z2"])
    (tmp_path / "lists").mkdir()
    lists = tmp_path / "lists" / Path(synth_file).name
    lists.write_text(json.dumps(doc))
    a, b = load_system(synth_file), load_system(lists)
    for x, y in zip((*a.affine_matrix(), a.z1, a.z2, a.spec.poisson),
                    (*b.affine_matrix(), b.z1, b.z2, b.spec.poisson)):
        assert x.shape == y.shape
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    reports = []
    for path in (synth_file, lists):
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "--json", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
        reports[-1].pop("timings")
    assert reports[0] == reports[1]
    capsys.readouterr()


def test_nearly_antisymmetric_poisson_loads_exactly_antisymmetric(
        synth_file, tmp_path, capsys):
    # J + 1e-10 S, S symmetric, is antisymmetric within weak_eq; it is
    # stored as its antisymmetric part, on which dirac_matrix's
    # G^T J = -(J G)^T holds exactly
    doc = json.loads(open(synth_file).read())
    j = canonical_poisson(doc["n_pairs"])
    s = np.random.default_rng(2).standard_normal(j.shape)
    near = j + 1e-10 * (s + s.T)
    paths = [tmp_path / "near.json", tmp_path / "skew.json"]
    for path, poisson in zip(paths, (near, skew_part(near))):
        doc["poisson"] = poisson.tolist()
        path.write_text(json.dumps(doc))
    loaded = load_system(paths[0]).spec.poisson
    assert np.array_equal(loaded, -loaded.T)
    assert np.array_equal(loaded, skew_part(near))
    for method in ("subset", "reducible", "invertible", "irreducible"):
        printed = []
        for path in paths:
            assert main(["bracket", str(path), "--method", method]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1], method


def test_analyze_records_both_seeds(synth_file, tmp_path, capsys):
    # the points' seed and the function pairs' seed + 1
    out = tmp_path / "an.json"
    assert main(["analyze", synth_file, "--seed", "3", "--json",
                 str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["seeds"] == {"points": 3,
                                                    "functions": 4}


@pytest.mark.parametrize("argv", [
    ["validate", "{file}", "--seed", "-1"],
    ["analyze", "{file}", "--seed", "-1"],
    ["bracket", "{file}", "--seed", "-1"],
    ["synth", "--pairs", "10", "--m0", "12", "--m1", "8", "--m2", "2",
     "--seed", "-1", "-o", "{out}"],
    ["threeform", "--dim", "3", "--lattice", "3", "--seed", "-1"],
    ["evolve", "{file}", "--h", "0.5*q1^2", "--steps", "2", "--dt", "0.1",
     "--seed", "-1"],
    ["analyze", "{file}", "--points", "0"],
    ["analyze", "{file}", "--points", "-4"],
    ["evolve", "{file}", "--h", "0.5*q1^2", "--steps", "2", "--dt", "0.1",
     "--drift-tol", "-1"],
    ["evolve", "{file}", "--h", "0.5*q1^2", "--steps", "2", "--dt", "0.1",
     "--drift-tol", "nan"],
    # too many to draw, refused before anything is allocated
    ["validate", "{file}", "--points", "100000000000000000000"],
    # lattices too large to enumerate, refused before anything is allocated
    ["threeform", "--dim", "40", "--lattice", "3"],
    ["threeform", "--dim", "3", "--lattice", "3000000"],
])
def test_input_errors_exit_2(argv, toy_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = [a.format(file=toy_file, out=out) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_main_reuses_one_parser(synth_file, tmp_path, capsys):
    assert cli.build_parser() is not cli.build_parser()
    out = tmp_path / "rep.json"
    assert main(["validate", synth_file, "--json", str(out)]) == 0
    parser = cli._parser()
    out.unlink()
    # a refused command line leaves nothing behind for the next call
    with pytest.raises(SystemExit):
        main(["validate", synth_file, "--points", "x"])
    assert main(["validate", synth_file]) == 0
    assert not out.exists()
    assert cli._parser() is parser
    capsys.readouterr()


def test_bracket_methods_agree(synth_file, capsys):
    mats = {}
    for method in ("subset", "reducible", "invertible", "irreducible"):
        assert main(["bracket", synth_file, "--method", method]) == 0
        out = capsys.readouterr().out
        mats[method] = np.array(
            [[float(v) for v in line.split()] for line in out.splitlines()]
        )
    ref = mats["subset"]
    assert ref.shape == (20, 20)
    for mat in mats.values():
        assert np.abs(mat - ref).max() < 1e-8


def test_synth_then_analyze_round_trip(tmp_path, capsys):
    out = str(tmp_path / "s.json")
    rc = main(["synth", "--pairs", "10", "--m0", "12", "--m1", "8",
               "--m2", "2", "--seed", "7", "-o", out])
    assert rc == 0
    assert main(["analyze", out, "--points", "20", "--seed", "1"]) == 0


def test_analyze_determinism(synth_file, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    main(["analyze", synth_file, "--points", "5", "--json", a])
    main(["analyze", synth_file, "--points", "5", "--json", b])
    da = json.loads(open(a).read())
    db = json.loads(open(b).read())
    da.pop("timings")
    db.pop("timings")
    assert da == db


def test_threeform_subcommand(tmp_path, capsys):
    out = str(tmp_path / "tf.json")
    assert main(["threeform", "--dim", "3", "--lattice", "4",
                 "--json", out]) == 0
    doc = json.loads(open(out).read())
    rows = {c["name"]: c for c in doc["checks"]}
    assert rows["eq_v23"]["residual"] < 1e-8
    assert rows["eq_v23"]["pass"] is True
    capsys.readouterr()


def test_threeform_defaults_refuse_a_zero_bracket(monkeypatch, tmp_path,
                                                   capsys):
    # at d = 3 every bracket of the three-form is identically zero, so an
    # irreducible route that returns zeros passes there; the defaults,
    # d4 L5, refuse it
    real = irreducible.fundamental_matrix_irred
    monkeypatch.setattr(irreducible, "fundamental_matrix_irred",
                        lambda *a, **kw: np.zeros_like(real(*a, **kw)))
    out = tmp_path / "tf.json"
    assert main(["threeform", "--json", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["system"] == "threeform(d=4, L=5, fd)"
    assert "eq_32" in {c["name"] for c in doc["checks"] if not c["pass"]}
    capsys.readouterr()


def test_threeform_paper_choices_sections(tmp_path, capsys):
    out = str(tmp_path / "tf2.json")
    assert main(["threeform", "--dim", "3", "--lattice", "3",
                 "--paper-choices", "--json", out]) == 0
    doc = json.loads(open(out).read())
    assert set(doc) == {"engine", "paper_choices"}
    paper_names = [c["name"] for c in doc["paper_choices"]["checks"]]
    assert "eq_58" in paper_names and "eq_27qq" in paper_names
    capsys.readouterr()


def test_analyze_order_one_system(tmp_path, capsys):
    from diracred.constraints import duplicated_pair_system

    path = tmp_path / "first.json"
    save_system(duplicated_pair_system(), path)
    assert main(["validate", str(path)]) == 0
    assert main(["analyze", str(path), "--points", "4"]) == 0


def test_analyze_order_one_builds_artifacts_once(tmp_path, capsys,
                                                 monkeypatch):
    import diracred.first_order as fo

    path = tmp_path / "first.json"
    save_system(duplicated_pair_system(), path)
    builds, lean = [], []
    real = so.second_order_artifacts
    monkeypatch.setattr(so, "second_order_artifacts",
                        lambda *a, **k: builds.append(1) or real(*a, **k))
    monkeypatch.setattr(fo, "first_order_artifacts",
                        lambda *a, **k: lean.append(1))
    assert main(["analyze", str(path), "--points", "4"]) == 0
    # eq_15 and the bracket for eq_32 share one build at the first point,
    # by the engine's noninvertible stage
    assert len(builds) == 1
    assert not lean
    capsys.readouterr()


def test_analyze_evaluates_the_gradients_once_per_stage(synth_file, capsys,
                                                        gradient_points):
    assert main(["analyze", synth_file, "--points", "20"]) == 0
    # surface projection, validate, the artifacts and the oracle: every
    # later stage reads the gradients the artifacts carry
    assert len(gradient_points) == 4
    capsys.readouterr()


@pytest.mark.parametrize("argv, omega, mu", [
    (["evolve", "FILE", "--h", "0.5*q1^2 + 0.5*p1^2", "--steps", "3",
      "--dt", "0.01"], 0, 0),
    (["bracket", "FILE", "--method", "irreducible"], 0, 0),
    (["analyze", "FILE", "--points", "4"], 1, 1),
    # one pair per stack (the generic blocks and the self-conjugate ones)
    (["threeform", "--dim", "3", "--lattice", "4"], 2, 2),
])
def test_only_the_invertible_route_builds_the_omega_and_mu_pairs(
        synth_file, capsys, monkeypatch, argv, omega, mu):
    calls = {"omega_tilde_pair": 0, "mu_pair": 0}
    for name in calls:
        real = getattr(so, name)

        def counting(*a, _name=name, _real=real, **k):
            calls[_name] += 1
            return _real(*a, **k)

        monkeypatch.setattr(so, name, counting)
    assert main([synth_file if a == "FILE" else a for a in argv]) == 0
    assert calls == {"omega_tilde_pair": omega, "mu_pair": mu}
    capsys.readouterr()


@pytest.mark.parametrize("system", [duplicated_pair_system,
                                    doubled_pair_system])
def test_analyze_order_one_matches_the_lean_route(system, tmp_path, capsys):
    cs = system()
    path = tmp_path / "first.json"
    save_system(cs, path)
    out = tmp_path / "an.json"
    assert main(["analyze", str(path), "--json", str(out)]) == 0
    capsys.readouterr()
    rows = {c["name"]: c["residual"]
            for c in json.loads(out.read_text())["checks"]}
    assert list(rows) == ["eq_2", "eq_11d_rank", "z1_rank", "eq_32", "eq_15"]
    at = sample_surface(cs, 0, 20)[0]
    f_oracle = fundamental_matrix_oracle(cs, at)
    assert rows["eq_32"] == float(
        np.abs(fundamental_matrix_1(cs, at) - f_oracle).max())
    d = first_order_artifacts(cs, at).d
    assert rows["eq_15"] == float(rel_residual(d @ d, d))


def test_analyze_order_one_check_names_fixed(tmp_path, capsys):
    from diracred.constraints import duplicated_pair_system

    path = tmp_path / "first.json"
    save_system(duplicated_pair_system(), path)
    out = str(tmp_path / "an.json")
    assert main(["analyze", str(path), "--json", out]) == 0
    doc = json.loads(open(out).read())
    assert [c["name"] for c in doc["checks"]] == [
        "eq_2", "eq_11d_rank", "z1_rank", "eq_32", "eq_15"]
    capsys.readouterr()


@pytest.fixture()
def doubled_file(tmp_path):
    path = tmp_path / "doubled.json"
    save_system(doubled_pair_system(), path)
    return str(path)


def _bracket(capsys, path, method):
    rc = main(["bracket", path, "--method", method])
    out = capsys.readouterr().out
    return rc, np.array([[float(v) for v in line.split()]
                         for line in out.splitlines()])


def test_bracket_order_one_methods(doubled_file, tmp_path, capsys):
    # every method of an order-1 file runs through the one engine
    mats = {}
    for method in ("subset", "reducible", "invertible", "irreducible"):
        rc, mats[method] = _bracket(capsys, doubled_file, method)
        assert rc == 0
    for mat in mats.values():
        assert np.abs(mat - mats["subset"]).max() < 1e-12
    # an odd M1 has no omega pair: only the reducible brackets exist
    dup = str(tmp_path / "dup.json")
    save_system(duplicated_pair_system(), dup)
    for method, code in (("subset", 0), ("reducible", 0), ("invertible", 2),
                         ("irreducible", 2)):
        assert _bracket(capsys, dup, method)[0] == code


def test_dependent_z1_fails_validate_and_bracket(doubled_file, tmp_path,
                                                 capsys):
    cs = load_system(doubled_file)
    bad = str(tmp_path / "dependent.json")
    save_system(dataclasses.replace(cs, z1=cs.z1[:, [0, 0]]), bad)
    assert main(["validate", bad]) == 1
    assert "z1_rank" in capsys.readouterr().out
    for method in ("reducible", "invertible", "irreducible"):
        assert main(["bracket", bad, "--method", method]) == 1
        assert "eq_1qa" in capsys.readouterr().err


# the toy system (chi = three copies each of q1 and p1) moved to the
# surface q1 = 1, p1 = -2 by c, written by hand as nested lists
SHIFTED_TOY = {
    "n_pairs": 2,
    "chi": {"B": [[1, 0, 0, 0]] * 3 + [[0, 0, 1, 0]] * 3,
            "c": [-1, -1, -1, 2, 2, 2]},
    "Z1": [[1, 0, 1, 0, 0, 0], [-1, 1, 0, 0, 0, 0], [0, -1, -1, 0, 0, 0],
           [0, 0, 0, 1, 0, 1], [0, 0, 0, -1, 1, 0], [0, 0, 0, 0, -1, -1]],
    "Z2": [[1, 0], [1, 0], [-1, 0], [0, 1], [0, 1], [0, -1]],
}


def test_shifted_toy_file_keeps_the_toy_brackets(toy_file, tmp_path,
                                                 capsys):
    shifted = str(tmp_path / "shifted.json")
    Path(shifted).write_text(json.dumps(SHIFTED_TOY))
    assert main(["validate", shifted]) == 0
    assert main(["analyze", shifted]) == 0
    capsys.readouterr()
    assert main(["evolve", shifted, "--h", "0.5*q2^2 + 0.5*p2^2",
                 "--steps", "50", "--dt", "0.01"]) == 0
    out = capsys.readouterr().out.splitlines()
    final = np.array(out[out.index("final state:") + 1].split(), float)
    assert np.abs(final[[0, 2]] - [1.0, -2.0]).max() < 1e-12
    # the bracket matrix is constant, the same as on the toy's surface
    for method in ("subset", "reducible", "invertible", "irreducible"):
        assert main(["bracket", shifted, "--method", method]) == 0
        lines = capsys.readouterr().out
        assert main(["bracket", toy_file, "--method", method]) == 0
        assert lines == capsys.readouterr().out


def test_evolve_toy(toy_file, capsys):
    rc = main(["evolve", toy_file, "--h", "0.5*q2^2 + 0.5*p2^2",
               "--steps", "50", "--dt", "0.01"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "constraint drift" in out
    rc = main(["evolve", toy_file, "--h", "0.5*q9^2",
               "--steps", "1", "--dt", "0.01"])
    assert rc == 2
    capsys.readouterr()
    # a bad step count or step size is refused whatever the other one is
    for steps, dt, message in (("0", "-1", "dt must be finite and positive"),
                               ("3", "nan", "dt must be finite and positive"),
                               ("5", "1e308", "non-finite"),
                               ("-5", "0.01", "steps must be >= 0")):
        rc = main(["evolve", toy_file, "--h", "0.5*q2^2",
                   "--steps", steps, "--dt", dt])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "final state" not in captured.out


def test_evolve_order_one(doubled_file, tmp_path, capsys):
    rc = main(["evolve", doubled_file, "--h", "0.5*q2^2 + 0.5*p2^2",
               "--steps", "50", "--dt", "0.01"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    z = np.array([float(v) for v in out[1].split()])
    assert float(out[2].split(":")[1]) <= 1e-6
    # RK4 on the oracle bracket from the same start reaches the same state
    cs = doubled_pair_system()
    state = sample_surface(cs, 0, 1)[0]
    kernel = fundamental_matrix_oracle(cs, state)
    h = np.diag([0.0, 1.0, 0.0, 1.0])
    for _ in range(50):
        k1 = kernel @ h @ state
        k2 = kernel @ h @ (state + 0.005 * k1)
        k3 = kernel @ h @ (state + 0.005 * k2)
        k4 = kernel @ h @ (state + 0.01 * k3)
        state = state + (0.01 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.abs(z - state).max() <= 1e-9
    # M1 = 1 admits no canonical pairing of the y fields, so no
    # irreducible system to evolve and no irreducible bracket, and no
    # omega pair, so no invertible bracket; the error names M1
    dup = str(tmp_path / "dup.json")
    save_system(duplicated_pair_system(), dup)
    for argv, pair in ((["evolve", dup, "--h", "0.5*q2^2", "--steps", "1",
                         "--dt", "0.01"], False),
                       (["bracket", dup, "--method", "invertible"], True),
                       (["bracket", dup, "--method", "irreducible"], False)):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "M1 = 1" in err and ("omega pair" in err) == pair


# the records of second_order_artifacts, in order
ARTIFACT_CHECKS = [
    "eq_11x", "eq_11d_rank", "eq_11e", "eq_a2", "eq_ay", "eq_a8", "eq_1qa",
    "eq_15", "eq_17", "eq_12k", "eq_12b", "eq_11c",
]
THREEFORM_ENGINE_CHECKS = ARTIFACT_CHECKS + [
    "eq_a3", "eq_a18", "eq_a18a", "eq_21q", "eq_20", "eq_p11",
    "rank_c_delta", "eq_32", "eq_v23", "eq_29", "eq_30", "eq_12a",
    "eq_30_trace", "eq_w23", "eq_x23",
]
# one list for both derivatives: every printed closed form holds for both
PAPER_CHOICES_CHECKS = ARTIFACT_CHECKS + [
    "eq_p11", "rank_c_delta", "eq_27qq", "eq_58", "eq_59", "eq_72",
    "locality", "eq_27ww", "eq_27qw", "eq_y23", "eq_q31", "eq_q30",
    "eq_14r", "eq_v23"]
ANALYZE_CHECKS = [
    "eq_2", "eq_11d_rank", "eq_11x", "z2_rank", "z1_rank", "eq_11e", "eq_a2",
    "eq_ay", "eq_a8", "eq_1qa", "eq_15", "eq_17", "eq_12k", "eq_12b",
    "eq_11c", "eq_a3", "eq_a18", "eq_a18a", "eq_21q", "eq_20", "eq_p11",
    "rank_c_delta", "eq_24", "eq_28", "eq_32y", "eq_32",
]


@pytest.mark.parametrize("derivative", ["fd", "spectral"])
def test_threeform_check_names_fixed(tmp_path, capsys, derivative):
    # every check record stays in the report, in order and passing
    out = str(tmp_path / "tf.json")
    assert main(["threeform", "--dim", "3", "--lattice", "3",
                 "--derivative", derivative, "--paper-choices",
                 "--json", out]) == 0
    doc = json.loads(open(out).read())
    engine = [c["name"] for c in doc["engine"]["checks"]]
    paper = [c["name"] for c in doc["paper_choices"]["checks"]]
    assert engine == THREEFORM_ENGINE_CHECKS
    assert paper == PAPER_CHOICES_CHECKS
    capsys.readouterr()


def test_threeform_reports_a_failing_eq_20(capsys, monkeypatch):
    # eq_20 is recorded, not required, so only the report can show it
    real = so.mu_pair

    def planted(art, tol=DEFAULT_TOL):
        out = real(art, tol)
        rep = CheckReport(system=art.report.system, tolerances=tol,
                          blocks=art.report.blocks)
        rep.add("eq_20", np.ones(art.base.batch), tol.weak_eq)
        return dataclasses.replace(out, report=out.report.with_stage(rep))

    monkeypatch.setattr(so, "mu_pair", planted)
    assert main(["threeform", "--dim", "4", "--lattice", "5"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"eq_20 +residual +1\.0000e\+00 .* FAIL", out)


def test_threeform_evaluates_the_gradients_twice_per_stack(
        capsys, monkeypatch, gradient_points):
    stacks = []
    real = tf._stack_system
    monkeypatch.setattr(tf, "_stack_system",
                        lambda *a: stacks.append(a) or real(*a))
    # two stacks: the generic blocks and the self-conjugate ones
    assert main(["threeform", "--dim", "3", "--lattice", "8"]) == 0
    # the artifacts and the oracle, at the origin: the routes and the
    # closed forms read the gradients the artifacts carry
    assert len(stacks) == 2
    assert len(gradient_points) == 2 * len(stacks)
    capsys.readouterr()


def test_threeform_paper_choices_evaluates_the_gradients_three_times_per_stack(
        capsys, monkeypatch, gradient_points):
    calls = []
    for name in ("_stack_system", "closed_form_projector", "pair_projector"):
        real = getattr(tf, name)
        monkeypatch.setattr(tf, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    assert main(["threeform", "--dim", "3", "--lattice", "8",
                 "--paper-choices"]) == 0
    # the engine's two, and the printed choices' artifacts: the paper
    # route reads the engine's point and bracket from its irreducible
    # system, its own chi_tilde rows from the G its artifacts carry, and
    # the projectors the stack formed once for both routes
    stacks = calls.count("_stack_system")
    assert stacks == 2
    assert len(gradient_points) == 3 * stacks
    assert calls.count("closed_form_projector") == stacks
    assert calls.count("pair_projector") == stacks
    capsys.readouterr()


def test_threeform_rank_deficient_block_is_named(capsys, monkeypatch):
    # with the gauge on the forward divergence (the adjoint of the Gauss
    # law's derivative) the forward-difference symbol has
    # sum_i lambda(k_i)^2 = 0 at k = (0, 0, 1, 3) on L = 4, where the
    # constraint bracket matrix loses rank; the run stops there and says
    # which block it was
    monkeypatch.setattr(tf, "_stack_system",
                        lattice_reference.adjoint_gauge_stack)
    assert main(["threeform", "--dim", "4", "--lattice", "4"]) == 1
    err = capsys.readouterr().err
    assert "eq_11d_rank" in err
    assert "k=(0, 0, 1, 3)" in err


@pytest.mark.parametrize("dim,size", [(4, 4), (4, 6), (5, 4), (6, 4)])
def test_threeform_fd_keeps_rank_where_the_adjoint_gauge_lost_it(
        dim, size, tmp_path, capsys):
    # the gauge takes the backward divergence, as the Gauss law does, so
    # C's gauge-Gauss symbol is sum_i |lambda(k_i)|^2, zero at k = 0 alone:
    # the lattices where sum_i lambda(k_i)^2 vanishes pass, and no block
    # reseeds its omega pair
    argv = ["threeform", "--dim", str(dim), "--lattice", str(size)]
    assert main(argv) == 0
    out = tmp_path / "tf.json"
    assert main([*argv, "--paper-choices", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["engine"]["seeds"] == doc["paper_choices"]["seeds"] == {}
    assert "eq_v23" in {c["name"] for c in doc["engine"]["checks"]}
    capsys.readouterr()


def test_threeform_beyond_dense_sizes(tmp_path, capsys):
    # stacked Fourier blocks: the dense system would have M0 = 10362
    assert main(["threeform", "--dim", "3", "--lattice", "12",
                 "--paper-choices"]) == 0
    # the spectral derivative is nonlocal, and that is all that fails
    out = tmp_path / "spectral.json"
    assert main(["threeform", "--dim", "3", "--lattice", "11",
                 "--derivative", "spectral", "--paper-choices",
                 "--json", str(out)]) == 1
    doc = json.loads(out.read_text())
    failed = {c["name"] for part in doc.values() for c in part["checks"]
              if not c["pass"]}
    assert failed == {"locality"}
    capsys.readouterr()


@pytest.mark.parametrize("dim,derivative", [(5, "spectral"), (6, "fd")])
def test_threeform_above_four_dimensions(dim, derivative, tmp_path, capsys):
    # d5: 10 pairs and 10 triples; d6: 15 pairs and 20 triples
    out = tmp_path / "tf.json"
    assert main(["threeform", "--dim", str(dim), "--lattice", "3",
                 "--derivative", derivative, "--paper-choices",
                 "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    checks = [c for part in doc.values() for c in part["checks"]]
    assert checks and all(c["pass"] for c in checks)
    capsys.readouterr()


def test_threeform_peak_memory_is_bounded_by_block_size():
    # d = 6 has 364 blocks of M0 + M1 + 2N = 164, which held in one pass
    # peak near 184 MB
    src = Path(diracred.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    # the peak of the child's own memory map: its ru_maxrss also counts
    # the pages of this process that it held between fork and exec
    code = ("import sys\n"
            "from diracred import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "hwm = [f for f in open('/proc/self/status') if 'VmHWM' in f]\n"
            "print(rc, hwm[0].split()[1])\n")
    run = subprocess.run(
        [sys.executable, "-c", code, "threeform", "--dim", "6",
         "--lattice", "3", "--paper-choices"], env=env, capture_output=True,
        text=True, timeout=120)
    rc, peak_kb = map(int, run.stdout.split()[-2:])
    assert rc == 0, run.stdout
    assert peak_kb <= 130 * 1024


def test_python_m_diracred_runs_from_a_checkout():
    # the package need not be installed: python -m diracred is the CLI
    src = Path(diracred.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-m", "diracred", "threeform", "--dim", "3",
         "--lattice", "3"], env=env, capture_output=True, text=True,
        timeout=120)
    assert run.returncode == 0, run.stderr
    assert "overall: pass" in run.stdout


def test_analyze_check_names_fixed(toy_file, tmp_path, capsys):
    out = str(tmp_path / "an.json")
    assert main(["analyze", toy_file, "--json", out]) == 0
    doc = json.loads(open(out).read())
    assert [c["name"] for c in doc["checks"]] == ANALYZE_CHECKS
    capsys.readouterr()


@pytest.mark.parametrize("shape,seed", [((10, 12, 8, 2), 7),
                                        ((100, 150, 60, 10), 0)])
def test_analyze_records_can_fail(tmp_path, capsys, shape, seed):
    # a record that reads exactly 0.0 on a generic float system compares
    # a product with itself and cannot fail; the toy's integer arithmetic
    # gives legitimate zeros, so synth systems are used
    path = tmp_path / "synth.json"
    save_system(synth_linear(*shape, seed=seed), path)
    out = tmp_path / "an.json"
    # 2N = 200 seed 0 fails eq_32 (about 2e-8); its records are read all
    # the same
    assert main(["analyze", str(path), "--json", str(out)]) in (0, 1)
    capsys.readouterr()
    doc = json.loads(out.read_text())
    zero = [c["name"] for c in doc["checks"]
            if c["tolerance"] != COUNT_TOL and c["residual"] == 0.0]
    # eq_28 compares the intermediate bracket's z block with the
    # invertible one, the same product; the benchmark requires the name,
    # and forming one side another way is still open
    assert zero == ["eq_28"]
