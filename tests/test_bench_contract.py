"""The benchmark must still find and drive what it measures.

perfbench/tracer.py wraps diracred's public functions by name, so a
renamed or removed entry point would leave its per-layer metrics reading
0.  This loads the tracer by path, installs it, checks that every traced
name was wrapped, and checks that uninstall restores every binding.  A
traced name that the workload's route no longer calls would read 0 too,
so the three-form op is also run under the tracer, and so is a smoke
analyze op, which must reach the oracle exactly once.  Each workload in
perfbench/workloads.py also runs one smoke op through its own call and
check, which catches any drift in the API the benchmark calls.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # @dataclass resolves its annotations through sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("perfbench_tracer", TRACER)


def _lookup(module, name):
    if "." in name:
        cls_name, meth = name.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, name)


def _bindings(tracer):
    """Identity snapshot of every attribute the tracer may patch."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "diracred"
                                   or name.startswith("diracred.")):
            snap.update(((name, attr), value)
                        for attr, value in vars(module).items())
    for owner in tracer.LINALG_OWNERS:
        for name in tracer.LINALG:
            snap[(owner.__name__, name)] = getattr(owner, name, None)
    for modname, names in tracer.TRACED.items():
        module = importlib.import_module(modname)
        for name in names:
            if "." in name:
                snap[(modname, name)] = _lookup(module, name)
    return snap


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracer = _load_tracer()
    modules = {m: importlib.import_module(m) for m in tracer.TRACED}
    originals = {
        (m, name): _lookup(modules[m], name)
        for m, names in tracer.TRACED.items() for name in names
    }
    before = _bindings(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        for (m, name), orig in originals.items():
            now = _lookup(modules[m], name)
            assert getattr(now, "__wrapped__", None) is orig, (
                f"{m}.{name} is not traced"
            )
    finally:
        t.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_threeform_op_reaches_every_traced_threeform_name(capsys):
    from diracred.cli import main

    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        rc = main(["threeform", "--dim", "3", "--lattice", "3",
                   "--paper-choices"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert rc == 0
    totals = t.layer_totals()
    for name in tracer.TRACED["diracred.threeform"]:
        span = f"threeform.{name}"
        assert totals.get(span, [0])[0] >= 1, f"{span} is never called"


def test_analyze_op_builds_the_affine_oracle_once(capsys, tmp_path):
    from diracred.cli import main
    from diracred.constraints import save_system, synth_linear

    path = tmp_path / "system.json"
    save_system(synth_linear(10, 12, 8, 2, seed=0), path)
    tracer = _load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        rc = main(["analyze", str(path), "--points", "20"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert rc == 0
    totals = t.layer_totals()
    for span in ("oracle.independent_subset",
                 "oracle.fundamental_matrix_oracle",
                 "irreducible.equivalence_report"):
        assert totals.get(span, [0])[0] == 1, span
    for name in tracer.TRACED["diracred.oracle"]:
        span = f"oracle.{name}"
        assert totals.get(span, [0])[0] >= 1, f"{span} is never called"


WORKLOADS = _load("perfbench_workloads", PERFBENCH / "workloads.py")


@pytest.mark.parametrize("name", sorted(WORKLOADS.REGISTRY))
def test_workload_smoke_op_passes_its_own_check(name, tmp_path):
    wl = WORKLOADS.REGISTRY[name](tmp_path, 0, True)
    report = tmp_path / "report.json"
    raw = wl.call(0, 1, report)
    verdict = wl.check(0, 1, raw, report)
    assert verdict.correct
    assert verdict.failed == []
