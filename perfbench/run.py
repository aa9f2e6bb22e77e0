#!/usr/bin/env python3
"""diracred benchmark: certification workloads timed end to end, and a
separate traced run for per-layer numbers.

One run (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload analyze-affine --seed 0 \
        --seconds 25 --trace 0

Every workload in its own process, printed as a table:

    python3 perfbench/run.py --all [--trace 1] [--seed N] [--seconds S]

Tiny shapes, both modes, checking every metric name of BENCHMARK.json:

    python3 perfbench/run.py --all --smoke

Run from the root of a checkout; sources are imported from ``src/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS/OpenMP pools sized to one thread before numpy is imported, in this
# process and in the set-up probes it starts
BLAS_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

SETUP_REPEATS = 3      # the in-process set-up plus two probe processes
OP_DEADLINE_S = 150.0  # no op starts that would end after this
PROBE_EVERY_S = 0.5    # speed kernel cadence in the timed phase

# per-layer metric families; every name is "<module>.<function>.<kind>"
CALLS_AND_SELF = [
    "oracle.independent_subset", "oracle.fundamental_matrix_oracle",
    "second_order.second_order_artifacts", "second_order.omega_tilde_pair",
    "second_order.mu_pair",
    "irreducible.build_irreducible", "irreducible.equivalence_report",
    "irreducible.fundamental_matrix_irred",
    "irreducible.intermediate_bracket_matrix", "irreducible.eom_step",
    "constraints.project_to_surface",
    "first_order.first_order_artifacts", "first_order.fundamental_matrix_1",
    "numerics.skew_solve",
]
SELF_ONLY = [
    "constraints.load_system", "constraints.sample_surface",
    "constraints.validate",
    "threeform.build_threeform", "threeform.run_threeform_checks",
    "threeform.paper_choices_artifacts", "threeform.closed_form_projector",
    "threeform.pair_projector",
]
CALLS_ONLY = [
    "constraints.ConstraintSet.values", "constraints.ConstraintSet.gradients",
    "phase.PhaseFunction.__call__", "phase.PhaseFunction.gradient",
    "numerics.rank_tol", "numerics.pseudoinverse", "numerics.null_basis",
]


def tail_level(n: int) -> int:
    """Highest whole percentile with at least ten samples above it; the
    median when there are fewer than twenty samples."""
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def percentile(values: list, level: int) -> float:
    if level == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[level - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def setup(name: str, seed: int, smoke: bool, workdir: Path):
    """Import diracred and write the workload's inputs; (seconds, workload)."""
    t0 = time.perf_counter()
    import diracred
    import workloads

    if Path(diracred.__file__).resolve().parent != SRC / "diracred":
        raise RuntimeError(f"diracred imported from {diracred.__file__}")
    wl = workloads.REGISTRY[name](workdir, seed, smoke)
    return time.perf_counter() - t0, wl


def probe_setup(name: str, seed: int, smoke: bool) -> float:
    """Set-up time of the workload in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (
               ["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_samples(first: float, args) -> list:
    """Speed-scaled set-up times: ``first``, the in-process set-up, then
    fresh-process set-ups, all scaled by the median of import probes taken
    between them (see speed.import_probe)."""
    import speed

    raw, refs = [first], []
    for _ in range(SETUP_REPEATS - 1):
        refs.append(speed.import_probe())
        raw.append(probe_setup(args.workload, args.seed, args.smoke))
    refs.append(speed.import_probe())
    factor = speed.REFERENCE_IMPORT_S / statistics.median(refs)
    print(f"# setup_s samples {[round(s, 4) for s in raw]} unscaled, "
          f"import probes {[round(s, 4) for s in refs]}, "
          f"speed scale {factor:.4f}")
    return [s * factor for s in raw]


@dataclass
class Op:
    index: int
    desc: str
    seconds: float
    verdict: object
    traced: bool
    slot: float = 0.0   # wall time including the output check
    scale: float = 1.0  # speed scale from the kernels around the op


def run_op(wl, i: int, op_seed: int, tracer=None, report=None) -> Op:
    if tracer is None:
        t0 = time.perf_counter()
        raw = wl.call(i, op_seed, report)
        seconds = time.perf_counter() - t0
    else:
        tracer.current_op = i
        tracer.install()
        try:
            t0 = time.perf_counter()
            raw = tracer.span("op", wl.call, i, op_seed, report)
            seconds = time.perf_counter() - t0
        finally:
            tracer.uninstall()
    verdict = wl.check(i, op_seed, raw, report)
    return Op(i, wl.describe(i, op_seed), seconds, verdict, tracer is not None)


def timed_loop(wl, rng, seconds: float, smoke: bool, started: float):
    """Ops back to back for ``seconds`` of op time, ending on a whole batch.

    The workload's speed kernels run between ops every PROBE_EVERY_S; each
    op gets ``scale`` from the probes just before and after it, and
    ``slot``, its wall time including the check of its outputs.
    """
    import speed

    ops, probes, before = [], [speed.probe(wl.speed_kernels)], []
    busy = 0.0
    last_probe = time.perf_counter()
    while True:
        if len(ops) % wl.batch == 0 and ops:
            longest = max(op.seconds for op in ops)
            if smoke and len(ops) >= 2 or not smoke and (
                    busy >= seconds or time.perf_counter() - started
                    + longest * wl.batch > OP_DEADLINE_S):
                break
        if wl.speed_kernels and (
                time.perf_counter() - last_probe >= PROBE_EVERY_S):
            probes.append(speed.probe(wl.speed_kernels))
            last_probe = time.perf_counter()
        before.append(len(probes) - 1)
        t0 = time.perf_counter()
        ops.append(run_op(wl, len(ops), rng.randrange(2**31)))
        ops[-1].slot = time.perf_counter() - t0
        busy += ops[-1].slot
    probes.append(speed.probe(wl.speed_kernels))
    for op, k in zip(ops, before):
        op.scale = speed.scale(wl.speed_kernels, probes[k], probes[k + 1])
    return ops, probes


def traced_plan(wl, rng, smoke: bool, workdir: Path):
    """Each op once untraced and once traced, with the same arguments."""
    import tracer as tracing

    tracer = tracing.Tracer()
    ops = []
    for i in range(2 if smoke else wl.trace_ops):
        op_seed = rng.randrange(2**31)
        ops.append(run_op(wl, i, op_seed))
        ops.append(run_op(wl, i, op_seed, tracer, workdir / f"report-{i}.json"))
    return ops, tracer


def layer_metrics(tracer, traced: list, untraced: list) -> dict:
    """Per-op averages over the traced ops."""
    import tracer as tracing

    k = len(traced)
    totals = tracer.layer_totals()

    def calls(name):
        return totals.get(name, [0, 0.0])[0] / k

    def self_s(name):
        return totals.get(name, [0, 0.0])[1] / k

    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in CALLS_ONLY:
        m[f"{name}.calls"] = (calls(name), "count")
    m["constraints.project_to_surface.moved_ratio"] = (
        tracer.project_moved / tracer.project_calls
        if tracer.project_calls else 0.0, "ratio")
    m["phase.PhaseFunction.self_s"] = (
        self_s("phase.PhaseFunction.__call__")
        + self_s("phase.PhaseFunction.gradient"), "s")
    linalg = [f"linalg.{name}" for name in tracing.LINALG]
    for name in linalg:
        m[f"{name}.calls"] = (calls(name), "count")
    m["linalg.factorizations"] = (sum(calls(n) for n in linalg), "count")
    m["linalg.self_s"] = (sum(self_s(n) for n in linalg), "s")
    m["linalg.factor_work"] = (tracer.factor_work / k, "mnk_computed")
    m["report.worst_margin"] = (
        max(op.verdict.margin for op in traced), "ratio")
    m["report.failed_checks"] = (
        sum(op.verdict.failed_checks for op in traced) / k, "count")
    m["trace.overhead"] = (
        statistics.median(op.seconds for op in traced)
        / statistics.median(op.seconds for op in untraced) - 1.0, "ratio")
    return m


def end_to_end(wl, rng, args, started: float, setups: list):
    """Timed phase with tracing off; (metrics, ops)."""
    ops, probes = timed_loop(wl, rng, args.seconds, args.smoke, started)
    OUT.mkdir(exist_ok=True)
    (OUT / f"ops-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"op_s": [op.seconds for op in ops],
                    "slot_s": [op.slot for op in ops],
                    "scale": [op.scale for op in ops],
                    "probes": probes}))
    level = tail_level(len(ops))
    raw = [op.seconds for op in ops]
    scaled = [op.seconds * op.scale for op in ops]
    print(f"# op_s.tail is p{level} of {len(ops)} ops")
    print(f"# unscaled op_s.p50 {statistics.median(raw):.6g} "
          f"op_s.tail {percentile(raw, level):.6g} ops_per_s "
          f"{len(ops) / sum(op.slot for op in ops):.6g}; median speed "
          f"scale {statistics.median(op.scale for op in ops):.4f}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(scaled), "s"),
        "op_s.tail": (percentile(scaled, level), "s"),
        "ops_per_s": (len(ops) / sum(op.slot * op.scale for op in ops),
                      "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, ops


def per_layer(wl, rng, args, workdir: Path):
    """Traced run; (metrics, ops)."""
    ops, tracer = traced_plan(wl, rng, args.smoke, workdir)
    traced = [op for op in ops if op.traced]
    metrics = layer_metrics(tracer, traced,
                            [op for op in ops if not op.traced])
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans)
    print(f"# spans written to {spans.relative_to(ROOT)}")
    return metrics, ops


def run_workload(args) -> dict:
    started = time.perf_counter()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s, wl = setup(args.workload, args.seed, args.smoke, workdir)
        setups = setup_samples(setup_s, args)
        print("# env " + json.dumps(environment()))
        rng = random.Random(args.seed)
        if args.trace:
            metrics, ops = per_layer(wl, rng, args, workdir)
        else:
            metrics, ops = end_to_end(wl, rng, args, started, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [op for op in ops if op.verdict.failed]
    flagged = [op for op in ops
               if op.verdict.failed or op.verdict.false_alarms]
    print(f"# fail_ratio {len(flagged) / len(ops):.4f} ({len(flagged)}/"
          f"{len(ops)} ops with a failing check, {len(failed)} failed)")
    for op in flagged:
        print(f"# {'failed' if op.verdict.failed else 'flagged'} op "
              f"{op.index}{' traced' if op.traced else ''} [{op.desc}]: "
              + ", ".join(op.verdict.failed + [
                  f"{name} (known false alarm)"
                  for name in op.verdict.false_alarms]))
    wrong = [op for op in ops if not op.verdict.correct]
    for op in wrong:
        print(f"# INCORRECT op {op.index} [{op.desc}]")
    return {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process; with --smoke, both modes and a
    check of the metric names and units against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    modes = (0, 1) if args.smoke else (args.trace,)
    ok = True
    for trace in modes:
        for w in spec["workloads"]:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                                  capture_output=True, text=True,
                                  timeout=900, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w['name']}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"== {w['name']} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[:-1]:
                if not line.startswith("# env"):
                    print(f"   {line}")
            for name, m in result["metrics"].items():
                print(f"   {name:<48} {m['value']:.6g} {m['unit']}")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if args.smoke and got != expected[trace]:
                missing = set(expected[trace]) - set(got)
                extra = set(got) - set(expected[trace])
                print(f"   METRIC MISMATCH missing={sorted(missing)} "
                      f"extra={sorted(extra)}")
                ok = False
            ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload in its own process")
    p.add_argument("--smoke", action="store_true",
                   help="tiny shapes and fixed op counts")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "diracred" / "__init__.py").is_file():
        print(f"error: no diracred sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("--workload or --all is required")
    if args.setup_probe:
        workdir = HERE / "_work" / f"probe-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            print(setup(args.workload, args.seed, args.smoke, workdir)[0])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    os.environ.update(BLAS_PIN)
    sys.exit(main())
