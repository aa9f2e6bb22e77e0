"""Command-line front end.

Subcommands: validate, analyze, bracket, synth, threeform, evolve.
Exit codes: 0 all checks pass, 1 check failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import constraints as con
from . import irreducible as irr
from . import oracle as oracle_mod
from . import second_order as so
from . import threeform as tf
from .numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    NoSolutionError,
    Tolerance,
    max_abs,
)
from .oracle import DegenerateSystemError
from .phase import PhaseFunction, dirac_matrix, quadratic
from .report import CheckReport


def parse_qspec(text: str, labels: tuple) -> PhaseFunction:
    """Parse a quadratic Hamiltonian like ``0.5*p1^2 + 0.5*q1^2 - q1*p2``.

    Terms are separated by + and -; each term is an optional numeric
    coefficient times a product of labeled coordinates, total degree <= 2.
    """
    index = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)
    q = np.zeros((dim, dim))
    b = np.zeros(dim)
    c0 = 0.0

    cleaned = text.replace(" ", "")
    if not cleaned:
        raise InvalidInputError("empty Hamiltonian expression")
    # a sign after the e/E of a number's mantissa stays with its number
    pieces = re.findall(r"[+-]?(?:(?<![\w.])[\d.]+[eE][+-]|[^+-])+",
                        cleaned)
    for piece in pieces:
        sign = 1.0
        body = piece
        if body[0] in "+-":
            sign = -1.0 if body[0] == "-" else 1.0
            body = body[1:]
        if not body:
            raise InvalidInputError(f"dangling sign in term {piece!r}")
        coeff = sign
        vars_: list = []
        for factor in body.split("*"):
            if not factor:
                raise InvalidInputError(f"empty factor in term {piece!r}")
            m = re.fullmatch(r"([A-Za-z_]\w*?)(?:\^(\d+))?", factor)
            if m and m.group(1) in index:
                power = int(m.group(2) or 1)
                if power not in (1, 2):
                    raise InvalidInputError(
                        f"power {power} in {piece!r}: a power must be 1 or 2"
                    )
                vars_.extend([index[m.group(1)]] * power)
            else:
                try:
                    coeff *= float(factor)
                except ValueError:
                    raise InvalidInputError(
                        f"unknown coordinate or number {factor!r} "
                        f"(labels: {', '.join(labels)})"
                    )
        if len(vars_) > 2:
            raise InvalidInputError(f"term {piece!r} has degree > 2")
        if len(vars_) == 0:
            c0 += coeff
        elif len(vars_) == 1:
            b[vars_[0]] += coeff
        else:
            i, j = vars_
            q[i, j] += coeff
            q[j, i] += coeff
    return quadratic(q, b, c0, label=text.strip())


def _analyze_report(
    cs: con.ConstraintSet, points: int, seed: int, tol: Tolerance
) -> CheckReport:
    """validate, then the construction at the first point and, on an
    order-2 system, equivalence_report: the points are drawn once, and
    validate and equivalence_report certify the same list."""
    pts = con.sample_surface(cs, seed, points, tol)
    rep = con.validate(cs, pts, tol)
    rep.seeds["points"] = seed
    if not rep.passed:
        return rep

    try:
        if cs.order == 2:
            art = so.full_artifacts(cs, pts[0], tol)
            irs = irr.build_irreducible(art, tol)
            # validate's eq_11x, taken over every point, stands for the
            # build point's
            rep.take(irs.report, *(name for name in irs.report.residuals
                                   if name not in rep.residuals))
            rep.seeds.update(irs.report.seeds)
            rep.merge(irr.equivalence_report(irs, pts, seed, tol))
        else:
            # the noninvertible stage alone, which needs no omega pair
            art = so.second_order_artifacts(cs, pts[0], tol)
            f_non = dirac_matrix(cs.spec.poisson, art.g, art.m2)
            f_oracle = oracle_mod.fundamental_matrix_oracle(cs, pts[0], tol)
            rep.add("eq_32", max_abs(f_non - f_oracle), tol.weak_eq)
            rep.take(art.report, "eq_15")
    except (NoSolutionError, DegenerateSystemError) as exc:
        residual = getattr(exc, "residual", np.inf)
        rep.add("construction_error", float(residual), tol.weak_eq)
    return rep


def _emit(rep_doc: dict, json_path, lines: list) -> None:
    for line in lines:
        print(line)
    if json_path:
        Path(json_path).write_text(json.dumps(rep_doc, indent=1) + "\n")


def _cmd_validate(args) -> int:
    cs = con.load_system(args.file)
    tol = DEFAULT_TOL
    pts = con.sample_surface(cs, args.seed, args.points, tol)
    rep = con.validate(cs, pts, tol)
    rep.seeds["points"] = args.seed
    _emit(rep.to_dict(), args.json, rep.summary_lines())
    return 0 if rep.passed else 1


def _cmd_analyze(args) -> int:
    cs = con.load_system(args.file)
    rep = _analyze_report(cs, args.points, args.seed, DEFAULT_TOL)
    _emit(rep.to_dict(), args.json, rep.summary_lines())
    return 0 if rep.passed else 1


def _cmd_bracket(args) -> int:
    cs = con.load_system(args.file)
    tol = DEFAULT_TOL
    at = con.sample_surface(cs, args.seed, 1, tol)[0]
    method = args.method
    if method == "subset":
        mat = oracle_mod.fundamental_matrix_oracle(cs, at, tol)
    elif method == "reducible":
        mat = so.fundamental_matrix_2(cs, at, "noninvertible", tol)
    elif method == "invertible":
        mat = so.fundamental_matrix_2(cs, at, "invertible", tol)
    else:
        irs = irr.build_irreducible(so.second_order_artifacts(cs, at, tol),
                                    tol)
        ext = irs.join(at, np.zeros(irs.dim_y))
        mat = irr.fundamental_matrix_irred(irs, ext, tol)[:cs.spec.dim,
                                                          :cs.spec.dim]
    for row in np.asarray(mat):
        print(" ".join(f"{v:+.12e}" for v in row))
    return 0


def _cmd_synth(args) -> int:
    cs = con.synth_linear(args.pairs, args.m0, args.m1, args.m2, args.seed)
    con.save_system(cs, args.output)
    print(f"wrote {args.output}: 2N={2 * args.pairs} "
          f"M0={args.m0} M1={args.m1} M2={args.m2} seed={args.seed}")
    return 0


def _cmd_threeform(args) -> int:
    lat = tf.LatticeSpec(d=args.dim, L=args.lattice,
                         derivative=args.derivative)
    rep, prep = tf.certify_lattice(lat, DEFAULT_TOL, seed=args.seed,
                                   paper_choices=args.paper_choices)
    doc = rep.to_dict()
    lines = rep.summary_lines()
    passed = rep.passed
    if prep is not None:
        doc = {"engine": doc, "paper_choices": prep.to_dict()}
        lines += prep.summary_lines()
        passed = passed and prep.passed
    _emit(doc, args.json, lines)
    return 0 if passed else 1


def _cmd_evolve(args) -> int:
    if not (np.isfinite(args.drift_tol) and args.drift_tol >= 0.0):
        raise InvalidInputError(
            f"drift tolerance must be finite and >= 0, got {args.drift_tol}")
    cs = con.load_system(args.file)
    tol = DEFAULT_TOL
    h = parse_qspec(args.hamiltonian, cs.spec.default_labels())
    z0 = con.sample_surface(cs, args.seed, 1, tol)[0]
    irs = irr.build_irreducible(so.second_order_artifacts(cs, z0, tol),
                                tol)
    state = irr.evolve(irs, h, irs.join(z0, np.zeros(irs.dim_y)),
                       args.dt, args.steps)
    z, y = irs.split(state)
    drift = cs.surface_residual(z)
    print("final state:")
    print(" ".join(f"{v:+.12e}" for v in z))
    print(f"constraint drift: {drift:.6e}")
    if np.any(y != 0.0):
        print("warning: y variables moved")
        return 1
    return 0 if drift <= args.drift_tol else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diracred",
        description="Reducible second-class constraint systems: "
                    "certified Dirac brackets in four formulations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check reducibility and ranks")
    v.add_argument("file")
    v.add_argument("--points", type=int, default=5)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json", default=None)
    v.set_defaults(fn=_cmd_validate)

    a = sub.add_parser("analyze", help="run the full certification chain")
    a.add_argument("file")
    a.add_argument("--points", type=int, default=20)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--json", default=None)
    a.set_defaults(fn=_cmd_analyze)

    b = sub.add_parser("bracket", help="print a fundamental bracket matrix")
    b.add_argument("file")
    b.add_argument("--method", default="subset",
                   choices=["subset", "reducible", "invertible",
                            "irreducible"])
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(fn=_cmd_bracket)

    s = sub.add_parser("synth", help="generate a synthetic affine system")
    s.add_argument("--pairs", type=int, required=True)
    s.add_argument("--m0", type=int, required=True)
    s.add_argument("--m1", type=int, required=True)
    s.add_argument("--m2", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(fn=_cmd_synth)

    t = sub.add_parser("threeform", help="run the lattice three-form example")
    # at d = 3 every bracket of the three-form is identically zero; d = 4
    # is the least dimension whose bracket a wrong route would miss
    t.add_argument("--dim", type=int, default=4)
    t.add_argument("--lattice", type=int, default=5)
    t.add_argument("--derivative", default="fd", choices=["fd", "spectral"])
    t.add_argument("--paper-choices", action="store_true")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--json", default=None)
    t.set_defaults(fn=_cmd_threeform)

    e = sub.add_parser("evolve", help="integrate Hamiltonian dynamics")
    e.add_argument("file")
    e.add_argument("--h", dest="hamiltonian", required=True,
                   help="quadratic Hamiltonian, e.g. '0.5*p2^2 + 0.5*q2^2'")
    e.add_argument("--steps", type=int, required=True)
    e.add_argument("--dt", type=float, required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--drift-tol", type=float, default=1e-6)
    e.set_defaults(fn=_cmd_evolve)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call reads, built at the first one: argparse
    keeps no state between parse_args calls, and building it costs more
    than a small op."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoSolutionError, DegenerateSystemError,
            con.OffSurfaceError, con.ProjectionError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
