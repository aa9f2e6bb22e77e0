"""Spans and call counts around diracred's public functions, recorded from
outside the package.

Modules bind names with ``from .x import f``, so patching the defining
module alone would miss callers: every binding of a traced function in
every ``diracred.*`` module is replaced while a tracer is installed, and
restored by ``uninstall``.  The numpy/scipy factorisation entry points are
wrapped the same way.  Spans are (name, op, start, end, parent) and stay in
memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from array import array
from time import perf_counter

import numpy as np
import scipy.linalg

# module -> public functions ("Class.method" for methods), span names drop
# the "diracred." prefix
TRACED = {
    "diracred.oracle": ["independent_subset", "fundamental_matrix_oracle"],
    "diracred.second_order": [
        "second_order_artifacts", "omega_tilde_pair", "mu_pair"],
    "diracred.irreducible": [
        "build_irreducible", "equivalence_report", "fundamental_matrix_irred",
        "intermediate_bracket_matrix", "eom_step"],
    "diracred.constraints": [
        "load_system", "sample_surface", "validate", "project_to_surface",
        "ConstraintSet.values", "ConstraintSet.gradients"],
    "diracred.phase": ["PhaseFunction.__call__", "PhaseFunction.gradient"],
    "diracred.first_order": ["first_order_artifacts", "fundamental_matrix_1"],
    "diracred.threeform": [
        "build_threeform", "run_threeform_checks", "paper_choices_artifacts",
        "closed_form_projector", "pair_projector"],
    "diracred.numerics": [
        "rank_tol", "pseudoinverse", "null_basis", "skew_solve"],
}

LINALG = ("svd", "svdvals", "pinv", "inv", "lstsq", "qr")
LINALG_OWNERS = (np.linalg, scipy.linalg)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)
        self.current_op = -1
        self.project_calls = 0
        self.project_moved = 0
        self.factor_work = 0

    # -- spans -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.op_id.append(self.current_op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name`` (used for the op root)."""
        idx = self._open(self._intern(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, after=None):
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- hooks ---------------------------------------------------------------

    def _after_project(self, args, kwargs, result) -> None:
        start = args[1] if len(args) > 1 else kwargs["start"]
        self.project_calls += 1
        if not np.array_equal(np.asarray(start, dtype=float), result):
            self.project_moved += 1

    def _after_factor(self, args, kwargs, result) -> None:
        a = args[0] if args else next(iter(kwargs.values()))
        shape = np.shape(a)
        if len(shape) >= 2:
            m, n = shape[-2:]
            self.factor_work += math.prod(shape[:-2]) * m * n * min(m, n)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every binding of the traced functions with a wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "diracred"
                                         or n.startswith("diracred."))]
        replace = {}  # id(original) -> (original, wrapper)
        for modname, names in TRACED.items():
            module = sys.modules[modname]
            short = modname.split(".", 1)[1]
            for name in names:
                after = (self._after_project
                         if name == "project_to_surface" else None)
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth,
                              self._wrap(f"{short}.{name}", orig, after))
                else:
                    orig = getattr(module, name)
                    replace[id(orig)] = (
                        orig, self._wrap(f"{short}.{name}", orig, after))
        for name in LINALG:
            wrapper = None
            for owner in LINALG_OWNERS:
                orig = getattr(owner, name, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"linalg.{name}", orig,
                                     self._after_factor)
                replace[id(orig)] = (orig, wrapper)
                self._set(owner, name, wrapper)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- summaries -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """{span name: [calls, self seconds]} over all recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            entry = totals[self.names[self.name_id[i]]]
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return totals

    def write(self, path) -> None:
        """Spans as [name index, op, start ns, end ns, parent index]."""
        t0 = self.start[0] if len(self.start) else 0.0
        spans = [
            [self.name_id[i], self.op_id[i],
             round((self.start[i] - t0) * 1e9),
             round((self.end[i] - t0) * 1e9), self.parent[i]]
            for i in range(len(self.start))
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": spans}, fh,
                      separators=(",", ":"))
