"""Structured check reports: named residuals with tolerances and verdicts.

Record names are stable equation-style tags (eq_21q, eq_32, ...) so that
downstream tooling can grep them without parsing prose.  Each record is
written once, with its tolerance, by the stage that computes it.

A stage run on a stack of systems (the Fourier blocks of a lattice)
records one residual per block; the record's residual is the worst of
them, and the report's ``blocks`` label the stack so that a failed
construction identity names its block.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    InvalidInputError,
    NoSolutionError,
    Tolerance,
)

# tolerance of an integer-count record (the distance of a rank from its
# expected value, a stencil radius beyond one site): it passes only at 0
COUNT_TOL = 0.5


@dataclass(frozen=True)
class CheckRecord:
    name: str
    residual: float
    tolerance: float
    # the residual of each block of a stack, whose worst is ``residual``
    per_block: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class CheckReport:
    system: str
    tolerances: Tolerance = field(default_factory=lambda: DEFAULT_TOL)
    seeds: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    # labels of the blocks of a stack, in order; empty for one system
    blocks: tuple = ()
    # how many of the blocks carry the residuals of another, certified
    # block (see spread) rather than their own
    filled: int = 0

    def add(self, name: str, residual, tolerance: float) -> None:
        """Record a residual, or an array of them, one per block of a
        stack, under its worst (a NaN is kept, so it fails)."""
        if any(r.name == name for r in self.records):
            raise InvalidInputError(f"duplicate check record {name!r}")
        values = np.asarray(residual, dtype=float)
        stacked = values.ndim > 0
        self.records.append(CheckRecord(
            name=name, residual=float(values.max() if stacked else values),
            tolerance=float(tolerance),
            per_block=values if stacked else None,
        ))

    def require(self, name: str, residual, tolerance: float) -> None:
        """Record a construction identity; raise NoSolutionError, naming
        the record, the report's system and on a stack the first failing
        block, when it fails."""
        self.add(name, residual, tolerance)
        r = self.records[-1]
        if r.passed:
            return
        where, value = self.system, r.residual
        if r.per_block is not None:
            i = int(np.flatnonzero(~(r.per_block <= r.tolerance))[0])
            label = self.blocks[i] if self.blocks else f"block {i}"
            where, value = f"{where} {label}", r.per_block[i]
        raise NoSolutionError(
            f"{where}: construction identity {name} failed", float(value))

    def take(self, other: "CheckReport", *names: str) -> None:
        """Add the named records of another report as recorded there."""
        for name in names:
            r = other.record(name)
            self.add(r.name, r.residual if r.per_block is None
                     else r.per_block, r.tolerance)

    def merge(self, other: "CheckReport") -> None:
        """Add every record, seed and timing of another report."""
        self.take(other, *(r.name for r in other.records))
        self.seeds.update(other.seeds)
        self.timings.update(other.timings)

    def fold(self, other: "CheckReport") -> None:
        """Fold in the report of another part of the same system, such as
        one stack of a lattice's Fourier blocks.  Both must hold the same
        records (names, order, tolerances); each keeps the worse
        residual, a NaN included, the per-block residuals and the block
        labels of both parts, in order, and timings add up."""
        if self.records and ([(r.name, r.tolerance) for r in self.records]
                             != [(r.name, r.tolerance)
                                 for r in other.records]):
            raise InvalidInputError(
                f"reports disagree on their checks: {other.system}")
        if self.records:
            self.records = [
                CheckRecord(r.name, float(np.max([s.residual, r.residual])),
                            r.tolerance,
                            None if s.per_block is None or r.per_block is None
                            else np.concatenate([s.per_block, r.per_block]))
                for s, r in zip(self.records, other.records)]
        else:
            self.records = list(other.records)
        self.blocks += other.blocks
        for key, value in other.timings.items():
            self.timings[key] = self.timings.get(key, 0.0) + value

    def spread(self, blocks: tuple, source) -> None:
        """Carry the report of the certified blocks, its ``blocks``, to
        all of ``blocks``: block i takes the per-block residuals of
        certified block source[i], and ``filled`` counts the blocks that
        are not certified ones.  Each certified block must be the source
        of some block, so that every worst residual stays."""
        source = np.asarray(source)
        if len(source) != len(blocks) or set(source.tolist()) != set(
                range(len(self.blocks))):
            raise InvalidInputError(
                "every block needs one source, and every certified block "
                "must be one")
        self.records = [r if r.per_block is None else
                        dataclasses.replace(r, per_block=r.per_block[source])
                        for r in self.records]
        self.filled = len(blocks) - len(self.blocks)
        self.blocks = tuple(blocks)

    def with_stage(self, stage: "CheckReport") -> "CheckReport":
        """A copy of this report with a stage's records and seeds added.
        A record left by an earlier run of the same stage is replaced in
        place."""
        fresh = {r.name: r for r in stage.records}
        out = dataclasses.replace(
            self, seeds={**self.seeds, **stage.seeds},
            timings=dict(self.timings),
            records=[fresh.pop(r.name, r) for r in self.records],
        )
        out.records.extend(fresh.values())
        return out

    def record(self, name: str) -> CheckRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def residuals(self) -> MappingProxyType:
        """Read-only name -> residual view of the records."""
        return MappingProxyType({r.name: r.residual for r in self.records})

    @property
    def checks(self) -> MappingProxyType:
        """Read-only name -> verdict view of the records."""
        return MappingProxyType({r.name: r.passed for r in self.records})

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "passed": self.passed,
            "tolerances": {
                "rank_rel": self.tolerances.rank_rel,
                "weak_eq": self.tolerances.weak_eq,
                "surface": self.tolerances.surface,
            },
            "seeds": dict(self.seeds),
            **({"blocks": {"total": len(self.blocks),
                           "certified": len(self.blocks) - self.filled}}
               if self.blocks else {}),
            "checks": [
                {
                    "name": r.name,
                    "residual": r.residual,
                    "tolerance": r.tolerance,
                    "pass": r.passed,
                }
                for r in self.records
            ],
            "timings": dict(self.timings),
        }

    def summary_lines(self) -> list:
        lines = [f"system: {self.system}"]
        if self.blocks:
            lines.append(f"blocks: {len(self.blocks)} total, "
                         f"{len(self.blocks) - self.filled} certified")
        for r in self.records:
            verdict = "pass" if r.passed else "FAIL"
            lines.append(
                f"  {r.name:<14} residual {r.residual:11.4e}  "
                f"tol {r.tolerance:8.1e}  {verdict}"
            )
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return lines
