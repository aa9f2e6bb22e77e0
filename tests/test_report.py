
import numpy as np
import pytest

from diracred.numerics import InvalidInputError, NoSolutionError, Tolerance
from diracred.report import CheckReport


def make_report():
    rep = CheckReport(system="demo", seeds={"points": 3})
    rep.add("eq_21q", 1e-12, 1e-8)
    rep.add("eq_32", 2e-9, 1e-8)
    rep.timings["stage"] = 0.25
    return rep


def test_pass_is_conjunction_of_records():
    rep = make_report()
    assert rep.passed
    rep.add("eq_p11", 1.0, 1e-8)
    assert not rep.passed
    assert rep.record("eq_p11").passed is False
    assert rep.record("eq_21q").passed is True


def test_duplicate_names_rejected():
    rep = make_report()
    with pytest.raises(InvalidInputError):
        rep.add("eq_21q", 0.0, 1e-8)


def test_merge_combines_and_guards():
    rep = make_report()
    other = CheckReport(system="demo")
    other.add("eq_24", 0.0, 1e-8)
    other.timings["extra"] = 1.0
    rep.merge(other)
    assert rep.record("eq_24").residual == 0.0
    assert rep.timings["extra"] == 1.0
    with pytest.raises(InvalidInputError):
        rep.merge(other)


def test_summary_lines_mark_failures():
    rep = CheckReport(system="demo", tolerances=Tolerance())
    rep.add("eq_2", 1.0, 1e-8)
    lines = rep.summary_lines()
    assert lines[0] == "system: demo"
    assert any("FAIL" in line for line in lines)
    assert lines[-1].endswith("FAIL")


def test_stacked_residuals_record_their_worst_and_name_a_block():
    rep = CheckReport(system="lattice", blocks=("k=1", "k=2", "k=3"))
    rep.add("eq_30", np.array([1e-12, np.nan, 2e-9]), 1e-8)
    # the worst keeps a NaN, so the record fails
    assert np.isnan(rep.record("eq_30").residual)
    assert not rep.record("eq_30").passed
    assert rep.record("eq_30").per_block.tolist()[2] == 2e-9
    with pytest.raises(NoSolutionError, match="lattice k=2: construction "
                       "identity eq_11d_rank failed .residual 1.000e"):
        rep.require("eq_11d_rank", np.array([0.0, 1.0, 2.0]), 0.5)
    other = CheckReport(system="lattice")
    other.take(rep, "eq_30")
    assert other.record("eq_30").per_block is not None


def test_fold_keeps_the_worse_residual():
    first, second = CheckReport(system="a"), CheckReport(system="b")
    for rep, values in ((first, (1e-12, 3e-9)), (second, (2e-12, 1e-9))):
        rep.add("eq_21q", values[0], 1e-8)
        rep.add("eq_32", values[1], 1e-8)
        rep.timings["stage"] = 1.0
    out = CheckReport(system="lattice")
    out.fold(first)
    out.fold(second)
    assert out.residuals == {"eq_21q": 2e-12, "eq_32": 3e-9}
    assert out.timings == {"stage": 2.0}
    third = CheckReport(system="c")
    third.add("eq_32", 0.0, 1e-8)
    with pytest.raises(InvalidInputError):
        out.fold(third)


def test_fold_and_spread_carry_per_block_residuals():
    # folding stacks keeps their blocks in order; spreading the certified
    # blocks over all blocks keeps every worst residual
    parts = []
    for labels, values in ((("k=1", "k=2"), [1e-12, 3e-9]),
                           (("k=5",), [2e-9])):
        rep = CheckReport(system="part", blocks=labels)
        rep.add("eq_32", np.array(values), 1e-8)
        rep.add("locality", 0.0, 0.5)
        parts.append(rep)
    out = CheckReport(system="lattice")
    for rep in parts:
        out.fold(rep)
    assert out.blocks == ("k=1", "k=2", "k=5")
    assert out.record("eq_32").per_block.tolist() == [1e-12, 3e-9, 2e-9]
    assert out.to_dict()["blocks"] == {"total": 3, "certified": 3}
    with pytest.raises(InvalidInputError):
        out.spread(("k=1", "k=2", "k=3", "k=5"), [0, 1, 1, 1])
    out.spread(("k=1", "k=2", "k=3", "k=5"), [0, 1, 1, 2])
    assert out.record("eq_32").per_block.tolist() == [
        1e-12, 3e-9, 3e-9, 2e-9]
    assert out.residuals == {"eq_32": 3e-9, "locality": 0.0}
    assert out.to_dict()["blocks"] == {"total": 4, "certified": 3}
    assert out.summary_lines()[1] == "blocks: 4 total, 3 certified"
    assert "blocks" not in make_report().to_dict()
    assert not make_report().summary_lines()[1].startswith("blocks")
