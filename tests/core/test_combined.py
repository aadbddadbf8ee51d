"""Unit tests for the recursive SSP+PSP assigner (repro.core.strategies.combined)."""

from __future__ import annotations

import pytest

from repro.core.strategies.base import PriorityClass
from repro.core.strategies.combined import (
    PAPER_COMBINATIONS,
    DeadlineAssigner,
    parse_assigner,
)
from repro.core.strategies.psp import DivX, GlobalsFirst, UltimateDeadlineParallel
from repro.core.strategies.ssp import EqualFlexibility, UltimateDeadline
from repro.core.task import SimpleTask, parallel, serial


class TestParseAssigner:
    def test_single_ssp_name(self):
        assigner = parse_assigner("EQF")
        assert isinstance(assigner.ssp, EqualFlexibility)
        assert isinstance(assigner.psp, UltimateDeadlineParallel)

    def test_single_psp_name(self):
        assigner = parse_assigner("GF")
        assert isinstance(assigner.ssp, UltimateDeadline)
        assert isinstance(assigner.psp, GlobalsFirst)

    def test_div_without_hyphen(self):
        assigner = parse_assigner("DIV1")
        assert isinstance(assigner.psp, DivX)
        assert assigner.psp.x == 1.0

    def test_div_with_hyphen(self):
        assert parse_assigner("DIV-2").psp.x == 2.0

    def test_combination(self):
        assigner = parse_assigner("EQF-DIV1")
        assert isinstance(assigner.ssp, EqualFlexibility)
        assert assigner.psp.x == 1.0

    def test_combination_with_inner_hyphen(self):
        assert parse_assigner("EQF-DIV-2").psp.x == 2.0

    def test_fractional_div(self):
        assert parse_assigner("UD-DIV0.5").psp.x == 0.5

    def test_case_insensitive(self):
        assert isinstance(parse_assigner("eqf-div1").ssp, EqualFlexibility)

    def test_ud_ud(self):
        assigner = parse_assigner("UD-UD")
        assert isinstance(assigner.ssp, UltimateDeadline)
        assert isinstance(assigner.psp, UltimateDeadlineParallel)

    @pytest.mark.parametrize(
        "bad",
        [
            "", "XYZ", "EQF-XYZ", "XYZ-DIV1", "A-B-C-D",
            "DIVnan", "DIVNaN", "DIVinf", "DIV-inf", "EQF-DIVnan",
        ],
    )
    def test_unknown_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_assigner(bad)

    def test_paper_combinations_all_parse(self):
        for name in PAPER_COMBINATIONS:
            parse_assigner(name)

    def test_name_round_trip(self):
        assert parse_assigner("EQF-DIV1").name == "EQF-DIV1"
        assert parse_assigner("UD-UD").name == "UD-UD"
        assert parse_assigner("EQS-GF").name == "EQS-GF"


class TestSerialChildDeadline:
    def test_complex_child_uses_tree_envelope(self):
        """A parallel child contributes max(pex), a serial child sum(pex)."""
        assigner = parse_assigner("ED")
        group = parallel(SimpleTask(4.0), SimpleTask(6.0))
        tail = SimpleTask(2.0)
        chain = serial(group, tail)
        assignment = assigner.serial_child_deadline(
            remaining=chain.children,
            now=0.0,
            window_arrival=0.0,
            window_deadline=20.0,
        )
        # ED: dl - downstream pex = 20 - 2 = 18.
        assert assignment.deadline == pytest.approx(18.0)

    def test_ud_psp_keeps_normal_class(self):
        assigner = parse_assigner("EQF-UD")
        assignment = assigner.serial_child_deadline(
            remaining=[SimpleTask(1.0)],
            now=0.0,
            window_arrival=0.0,
            window_deadline=5.0,
        )
        assert assignment.priority_class == PriorityClass.NORMAL

    def test_gf_elevates_serial_leaves_too(self):
        """Under GF, *all* global subtasks get class priority."""
        assigner = parse_assigner("EQF-GF")
        assignment = assigner.serial_child_deadline(
            remaining=[SimpleTask(1.0)],
            now=0.0,
            window_arrival=0.0,
            window_deadline=5.0,
        )
        assert assignment.priority_class == PriorityClass.ELEVATED


class TestParallelChildDeadline:
    def test_div1_on_group(self):
        assigner = parse_assigner("UD-DIV1")
        children = [SimpleTask(1.0) for _ in range(4)]
        group = parallel(*children)
        assignment = assigner.parallel_child_deadline(
            children=group.children,
            index=0,
            now=10.0,
            window_deadline=30.0,
        )
        assert assignment.deadline == pytest.approx(15.0)

    def test_fork_time_plays_arrival_role(self):
        """For a nested group the window starts at fork time, not at the
        global task's arrival."""
        assigner = parse_assigner("UD-DIV1")
        children = parallel(SimpleTask(1.0), SimpleTask(1.0)).children
        early = assigner.parallel_child_deadline(children, 0, now=0.0, window_deadline=20.0)
        late = assigner.parallel_child_deadline(children, 0, now=10.0, window_deadline=20.0)
        assert early.deadline == pytest.approx(10.0)
        assert late.deadline == pytest.approx(15.0)


def test_assigner_is_value_object():
    a = parse_assigner("EQF-DIV1")
    b = DeadlineAssigner(ssp=a.ssp, psp=a.psp)
    assert a == b
