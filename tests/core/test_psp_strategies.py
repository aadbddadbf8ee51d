"""Unit tests for the PSP strategies (repro.core.strategies.psp)."""

from __future__ import annotations

import math

import pytest

from repro.core.strategies.base import ParallelContext, PriorityClass
from repro.core.strategies.psp import (
    PSP_STRATEGIES,
    DivX,
    GlobalsFirst,
    UltimateDeadlineParallel,
    make_div,
)


def make_context(arrival=10.0, deadline=30.0, fan_out=4, index=0, pex=1.0):
    return ParallelContext(
        window_arrival=arrival,
        window_deadline=deadline,
        fan_out=fan_out,
        index=index,
        pex=pex,
    )


class TestContext:
    def test_window_length(self):
        assert make_context().window_length == 20.0

    def test_bad_fan_out_rejected(self):
        with pytest.raises(ValueError):
            make_context(fan_out=0)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_context(fan_out=2, index=2)

    def test_negative_pex_rejected(self):
        with pytest.raises(ValueError):
            make_context(pex=-1.0)


class TestUltimateDeadline:
    def test_inherits_group_deadline(self):
        assert UltimateDeadlineParallel().assign(make_context()) == 30.0

    def test_normal_priority_class(self):
        assert UltimateDeadlineParallel().priority_class == PriorityClass.NORMAL


class TestDivX:
    def test_div1_formula(self):
        # dl = ar + (dl - ar)/(n*1) = 10 + 20/4 = 15.
        assert DivX(1.0).assign(make_context()) == pytest.approx(15.0)

    def test_div2_formula(self):
        # dl = 10 + 20/8 = 12.5.
        assert DivX(2.0).assign(make_context()) == pytest.approx(12.5)

    def test_monotone_in_x(self):
        ctx = make_context()
        deadlines = [DivX(x).assign(ctx) for x in (0.5, 1.0, 2.0, 4.0)]
        assert deadlines == sorted(deadlines, reverse=True)

    def test_monotone_in_fan_out(self):
        """The promotion grows automatically with the number of subtasks --
        the property the paper highlights."""
        deadlines = [
            DivX(1.0).assign(make_context(fan_out=n)) for n in (1, 2, 4, 8, 16)
        ]
        assert deadlines == sorted(deadlines, reverse=True)

    def test_always_later_than_arrival(self):
        """'With DIV-x, virtual deadlines are, however big x is, later than
        the task's arrival time' (Sec. 5.1)."""
        for x in (1.0, 10.0, 1000.0):
            for n in (1, 4, 64):
                deadline = DivX(x).assign(make_context(fan_out=n))
                assert deadline > 10.0

    def test_fan_out_one_x_one_is_ud(self):
        ctx = make_context(fan_out=1)
        assert DivX(1.0).assign(ctx) == UltimateDeadlineParallel().assign(ctx)

    def test_same_deadline_for_all_group_members(self):
        d = [DivX(1.0).assign(make_context(index=i)) for i in range(4)]
        assert len(set(d)) == 1

    def test_nonpositive_x_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                DivX(bad)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_x_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DivX(bad)

    def test_name_rendering(self):
        assert DivX(1.0).name == "DIV-1"
        assert DivX(2.0).name == "DIV-2"
        assert DivX(0.5).name == "DIV-0.5"

    def test_make_div(self):
        assert make_div(3.0).x == 3.0


class TestGlobalsFirst:
    def test_keeps_group_deadline(self):
        assert GlobalsFirst().assign(make_context()) == 30.0

    def test_elevated_priority_class(self):
        assert GlobalsFirst().priority_class == PriorityClass.ELEVATED


class TestRegistry:
    def test_known_names(self):
        assert {"UD", "DIV-1", "DIV-2", "DIV-4", "GF"} <= set(PSP_STRATEGIES)

    def test_priority_classes(self):
        elevated = [n for n, s in PSP_STRATEGIES.items()
                    if s.priority_class == PriorityClass.ELEVATED]
        assert elevated == ["GF"]

    def test_aggressiveness_ordering(self):
        """UD is the laziest, DIV-x increasingly aggressive."""
        ctx = make_context()
        ud = PSP_STRATEGIES["UD"].assign(ctx)
        div1 = PSP_STRATEGIES["DIV-1"].assign(ctx)
        div2 = PSP_STRATEGIES["DIV-2"].assign(ctx)
        assert div2 < div1 < ud
