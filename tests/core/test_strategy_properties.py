"""Property-based tests of SDA strategy invariants (hypothesis).

These encode the strategies' invariants: what must hold for *any*
deadline, submit time, and pex vector -- not just the worked examples.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.strategies.base import ParallelContext, SerialContext
from repro.core.strategies.psp import DivX, UltimateDeadlineParallel
from repro.core.strategies.ssp import (
    EffectiveDeadline,
    EqualFlexibility,
    EqualSlack,
    UltimateDeadline,
)

pex_lists = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=10,
)
times = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
positive = st.floats(min_value=0.01, max_value=1000.0, allow_nan=False)


def serial_ctx(deadline, submit, remaining):
    return SerialContext(
        window_arrival=0.0,
        window_deadline=deadline,
        submit_time=submit,
        remaining_pex=tuple(remaining),
    )


@given(times, times, pex_lists)
def test_ud_always_returns_global_deadline(deadline, submit, remaining):
    ctx = serial_ctx(deadline, submit, remaining)
    assert UltimateDeadline().assign(ctx) == deadline


@given(times, times, pex_lists)
def test_ed_never_exceeds_ud(deadline, submit, remaining):
    ctx = serial_ctx(deadline, submit, remaining)
    assert EffectiveDeadline().assign(ctx) <= deadline


@given(times, times, pex_lists)
def test_ed_equals_ud_minus_downstream(deadline, submit, remaining):
    ctx = serial_ctx(deadline, submit, remaining)
    downstream = sum(remaining[1:])
    assert EffectiveDeadline().assign(ctx) == pytest.approx(deadline - downstream)


@given(times, times, pex_lists)
def test_eqs_grants_current_pex_plus_fair_share(deadline, submit, remaining):
    ctx = serial_ctx(deadline, submit, remaining)
    assigned = EqualSlack().assign(ctx)
    share = (deadline - submit - sum(remaining)) / len(remaining)
    assert assigned == pytest.approx(submit + remaining[0] + share)


@given(times, times, pex_lists)
def test_eqf_share_proportional_to_pex(deadline, submit, remaining):
    ctx = serial_ctx(deadline, submit, remaining)
    assigned = EqualFlexibility().assign(ctx)
    total = sum(remaining)
    slack = deadline - submit - total
    assert assigned == pytest.approx(
        submit + remaining[0] + slack * remaining[0] / total
    )


@given(times, times, pex_lists)
def test_single_remaining_subtask_all_strategies_converge(deadline, submit, remaining):
    """With one subtask left, ED, EQS, and EQF all give the global deadline."""
    ctx = serial_ctx(deadline, submit, remaining[:1])
    for strategy in (EffectiveDeadline(), EqualSlack(), EqualFlexibility()):
        assert strategy.assign(ctx) == pytest.approx(deadline)


@given(times, positive, pex_lists)
def test_positive_slack_deadline_ordering(submit, extra_slack, remaining):
    """With positive remaining slack: EQS/EQF earlier than or equal to ED,
    ED earlier than or equal to UD (the slack-hoarding hierarchy)."""
    deadline = submit + sum(remaining) + extra_slack
    ctx = serial_ctx(deadline, submit, remaining)
    ud = UltimateDeadline().assign(ctx)
    ed = EffectiveDeadline().assign(ctx)
    eqs = EqualSlack().assign(ctx)
    eqf = EqualFlexibility().assign(ctx)
    assert eqs <= ed + 1e-9
    assert eqf <= ed + 1e-9
    assert ed <= ud + 1e-9


@given(times, positive, pex_lists)
def test_eqs_eqf_deadline_is_feasible_start(submit, extra_slack, remaining):
    """With positive slack, EQS/EQF deadlines leave room for the current
    subtask: dl(Ti) >= submit + pex(Ti)."""
    deadline = submit + sum(remaining) + extra_slack
    ctx = serial_ctx(deadline, submit, remaining)
    assert EqualSlack().assign(ctx) >= submit + remaining[0]
    assert EqualFlexibility().assign(ctx) >= submit + remaining[0]


@given(
    times,
    positive,
    st.integers(min_value=1, max_value=32),
    st.floats(min_value=1.0, max_value=16.0),
)
def test_divx_bounds(arrival, window, fan_out, x):
    """For x >= 1 (the paper's regime), DIV-x lies strictly after the
    group's arrival and never after its deadline.  (x < 1 *stretches* the
    window and may exceed the deadline; only monotonicity holds there.)"""
    ctx = ParallelContext(
        window_arrival=arrival,
        window_deadline=arrival + window,
        fan_out=fan_out,
        index=0,
    )
    assigned = DivX(x).assign(ctx)
    assert arrival < assigned <= arrival + window + 1e-9
    assert assigned <= UltimateDeadlineParallel().assign(ctx)


@given(times, positive, st.integers(min_value=1, max_value=16))
def test_divx_monotone_decreasing_in_x(arrival, window, fan_out):
    ctx = ParallelContext(
        window_arrival=arrival,
        window_deadline=arrival + window,
        fan_out=fan_out,
        index=0,
    )
    previous = float("inf")
    for x in (0.5, 1.0, 2.0, 4.0, 8.0):
        current = DivX(x).assign(ctx)
        assert current <= previous
        previous = current
