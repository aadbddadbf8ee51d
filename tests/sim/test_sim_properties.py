"""Property-based tests of kernel invariants (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Environment
from repro.sim.monitor import TimeWeighted

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


@given(delays)
def test_events_always_fire_in_nondecreasing_time_order(ds):
    env = Environment()
    fired = []
    for d in ds:
        env._sleep(d, lambda e: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(ds)


@given(delays)
def test_run_until_horizon_never_overshoots(ds):
    env = Environment()
    for d in ds:
        env._sleep(d, lambda e: None)
    horizon = max(ds) / 2 if max(ds) > 0 else 1.0
    env.run(until=horizon)
    assert env.now == horizon


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=30))
def test_simultaneous_events_fire_fifo(tags):
    env = Environment()
    fired = []
    for tag in tags:
        env._sleep(1.0, lambda e, tag=tag: fired.append(tag))
    env.run()
    assert fired == tags


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60)
def test_time_weighted_mean_matches_manual_integration(steps):
    """The streaming time-weighted mean equals the explicit integral."""
    signal = TimeWeighted(initial=0.0, start_time=0.0)
    now = 0.0
    area = 0.0
    value = 0.0
    for dt, new_value in steps:
        area += value * dt
        now += dt
        signal.update(new_value, now=now)
        value = new_value
    horizon = now + 1.0
    area += value * 1.0
    assert signal.mean_at(horizon) == pytest_approx(area / horizon, abs_tol=1e-6)


def pytest_approx(expected, rel_tol=1e-9, abs_tol=1e-9):
    """Local approx helper tolerant of large magnitudes."""
    import pytest

    return pytest.approx(expected, rel=max(rel_tol, 1e-9), abs=abs_tol)
