"""Smoke tests for the example scripts.

Each example guards its entry point with ``__name__ == "__main__"``, so
importing is safe; the fast helpers are exercised directly, and the
simulation functions run at a short horizon by patching the module's
time constants.  (The full example mains simulate tens of thousands of
time units; CI's ``tier1`` job runs each of them in its "Example mains"
step, not here.)
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

EXAMPLES = [
    "quickstart",
    "stock_trading",
    "web_pipeline",
    "strategy_playground",
    "trace_debugging",
]


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"examples.{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_imports_cleanly(name):
    module = load_example(name)
    assert hasattr(module, "main")


class TestStrategyPlayground:
    def test_walk_assignments_serial(self):
        playground = load_example("strategy_playground")
        from repro.core.notation import parse

        tree = parse("[2 3 5]")
        rows, finish = playground.walk_assignments(tree, deadline=20.0,
                                                   strategy="EQF")
        assert finish == pytest.approx(10.0)
        assert len(rows) == 3
        # Final stage's virtual deadline reaches the global deadline.
        assert float(rows[-1][3]) == pytest.approx(20.0)

    def test_walk_assignments_nested(self):
        playground = load_example("strategy_playground")
        from repro.core.notation import parse

        tree = parse("[1 [2 || 2] 1]")
        rows, finish = playground.walk_assignments(tree, deadline=15.0,
                                                   strategy="UD-DIV1")
        assert finish == pytest.approx(4.0)
        assert len(rows) == 4


class TestStockTradingHelpers:
    def test_build_trade_task_shape(self):
        trading = load_example("stock_trading")
        from repro.sim.rng import StreamFactory

        tree = trading.build_trade_task(StreamFactory(1))
        assert tree.subtask_count() == 6  # 3 feeds + filter + expert + order
        leaves = list(tree.leaves())
        assert leaves[0].node_index in trading.FEED_NODES
        assert leaves[-1].node_index == trading.ORDER_NODE

    def test_short_market_run_completes_trades(self, monkeypatch):
        trading = load_example("stock_trading")
        monkeypatch.setattr(trading, "SIM_SECONDS", 3_000.0)
        monkeypatch.setattr(trading, "WARMUP_SECONDS", 300.0)
        result = trading.run_market("EQF-DIV1")
        assert result.global_.completed > 0

    def test_trade_factory_stamps_deadline_after_arrival(self):
        trading = load_example("stock_trading")
        from repro.sim.rng import StreamFactory

        tree, deadline = trading.TradeFactory(StreamFactory(1)).build(40.0)
        assert deadline == 40.0 + trading.DEADLINE_SECONDS
        assert tree.subtask_count() == 6

    def test_trade_nodes_disjoint(self):
        trading = load_example("stock_trading")
        roles = set(trading.FEED_NODES) | {
            trading.FILTER_NODE, trading.EXPERT_NODE, trading.ORDER_NODE
        }
        assert len(roles) == 6


class TestWebPipelineHelpers:
    def test_build_request_shape(self):
        web = load_example("web_pipeline")
        from repro.sim.rng import StreamFactory

        tree = web.build_request(StreamFactory(1))
        assert tree.subtask_count() == 5  # gateway + 3 backends + render
        # The middle child is the parallel fan-out.
        assert len(tree.children) == 3
        assert tree.children[1].kind == "parallel"

    def test_request_factory_stamps_slo_deadline(self):
        web = load_example("web_pipeline")
        from repro.sim.rng import StreamFactory

        tree, deadline = web.RequestFactory(StreamFactory(1)).build(90.0)
        assert deadline == 90.0 + web.SLO_MS
        assert tree.subtask_count() == 5

    def test_short_service_run_completes_requests(self, monkeypatch):
        web = load_example("web_pipeline")
        monkeypatch.setattr(web, "SIM_MS", 6_000.0)
        monkeypatch.setattr(web, "WARMUP_MS", 600.0)
        result = web.run_service("DIV-1")
        assert result.global_.completed > 0


class TestTraceDebugging:
    @pytest.mark.parametrize("strategy", ["UD", "EQF"])
    def test_global_submits_have_distinct_names(self, strategy):
        """The example pairs each submit with its dispatch by
        ``(unit_name, node)``; a repeated name would pair a dispatch
        with another unit's submit and skew the printed waits."""
        tracing = load_example("trace_debugging")
        sim, _ = tracing.trace_run(strategy)
        keys = [
            (event.unit_name, event.node_index)
            for event in sim.trace_log.events
            if event.kind == "submit" and event.task_class == "global"
        ]
        assert len(keys) > 20
        assert len(set(keys)) == len(keys)
