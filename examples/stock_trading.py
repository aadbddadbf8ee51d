"""The paper's motivating scenario: stock market analysis and program trading.

Section 1 of the paper motivates the SDA problem with a trading pipeline:

    "information on stock prices is gathered through multiple sources and
    is piped through a series of filters for refinement.  The information
    is then used by an expert system that spots trading opportunities.
    [...] A profit may then be realized by the appropriate buy and sell
    actions.  [...] a buy-sell action should be implemented within two
    minutes from the time when the information is gathered."

This example models that pipeline as a serial-parallel global task:

    trade = [ [feed-A || feed-B || feed-C]   # gather from 3 sources
              filter                          # refinement
              expert-system                   # DB + rule processing
              order-execution ]               # buy/sell action

running on a 6-node system (feed handlers, a filter engine, a database/
expert-system server, an order gateway) that also serves unrelated local
work.  It then compares the four SSP x PSP combinations of Sec. 6 on the
fraction of trades completing within their two-minute deadline.

Run with::

    python examples/stock_trading.py
"""

from __future__ import annotations

from repro.core.strategies import parse_assigner
from repro.core.task import SimpleTask, parallel, serial
from repro.sim.core import Environment
from repro.sim.distributions import Exponential, Uniform, exponential_interarrival
from repro.sim.rng import StreamFactory
from repro.stats.tables import format_percent, render_table
from repro.system.metrics import MetricsCollector
from repro.system.node import Node
from repro.system.process_manager import ProcessManager
from repro.system.schedulers import get_policy
from repro.system.workload import (
    GlobalTaskFactory,
    GlobalTaskSource,
    LocalTaskSource,
)

# One simulated time unit = one second of wall-clock time.
DEADLINE_SECONDS = 120.0          # "within two minutes"
MARKET_EVENT_RATE = 1.0 / 60.0    # a trading opportunity every ~minute
SIM_SECONDS = 120_000.0
WARMUP_SECONDS = 12_000.0

# Node roles (index into the node list).
FEED_NODES = (0, 1, 2)   # one handler per market data source
FILTER_NODE = 3
EXPERT_NODE = 4
ORDER_NODE = 5

# Mean service seconds per pipeline stage.
FEED_SECONDS = 8.0        # gather + normalize one source's burst
FILTER_SECONDS = 10.0     # refinement filters
EXPERT_SECONDS = 25.0     # database search + rule evaluation (the big stage)
ORDER_SECONDS = 5.0       # submit buy/sell orders


def build_trade_task(streams: StreamFactory) -> tuple:
    """One trading-pipeline instance with sampled stage times."""
    draw = streams.get("trade-execution")
    feed_time = Exponential(FEED_SECONDS)
    gather = parallel(
        *[
            SimpleTask(feed_time.sample(draw), node_index=node,
                       name=f"feed-{chr(ord('A') + i)}")
            for i, node in enumerate(FEED_NODES)
        ],
        name="gather",
    )
    tree = serial(
        gather,
        SimpleTask(Exponential(FILTER_SECONDS).sample(draw),
                   node_index=FILTER_NODE, name="filter"),
        SimpleTask(Exponential(EXPERT_SECONDS).sample(draw),
                   node_index=EXPERT_NODE, name="expert-system"),
        SimpleTask(Exponential(ORDER_SECONDS).sample(draw),
                   node_index=ORDER_NODE, name="order-execution"),
        name="trade",
    )
    return tree


class TradeFactory(GlobalTaskFactory):
    """One trade per market event, due two minutes after it arrives."""

    def __init__(self, streams: StreamFactory) -> None:
        self.streams = streams

    def build(self, now: float):
        return build_trade_task(self.streams), now + DEADLINE_SECONDS


def run_market(strategy: str, seed: int = 7):
    """Simulate the trading system under one SDA strategy."""
    env = Environment()
    streams = StreamFactory(seed)
    metrics = MetricsCollector(node_count=6)
    nodes = [
        Node(env=env, index=i, policy=get_policy("EDF"), metrics=metrics)
        for i in range(6)
    ]
    manager = ProcessManager(
        env=env, nodes=nodes, assigner=parse_assigner(strategy), metrics=metrics
    )

    # Each node also serves unrelated local work (reports, monitoring, ad-hoc
    # queries) with short deadlines, at ~30% utilization.  The expert-system
    # node then runs at ~72% total utilization -- the realistic bottleneck.
    for node in nodes:
        LocalTaskSource(
            env=env,
            node=node,
            interarrival=exponential_interarrival(0.03),  # per second
            execution=Exponential(10.0),
            slack=Uniform(5.0, 50.0),
            streams=streams,
        )

    GlobalTaskSource(
        env=env,
        process_manager=manager,
        interarrival=exponential_interarrival(MARKET_EVENT_RATE),
        factory=TradeFactory(streams),
        streams=streams,
    )
    env.run(until=WARMUP_SECONDS)
    metrics.reset(env.now, nodes)
    env.run(until=SIM_SECONDS)
    return metrics.snapshot(env.now, nodes)


def main() -> None:
    rows = []
    for strategy in ("UD-UD", "UD-DIV1", "EQF-UD", "EQF-DIV1"):
        result = run_market(strategy)
        rows.append(
            [
                strategy,
                result.global_.completed,
                format_percent(1.0 - result.md_global),
                format_percent(result.md_local),
                f"{result.global_.mean_response:.1f}s",
            ]
        )
    print(
        render_table(
            ["strategy", "trades", "on-time trades", "MD_local", "mean latency"],
            rows,
            title=(
                "Program trading pipeline: "
                "[feed-A || feed-B || feed-C] -> filter -> expert -> order, "
                f"deadline {DEADLINE_SECONDS:.0f}s"
            ),
        )
    )
    print()
    print("Expected shape (paper Sec. 6): UD-UD completes the fewest trades on")
    print("time; EQF and DIV-1 each help; together they are additive.")


if __name__ == "__main__":
    main()
