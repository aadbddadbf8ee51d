"""Strategy playground: watch the SDA formulas assign virtual deadlines.

This example runs *no* simulation.  It takes a task in the paper's bracket
notation, an end-to-end deadline, and walks the assignment step by step for
every strategy, printing each subtask's virtual deadline, slack share, and
flexibility.  Useful for building intuition about UD/ED/EQS/EQF and DIV-x
before reading the miss-ratio plots.

Run with::

    python examples/strategy_playground.py
    python examples/strategy_playground.py "[2 1 [3 || 3] 1]" 15
"""

from __future__ import annotations

import sys

from repro.core.notation import parse
from repro.core.strategies import parse_assigner
from repro.core.task import ParallelTask, SerialTask, TaskNode
from repro.stats.tables import render_table

DEFAULT_TASK = "[2 3 5]"
DEFAULT_DEADLINE = 20.0


def walk_assignments(tree: TaskNode, deadline: float, strategy: str):
    """Trace the recursive deadline decomposition assuming ideal execution.

    "Ideal" means each subtask runs the moment it is submitted and takes
    exactly its predicted time -- so the trace isolates what the *formulas*
    do, without queueing noise.
    """
    assigner = parse_assigner(strategy)
    rows = []

    def execute(node, now, window_arrival, window_deadline, depth):
        indent = "  " * depth
        if node.is_leaf:
            slack = window_deadline - now - node.pex
            flexibility = slack / node.pex if node.pex else float("inf")
            rows.append(
                [
                    f"{indent}{node.notation()}",
                    f"{now:.2f}",
                    f"{node.pex:.2f}",
                    f"{window_deadline:.2f}",
                    f"{slack:.2f}",
                    f"{flexibility:.2f}",
                ]
            )
            return now + node.pex
        if isinstance(node, SerialTask):
            children = node.children
            for i, child in enumerate(children):
                assignment = assigner.serial_child_deadline(
                    remaining=children[i:],
                    now=now,
                    window_arrival=window_arrival,
                    window_deadline=window_deadline,
                )
                now = execute(child, now, now, assignment.deadline, depth + 1)
            return now
        assert isinstance(node, ParallelTask)
        finish = now
        for i, child in enumerate(node.children):
            assignment = assigner.parallel_child_deadline(
                children=node.children,
                index=i,
                now=now,
                window_deadline=window_deadline,
            )
            finish = max(
                finish, execute(child, now, now, assignment.deadline, depth + 1)
            )
        return finish

    finish = execute(tree, 0.0, 0.0, deadline, 0)
    return rows, finish


def main() -> None:
    notation = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_TASK
    deadline = float(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_DEADLINE
    tree = parse(notation)
    print(f"task {tree.notation()}   end-to-end deadline {deadline:g}")
    print(f"critical path (ideal execution): {tree.total_ex():g}\n")

    strategies = ["UD", "ED", "EQS", "EQF", "UD-DIV1", "EQF-DIV1"]
    for strategy in strategies:
        rows, finish = walk_assignments(tree, deadline, strategy)
        print(
            render_table(
                ["subtask", "submit", "pex", "virtual dl", "slack", "flex"],
                rows,
                title=f"strategy {strategy} (ideal finish at {finish:g})",
            )
        )
        print()


if __name__ == "__main__":
    main()
