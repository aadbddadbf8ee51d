"""Byte-for-byte pins of the experiment CLI's stdout.

Each case runs one ``repro-experiments`` command (the grids at smoke
scale) and compares its stdout with the file of the same name under
``tests/pins``.  The pins cover all ten entries of the experiment table
in both grid layouts: the figures (a value x strategy wide table with
its charts) and the variations (a setting x strategy long table); a
scenario sweep's ranking report; the experiment listing; and the
scenario library listing, one ``describe()`` line per scenario.  Any
change to a seed rule, a cell order or a rendered column shows up here
as a diff.

Regenerate a pin only when a change is meant to alter the output::

    PYTHONPATH=src python -m repro.cli run Fig2 --scale smoke \\
        > tests/pins/run_fig2_smoke.txt
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

PINS = Path(__file__).parent / "pins"

CASES = {
    "list": ["list"],
    "run_fig2_smoke": ["run", "Fig2", "--scale", "smoke"],
    "run_fig3_smoke": ["run", "Fig3", "--scale", "smoke"],
    "run_fig4_smoke": ["run", "Fig4", "--scale", "smoke"],
    "run_sec6_smoke": ["run", "Sec6", "--scale", "smoke"],
    "run_v1_smoke": ["run", "V1", "--scale", "smoke"],
    "run_v2_smoke": ["run", "V2", "--scale", "smoke"],
    "run_v3_smoke": ["run", "V3", "--scale", "smoke"],
    "run_v4_smoke": ["run", "V4", "--scale", "smoke"],
    "run_v5_smoke": ["run", "V5", "--scale", "smoke"],
    "run_v6_smoke": ["run", "V6", "--scale", "smoke"],
    "scenarios_list": ["scenarios", "list"],
    "scenarios_sweep_seed17": [
        "scenarios", "sweep",
        "--scenario", "baseline",
        "--scenario", "smart-routing",
        "--scenario", "steady-churn",
        "--strategies", "UD", "EQF",
        "--scale", "smoke", "--seed", "17",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_pin(name, capsys):
    assert main(CASES[name]) == 0
    expected = (PINS / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
