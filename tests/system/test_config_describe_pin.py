"""Pin of ``SystemConfig.describe()``.

``describe()`` titles the ``simulate`` stdout, the runner's recovered-cell
lines and the emission series header.  This pins it, byte for
byte, for the config of every ``LIBRARY`` scenario and for the three
``*_config()`` baselines, one ``name: describe()`` line each, against
``tests/pins/config_describe.txt``.
"""

from __future__ import annotations

from pathlib import Path

from repro.scenarios import LIBRARY
from repro.system.config import (
    baseline_config,
    parallel_baseline_config,
    serial_parallel_config,
)

PIN = Path(__file__).parent.parent / "pins" / "config_describe.txt"


def test_describe_matches_pin():
    lines = [f"{spec.name}: {spec.to_config().describe()}" for spec in LIBRARY]
    lines += [
        f"{builder.__name__}(): {builder().describe()}"
        for builder in (
            baseline_config, parallel_baseline_config, serial_parallel_config
        )
    ]
    assert "\n".join(lines) + "\n" == PIN.read_text(encoding="utf-8")
