"""Scenario lookup: the library by name.

The CLI (``repro-experiments scenarios list|run|sweep``), the benchmarks
and the tests all resolve scenarios through this one table.
"""

from __future__ import annotations

from typing import Dict

from .library import LIBRARY
from .spec import ScenarioSpec

SCENARIOS: Dict[str, ScenarioSpec] = {spec.name: spec for spec in LIBRARY}


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name (case-insensitive)."""
    for key, spec in SCENARIOS.items():
        if key.lower() == name.lower():
            return spec
    known = ", ".join(SCENARIOS)
    raise KeyError(f"unknown scenario {name!r}; known: {known}")
