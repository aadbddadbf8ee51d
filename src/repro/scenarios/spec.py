"""Declarative workload scenarios: a name plus ``SystemConfig`` overrides.

The paper evaluates its SSP/PSP strategies under one stylized model --
homogeneous nodes, Poisson arrivals, exponential service, uniform-random
placement.  Every way a scenario departs from it (bursty arrivals,
heavy-tailed service, placement, node speeds, a time-varying load, node
faults, failure detection, the overload policy, or any plain knob such
as the load) is already a :class:`~repro.system.config.SystemConfig`
field, so a :class:`ScenarioSpec` is a name, a description and one
mapping of ``SystemConfig`` overrides.  The config's field table,
:data:`~repro.system.config.DOMAINS`, validates them and labels them in
:meth:`ScenarioSpec.describe`.

Specs are immutable descriptions, not runnable objects: ``to_config()``
produces the :class:`SystemConfig` the engine runs, and
``to_dict()``/``from_dict()`` round-trip through plain JSON-serializable
dicts (tuples become lists and specs become objects, and back), so
scenarios can live in files, CLI args, or experiment archives.

Every dimension draws from its own named RNG stream (see
:mod:`repro.system.placement` and :mod:`repro.sim.rng`), so adding or
toggling scenario dimensions never perturbs the fixed-seed results of
existing models -- the ``baseline`` scenario is bit-identical to the
plain ``SystemConfig()`` path, pinned by the golden determinism gate.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping, Tuple

from ..system.config import DOMAINS, SystemConfig

#: Overrides whose value is a spec object (a mapping in JSON).
_SPECS = {
    name: domain.kind for name, domain in DOMAINS.items()
    if hasattr(domain.kind, "from_dict")
}

#: ``describe()``'s dimensions from the field table, in listing order:
#: each selector field, its domain (the paper's value is the default),
#: and the fields whose ``when`` ties them to it (described by the
#: selector's label alone).
_LABELS = tuple(
    (name, domain, tuple(
        other for other, guarded in DOMAINS.items()
        if guarded.when is not None and guarded.when[0] == name
    ))
    for name, domain in sorted(DOMAINS.items(), key=lambda kv: kv[1].rank)
    if domain.label is not None
)


def _tuplize(value):
    """Recursively turn lists into tuples (JSON round-trip normalization)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tuplize(item) for item in value)
    return value


def _listify(value):
    """Inverse of :func:`_tuplize`, specs becoming their dict form."""
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    if isinstance(value, tuple(_SPECS.values())):
        return value.to_dict()
    return value


def _normalize(overrides) -> Tuple[Tuple[str, object], ...]:
    """Sorted ``(field, value)`` pairs from a mapping or a pair sequence."""
    items = overrides.items() if isinstance(overrides, Mapping) else overrides
    normalized: Dict[str, object] = {}
    for key, value in items:
        if key not in DOMAINS:
            raise ValueError(f"unknown SystemConfig field {key!r}")
        if key in normalized:
            raise ValueError(f"override {key!r} given more than once")
        if key in _SPECS and isinstance(value, Mapping):
            value = _SPECS[key].from_dict(value)
        normalized[key] = _tuplize(value)
    return tuple(sorted(normalized.items()))


@dataclass(frozen=True)
class ScenarioSpec:
    """One named workload scenario: overrides of :class:`SystemConfig`.

    ``overrides`` is normalized to a sorted tuple of ``(field, value)``
    pairs so the spec stays frozen and hashable; pass a mapping and it is
    converted.  Construction validates eagerly by building the config,
    so a bad spec fails at definition time with the scenario's name in
    the message.
    """

    name: str
    description: str = ""
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"scenario name must be a non-empty string, got {self.name!r}")
        try:
            object.__setattr__(self, "overrides", _normalize(self.overrides))
            self.to_config()
        except ValueError as exc:
            raise ValueError(f"scenario {self.name!r} is invalid: {exc}") from exc

    # -- materialization ----------------------------------------------------

    def to_config(self, **run_overrides) -> SystemConfig:
        """Build the :class:`SystemConfig` this scenario describes.

        ``run_overrides`` (strategy, seed, sim_time, ...) win over the
        spec's overrides -- they are the per-run knobs the experiment
        harness stamps on.  A spec without overrides yields exactly
        ``SystemConfig(**run_overrides)``: the ``baseline`` scenario
        reduces to the paper's model.
        """
        return SystemConfig(**{**dict(self.overrides), **run_overrides})

    @property
    def peak_load(self) -> float:
        """Worst-case normalized load of the scenario (stability check)."""
        return self.to_config().peak_load

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form; JSON-serializable (tuples become lists)."""
        return {
            "name": self.name,
            "description": self.description,
            "overrides": {key: _listify(value) for key, value in self.overrides},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        return cls(**data)

    def describe(self) -> str:
        """Compact one-line summary for listings.

        One label per dimension the spec moves off the paper's model, then
        every other override as ``key=value``, sorted.
        """
        rest = dict(self.overrides)
        parts = []
        for key, domain, parameters in _LABELS:
            value = rest.pop(key, domain.default)
            for parameter in parameters:
                rest.pop(parameter, None)
            if value != domain.default:
                parts.append(domain.label(value))
        parts.extend(f"{key}={value}" for key, value in rest.items())
        return ", ".join(part for part in parts if part) or "paper baseline"
