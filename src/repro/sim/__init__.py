"""Discrete-event simulation kernel (the paper's DeNet substitute).

Public surface:

* :class:`Environment` -- the simulation clock and event list;
* :class:`StreamFactory` -- reproducible named random streams;
* the distribution classes in :mod:`repro.sim.distributions`;
* :class:`MeanTally`, :class:`TimeWeighted` -- monitors;
* the exception hierarchy in :mod:`repro.sim.errors`.
"""

from .core import Environment
from .distributions import (
    Deterministic,
    DiscreteUniform,
    Distribution,
    Erlang,
    Exponential,
    Uniform,
    UniformErrorFactor,
    exponential_interarrival,
)
from .errors import EventLifecycleError, SimulationError, StopSimulation
from .monitor import MeanTally, TimeWeighted
from .rng import StreamFactory

__all__ = [
    "Deterministic",
    "DiscreteUniform",
    "Distribution",
    "Environment",
    "Erlang",
    "EventLifecycleError",
    "Exponential",
    "MeanTally",
    "SimulationError",
    "StopSimulation",
    "StreamFactory",
    "TimeWeighted",
    "Uniform",
    "UniformErrorFactor",
    "exponential_interarrival",
]
