"""Discrete-event simulation kernel (the paper's DeNet substitute).

Public surface:

* :class:`Environment` -- the simulation clock and event list;
* :class:`StreamFactory` -- reproducible named random streams;
* the distribution classes in :mod:`repro.sim.distributions`;
* :class:`Tally`, :class:`TimeWeighted`, :class:`Series` -- monitors;
* the exception hierarchy in :mod:`repro.sim.errors`.
"""

from .core import Environment
from .distributions import (
    Choice,
    Deterministic,
    DiscreteUniform,
    Distribution,
    Erlang,
    Exponential,
    LognormalErrorFactor,
    Uniform,
    UniformErrorFactor,
    exponential_interarrival,
)
from .errors import EventLifecycleError, SimulationError, StopSimulation
from .monitor import MeanTally, Series, Tally, TimeWeighted
from .rng import StreamFactory

__all__ = [
    "Choice",
    "Deterministic",
    "DiscreteUniform",
    "Distribution",
    "Environment",
    "Erlang",
    "EventLifecycleError",
    "Exponential",
    "LognormalErrorFactor",
    "MeanTally",
    "Series",
    "SimulationError",
    "StopSimulation",
    "StreamFactory",
    "Tally",
    "TimeWeighted",
    "Uniform",
    "UniformErrorFactor",
    "exponential_interarrival",
]
