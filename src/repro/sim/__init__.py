"""Discrete-event simulation kernel (the paper's DeNet substitute).

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Timeout` -- the event
  machinery;
* :class:`StreamFactory` -- reproducible named random streams;
* the distribution classes in :mod:`repro.sim.distributions`;
* :class:`Tally`, :class:`TimeWeighted`, :class:`Series` -- monitors;
* the exception hierarchy in :mod:`repro.sim.errors`.
"""

from .core import Environment, Event, Timeout
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
    "Event",
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
    "Timeout",
    "Uniform",
    "UniformErrorFactor",
    "exponential_interarrival",
]
