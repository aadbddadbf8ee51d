"""Exception types for the discrete-event simulation kernel.

The kernel deliberately uses a small, explicit exception hierarchy so that
model code can distinguish programming errors (:class:`SimulationError`)
from the control-flow signal that stops a run (:class:`StopSimulation`).
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by the simulation kernel."""


class EventLifecycleError(SimulationError):
    """An event was used in a way that violates its lifecycle.

    Example: cancelling a pooled sleep that has already fired.
    """


class StopSimulation(Exception):
    """Signal that stops :meth:`~repro.sim.core.Environment.run`.

    Carries the value that ``run()`` returns: ``None`` at a run horizon,
    or whatever the model code that raised it passed.  This intentionally
    subclasses ``Exception`` (not :class:`SimulationError`): it is control
    flow, not a failure.
    """

    def __init__(self, value: object = None) -> None:
        super().__init__(value)
        self.value = value
