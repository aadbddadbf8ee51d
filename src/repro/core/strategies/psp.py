"""The parallel subtask (PSP) strategies of Sec. 5.

* **UD** (Ultimate Deadline): ``dl(Ti) = dl(T)`` -- the natural deadline;
  the base case against which the others are compared.

* **DIV-x**::

      dl(Ti) = ar(T) + [dl(T) - ar(T)] / (n * x)

  The group's window is divided by ``x`` times the fan-out ``n``, pulling
  the subtasks' virtual deadlines earlier and raising their priority.  The
  promotion automatically grows with ``n``, which the paper highlights as
  the strategy's nice property.  ``x`` is tunable; the paper evaluates
  DIV-1 and DIV-2.

* **GF** (Globals First): subtasks keep the group deadline but are stamped
  with an *elevated priority class*; a node always serves elevated work
  before normal work, preserving EDF order within each class.  This is the
  most aggressive promotion possible.  Its caveat (Sec. 5.3): components
  that discard tasks whose (virtual) deadline has passed cannot use it,
  because GF leaves the virtual deadline untouched and relies purely on
  class priority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .base import ParallelContext, PriorityClass, PSPStrategy


class UltimateDeadlineParallel(PSPStrategy):
    """UD for parallel groups: subtasks inherit the group deadline."""

    name = "UD"

    def assign(self, context: ParallelContext) -> float:
        return context.window_deadline


@dataclass(frozen=True)
class DivX(PSPStrategy):
    """DIV-x: divide the group's window by ``x * n``.

    ``x`` must be finite and positive; larger ``x`` means earlier virtual
    deadlines.
    Note the virtual deadline always stays strictly later than ``ar(T)``
    for any finite ``x`` (the paper contrasts this with GF).
    """

    x: float = 1.0

    def __post_init__(self) -> None:
        # Written so that a NaN x fails the comparison too.
        if not 0 < self.x < math.inf:
            raise ValueError(f"DIV-x needs a finite x > 0, got {self.x}")

    @property
    def name(self) -> str:  # type: ignore[override]
        # Render "DIV-1", "DIV-2", "DIV-0.5" the way the paper does.
        if float(self.x).is_integer():
            return f"DIV-{int(self.x)}"
        return f"DIV-{self.x:g}"

    def assign(self, context: ParallelContext) -> float:
        return (
            context.window_arrival
            + context.window_length / (context.fan_out * self.x)
        )


class GlobalsFirst(PSPStrategy):
    """GF: class priority for global subtasks, EDF within each class."""

    name = "GF"
    priority_class = PriorityClass.ELEVATED

    def assign(self, context: ParallelContext) -> float:
        return context.window_deadline


def make_div(x: float) -> DivX:
    """Construct a DIV-x strategy (convenience for sweeps over ``x``)."""
    return DivX(x=x)


#: Named PSP strategies.  DIV is exposed for x = 1, 2, 4 which cover the
#: paper's experiments; other x values via :func:`make_div`.
PSP_STRATEGIES = {
    "UD": UltimateDeadlineParallel(),
    "DIV-1": DivX(1.0),
    "DIV-2": DivX(2.0),
    "DIV-4": DivX(4.0),
    "GF": GlobalsFirst(),
}
