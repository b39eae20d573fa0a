"""A small discrete-event simulation (DES) kernel.

This is the substrate under the metadata-path engine
(:mod:`repro.engine.meta_engine`); the request-level data-path engine
(:mod:`repro.engine.des_runner`) runs its own event loop instead.  It
follows the classic process-interaction style (a la SimPy): simulation
processes are Python generators that ``yield`` waitables — :class:`Timeout`, :class:`Event`,
resource requests — and the :class:`Simulator` advances virtual time by
draining a priority queue of scheduled callbacks.

The kernel is deliberately self-contained (no dependency on the rest of
the library) and fully deterministic: ties in time are broken by a
monotonically increasing sequence number.
"""

from .events import Event, EventQueue, ScheduledCallback
from .kernel import Process, Simulator, Timeout
from .monitor import TimeSeries
from .resources import Container, Resource, Store

__all__ = [
    "Event",
    "EventQueue",
    "ScheduledCallback",
    "Simulator",
    "Process",
    "Timeout",
    "Resource",
    "Container",
    "Store",
    "TimeSeries",
]
