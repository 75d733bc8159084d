"""Event-queue entries for the discrete-event kernel.

Events are ordered by ``(time, priority, sequence)``. The sequence number
makes ordering total and therefore the whole simulation deterministic:
two events scheduled for the same instant at the same priority fire in
scheduling order (FIFO).
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Priority", "EventHandle"]


class Priority:
    """Priority levels for same-instant event ordering (lower fires first).

    ``INTERRUPT`` models hardware events (wire arrivals, timer expiry) that
    logically precede software reactions scheduled for the same instant.
    ``TASKLET`` mirrors Marcel's "very high priority" deferred work.
    """

    INTERRUPT = 0
    TASKLET = 1
    NORMAL = 2
    LOW = 3
    IDLE = 4


class EventHandle:
    """A scheduled callback; supports cancellation.

    Cancellation is lazy: the entry stays in the queue but is skipped when
    it surfaces. ``fired`` is True once the callback ran.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "_key",
        "_fn",
        "_args",
        "cancelled",
        "fired",
        "label",
        "_queue",
        "_bidx",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        # The ordering key is precomputed once: the calendar queue sorts
        # batches and insorts by it, and a fresh tuple per comparison
        # would dominate the kernel profile. The (time, priority, seq)
        # fields never change while the handle is stored, so the cache is
        # always coherent.
        self._key = (time, priority, seq)
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.fired = False
        self.label = label
        #: the CalendarQueue currently storing this handle (set by push);
        #: lets cancel() report lazily-cancelled entries so the queue can
        #: compact when they pile up.
        self._queue: Any = None
        #: absolute calendar-bucket index (int(time / width)); only
        #: meaningful while stored in a CalendarQueue.
        self._bidx = 0

    def cancel(self) -> None:
        """Prevent the callback from running; no-op if already fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._note_cancel()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled/fired."""
        return not self.cancelled and not self.fired

    def _fire(self) -> None:
        self.fired = True
        self._fn(*self._args)
        # Release references so long simulations do not retain closures.
        self._fn = _noop
        self._args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        lbl = f" {self.label}" if self.label else ""
        return f"<EventHandle t={self.time:.3f} p={self.priority}{lbl} {state}>"


def _noop(*_args: Any) -> None:  # pragma: no cover - placeholder
    return None
