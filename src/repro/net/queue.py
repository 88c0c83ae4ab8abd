"""Finite-service-rate receive queues.

Figure 2b of the paper plots the *receive queue length* of each server
while a hotspot drives its arrival rate past its service rate.  This
module models exactly that: each node owns a FIFO drained at a fixed
packet service rate; while arrivals outpace service, the queue grows,
and it drains once Matrix sheds load off the node.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, TYPE_CHECKING

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

_INF = float("inf")


class ReceiveQueue:
    """A FIFO message queue with a fixed service rate.

    ``_length_view`` mirrors ``GameServer._client_count_view``: on
    process-sharded replica copies the deque never fills, so the lane-
    state hook installs the owning lane's waiting count here for
    global-lane probes; live queues keep it None.

    Parameters
    ----------
    sim:
        The simulation kernel.
    handler:
        Called with each message once it has been *serviced* (i.e. after
        its queueing + processing delay).
    service_rate:
        Messages serviced per second.  ``float('inf')`` makes servicing
        immediate (used for nodes whose processing cost is negligible).
    capacity:
        Maximum queued messages; arrivals beyond it are dropped and
        counted (the failure mode of the static-partitioning baseline).
    priority_predicate:
        Messages for which this returns True jump to the head of the
        queue.  Servers use it for control-plane directives (map-range
        updates, evacuation orders) so that reconfiguration is not
        starved behind a saturated data queue — the software analogue
        of a prioritised control channel.
    """

    _length_view: int | None = None

    def __init__(
        self,
        sim: "Simulator",
        handler: Callable[[Message], None],
        service_rate: float = float("inf"),
        capacity: int | None = None,
        priority_predicate: Callable[[Message], bool] | None = None,
    ) -> None:
        if service_rate <= 0:
            raise ValueError(f"service rate must be positive: {service_rate}")
        self._sim = sim
        self._handler = handler
        self._service_rate = service_rate
        self._capacity = capacity
        self._priority_predicate = priority_predicate
        self._queue: deque[Message] = deque()
        self._busy = False
        self._halted = False
        self.serviced_count = 0
        self.dropped_count = 0
        self.busy_time = 0.0
        self._peak_length = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Messages currently waiting (excludes the one in service)."""
        if self._length_view is not None:
            return self._length_view
        return len(self._queue)

    @property
    def peak_length(self) -> int:
        """Maximum waiting-queue length seen so far."""
        return self._peak_length

    @property
    def service_rate(self) -> float:
        """Messages serviced per second."""
        return self._service_rate

    def set_service_rate(self, rate: float) -> None:
        """Change the drain rate (takes effect from the next message)."""
        if rate <= 0:
            raise ValueError(f"service rate must be positive: {rate}")
        self._service_rate = rate

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Crash semantics: drop everything queued, service nothing more.

        Messages sitting in a dead host's queue die with the host; an
        already-scheduled service completion finds the queue halted and
        does nothing.  Used by chaos-layer crash injection only.
        """
        self._halted = True
        self._queue.clear()
        self._busy = False

    def deliver(self, message: Message) -> None:
        """A message arrives from the network."""
        if self._halted:
            return
        if (
            not self._busy
            and not self._queue
            and self._service_rate == _INF
            and (self._capacity is None or self._capacity > 0)
        ):
            # Fast path: an idle infinite-rate queue services in place —
            # no deque round-trip, no extra call frames.  Counters are
            # updated exactly as the general path would have: the
            # message transiently "occupied" the queue (peak >= 1) and
            # was serviced immediately.  ``_start_next`` afterwards
            # drains anything the handler delivered re-entrantly.
            if self._peak_length == 0:
                self._peak_length = 1
            self._busy = True
            self.serviced_count += 1
            self._handler(message)
            self._start_next()
            return
        priority = (
            self._priority_predicate is not None
            and self._priority_predicate(message)
        )
        if (
            not priority
            and self._capacity is not None
            and len(self._queue) >= self._capacity
        ):
            self.dropped_count += 1
            return
        if priority:
            self._queue.appendleft(message)
        else:
            self._queue.append(message)
        self._peak_length = max(self._peak_length, len(self._queue))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        if self._service_rate == _INF:
            self._finish_one()
        else:
            delay = 1.0 / self._service_rate
            self.busy_time += delay
            self._sim.after(delay, self._finish_one)

    def _finish_one(self) -> None:
        if self._halted or not self._queue:
            return
        message = self._queue.popleft()
        self.serviced_count += 1
        self._handler(message)
        self._start_next()
