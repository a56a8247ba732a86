"""Output actions from the sans-io TCP machine.

The plumbing (an organization adapter) executes these: emitting segments
through its device path, arming timers on its timer facility, delivering
data to the socket buffer, and surfacing connection lifecycle events.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .events import distinct
from .wire import Segment

#: Timer names the machine uses with SetTimer/CancelTimer.
TIMER_REXMT = "rexmt"
TIMER_PERSIST = "persist"
TIMER_DELACK = "delack"
TIMER_TIME_WAIT = "2msl"
TIMER_CONN = "conn-estab"
TIMER_KEEPALIVE = "keepalive"


@distinct
class EmitSegment(NamedTuple):
    """Transmit ``segment`` to the connection's peer."""

    segment: Segment
    #: True when this is a retransmission (organizations may count it).
    retransmit: bool = False


@distinct
class DeliverData(NamedTuple):
    """In-order payload for the application."""

    data: bytes


@distinct
class DeliverFin(NamedTuple):
    """The peer finished sending; EOF after all delivered data."""


@distinct
class SetTimer(NamedTuple):
    """Arm (or re-arm) the named timer ``delay`` seconds from now."""

    name: str
    delay: float


@distinct
class CancelTimer(NamedTuple):
    """Disarm the named timer if armed."""

    name: str


@distinct
class NotifyConnected(NamedTuple):
    """Three-way handshake completed; the connection is ESTABLISHED."""


@distinct
class NotifyClosed(NamedTuple):
    """The connection reached CLOSED; ``reason`` explains how."""

    reason: str  # "done", "reset", "refused", "timeout", "aborted"


@distinct
class SendSpaceAvailable(NamedTuple):
    """ACKed data freed send-buffer space; blocked writers may resume."""

    nbytes: int


#: The field-less actions, one each.
DELIVER_FIN, NOTIFY_CONNECTED = DeliverFin(), NotifyConnected()

#: Timer name -> its cancel, one each: every cancel names a constant timer.
CANCEL_TIMER = {
    name: CancelTimer(name)
    for name in (
        TIMER_REXMT, TIMER_PERSIST, TIMER_DELACK, TIMER_TIME_WAIT, TIMER_CONN, TIMER_KEEPALIVE
    )
}

#: Any machine output.
TcpAction = Union[EmitSegment, DeliverData, DeliverFin, SetTimer, CancelTimer,
                  NotifyConnected, NotifyClosed, SendSpaceAvailable]
