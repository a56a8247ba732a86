"""Input events for the sans-io TCP machine.

The machine is driven exclusively through these; each carries everything
the machine needs (including the current time, supplied by the caller —
the machine owns no clock).
"""

from __future__ import annotations

from dataclasses import dataclass

from .wire import Segment


class TcpInputEvent:
    """Base class for machine inputs."""


@dataclass(frozen=True)
class SegmentArrives(TcpInputEvent):
    """A (checksum-valid) segment was demultiplexed to this connection."""

    segment: Segment


@dataclass(frozen=True)
class AppSend(TcpInputEvent):
    """The application wrote ``data`` to the connection."""

    data: bytes


@dataclass(frozen=True)
class AppRead(TcpInputEvent):
    """The application consumed ``nbytes`` of delivered data.

    Opens the receive window; the machine decides whether the opening
    warrants a window-update segment.
    """

    nbytes: int


@dataclass(frozen=True)
class AppClose(TcpInputEvent):
    """Orderly release: FIN after queued data drains."""


@dataclass(frozen=True)
class AppAbort(TcpInputEvent):
    """Abortive release: RST now, discard everything."""


@dataclass(frozen=True)
class TimerExpires(TcpInputEvent):
    """A timer the machine armed via SetTimer has fired."""

    name: str
