"""Input events for the sans-io TCP machine.

The machine is driven exclusively through these; each carries everything
the machine needs (including the current time, supplied by the caller —
the machine owns no clock).
"""

from __future__ import annotations

from typing import NamedTuple, Union

from ...net.headers import record
from .wire import Segment


def distinct(cls):
    """A :func:`~repro.net.headers.record` equal only to its own class:
    ``CancelTimer("x")`` is not ``NotifyClosed("x")``.  Same hash."""
    cls.__eq__ = _same
    cls.__ne__ = object.__ne__
    return record(cls)


def _same(self, other) -> bool:
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


@distinct
class SegmentArrives(NamedTuple):
    """A (checksum-valid) segment was demultiplexed to this connection."""

    segment: Segment


@distinct
class AppSend(NamedTuple):
    """The application wrote ``data`` to the connection."""

    data: bytes


@distinct
class AppRead(NamedTuple):
    """The application consumed ``nbytes`` of delivered data.

    Opens the receive window; the machine decides whether the opening
    warrants a window-update segment.
    """

    nbytes: int


@distinct
class AppClose(NamedTuple):
    """Orderly release: FIN after queued data drains."""


@distinct
class AppAbort(NamedTuple):
    """Abortive release: RST now, discard everything."""


@distinct
class TimerExpires(NamedTuple):
    """A timer the machine armed via SetTimer has fired."""

    name: str


#: The field-less events, one each.
APP_CLOSE, APP_ABORT = AppClose(), AppAbort()

#: Any machine input.
TcpInputEvent = Union[SegmentArrives, AppSend, AppRead, AppClose, AppAbort, TimerExpires]
