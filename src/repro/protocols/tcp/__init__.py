"""Sans-io TCP: RFC 793 + the 4.3BSD-era algorithms the paper's stack used.

The public surface is :class:`TcpMachine` (events in, actions out),
:class:`TcpConfig`, the event/action dataclasses, and
:class:`~repro.protocols.tcp.wire.Segment` with its codec.
"""

from .actions import (
    CancelTimer,
    DeliverData,
    DeliverFin,
    EmitSegment,
    NotifyClosed,
    NotifyConnected,
    SendSpaceAvailable,
    SetTimer,
    TcpAction,
    TIMER_CONN,
    TIMER_DELACK,
    TIMER_KEEPALIVE,
    TIMER_PERSIST,
    TIMER_REXMT,
    TIMER_TIME_WAIT,
)
from .cc import (
    CC_ALGORITHMS,
    CongestionAlgorithm,
    algorithms as cc_algorithms,
    make_cc,
)
from .events import (
    AppAbort,
    AppClose,
    AppRead,
    AppSend,
    SegmentArrives,
    TcpInputEvent,
    TimerExpires,
)
from .machine import TcpError, TcpMachine
from .reassembly import ReassemblyQueue
from .rto import RttEstimator
from .tcb import State, SYNCHRONIZED_STATES, Tcb, TcpConfig
from .wire import (
    ChecksumError,
    Segment,
    TcpSegmentEncoder,
    decode_segment,
    encode_segment,
    reset_for,
)

__all__ = [
    "TcpMachine",
    "TcpError",
    "TcpConfig",
    "Tcb",
    "State",
    "SYNCHRONIZED_STATES",
    "Segment",
    "encode_segment",
    "decode_segment",
    "reset_for",
    "TcpSegmentEncoder",
    "ChecksumError",
    "CC_ALGORITHMS",
    "CongestionAlgorithm",
    "cc_algorithms",
    "make_cc",
    "RttEstimator",
    "ReassemblyQueue",
    "TcpAction",
    "EmitSegment",
    "DeliverData",
    "DeliverFin",
    "SetTimer",
    "CancelTimer",
    "NotifyConnected",
    "NotifyClosed",
    "SendSpaceAvailable",
    "TcpInputEvent",
    "SegmentArrives",
    "AppSend",
    "AppRead",
    "AppClose",
    "AppAbort",
    "TimerExpires",
    "TIMER_REXMT",
    "TIMER_PERSIST",
    "TIMER_DELACK",
    "TIMER_TIME_WAIT",
    "TIMER_CONN",
    "TIMER_KEEPALIVE",
]
