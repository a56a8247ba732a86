"""Application-driven protocol specialization (paper §5, future work).

"Another area that we have not explored is the manner and extent to
which application-level knowledge can be exploited by the library.
Simple approaches include providing a set of canned options that
determine certain characteristics of a protocol.  A more ambitious
approach would be for an external agent like a stub compiler to examine
the application code and a generic protocol library and to generate a
protocol variant suitable for that particular application."

This module implements the *simple approach*: an application declares
its traffic profile (:class:`AppProfile`) and :func:`specialize`
derives the TCP variant — the declarative front half of the "protocol
compiler" the paper imagines (Morpheus [1], Felten's protocol
compilers [9]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .protocols.tcp import TcpConfig


@dataclass(frozen=True)
class AppProfile:
    """What the application knows about its own communication."""

    #: Typical message size in bytes (a keystroke is 1; a page is 4096).
    message_size: int = 4096
    #: True when per-message latency matters more than throughput
    #: (request/response, interactive terminals).
    latency_sensitive: bool = False
    #: True when sustained throughput matters (file transfer, paging).
    bulk: bool = False
    #: Expected path loss rate, if the application knows it (e.g. a
    #: wireless or congested route); None means "assume clean LAN".
    expected_loss: Optional[float] = None
    #: True for long-lived, mostly-idle connections that must detect
    #: dead peers (login sessions, mounts).
    long_lived_idle: bool = False
    #: Peak outstanding data the app will ever have in flight, if known.
    max_outstanding: Optional[int] = None


class ProfileError(ValueError):
    """An inconsistent application profile."""


def specialize(profile: AppProfile, base: Optional[TcpConfig] = None) -> TcpConfig:
    """Derive a TCP variant from an application's declared profile.

    Returns a new :class:`TcpConfig`; the rules are deliberately simple
    and auditable (each is commented with its rationale) — this is the
    paper's "canned options" tier, not a code generator.
    """
    if profile.latency_sensitive and profile.bulk:
        raise ProfileError(
            "a connection cannot be specialized for latency and bulk at "
            "once; open two connections with two variants instead"
        )
    if profile.message_size <= 0:
        raise ProfileError("message_size must be positive")
    if profile.expected_loss is not None and not 0 <= profile.expected_loss < 1:
        raise ProfileError("expected_loss must be in [0, 1)")

    base = base or TcpConfig()
    changes: dict = {}

    if profile.latency_sensitive:
        # Small messages must leave immediately: no coalescing, and a
        # short delayed-ACK clock so the reverse path answers quickly.
        changes["nagle"] = False
        changes["delack_time"] = min(base.delack_time, 0.05)

    lossy = profile.expected_loss is not None and profile.expected_loss > 0.001

    if profile.bulk:
        # Big windows keep the pipe full.
        changes["snd_buffer"] = max(base.snd_buffer, 32768)
        changes["rcv_buffer"] = max(base.rcv_buffer, 32768)

    if lossy:
        # Lossy path: a snappier retransmission floor so stalls stay
        # short.
        changes["min_rto"] = min(base.min_rto, 0.3)
        changes["initial_rto"] = min(base.initial_rto, 0.6)

    if (profile.bulk or lossy) and base.cc == "tahoe":
        # Fast recovery gets over isolated losses without collapsing
        # the window; an algorithm chosen on purpose is left alone.
        changes["cc"] = "reno"

    if profile.long_lived_idle:
        changes["keepalive"] = True

    if profile.max_outstanding is not None:
        # No point buffering more than the app will ever have in flight
        # (plus slack for coalescing); pre-window-scaling cap applies.
        bound = min(max(profile.max_outstanding * 2, 4096), 61440)
        changes["snd_buffer"] = min(changes.get("snd_buffer", base.snd_buffer), bound)
        changes["rcv_buffer"] = min(changes.get("rcv_buffer", base.rcv_buffer), bound)

    if profile.message_size < 512 and not profile.latency_sensitive:
        # Many small messages with no latency constraint: let Nagle
        # coalesce aggressively (it is on by default; keep it).
        changes.setdefault("nagle", True)

    from dataclasses import replace

    return replace(base, **changes)


#: Ready-made profiles for the classic application classes the paper's
#: introduction names.
INTERACTIVE = AppProfile(message_size=1, latency_sensitive=True)
FILE_TRANSFER = AppProfile(message_size=8192, bulk=True)
RPC = AppProfile(message_size=256, latency_sensitive=True)
REMOTE_LOGIN = AppProfile(
    message_size=1, latency_sensitive=True, long_lived_idle=True
)
WAN_BULK = AppProfile(message_size=8192, bulk=True, expected_loss=0.02)
