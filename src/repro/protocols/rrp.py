"""A request/response transport (VMTP-flavoured), sans-io.

The paper's opening motivation: "the need for an efficient transport
for distributed systems was a factor in the development of
request/response protocols in lieu of existing byte-stream protocols
such as TCP ... Experience with specialized protocols shows that they
achieve remarkably low latencies.  However these protocols do not
always deliver the highest throughput."  [Birrell/Nelson RPC, Cheriton's
VMTP]

This is that *other kind* of protocol, built to co-exist with the TCP
library on the same hosts: transactions instead of connections,
at-most-once execution on the server, client-driven retransmission —
no handshake, no byte stream, no windows.

Like the TCP core it is sans-io: :class:`RrpClient` and
:class:`RrpServer` consume events and return actions; the plumbing in
:mod:`repro.org.udplib` (or any datagram substrate) moves the bytes.

Wire format (on top of UDP)::

    0      1      2              4              8
    +------+------+--------------+--------------+----...
    | type | flags|   reserved   |  transaction |  payload
    +------+------+--------------+--------------+----...

    type: 1=REQUEST, 2=RESPONSE, 3=ACK(of response, optional)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from ..counters import Counters

_HEADER = struct.Struct("!BBHI")

TYPE_REQUEST = 1
TYPE_RESPONSE = 2

#: Server-side transaction cache lifetime: long enough to absorb client
#: retransmissions of an already-answered request (at-most-once).
DEFAULT_CACHE_TTL = 30.0
DEFAULT_TIMEOUT = 0.5
DEFAULT_RETRIES = 5


class RrpError(Exception):
    """Protocol violation or transaction failure."""


@dataclass(frozen=True)
class RrpMessage:
    """One decoded RRP message."""

    kind: int
    transaction: int
    payload: bytes

    def pack(self) -> bytes:
        return _HEADER.pack(self.kind, 0, 0, self.transaction) + self.payload

    @classmethod
    def unpack(cls, data: bytes) -> "RrpMessage":
        if len(data) < _HEADER.size:
            raise RrpError(f"short RRP message ({len(data)} bytes)")
        kind, _flags, _reserved, transaction = _HEADER.unpack_from(data)
        if kind not in (TYPE_REQUEST, TYPE_RESPONSE):
            raise RrpError(f"unknown RRP message type {kind}")
        return cls(kind, transaction, bytes(data[_HEADER.size :]))


# ----------------------------------------------------------------------
# Actions (what the plumbing executes)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SendDatagram:
    """Transmit ``data`` to ``(ip, port)``."""

    ip: int
    port: int
    data: bytes


@dataclass(frozen=True)
class SetRetry:
    """Arm the retry timer for ``transaction`` after ``delay`` seconds."""

    transaction: int
    delay: float


@dataclass(frozen=True)
class Complete:
    """Transaction finished: deliver ``payload`` to the caller."""

    transaction: int
    payload: bytes


@dataclass(frozen=True)
class Failed:
    """Transaction gave up after exhausting retries."""

    transaction: int
    reason: str


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


@dataclass
class _PendingCall:
    ip: int
    port: int
    request: bytes
    attempts: int = 0


class RrpClient:
    """Issues transactions; retransmits until a response arrives."""

    def __init__(
        self,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
    ) -> None:
        if timeout <= 0:
            raise RrpError("timeout must be positive")
        self.timeout = timeout
        self.retries = retries
        self._next_transaction = 1
        self._pending: dict[int, _PendingCall] = {}
        self.stats = Counters()

    def call(self, ip: int, port: int, payload: bytes) -> tuple[int, list]:
        """Begin a transaction.  Returns (transaction id, actions)."""
        transaction = self._next_transaction
        self._next_transaction = (self._next_transaction + 1) & 0xFFFFFFFF or 1
        wire = RrpMessage(TYPE_REQUEST, transaction, payload).pack()
        self._pending[transaction] = _PendingCall(ip, port, wire, attempts=1)
        self.stats["calls"] += 1
        return transaction, [
            SendDatagram(ip, port, wire),
            SetRetry(transaction, self.timeout),
        ]

    def on_datagram(self, data: bytes) -> list:
        """Feed a received datagram; may complete a transaction."""
        try:
            message = RrpMessage.unpack(data)
        except RrpError:
            return []
        if message.kind != TYPE_RESPONSE:
            return []
        call = self._pending.pop(message.transaction, None)
        if call is None:
            self.stats["duplicates"] += 1
            return []  # Late duplicate response; already completed.
        return [Complete(message.transaction, message.payload)]

    def on_retry(self, transaction: int) -> list:
        """The retry timer for ``transaction`` fired."""
        call = self._pending.get(transaction)
        if call is None:
            return []  # Completed in the meantime.
        if call.attempts > self.retries:
            del self._pending[transaction]
            return [Failed(transaction, "no response")]
        call.attempts += 1
        self.stats["retransmits"] += 1
        return [
            SendDatagram(call.ip, call.port, call.request),
            SetRetry(transaction, self.timeout),
        ]

    @property
    def outstanding(self) -> int:
        return len(self._pending)


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------


class RrpServer:
    """Executes requests at most once; replays cached responses.

    ``handler(payload) -> bytes`` runs application logic exactly once
    per (client, transaction); retransmitted requests are answered from
    the response cache without re-executing — the at-most-once
    semantics request/response protocols promise.
    """

    def __init__(
        self,
        handler: Callable[[bytes], bytes],
        cache_ttl: float = DEFAULT_CACHE_TTL,
    ) -> None:
        self.handler = handler
        self.cache_ttl = cache_ttl
        #: (client_addr, transaction) -> (response wire bytes, expiry).
        self._cache: dict[tuple, tuple[bytes, float]] = {}
        self.stats = Counters()

    def on_datagram(self, data: bytes, client: tuple, now: float) -> list:
        """Feed a received datagram from ``client``, an ``(ip, port)``
        tuple used both as the cache key and the reply address."""
        try:
            message = RrpMessage.unpack(data)
        except RrpError:
            return []
        if message.kind != TYPE_REQUEST:
            return []
        self._expire(now)
        key = (client, message.transaction)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats["replayed"] += 1
            wire = cached[0]
        else:
            response = self.handler(message.payload)
            wire = RrpMessage(
                TYPE_RESPONSE, message.transaction, response
            ).pack()
            self._cache[key] = (wire, now + self.cache_ttl)
            self.stats["executed"] += 1
        ip, port = client
        return [SendDatagram(ip, port, wire)]

    def _expire(self, now: float) -> None:
        stale = [key for key, (_, expiry) in self._cache.items() if expiry <= now]
        for key in stale:
            del self._cache[key]
        self.stats["expired"] += len(stale)

    @property
    def cached(self) -> int:
        return len(self._cache)
