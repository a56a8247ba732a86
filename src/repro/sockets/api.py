"""A BSD-flavoured socket facade over any protocol organization.

Paper §3.2: "users of the protocol library continue to create sockets
with socket, call bind to bind to sockets, and use connect, listen, and
accept to establish connections over sockets.  Data transfer on
connected sockets ... is done as usual with read and write calls.  The
library handles all the bookkeeping details."

This module provides that familiar shape on top of the
:class:`~repro.org.base.TcpService` API, so application code reads like
classic sockets code.  All calls are generators (the simulation's
blocking idiom): ``data = yield from sock.recv(100)``.
"""

from __future__ import annotations

import enum
from typing import Generator, Optional

from ..org.base import TcpConnection, TcpListener, TcpService

AF_INET = "AF_INET"
SOCK_STREAM = "SOCK_STREAM"


class SocketError(OSError):
    """Misuse of the socket API (wrong state, bad arguments)."""


class _State(enum.Enum):
    FRESH = "fresh"
    BOUND = "bound"
    LISTENING = "listening"
    CONNECTED = "connected"
    CLOSED = "closed"


class Socket:
    """One endpoint in the BSD style."""

    def __init__(self, service: TcpService, family: str = AF_INET, kind: str = SOCK_STREAM) -> None:
        if family != AF_INET or kind != SOCK_STREAM:
            raise SocketError(f"unsupported socket type {family}/{kind}")
        self._service = service
        self._state = _State.FRESH
        self._local_port = 0
        self._listener: Optional[TcpListener] = None
        self._connection: Optional[TcpConnection] = None

    # ------------------------------------------------------------------
    # Naming / passive open
    # ------------------------------------------------------------------

    def bind(self, port: int) -> None:
        """Claim a local port (the registry enforces uniqueness later)."""
        if self._state is not _State.FRESH:
            raise SocketError(f"bind in state {self._state.value}")
        if not 0 <= port < 0x10000:
            raise SocketError(f"bad port {port}")
        self._local_port = port
        self._state = _State.BOUND

    def listen(self, backlog: int = 5) -> Generator:
        """Passive open on the bound port."""
        if self._state is not _State.BOUND:
            raise SocketError(f"listen in state {self._state.value}")
        if self._local_port == 0:
            raise SocketError("listen needs a bound port")
        self._listener = yield from self._service.listen(self._local_port)
        self._state = _State.LISTENING

    def accept(self) -> Generator:
        """Block for the next established connection; returns a new
        connected :class:`Socket`."""
        if self._state is not _State.LISTENING:
            raise SocketError(f"accept in state {self._state.value}")
        connection = yield from self._listener.accept()
        child = Socket(self._service)
        child._connection = connection
        child._state = _State.CONNECTED
        return child

    # ------------------------------------------------------------------
    # Active open
    # ------------------------------------------------------------------

    def connect(self, remote_ip: int, remote_port: int) -> Generator:
        if self._state not in (_State.FRESH, _State.BOUND):
            raise SocketError(f"connect in state {self._state.value}")
        self._connection = yield from self._service.connect(
            remote_ip, remote_port, local_port=self._local_port
        )
        self._state = _State.CONNECTED

    # ------------------------------------------------------------------
    # Data transfer
    # ------------------------------------------------------------------

    def send(self, data: bytes) -> Generator:
        """Write all of ``data`` (like write() on a blocking socket)."""
        conn = self._connected()
        yield from conn.send(data)
        return len(data)

    def recv(self, max_bytes: int) -> Generator:
        """Read up to ``max_bytes``; b'' at EOF (like read())."""
        return self._connected().recv(max_bytes)

    def recv_exactly(self, nbytes: int) -> Generator:
        return self._connected().recv_exactly(nbytes)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> Generator:
        if self._state is _State.CONNECTED:
            yield from self._connection.close()
        elif self._state is _State.LISTENING:
            self._listener.close()
        self._state = _State.CLOSED

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._state is _State.CONNECTED

    @property
    def connection(self) -> Optional[TcpConnection]:
        """The underlying connection (for hand-off, stats, etc.)."""
        return self._connection

    def _connected(self) -> TcpConnection:
        if self._state is not _State.CONNECTED:
            raise SocketError(f"not connected (state {self._state.value})")
        return self._connection


def socket(service: TcpService, family: str = AF_INET, kind: str = SOCK_STREAM) -> Socket:
    """BSD-style constructor: ``sock = socket(service)``."""
    return Socket(service, family, kind)
