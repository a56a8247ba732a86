"""TCP port namespace management for the registry server.

The paper (§3.4): "connection end-points act as names of the
communicating entities and are therefore unique across a machine for a
particular protocol.  Thus, having untrusted user libraries allocate
these names is a security and administrative concern" — the registry
owns the namespace.

It also owns post-mortem state: "when the application exits, the
registry server inherits the connections and ensures that the protocol
specified delay period is maintained before the connection is reused" —
modelled here as lingering reservations that expire 2*MSL after
release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class PortInUse(OSError):
    """The requested port is bound or still lingering in TIME-WAIT."""


@dataclass
class _Reservation:
    owner: str
    #: None while in use; otherwise the simulated time the lingering
    #: reservation expires.
    lingering_until: Optional[float] = None


class PortNamespace:
    """Allocation, reservation, and 2MSL linger for one protocol."""

    EPHEMERAL_START = 1024

    def __init__(self, msl: float = 30.0) -> None:
        self.msl = msl
        self._ports: dict[int, _Reservation] = {}
        self._next_ephemeral = self.EPHEMERAL_START

    def _gc(self, now: float) -> None:
        stale = [
            port
            for port, res in self._ports.items()
            if res.lingering_until is not None and res.lingering_until <= now
        ]
        for port in stale:
            del self._ports[port]

    def reserve(self, port: int, owner: str, now: float) -> int:
        """Claim a specific port; raises :class:`PortInUse` if taken."""
        if not 0 < port < 0x10000:
            raise ValueError(f"bad port {port}")
        self._gc(now)
        if port in self._ports:
            res = self._ports[port]
            state = "lingering" if res.lingering_until is not None else "bound"
            raise PortInUse(f"port {port} is {state} (owner {res.owner})")
        self._ports[port] = _Reservation(owner)
        return port

    def allocate_ephemeral(self, owner: str, now: float) -> int:
        """Pick a free ephemeral port."""
        self._gc(now)
        for _ in range(0x10000 - self.EPHEMERAL_START):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral >= 0x10000:
                self._next_ephemeral = self.EPHEMERAL_START
            if port not in self._ports:
                self._ports[port] = _Reservation(owner)
                return port
        raise PortInUse("ephemeral port space exhausted")

    def release(self, port: int, now: float, linger: bool = True) -> None:
        """Free a port, optionally holding it for 2*MSL first."""
        res = self._ports.get(port)
        if res is None:
            return
        if linger:
            res.lingering_until = now + 2 * self.msl
        else:
            del self._ports[port]

    def is_lingering(self, port: int, now: float) -> bool:
        self._gc(now)
        res = self._ports.get(port)
        return res is not None and res.lingering_until is not None

    def is_bound(self, port: int, now: float) -> bool:
        self._gc(now)
        res = self._ports.get(port)
        return res is not None and res.lingering_until is None
