"""Interfaces shared by all protocol organizations (paper Figure 1).

An :class:`Organization` builds, for one host, a :class:`TcpService` —
the app-facing API (listen/connect and per-connection read/write).  The
same sans-io protocol stack runs under every organization; what varies
is which address-space crossings, copies, and signals appear on the
send/receive path, captured by each organization's :class:`PathProfile`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator

from ..costs import CostModel
from ..counters import Counters

if TYPE_CHECKING:
    from ..host import Host
    from .runner import MachineRunner


class TcpConnection(abc.ABC):
    """One established connection, as the application sees it."""

    #: The machine's runner: both reads are its own.
    runner: "MachineRunner"

    @abc.abstractmethod
    def send(self, data: bytes) -> Generator:
        """Blocking write of all of ``data``."""

    def recv(self, max_bytes: int) -> Generator:
        """Blocking read of up to ``max_bytes``; b'' at EOF."""
        return self.runner.app_recv(max_bytes, self._recv_exit)

    def recv_exactly(self, nbytes: int) -> Generator:
        """Blocking read of exactly ``nbytes`` (raises on early EOF)."""
        return self.runner.app_recv(nbytes, self._recv_exit, exact=True)

    @abc.abstractmethod
    def _recv_exit(self, nbytes: int, blocked: bool) -> float:
        """The organization's charge for handing one read's ``nbytes``
        to the application (``blocked``: the reader slept first)."""

    @abc.abstractmethod
    def close(self) -> Generator:
        """Orderly release."""

    @abc.abstractmethod
    def abort(self) -> Generator:
        """Abortive release (RST)."""


class TcpListener(abc.ABC):
    """A listening endpoint."""

    @abc.abstractmethod
    def accept(self) -> Generator:
        """Block until a connection is established; returns it."""

    @abc.abstractmethod
    def close(self) -> None:
        """Stop listening."""


class TcpService(abc.ABC):
    """The per-host (or per-application) transport API."""

    host: "Host"
    stats: Counters  # Receive-path counts; outlives every connection.

    @abc.abstractmethod
    def listen(self, port: int) -> Generator:
        """Passive open; returns a :class:`TcpListener`."""

    @abc.abstractmethod
    def connect(self, remote_ip: int, remote_port: int, local_port: int = 0) -> Generator:
        """Active open; returns an established :class:`TcpConnection`."""


@dataclass(frozen=True)
class PathProfile:
    """Per-organization crossing/copy costs around the shared stack.

    Each entry is ``f(costs, nbytes) -> seconds`` charged at a specific
    point on the path.  The NIC, link, and protocol-processing costs are
    charged elsewhere (identically for every organization); these
    profiles encode only the *structural* differences Figure 1 is about.
    """

    name: str
    #: App write entry: syscall / IPC / procedure call into the stack.
    send_entry: Callable[[CostModel, int], float]
    #: Per-segment cost after TCP output, before the device.
    send_device: Callable[[CostModel, int], float]
    #: Per-segment receive cost between demux and TCP input.
    recv_dispatch: Callable[[CostModel, int], float]
    #: Cost of handing received data to the application per read.
    recv_exit: Callable[[CostModel, int], float]
    #: Whether TCP input pays a PCB lookup (our library upcalls
    #: per-connection threads instead).
    pcb_lookup: bool
    #: Fixed extra cost at connection setup (crossings to reach the
    #: stack), beyond the handshake itself.
    setup_overhead: float
    #: Structural crossing counts for Figure 1's comparison: IPC
    #: messages implied per (send call, tx segment, rx segment, recv
    #: call) under this organization.
    ipc_counts: tuple = (0, 0, 0, 0)


def no_cost(costs: CostModel, nbytes: int) -> float:
    """A free path segment."""
    return 0.0
