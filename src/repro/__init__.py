"""repro: a user-level network protocol implementation.

A from-scratch reproduction of Thekkath, Nguyen, Moy & Lazowska,
"Implementing Network Protocols at User Level" (SIGCOMM 1993): a real
sans-io TCP/IP/ARP/UDP stack running as user-level libraries over a
Mach-like microkernel substrate, with a registry server for trusted
connection establishment and a network I/O module for protected packet
delivery — all on a calibrated discrete-event simulation of the paper's
DECstation/Ethernet/AN1 testbed.

Quick start::

    from repro.testbed import IP_B, Testbed

    testbed = Testbed(network="ethernet", organization="userlib")

    def server():
        listener = yield from testbed.service_b.listen(7)
        conn = yield from listener.accept()
        data = yield from conn.recv(1024)
        yield from conn.send(data)

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 7)
        yield from conn.send(b"hello")
        print((yield from conn.recv_exactly(5)))

    # Application code runs as threads of each host's application task.
    testbed.app_b.spawn(server())
    done = testbed.app_a.spawn(client())
    testbed.run(until=done)
"""

from .costs import CostModel, DECSTATION_5000_200, FREE
from .host import Host
from .metrics import (
    LatencyResult,
    SetupResult,
    TransferResult,
    measure_latency,
    measure_setup,
    measure_throughput,
)
from .specialize import AppProfile, specialize
from .testbed import NETWORKS, ORGANIZATIONS, Testbed
from .trace import WireTrace

__version__ = "1.0.0"

__all__ = [
    "Testbed",
    "Host",
    "ORGANIZATIONS",
    "NETWORKS",
    "CostModel",
    "DECSTATION_5000_200",
    "FREE",
    "measure_throughput",
    "measure_latency",
    "measure_setup",
    "TransferResult",
    "LatencyResult",
    "SetupResult",
    "WireTrace",
    "AppProfile",
    "specialize",
    "__version__",
]
