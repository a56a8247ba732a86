#!/usr/bin/env python3
"""Application-specific protocol specialization (paper §1.1).

"Further performance advantages may be gained by exploiting
application-specific knowledge to fine tune a particular instance of a
protocol ... based on application requirements, a specialized variant
of a standard protocol is used rather than the standard protocol
itself.  A different application would use a slightly different variant
of the same protocol."

With the protocol in a user-level library each application links the
variant tuned for *its* traffic — impossible when one in-kernel stack
serves everyone.  Two demonstrations:

1. **Interactive traffic**: a terminal-style application types bursts of
   characters.  The stock library's Nagle algorithm holds the trailing
   keystrokes for the peer's (delayed) ACK; the interactive variant
   disables Nagle and shortens the delayed-ACK clock.

2. **Bulk transfer over a lossy path**: a file mover that knows its
   route drops ~2% of frames links the Reno variant (fast recovery);
   the conservative Tahoe variant collapses to one segment on every
   fast retransmit.  In 1993 you got whichever your kernel shipped.

Run:  python examples/specialized_protocol.py
"""

from typing import Optional

from repro.metrics import measure_throughput
from repro.net.faults import FaultInjector
from repro.protocols.tcp import TcpConfig
from repro.specialize import INTERACTIVE, WAN_BULK, specialize
from repro.testbed import IP_B, Testbed

#: The library as a 1993 kernel would have shipped it: Tahoe.
SHIPPED = TcpConfig(cc="tahoe")


def measure_keystroke_bursts(config: Optional[TcpConfig], bursts: int = 10) -> float:
    """Mean time for a burst of three typed-ahead keystrokes to echo.

    Three separate one-byte writes while the first is still in flight;
    the server echoes once it has all three.  With Nagle on, the
    trailing characters wait for the first one's (delayed) ACK — the
    classic interactive stall the specialized variant removes.
    """
    testbed = Testbed(network="ethernet", organization="userlib", config=config)
    sim = testbed.sim
    out = {}

    def server():
        listener = yield from testbed.service_b.listen(23)
        conn = yield from listener.accept()
        for _ in range(bursts):
            burst = yield from conn.recv_exactly(3)
            yield from conn.send(burst)

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 23)
        start = sim.now
        for _ in range(bursts):
            for _ in range(3):  # Typed ahead, not waiting for echoes.
                yield from conn.send(b"k")
            yield from conn.recv_exactly(3)
        out["mean"] = (sim.now - start) / bursts

    testbed.app_b.spawn(server(), name="server")
    proc = testbed.app_a.spawn(client(), name="client")
    testbed.run(until=proc)
    return out["mean"]


def measure_lossy_bulk(config: TcpConfig, total: int = 500_000) -> float:
    testbed = Testbed(
        network="ethernet",
        organization="userlib",
        faults=FaultInjector(drop_rate=0.02, seed=5),
        config=config,
    )
    return measure_throughput(
        testbed, total_bytes=total, chunk_size=4096
    ).throughput_mbps


def main() -> None:
    print("one user-level TCP library, per-application variants\n")

    print("1. interactive traffic (bursts of 3 typed-ahead keystrokes):")
    stock_echo = measure_keystroke_bursts(None) * 1e3  # The library's defaults.
    fast_echo = measure_keystroke_bursts(specialize(INTERACTIVE)) * 1e3
    print(f"   stock library (Nagle on)                : {stock_echo:8.2f} ms/burst")
    print(f"   specialize(INTERACTIVE) (Nagle off)     : {fast_echo:8.2f} ms/burst")
    print(f"   -> {stock_echo / fast_echo:.1f}x faster echoes\n")

    print("2. bulk transfer over a 2%-lossy path:")
    tahoe = measure_lossy_bulk(SHIPPED)
    reno = measure_lossy_bulk(specialize(WAN_BULK, SHIPPED))
    print(f"   Tahoe, as shipped (collapse on loss) : {tahoe:8.2f} Mb/s")
    print(f"   specialize(WAN_BULK): fast recovery  : {reno:8.2f} Mb/s")
    print(f"   -> {reno / tahoe:.1f}x the throughput\n")
    assert fast_echo < stock_echo and reno > tahoe

    print("each application simply linked a differently-tuned library —")
    print("no kernel changes, no system-wide policy decision.")


if __name__ == "__main__":
    main()
