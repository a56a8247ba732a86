#!/usr/bin/env python3
"""Watch the library TCP's congestion control react to loss.

The user-level library runs the same 4.3BSD-era algorithms the paper's
borrowed stack had — slow start, congestion avoidance, fast retransmit
— and because the library lives in the application's address space, the
application can simply *look at* the transmission control block while
it runs (one of the paper's arguments for user-level protocols:
visibility and debuggability).

This example samples cwnd during a transfer over a lossy Ethernet and
renders the sawtooth.

Run:  python examples/congestion_trace.py
"""

from repro.net.faults import FaultInjector
from repro.protocols.tcp import TcpConfig
from repro.testbed import IP_B, Testbed

TOTAL = 600_000
BAR = "#"


def main() -> None:
    faults = FaultInjector(drop_rate=0.02, seed=11)
    testbed = Testbed(
        network="ethernet",
        organization="userlib",
        faults=faults,
        config=TcpConfig(min_rto=0.3, initial_rto=0.6),
    )
    sim = testbed.sim
    samples = []
    state = {}

    def receiver():
        listener = yield from testbed.service_b.listen(9000)
        conn = yield from listener.accept()
        received = 0
        while received < TOTAL:
            data = yield from conn.recv(65536)
            if not data:
                break
            received += len(data)
        state["done"] = sim.now

    def sender():
        conn = yield from testbed.service_a.connect(IP_B, 9000)
        state["tcb"] = conn.runner.machine.tcb
        state["stats"] = conn.runner.machine.stats
        payload = bytes(256) * 16
        sent = 0
        while sent < TOTAL:
            yield from conn.send(payload)
            sent += len(payload)
        yield from conn.close()

    def sampler():
        while "done" not in state:
            yield sim.timeout(0.02)
            if "tcb" in state:
                samples.append((sim.now, state["tcb"].cc.cwnd,
                                state["tcb"].cc.ssthresh))

    testbed.spawn(receiver(), name="rx")
    testbed.spawn(sender(), name="tx")
    sampler_proc = testbed.spawn(sampler(), name="sampler")
    testbed.run(until=sampler_proc)

    print(f"transferred {TOTAL} bytes in {state['done']:.2f} simulated s "
          f"with {faults.stats['dropped']} frames dropped\n")
    print("congestion window over time (each row = 20 ms):")
    peak = max(cwnd for _, cwnd, _ in samples)
    for t, cwnd, ssthresh in samples[::3]:
        width = int(cwnd / peak * 60)
        marker = "|" if abs(cwnd - ssthresh) < 1500 else ""
        print(f"  {t:6.2f}s {BAR * width}{marker} {cwnd // 1024} KB")
    stats = state["stats"]
    print(f"\nretransmits: {stats['retransmits']} "
          f"(fast: {stats['fast_retransmits']}), "
          f"dup ACKs seen: {stats['dup_acks_received']}")
    print("the sawtooth is Reno: loss -> fast retransmit -> half the "
          "window -> additive increase.")
    cwnds = [cwnd for _, cwnd, _ in samples]
    assert faults.stats["dropped"] and stats["fast_retransmits"]
    assert any(later < earlier / 1.5 for earlier, later in zip(cwnds, cwnds[1:]))


if __name__ == "__main__":
    main()
