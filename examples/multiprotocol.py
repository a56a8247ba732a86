#!/usr/bin/env python3
"""Multiple protocols co-existing — the paper's core motivation.

§1.1: "In systems that need to support both throughput-intensive and
latency-critical applications, it is realistic to expect both types of
protocols to co-exist."

This example runs, simultaneously on the same two hosts:

* a throughput-intensive TCP bulk transfer through the user-level TCP
  library, and
* a latency-critical request/response protocol (VMTP-flavoured,
  :mod:`repro.protocols.rrp`) over the user-level UDP library — no
  connection setup, no byte-stream machinery, just a request datagram
  and a response datagram, executed at most once.

Every request/response exchange completes, executed once, while the
bulk transfer is still in flight — exactly the co-existence story.

Run:  python examples/multiprotocol.py
"""

from repro.org.udplib import LibraryUdpService, run_rrp
from repro.protocols.rrp import RrpClient, RrpServer
from repro.testbed import IP_B, Testbed

RR_PORT = 3000
BULK_PORT = 3001
BULK_BYTES = 300_000
CALLS = 10


def main() -> None:
    testbed = Testbed(network="ethernet", organization="userlib")
    sim = testbed.sim
    # The request/response library, linked into the same two
    # applications as the TCP library: RRP's sans-io engines over the
    # user-level UDP library's protected channels.
    udp_a = LibraryUdpService(testbed.host_a, testbed.app_a, testbed.registry_a)
    udp_b = LibraryUdpService(testbed.host_b, testbed.app_b, testbed.registry_b)
    rr_server = RrpServer(lambda request: b"answered:" + request)
    rr_client = RrpClient()
    stats = {"rr_times": [], "rr_done": None, "bulk_done": None}

    def bulk_receiver():
        listener = yield from testbed.service_b.listen(BULK_PORT)
        conn = yield from listener.accept()
        received = 0
        while received < BULK_BYTES:
            data = yield from conn.recv(65536)
            if not data:
                break
            received += len(data)
        stats["bulk_done"] = sim.now

    def bulk_sender():
        conn = yield from testbed.service_a.connect(IP_B, BULK_PORT)
        payload = bytes(range(256)) * 16
        sent = 0
        while sent < BULK_BYTES:
            yield from conn.send(payload)
            sent += len(payload)
        yield from conn.close()

    def latency_client():
        endpoints = [(yield from udp_b.bind(RR_PORT)), (yield from udp_a.bind(0))]
        run_rrp(endpoints[0], rr_server)
        call = run_rrp(endpoints[1], rr_client)
        # Fire request/response calls *while* the bulk transfer runs.
        yield sim.timeout(0.05)
        for i in range(CALLS):
            start = sim.now
            reply = yield from call(IP_B, RR_PORT, f"req-{i}".encode())
            stats["rr_times"].append(sim.now - start)
            assert reply == f"answered:req-{i}".encode()
            yield sim.timeout(0.02)
        stats["rr_done"] = sim.now
        for endpoint in endpoints:  # Unbinds, and ends each receive loop.
            yield from endpoint.close()

    testbed.spawn(bulk_receiver(), name="bulk-rx")
    testbed.spawn(bulk_sender(), name="bulk-tx")
    rr_done = testbed.spawn(latency_client(), name="rr")
    testbed.run(until=rr_done)
    testbed.run(until=sim.now + 2.0)

    bulk_mbps = BULK_BYTES * 8 / stats["bulk_done"] / 1e6
    rr_mean = sum(stats["rr_times"]) / len(stats["rr_times"])
    # Every call answered while the bulk transfer was still in flight,
    # and each request executed exactly once.
    assert len(stats["rr_times"]) == CALLS and rr_client.outstanding == 0
    assert stats["rr_done"] < stats["bulk_done"]
    assert rr_server.stats["executed"] == rr_server.cached == CALLS
    print(f"bulk TCP transfer  : {BULK_BYTES} bytes, {bulk_mbps:.2f} Mb/s "
          "(incl. setup)")
    print(f"request/response   : {len(stats['rr_times'])} calls under load, "
          f"mean {rr_mean * 1e3:.2f} ms per call")
    print()
    print("both transports shared the same hosts, links, and network I/O")
    print("modules — the byte-stream library and the request/response")
    print("protocol co-existing, each doing what it is best at.")


if __name__ == "__main__":
    main()
