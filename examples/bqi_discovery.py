#!/usr/bin/env python3
"""Connectionless protocols on AN1: BQI discovery in action (paper §5).

"To fully exploit the benefits of the BQI scheme, indexes have to be
exchanged between the peers.  This is easy if connection setup (as in
TCP) or binding (as in RPC) is performed prior to normal data transfer
... Connectionless protocols can also use this facility by
'discovering' the index value of their peer by examining the
link-level headers of incoming messages."

Watch a user-level UDP endpoint on the 100 Mb/s AN1:

1. the first datagram travels with BQI 0 — protected kernel memory —
   and reaches the peer's channel through the kernel software fallback;
2. every datagram advertises the sender's own ring index in the link
   header's spare field;
3. from the first response onward, both sides stamp the discovered
   index and the controller DMAs datagrams straight into the peer's
   ring: pure hardware demultiplexing, no kernel software on the path.

Run:  python examples/bqi_discovery.py
"""

from repro.org.udplib import LibraryUdpService
from repro.testbed import IP_B, Testbed
from repro.trace import WireTrace


def main() -> None:
    testbed = Testbed(network="an1", organization="userlib")
    sim = testbed.sim
    trace = WireTrace(testbed.link)
    udp_a = LibraryUdpService(testbed.host_a, testbed.app_a, testbed.registry_a)
    udp_b = LibraryUdpService(testbed.host_b, testbed.app_b, testbed.registry_b)

    def via(endpoint, before):
        ring = endpoint.channel.region
        return "hardware ring" if ring.stats["delivered"] > before else "kernel fallback"

    paths = []

    def server():
        endpoint = yield from udp_b.bind(9999)
        print(f"server bound port 9999; its ring is BQI {endpoint.channel.region.bqi}")
        while True:
            before = endpoint.channel.region.stats["delivered"]
            data, (src_ip, src_port) = yield from endpoint.recvfrom()
            paths.append(via(endpoint, before))
            print(
                f"[{sim.now * 1e3:7.2f} ms] server: {data!r} arrived via "
                f"{paths[-1]}; knows peer rings {endpoint.peer_bqi}"
            )
            yield from endpoint.sendto(src_ip, src_port, b"ack:" + data)

    def client():
        endpoint = yield from udp_a.bind(0)
        print(f"client bound; its ring is BQI {endpoint.channel.region.bqi}")
        for i in range(4):
            stamped = endpoint.peer_bqi.get(IP_B, 0)
            print(
                f"[{sim.now * 1e3:7.2f} ms] client: sending request {i} "
                f"stamped with BQI {stamped}"
                + ("  <- undiscovered: kernel path" if not stamped else "")
            )
            yield from endpoint.sendto(IP_B, 9999, f"req-{i}".encode())
            data, _ = yield from endpoint.recvfrom()
            print(f"[{sim.now * 1e3:7.2f} ms] client: got {data!r}")
        return endpoint

    testbed.app_b.spawn(server(), name="server")
    done = testbed.app_a.spawn(client(), name="client")
    endpoint = testbed.run(until=done)

    print()
    print("ring statistics after the exchange:")
    print(f"  client ring: {endpoint.channel.region.stats}")
    print("only the very first datagram in each direction needed the kernel;")
    print("every subsequent one was demultiplexed by the AN1 hardware.")
    assert paths == ["kernel fallback"] + ["hardware ring"] * 3, paths
    udp = [record for record in trace.records if record.protocol == "udp"]
    print(f"on the wire: {len(udp)} UDP datagrams, the first {udp[0].summary}")
    assert len(udp) == 8  # Four requests, four answers: nothing else.


if __name__ == "__main__":
    main()
