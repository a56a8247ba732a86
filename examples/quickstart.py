#!/usr/bin/env python3
"""Quickstart: a TCP echo service over the user-level protocol library.

Builds the paper's testbed — two simulated DECstations on a 10 Mb/s
Ethernet — with the user-level library organization: each application
links the TCP/IP library, connection setup goes through the registry
server, and data flows through protected network-I/O-module channels.

Run:  python examples/quickstart.py
"""

from repro.net.headers import ip_to_str
from repro.sockets import socket
from repro.testbed import IP_B, Testbed


def main() -> None:
    testbed = Testbed(network="ethernet", organization="userlib")
    sim = testbed.sim

    def server():
        sock = socket(testbed.service_b)
        sock.bind(7)  # The echo port.
        yield from sock.listen()
        print(f"[{sim.now * 1e3:7.2f} ms] server: listening on port 7")
        child = yield from sock.accept()
        print(f"[{sim.now * 1e3:7.2f} ms] server: accepted a connection")
        while True:
            data = yield from child.recv(4096)
            if not data:
                break
            yield from child.send(data)
        yield from child.close()
        print(f"[{sim.now * 1e3:7.2f} ms] server: connection closed")

    def client():
        sock = socket(testbed.service_a)
        print(f"[{sim.now * 1e3:7.2f} ms] client: connecting to "
              f"{ip_to_str(IP_B)}:7 ...")
        yield from sock.connect(IP_B, 7)
        # The registry handed the established connection to the library.
        assert sock.connected and sock.connection.channel is not None
        print(f"[{sim.now * 1e3:7.2f} ms] client: connected "
              "(three-way handshake ran inside the registry server)")
        for message in (b"hello, user-level TCP!", b"x" * 10_000):
            yield from sock.send(message)
            echo = yield from sock.recv_exactly(len(message))
            assert echo == message
            print(
                f"[{sim.now * 1e3:7.2f} ms] client: echoed "
                f"{len(message)} bytes"
            )
        yield from sock.close()
        assert not sock.connected

    testbed.app_b.spawn(server(), name="server")
    done = testbed.app_a.spawn(client(), name="client")
    testbed.run(until=done)
    testbed.run(until=sim.now + 0.5)  # Let the close handshake drain.

    print()
    print("structural proof that the registry is bypassed on the data path:")
    print(f"  registry segments handled : "
          f"{testbed.registry_a.stats['handshake_segments']} (handshake only)")
    print(f"  channel packets sent      : {testbed.host_a.netio.stats['tx']}")
    print(f"  packets demuxed to channel: "
          f"{testbed.host_b.netio.stats['rx_demuxed']}")
    assert testbed.registry_a.stats["handshake_segments"] == 3
    assert testbed.host_a.netio.stats["tx"] > 3 and testbed.host_b.netio.stats["rx_demuxed"]


if __name__ == "__main__":
    main()
