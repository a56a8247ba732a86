#!/usr/bin/env python3
"""Multiple protocols co-existing — the paper's core motivation.

§1.1: "In systems that need to support both throughput-intensive and
latency-critical applications, it is realistic to expect both types of
protocols to co-exist."

This example runs, simultaneously on the same two hosts:

* a throughput-intensive TCP bulk transfer through the user-level TCP
  library, and
* a latency-critical request/response protocol (VMTP-flavoured) built
  directly on the UDP library — no connection setup, no byte-stream
  machinery, just a request datagram and a response datagram.

The request/response exchanges complete in a fraction of the TCP
round-trip time while the bulk transfer saturates the link — exactly
the co-existence story.

Run:  python examples/multiprotocol.py
"""

from repro.net.headers import PROTO_UDP
from repro.protocols.udp import decode_datagram, encode_datagram
from repro.testbed import IP_A, IP_B, Testbed

RR_PORT = 3000
BULK_PORT = 3001
BULK_BYTES = 300_000


class RequestResponseClient:
    """A minimal VMTP-style request/response transport over UDP.

    Each request carries a transaction id; the response echoes it.
    Retransmission on timeout gives at-least-once semantics — the
    'specialized protocols [that] achieve remarkably low latencies'
    the paper contrasts with byte-stream transports.
    """

    def __init__(self, testbed, host, port=RR_PORT):
        self.testbed = testbed
        self.host = host
        self.port = host.udp_ports.bind(0, self._on_response)
        self._waiting = {}
        self._next_tid = 1

    def _on_response(self, datagram):
        tid = int.from_bytes(datagram.payload[:4], "big")
        event = self._waiting.pop(tid, None)
        if event is not None:
            event.succeed(datagram.payload[4:])

    def _expire(self, tid):
        event = self._waiting.pop(tid, None)
        if event is not None:
            event.succeed(None)  # Timed out: no response to hand over.

    def call(self, server_ip, request: bytes, timeout=0.5):
        """Generator: one remote call, with retransmission."""
        tid = self._next_tid
        self._next_tid += 1
        wire = encode_datagram(
            self.port, RR_PORT,
            tid.to_bytes(4, "big") + request,
            self.host.ip, server_ip,
        )
        sim = self.testbed.sim
        for _ in range(5):
            event = sim.event()
            self._waiting[tid] = event
            yield from self.host.ip_send(server_ip, PROTO_UDP, wire)
            expiry = sim.call_later(timeout, self._expire, tid)
            result = yield event
            expiry.cancel()
            if result is not None:
                return result
            # Timed out; retransmit.
        raise TimeoutError(f"request {tid} got no response")


def rr_server(testbed, host):
    """Server side: answer each request datagram with a response."""

    def on_request(datagram):
        tid, body = datagram.payload[:4], datagram.payload[4:]
        reply = encode_datagram(
            RR_PORT, datagram.src_port,
            tid + b"answered:" + body,
            host.ip, datagram.src_ip,
        )
        testbed.spawn(
            host.ip_send(datagram.src_ip, PROTO_UDP, reply), name="rr-reply"
        )

    host.udp_ports.bind(RR_PORT, on_request)


def main() -> None:
    testbed = Testbed(network="ethernet", organization="userlib")
    sim = testbed.sim
    rr_server(testbed, testbed.host_b)
    rr_client = RequestResponseClient(testbed, testbed.host_a)
    stats = {"rr_times": [], "bulk_done": None}

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
        # Fire request/response calls *while* the bulk transfer runs.
        yield sim.timeout(0.05)
        for i in range(10):
            start = sim.now
            reply = yield from rr_client.call(IP_B, f"req-{i}".encode())
            stats["rr_times"].append(sim.now - start)
            assert reply == f"answered:req-{i}".encode()
            yield sim.timeout(0.02)

    testbed.spawn(bulk_receiver(), name="bulk-rx")
    testbed.spawn(bulk_sender(), name="bulk-tx")
    rr_done = testbed.spawn(latency_client(), name="rr")
    testbed.run(until=rr_done)
    testbed.run(until=sim.now + 2.0)

    bulk_mbps = BULK_BYTES * 8 / stats["bulk_done"] / 1e6
    rr_mean = sum(stats["rr_times"]) / len(stats["rr_times"])
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
