#!/usr/bin/env python3
"""Connection hand-off, inetd style (paper §3.2).

"Once a connection is established, it can be passed by the application
to other applications without involving the registry server or the
network I/O module ... A typical instance of this occurs in UNIX-based
systems where the Internet daemon (inetd) hands off connection
end-points to specific servers such as the TELNET or FTP daemons."

One 'inetd' application accepts connections on a well-known port and
hands each established connection to a per-service worker application —
the channel capability moves between tasks with Mach semantics, and the
registry's involvement stays zero.

Run:  python examples/inetd_handoff.py
"""

from repro.testbed import IP_B, Testbed

SERVICES = {
    b"DATE": lambda: b"Tue Sep 14 09:31:07 PDT 1993\n",
    b"ECHO": None,  # Echoes the rest of the stream.
    b"QUOT": lambda: b"protocol implementation is a matter of policy\n",
}


def main() -> None:
    testbed = Testbed(network="ethernet", organization="userlib")
    sim = testbed.sim

    # One worker application (own task + own protocol library) per service.
    workers = {
        name: testbed.library_service("bob", f"worker-{name.decode().lower()}")
        for name in SERVICES
    }

    def inetd():
        listener = yield from testbed.service_b.listen(513)
        print(f"[{sim.now * 1e3:7.2f} ms] inetd: listening on port 513")
        for _ in range(3):
            conn = yield from listener.accept()
            service = yield from conn.recv_exactly(4)
            registry_before = testbed.registry_b.stats["handshake_segments"]
            worker_service = workers[service]
            handed = conn.hand_off(worker_service.app, worker_service)
            assert (
                testbed.registry_b.stats["handshake_segments"]
                == registry_before
            ), "hand-off must not involve the registry"
            print(
                f"[{sim.now * 1e3:7.2f} ms] inetd: handed {service.decode()}"
                f" connection to {worker_service.app.name}"
            )
            worker_service.app.spawn(worker(handed, service), name=f"w-{service}")

    def worker(conn, service):
        generator = SERVICES[service]
        if generator is None:  # ECHO
            data = yield from conn.recv(4096)
            yield from conn.send(data)
        else:
            yield from conn.send(generator())
        yield from conn.close()

    def client(service, payload=b""):
        conn = yield from testbed.service_a.connect(IP_B, 513)
        yield from conn.send(service + payload)
        response = bytearray()
        while True:
            data = yield from conn.recv(4096)
            if not data:
                break
            response.extend(data)
        yield from conn.close()
        print(
            f"[{sim.now * 1e3:7.2f} ms] client: {service.decode()} -> "
            f"{bytes(response)!r}"
        )
        return bytes(response)

    def clients():
        yield from client(b"DATE")
        yield from client(b"QUOT")
        echoed = yield from client(b"ECHO", b" say it back")
        assert echoed == b" say it back"

    testbed.app_b.spawn(inetd(), name="inetd")
    done = testbed.app_a.spawn(clients(), name="clients")
    testbed.run(until=done)
    print("\nall three services ran in separate worker tasks; the registry")
    print("saw only the three connection handshakes, never the hand-offs.")


if __name__ == "__main__":
    main()
