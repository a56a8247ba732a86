"""A writer blocked on a full send buffer when the peer resets.

``TcpMachine._teardown`` empties the send buffer, so the writer
``NotifyClosed`` wakes finds *space* — and before PR 24 went on to feed
``AppSend`` to a CLOSED machine, surfacing the machine's API-misuse
error (``TcpError: send in state State.CLOSED``) instead of the reset.
``MachineRunner.app_send`` now reads ``closed_reason`` on every turn of
its loop; the runner is shared, so every organization is held to it.
"""

import pytest

from repro.testbed import IP_B, Testbed

PORT = 7100
WRITES, WRITE_SIZE = 64, 4096  # 256 KB against a 16 KB window.


@pytest.mark.parametrize("organization", ["userlib", "ultrix", "mach-ux"])
def test_blocked_writer_and_later_sends_see_the_reset(organization):
    bed = Testbed(organization=organization)
    seen = {}

    def server():
        listener = yield from bed.service_b.listen(PORT)
        conn = yield from listener.accept()
        yield bed.sim.timeout(2.0)  # Never reads: both buffers fill.
        yield from conn.abort()

    def client():
        conn = yield from bed.service_a.connect(IP_B, PORT)
        try:
            for written in range(WRITES):
                seen["written"] = written
                yield from conn.send(bytes(WRITE_SIZE))
        except ConnectionResetError as exc:
            seen["blocked"] = (bed.sim.now, str(exc))
        try:
            yield from conn.send(b"x")
        except ConnectionResetError as exc:
            seen["later"] = str(exc)

    bed.spawn(server(), name="server")
    done = bed.spawn(client(), name="client")
    bed.run(until=done)
    # Both 16 KB buffers filled long before the abort: the eighth write
    # was parked part-way, and the reset is what woke it.
    assert seen["written"] == 7
    at, message = seen["blocked"]
    assert 2.0 <= at < 2.1
    assert message == seen["later"] == "connection closed (reset)"
