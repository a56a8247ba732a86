"""Tests for the application-profile protocol specializer."""

import pytest

from repro.specialize import (
    AppProfile,
    FILE_TRANSFER,
    INTERACTIVE,
    ProfileError,
    REMOTE_LOGIN,
    RPC,
    WAN_BULK,
    specialize,
)
from repro.protocols.tcp import TcpConfig
from repro.testbed import IP_B, Testbed


def test_interactive_profile_disables_nagle():
    config = specialize(INTERACTIVE)
    assert not config.nagle
    assert config.delack_time <= 0.05


def test_bulk_profile_grows_windows_and_uses_reno():
    config = specialize(FILE_TRANSFER)
    assert config.snd_buffer >= 32768
    assert config.rcv_buffer >= 32768
    assert config.cc == "reno"
    # Fast recovery replaces Tahoe; a chosen modern algorithm is kept.
    assert specialize(FILE_TRANSFER, TcpConfig(cc="tahoe")).cc == "reno"
    assert specialize(FILE_TRANSFER, TcpConfig(cc="cubic")).cc == "cubic"


def test_lossy_profile_tunes_recovery():
    config = specialize(WAN_BULK, TcpConfig(cc="tahoe"))
    assert config.cc == "reno"
    assert config.min_rto <= 0.3


def test_remote_login_enables_keepalive():
    config = specialize(REMOTE_LOGIN)
    assert config.keepalive
    assert not config.nagle


def test_max_outstanding_bounds_buffers():
    config = specialize(AppProfile(bulk=True, max_outstanding=4096))
    assert config.snd_buffer == 8192
    assert config.rcv_buffer == 8192


def test_conflicting_profile_rejected():
    with pytest.raises(ProfileError):
        specialize(AppProfile(latency_sensitive=True, bulk=True))


def test_invalid_values_rejected():
    with pytest.raises(ProfileError):
        specialize(AppProfile(message_size=0))
    with pytest.raises(ProfileError):
        specialize(AppProfile(expected_loss=1.5))


def test_base_config_preserved_where_unspecified():
    base = TcpConfig(msl=5.0, mss=512)
    config = specialize(RPC, base=base)
    assert config.msl == 5.0
    assert config.mss == 512
    assert not config.nagle  # RPC is latency-sensitive.


def test_specialized_config_runs_end_to_end():
    """A derived variant actually drives a connection."""
    testbed = Testbed(
        network="ethernet",
        organization="userlib",
        config=specialize(REMOTE_LOGIN),
    )
    got = {}

    def server():
        listener = yield from testbed.service_b.listen(23)
        conn = yield from listener.accept()
        got["data"] = yield from conn.recv_exactly(5)

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 23)
        yield from conn.send(b"login")
        yield testbed.sim.timeout(0.5)

    testbed.spawn(server(), name="server")
    proc = testbed.spawn(client(), name="client")
    testbed.run(until=proc)
    assert got["data"] == b"login"
