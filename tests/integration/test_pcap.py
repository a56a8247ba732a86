"""pcap export round-trip: what WireTrace captures must come back
byte-identical (and re-decodable) through the standard file format."""

import struct

import pytest

from repro.trace import (
    LINKTYPE_AN1,
    LINKTYPE_ETHERNET,
    PCAP_MAGIC,
    WireTrace,
    write_pcap,
)
from repro.testbed import Testbed

from .test_trace import run_small_transfer


def read_pcap(path) -> tuple[int, list[tuple[float, bytes]]]:
    """Read a classic pcap file back: ``(linktype, [(time, frame), ...])``.

    Understands both byte orders and nanosecond-magic variants, so what
    ``write_pcap`` wrote is judged as any reader of the format reads it,
    not by the writer's own constants.
    """
    data = path.read_bytes()
    if len(data) < 24:  # The global header.
        raise ValueError("truncated pcap: missing global header")
    magic = struct.unpack("<I", data[:4])[0]
    if magic in (0xA1B2C3D4, 0xA1B23C4D):
        endian = "<"
    elif magic in (0xD4C3B2A1, 0x4D3CB2A1):
        endian = ">"
    else:
        raise ValueError(f"not a pcap file (magic {magic:#010x})")
    nanos = struct.unpack(endian + "I", data[:4])[0] in (0xA1B23C4D, 0x4D3CB2A1)
    header = struct.Struct(endian + "IHHiIII")
    record = struct.Struct(endian + "IIII")
    linktype = header.unpack_from(data)[6]
    frames: list[tuple[float, bytes]] = []
    offset = header.size
    while offset < len(data):
        if offset + record.size > len(data):
            raise ValueError("truncated pcap: partial record header")
        ts_sec, ts_frac, incl_len, _orig = record.unpack_from(data, offset)
        offset += record.size
        if offset + incl_len > len(data):
            raise ValueError("truncated pcap: partial record")
        frame = data[offset : offset + incl_len]
        offset += incl_len
        scale = 1e-9 if nanos else 1e-6
        frames.append((ts_sec + ts_frac * scale, frame))
    return linktype, frames


def test_pcap_round_trip_ethernet(tmp_path):
    testbed = Testbed(network="ethernet", organization="userlib")
    trace = WireTrace(testbed.link)
    run_small_transfer(testbed)
    path = tmp_path / "capture.pcap"

    written = trace.export_pcap(path)
    assert written == len(trace.records)

    linktype, frames = read_pcap(path)
    assert linktype == LINKTYPE_ETHERNET
    assert len(frames) == written
    for record, (time, raw) in zip(trace.records, frames):
        assert raw == record.raw
        # Timestamps survive at microsecond resolution.
        assert time == pytest.approx(record.time, abs=1e-6)
        # Re-decoding the file's bytes reproduces the live decode.
        assert trace.decode(time, raw).summary == record.summary


def test_pcap_global_header_is_standard(tmp_path):
    testbed = Testbed(network="ethernet", organization="userlib")
    trace = WireTrace(testbed.link)
    run_small_transfer(testbed)
    path = tmp_path / "capture.pcap"
    trace.export_pcap(path)
    header = path.read_bytes()[:24]
    magic, major, minor, _tz, _sig, snaplen, linktype = struct.unpack(
        "<IHHiIII", header
    )
    assert magic == PCAP_MAGIC == 0xA1B2C3D4
    assert (major, minor) == (2, 4)
    assert snaplen == 65535
    assert linktype == 1  # LINKTYPE_ETHERNET: opens in Wireshark/tcpdump


def test_pcap_an1_uses_private_linktype(tmp_path):
    testbed = Testbed(network="an1", organization="userlib")
    trace = WireTrace(testbed.link)
    run_small_transfer(testbed)
    path = tmp_path / "an1.pcap"
    trace.export_pcap(path)
    linktype, frames = read_pcap(path)
    assert linktype == LINKTYPE_AN1 == 147  # DLT_USER0
    assert frames


def test_write_pcap_skips_rawless_records(tmp_path):
    testbed = Testbed(network="ethernet", organization="userlib")
    trace = WireTrace(testbed.link)
    run_small_transfer(testbed)
    trace.records[0].raw = b""  # e.g. a record decoded from a live wire
    path = tmp_path / "partial.pcap"
    assert write_pcap(path, trace.records) == len(trace.records) - 1


def test_read_pcap_rejects_a_partial_record_header(tmp_path):
    testbed = Testbed(network="ethernet", organization="userlib")
    trace = WireTrace(testbed.link)
    run_small_transfer(testbed)
    path = tmp_path / "capture.pcap"
    trace.export_pcap(path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)  # Half a 16-byte header.
    with pytest.raises(ValueError, match="truncated pcap: partial record header"):
        read_pcap(path)


def test_read_pcap_rejects_garbage(tmp_path):
    path = tmp_path / "not.pcap"
    path.write_bytes(b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_pcap(path)
    path.write_bytes(b"\x01")
    with pytest.raises(ValueError, match="truncated"):
        read_pcap(path)
