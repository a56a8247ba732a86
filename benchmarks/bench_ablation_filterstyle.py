"""Ablation: packet demultiplexing style.

Paper §2.2: CSPF-style interpretation "offers flexibility ... [but] is
not likely to scale with CPU speeds because it is memory intensive",
BPF "provides higher performance", and synthesized demux code "requires
only a few instructions".  We run the same transfer under all three
demux styles, then again with extra connections installed to show the
interpreted filters' linear scan cost growing with connection count.
"""

from repro.metrics import measure_throughput
from repro.netio.template import tcp_send_template
from repro.testbed import IP_A, IP_B, MAC_A, Testbed

STYLES = ("synthesized", "bpf", "cspf")


def add_background_channels(testbed: Testbed, count: int) -> None:
    """Install extra (idle) connections so demux has to scan past them.

    Installed *before* the measured connection exists, so the scan
    tier holds their filters first and the real connection's filter is
    interpreted last — the worst case for interpretation.  The indexed
    tiers don't care about order (that is the point of the ablation).
    """
    netio = testbed.host_b.netio

    def setup():
        for i in range(count):
            yield from netio.create_channel(
                testbed.registry_b.task,
                testbed.app_b,
                tcp_send_template(IP_B, 20000 + i, IP_A, 30000 + i),
                local_ip=IP_B,
                local_port=20000 + i,
                remote_ip=IP_A,
                remote_port=30000 + i,
                link_dst=MAC_A,
            )

    proc = testbed.registry_b.task.spawn(setup(), name="bg-channels")
    testbed.run(until=proc)


def run_filter_ablation() -> dict:
    out = {}
    for style in STYLES:
        for extra in (0, 16):
            testbed = Testbed(
                network="ethernet",
                organization="userlib",
                demux_style=style,
            )
            if extra:
                add_background_channels(testbed, extra)
            result = measure_throughput(
                testbed, total_bytes=300_000, chunk_size=4096
            )
            out[(style, extra)] = result.throughput_mbps
    return out


def test_ablation_filter_style(benchmark):
    r = benchmark.pedantic(run_filter_ablation, rounds=1, iterations=1)
    # With one connection: synthesized >= bpf >= cspf.
    assert r[("synthesized", 0)] >= r[("bpf", 0)] >= r[("cspf", 0)]
    # Interpretation degrades with connection count; synthesized demux
    # (a single compiled dispatch) holds up far better.
    cspf_degradation = r[("cspf", 0)] / r[("cspf", 16)]
    synth_degradation = r[("synthesized", 0)] / r[("synthesized", 16)]
    assert cspf_degradation > synth_degradation
    assert cspf_degradation > 1.15  # Noticeably slower with 16 filters.
