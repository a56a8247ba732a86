"""Table 3: round-trip latency by organization, network, and size.

Paper §4: "The latency is measured by doing a simple ping-pong test
between two applications.  The first application sends data to the
second, which in turn, sends the same amount of data back."  The cells
are measured once per session by ``repro.paper.grid`` (the ``grid``
fixture).
"""

import pytest

from repro.paper import TABLE3, TABLE3_SIZES

CONFIGS = [
    pytest.param(net, org, id=f"{net}-{org}")
    for (net, org) in TABLE3
]


def rtt(grid, network, organization, size):
    return grid["table3", network, organization, size].measured


@pytest.mark.parametrize("network,organization", CONFIGS)
def test_table3_row(grid, network, organization):
    row = {size: rtt(grid, network, organization, size) for size in TABLE3_SIZES}
    paper_row = TABLE3[(network, organization)]
    # Shape: latency increases with message size.
    sizes = list(TABLE3_SIZES)
    for small, large in zip(sizes, sizes[1:]):
        assert row[large] > row[small]
    # Absolute sanity: within a factor of 2 of the paper's value.
    for size in TABLE3_SIZES:
        assert 0.5 <= row[size] / paper_row[size] <= 2.0


def test_table3_ethernet_ordering(grid):
    """Paper: "latencies on the Ethernet are significantly reduced from
    the Mach/UX monolithic implementation and [are] on average about
    61% higher than the Ultrix implementation"."""
    r = {
        org: rtt(grid, "ethernet", org, 512)
        for org in ("ultrix", "userlib", "mach-ux")
    }
    assert r["ultrix"] < r["userlib"] < r["mach-ux"]
    assert r["mach-ux"] / r["userlib"] >= 1.3


def test_table3_an1_latencies_lower_than_ethernet(grid):
    """The 100 Mb/s link cuts transmission time dramatically."""
    assert rtt(grid, "an1", "userlib", 1460) < rtt(grid, "ethernet", "userlib", 1460) * 0.6


def test_table3_an1_gap_about_40_percent(grid):
    """Paper: "On the AN1, the difference between Ultrix and our
    implementation is about 40%" (we assert it stays well under the
    Ethernet-era multiples)."""
    assert 1.0 <= rtt(grid, "an1", "userlib", 512) / rtt(grid, "an1", "ultrix", 512) <= 1.6
