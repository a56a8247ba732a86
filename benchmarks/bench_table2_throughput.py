"""Table 2: TCP throughput by organization, network, and packet size.

Reproduces the paper's central result: a user-level library TCP
outperforms the Mach/UX single-server organization and approaches (but
does not match) the in-kernel Ultrix implementation on Ethernet, while
on AN1 the copy-eliminating buffer organization makes the library *win*
at small packet sizes.  The cells are measured once per session by
``repro.paper.grid`` (the ``grid`` fixture).
"""

import pytest

from repro.paper import TABLE2, TABLE2_SIZES

CONFIGS = [
    pytest.param(net, org, id=f"{net}-{org}")
    for (net, org) in TABLE2
]


def mbps(grid, network, organization, size):
    return grid["table2", network, organization, size].measured


@pytest.mark.parametrize("network,organization", CONFIGS)
def test_table2_row(grid, network, organization):
    row = {size: mbps(grid, network, organization, size) for size in TABLE2_SIZES}
    paper_row = TABLE2[(network, organization)]
    # Shape: throughput is monotone non-decreasing in packet size
    # (within a small tolerance for scheduling noise).
    sizes = list(TABLE2_SIZES)
    for small, large in zip(sizes, sizes[1:]):
        assert row[large] >= row[small] * 0.93, (
            f"{network}/{organization}: {large}B slower than {small}B"
        )
    # Absolute sanity: within a factor of 2 of the paper's number.
    for size in TABLE2_SIZES:
        assert 0.5 <= row[size] / paper_row[size] <= 2.0


def test_table2_ethernet_ordering(grid):
    """Paper: ours outperforms Mach/UX; Ultrix outperforms ours."""
    r = {
        org: mbps(grid, "ethernet", org, 4096)
        for org in ("ultrix", "userlib", "mach-ux")
    }
    assert r["ultrix"] > r["userlib"] > r["mach-ux"]
    # Paper: ours is ~40% faster than Mach/UX at 4 KB.
    assert r["userlib"] / r["mach-ux"] >= 1.25
    # Paper: Ultrix is 35-65% faster than ours on Ethernet.
    assert r["ultrix"] / r["userlib"] >= 1.15


def test_table2_an1_library_wins_small_packets(grid):
    """Paper: "We achieve better performance than Ultrix with 512-byte
    user packets because our implementation uses a buffer organization
    that eliminates byte copying."""
    assert mbps(grid, "an1", "userlib", 512) > mbps(grid, "an1", "ultrix", 512)


def test_table2_an1_narrows_gap(grid):
    """Paper: "on AN1, the difference is far less pronounced"."""
    eth_ratio = mbps(grid, "ethernet", "ultrix", 1024) / mbps(grid, "ethernet", "userlib", 1024)
    an1_ratio = mbps(grid, "an1", "ultrix", 1024) / mbps(grid, "an1", "userlib", 1024)
    assert an1_ratio < eth_ratio
