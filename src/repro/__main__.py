"""``python -m repro`` — a quick tour of the reproduction.

Runs a condensed version of the paper's evaluation (one throughput row,
one latency row, connection setup) and prints the paper's numbers from
``repro.paper`` alongside, so a fresh checkout shows the headline
results in under a minute.  ``python tools/calibrate.py`` prints the
whole grid.
"""

from __future__ import annotations

import argparse

from .metrics import measure_latency, measure_setup, measure_throughput
from .paper import TABLE2, TABLE3, TABLE4
from .testbed import Testbed


def main() -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="condensed reproduction of the paper's evaluation",
    )
    parser.add_argument(
        "--network",
        choices=("ethernet", "an1", "both"),
        default="both",
    )
    args = parser.parse_args()
    networks = ("ethernet", "an1") if args.network == "both" else (args.network,)

    print("Implementing Network Protocols at User Level (SIGCOMM '93)")
    print("condensed reproduction — simulated time, calibrated cost model")

    for network in networks:
        label = "10 Mb/s Ethernet" if network == "ethernet" else "100 Mb/s AN1"
        print(f"\n=== {label} ===")
        print(f"{'system':10s} {'tput@4096':>12s} {'rtt@512':>10s} {'setup':>9s}"
              f"   (paper in parentheses)")
        for org in ("ultrix", "mach-ux", "userlib"):
            if (network, org) not in TABLE2:
                continue
            tput = measure_throughput(
                Testbed(network=network, organization=org),
                total_bytes=400_000,
                chunk_size=4096,
            ).throughput_mbps
            rtt = measure_latency(
                Testbed(network=network, organization=org),
                message_size=512,
                rounds=30,
            ).rtt_ms
            setup = measure_setup(
                Testbed(network=network, organization=org), rounds=5
            ).setup_ms
            paper = (
                TABLE2[network, org][4096],
                TABLE3[network, org][512],
                TABLE4[network, org],
            )
            print(
                f"{org:10s} {tput:6.2f} ({paper[0]:4.1f}) Mb/s"
                f" {rtt:5.2f} ({paper[1]:4.1f})ms"
                f" {setup:5.2f} ({paper[2]:4.1f})ms"
            )

    print("\nshape reproduced: the user-level library beats the single")
    print("server, trails the kernel on Ethernet, and converges on AN1 —")
    print("while paying its one real cost at connection setup.")
    print("full grid: python tools/calibrate.py; shapes: pytest benchmarks/")


if __name__ == "__main__":
    main()
