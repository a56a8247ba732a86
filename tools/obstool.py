#!/usr/bin/env python3
"""One-stop observability demo: every plane from a single session.

Runs a seeded, fault-injected dumbbell workload with the full
observability plane enabled and produces, from that one run:

- the per-hop timeline of a retransmitted segment (and the original
  transmission of the same sequence number, for comparison),
- the sim-time profiler report,
- the latency/occupancy histogram summaries,
- counter time-series (trunk queue, trunk faults, engine) exported to
  JSON/CSV,
- optionally a pcap of the trunk (``--pcap``) and the full netstat
  JSON dump (``--json``).

Usage::

    PYTHONPATH=src python tools/obstool.py --outdir /tmp/obs
    PYTHONPATH=src python tools/obstool.py --pairs 4 --drop 0.02 \
        --pcap /tmp/trunk.pcap --json /tmp/netstat.json
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro import netstat, obs  # noqa: E402
from repro.metrics import measure_fabric_transfers  # noqa: E402
from repro.net.faults import FaultInjector  # noqa: E402
from repro.obs.recorder import FlightRecorder  # noqa: E402
from repro.testbed import FabricTestbed  # noqa: E402
from repro.trace import WireTrace  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="obstool", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--pairs", type=int, default=3, help="dumbbell pairs")
    parser.add_argument(
        "--bytes", type=int, default=120_000, help="bytes per flow"
    )
    parser.add_argument("--drop", type=float, default=0.01, help="trunk drop rate")
    parser.add_argument("--seed", type=int, default=7, help="fault RNG seed")
    parser.add_argument(
        "--interval", type=float, default=0.02, help="flight-recorder tick (s)"
    )
    parser.add_argument(
        "--outdir", default=".", help="where the time-series exports land"
    )
    parser.add_argument("--pcap", default=None, help="also capture the trunk here")
    parser.add_argument(
        "--json", dest="json_path", default=None,
        help="also dump the full netstat JSON report here",
    )
    parser.add_argument(
        "--timelines", type=int, default=1,
        help="how many retransmitted segments to print timelines for",
    )
    args = parser.parse_args(argv)

    session = obs.enable(span_capacity=65536)
    try:
        bed = FabricTestbed(
            kind="dumbbell",
            organization="userlib",
            pairs=args.pairs,
            faults=FaultInjector(drop_rate=args.drop, seed=args.seed),
        )
        flight = FlightRecorder(bed.sim, interval=args.interval)
        queue = bed.bottleneck.queue
        flight.watch(
            "trunk.queue",
            lambda: {
                "depth_bytes": queue.depth_bytes,
                "peak_bytes": queue.peak_bytes,
                "dropped": queue.stats["dropped"],
            },
        )
        # Link.stats is a merged copy per access: use a callable so each
        # tick samples fresh numbers.
        flight.watch("trunk.faults", lambda: bed.faulted_link.stats)
        flight.watch("engine", bed.sim.engine_stats)
        flight.start()
        capture = WireTrace(bed.bottleneck.link) if args.pcap else None

        result = measure_fabric_transfers(bed, bytes_per_flow=args.bytes)
        flight.stop()

        print(
            f"dumbbell pairs={args.pairs} drop={args.drop:.1%} seed={args.seed}:"
            f" aggregate {result.aggregate_mbps:.2f} Mb/s,"
            f" fairness {result.fairness:.3f}"
        )

        # -- 1. retransmitted-segment timelines ------------------------
        recorder = session.spans
        retrans = recorder.traces_matching("retransmit")
        print()
        if not retrans:
            print("no retransmissions observed (raise --drop or --bytes)")
        for tid in retrans[: args.timelines]:
            birth = recorder.birth(tid)
            detail = birth[1] if birth else ""
            seq = next(
                (tok for tok in detail.split() if tok.startswith("seq=")), None
            )
            if seq is not None:
                # Same seq AND same sending node: sequence spaces are
                # per-connection, so seq alone collides across flows.
                events = recorder.timeline(tid)
                sender = events[0].node if events else None
                originals = [
                    o
                    for o in recorder.traces_matching(seq + " ")
                    if o != tid
                    and o not in retrans
                    and (tl := recorder.timeline(o))
                    and tl[0].node == sender
                ]
                if originals:
                    print(f"original transmission of {seq}:")
                    print(recorder.render_timeline(originals[0]))
            print(f"retransmission ({detail}):")
            print(recorder.render_timeline(tid))
            print()

        # -- 2. profiler -----------------------------------------------
        print(netstat.render_profile(top=12))
        print()

        # -- 3. histograms ---------------------------------------------
        print(netstat.render_hist())
        print()

        # -- 4. time-series export -------------------------------------
        os.makedirs(args.outdir, exist_ok=True)
        json_path = os.path.join(args.outdir, "obs_timeseries.json")
        csv_path = os.path.join(args.outdir, "obs_timeseries.csv")
        flight.export_json(json_path)
        flight.export_csv(csv_path)
        print(
            f"time-series: {flight.samples_taken} samples x"
            f" {len(flight.to_dict())} watches -> {json_path}, {csv_path}"
        )

        # -- 5. optional extras ----------------------------------------
        if capture is not None:
            written = capture.export_pcap(args.pcap)
            capture.detach()
            print(f"pcap: {written} trunk frames -> {args.pcap}")
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump(netstat.as_json(bed), fh, indent=2)
            print(f"netstat json -> {args.json_path}")
    finally:
        obs.disable()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
