"""CLI for the campaign engine::

    python -m repro.check run --axis {chaos,isolation,failure} [--quick] [--out report.json]
    python -m repro.check replay report.json --cell 3
    python -m repro.check shrink report.json --cell 3

``run`` sweeps one axis's grid (``--quick``: its CI smoke grid; ``--seed``
and ``--cc`` pick the chaos grid's seeds and algorithms) and exits 1
unless every cell's verdict is the one its spec expects.  ``replay``
re-runs one cell of a saved report of any axis and exits 2 unless the
fresh cell equals the recorded one; ``shrink`` minimizes a failing cell
over the fields its axis names and prints the wire trace around the
violation where the axis keeps one.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..netstat import render_invariants
from ..protocols.tcp.cc import CC_ALGORITHMS
from ..tenancy.campaign import ISOLATION
from .campaign import CHAOS, replay_cell, run_campaign, shrink_cell
from .failure import FAILURE

AXES = {axis.name: axis for axis in (CHAOS, ISOLATION, FAILURE)}


def _parse_ccs(value: str) -> tuple:
    """``--cc`` value: an algorithm name, a comma list, or ``all``."""
    if value == "all":
        return tuple(CC_ALGORITHMS)
    return tuple(name.strip() for name in value.split(",") if name.strip())


def _cmd_run(args) -> int:
    axis = AXES[args.axis]
    options = {"seed": args.seed, "ccs": _parse_ccs(args.cc)} if axis is CHAOS else {}
    report = run_campaign(axis, axis.plan(args.quick, **options), progress=print)
    print()
    print(report.summary())
    if report.cells:
        print()
        print(render_invariants(report.cells[-1].results))
    if args.out:
        report.save(args.out)
        print(f"report written to {args.out}")
    return 0 if report.ok else 1


def _load_cell(args):
    """The axis a saved report names, and the cell ``--cell`` picks."""
    with open(args.report) as fh:
        report = json.load(fh)
    return AXES[report["axis"]], report["cells"][args.cell]


def _cmd_replay(args) -> int:
    axis, recorded = _load_cell(args)
    result = replay_cell(axis, recorded)
    print(f"replaying {axis.name} cell {args.cell}: {result.spec.label}")
    print(render_invariants(result.results))
    for v in result.violations:
        print(f"  {v}")
    fresh = result.as_dict()
    if fresh != recorded:
        differ = sorted(k for k in fresh | recorded if fresh.get(k) != recorded.get(k))
        print(
            f"REPLAY MISMATCH in {', '.join(differ)}: the run is not the recorded one",
            file=sys.stderr,
        )
        return 2
    print(f"replay reproduces the recorded cell: {result.status()}")
    return 0 if result.passed else 1


def _cmd_shrink(args) -> int:
    axis, recorded = _load_cell(args)
    shrunk = shrink_cell(axis, axis.spec.from_dict(recorded["spec"]))
    print(f"original: {shrunk.original}")
    print(f"minimal:  {shrunk.minimal}")
    for description, still_failing in shrunk.steps:
        print(f"  try {description}: {'still fails' if still_failing else 'passes'}")
    print(f"{len(shrunk.violations)} violation(s) at the minimal spec:")
    for v in shrunk.violations:
        print(f"  {v}")
    if shrunk.trace_excerpt:
        print("wire trace around the violation:")
        for line in shrunk.trace_excerpt:
            print(f"  {line}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(shrunk.as_dict(), fh, indent=2)
        print(f"shrink result written to {args.out}")
    return 1 if shrunk.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Campaigns: chaos conformance, tenant isolation, registry failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="sweep one axis's grid")
    run_p.set_defaults(handler=_cmd_run)
    run_p.add_argument("--axis", choices=AXES, required=True)
    run_p.add_argument("--quick", action="store_true", help="the axis's CI smoke grid")
    run_p.add_argument("--seed", type=int, default=1, help="the chaos grid's first seed")
    run_p.add_argument(
        "--cc",
        default="reno",
        help='chaos congestion control: an algorithm name, a comma list, or "all"',
    )
    run_p.add_argument("--out", help="write the JSON report here")

    replay_p = sub.add_parser("replay", help="re-run one cell of a report")
    replay_p.set_defaults(handler=_cmd_replay)
    replay_p.add_argument("report")
    replay_p.add_argument("--cell", type=int, required=True)

    shrink_p = sub.add_parser("shrink", help="minimize a failing cell")
    shrink_p.set_defaults(handler=_cmd_shrink)
    shrink_p.add_argument("report")
    shrink_p.add_argument("--cell", type=int, required=True)
    shrink_p.add_argument("--out", help="write the shrink result here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
