"""``compare A.json B.json``: one verdict per (metric, workload)."""

from __future__ import annotations

import json

#: name -> (better, bound, bound is absolute rather than a share).
#: These are the bounds two runs of one seed are held to.  The four
#: host-cost metrics are in ``BENCHMARK.json`` too, with wider bounds:
#: there the driver compares medians across seeds, and across seeds
#: ``py_calls_per_op`` itself moves by up to 0.8 %.  The simulated
#: outcomes exist on some workloads only, so the manifest lists them
#: without a bound.
RULES = {
    "host_us_per_op": ("lower", 0.10, False),
    "py_calls_per_op": ("lower", 0.005, False),
    "peak_rss_mb": ("lower", 0.10, False),
    "setup_s": ("lower", 0.10, False),
    "failed_ops_share": ("lower", 0.0, True),
    "paper_err_pct": ("lower", 0.1, True),
    "sim_goodput_mbps": ("higher", 0.001, False),
    "sim_fairness": ("higher", 0.001, True),
    "sim_oneway_us_p50": ("lower", 0.001, False),
    "sim_oneway_us_p99": ("lower", 0.001, False),
}
#: A move under this share of the base is no move: a single-sample
#: metric (peak RSS) has no spread of its own to be judged against.
NEGLIGIBLE = 0.001


def _spread(metric: dict) -> float:
    return metric.get("q3", metric["value"]) - metric.get("q1", metric["value"])


def verdict(base: dict, new: dict, better: str, bound: float, absolute: bool) -> str:
    """improved / unchanged / worse / unresolved for one metric.

    Worse means the new median is beyond the bound.  Where either side's
    own quartile spread is wider than the bound the medians cannot
    settle it: the row is unresolved unless every new sample beats (or
    loses to) every base sample.  Improved needs the medians apart by
    more than the base's spread and by more than ``NEGLIGIBLE``.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["value"] - base["value"])
    allowed = bound if absolute else bound * abs(base["value"])
    if max(_spread(base), _spread(new)) > allowed:
        ours = [sign * s for s in new.get("samples", [new["value"]])]
        theirs = [sign * s for s in base.get("samples", [base["value"]])]
        if max(ours) < min(theirs):
            return "improved"
        if min(ours) > max(theirs):
            return "worse"
        return "unresolved"
    if worse_by > allowed:
        return "worse"
    if -worse_by > max(_spread(base), NEGLIGIBLE * abs(base["value"])):
        return "improved"
    return "unchanged"


def _metric(record: dict, name: str):
    found = record["end_to_end"].get(name) or record["per_layer"].get(name)
    return found if found and found.get("value") is not None else None


def compare(base_path: str, new_path: str) -> int:
    """Print the rows; return 1 if any is worse, else 0."""
    with open(base_path) as handle:
        base = {r["workload"]: r for r in json.load(handle)["results"]}
    with open(new_path) as handle:
        new = {r["workload"]: r for r in json.load(handle)["results"]}
    print(f"{'metric':<20} {'workload':<9} {'base':>14} {'new':>14} {'new/base':>9}  verdict")
    worse = 0
    for name, (better, bound, absolute) in RULES.items():
        for workload in base:
            if workload not in new:
                continue
            old, cur = _metric(base[workload], name), _metric(new[workload], name)
            if old is None or cur is None:
                continue
            result = verdict(old, cur, better, bound, absolute)
            worse += result == "worse"
            ratio = f"{cur['value'] / old['value']:9.4f}" if old["value"] else f"{'-':>9}"
            print(
                f"{name:<20} {workload:<9} {old['value']:>14.6g} {cur['value']:>14.6g} "
                f"{ratio}  {result}"
            )
    for workload in base:
        if workload not in new:
            continue
        if base[workload]["seed"] != new[workload]["seed"]:
            print(f"{'outcome_digest':<20} {workload:<9} seeds differ: counts and simulated rows do not compare")
            continue
        same = base[workload]["outcome_digest"] == new[workload]["outcome_digest"]
        print(f"{'outcome_digest':<20} {workload:<9} {'identical' if same else 'DIFFERS'}")
    return 1 if worse else 0
