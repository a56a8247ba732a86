"""The run shape: warm-up, timed reps, a cProfile rep, an obs rep.

Every rep builds a fresh world (timed as set-up), collects garbage, and
times ``World.run`` alone in CPU seconds (``time.process_time``): this
box has two cores and co-tenants, and wall-clock flips gates that CPU
time does not.  Even CPU time swings with the co-tenants, so a
:mod:`yardstick` sample is taken between the reps and every timing is
reported at the yardstick's nominal speed; the raw medians are kept
beside it.  The timed reps run with obs off and no profiler; the two
traced reps come after them, at the same size, and give the per-layer
split and, against the timed median, the tracing overhead.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
import time

from repro import metrics, obs

from . import layers, probes, yardstick
from .workloads import WORKLOADS, Outcome, World

#: Rep counts.  Sized from noise measured on this box: single 1-2 s reps
#: swing 30 % under co-tenant bursts, medians of 5 spread about 7 %.
DEFAULT_REPS = 7
#: Under the driver's ``--seconds``: as many reps as fit, never fewer.
#: Three, not five: the cProfile rep runs at full size and costs three to
#: four timed reps, and the driver's 136 runs share 57 minutes.  Measured
#: with the box 1.5x slow, as it is for hours at a time: a floor of four
#: fills 85 % of that, a floor of three 76 %.
MIN_TIMED_REPS = 3
WARMUP_SHARE = 0.1


class Rep:
    """One executed rep: its world, its checks, its costs."""

    def __init__(self, name: str, seed: int, scale: float, around=lambda run: run()) -> None:
        start = time.process_time()
        self.world: World = WORKLOADS[name].build(seed, scale)
        self.setup_s = time.process_time() - start
        gc.collect()
        self.base = probes.global_counts()
        wall = time.perf_counter()
        cpu = time.process_time()
        around(self.world.run)
        self.cpu_s = time.process_time() - cpu
        self.wall_s = time.perf_counter() - wall
        self.outcome: Outcome = self.world.outcome()
        self.ops = self.outcome.ops or 1.0

    def us_per_op(self, slowdown: float) -> float:
        """Host CPU microseconds per op at the yardstick's nominal speed."""
        return self.cpu_s / self.ops * 1e6 / slowdown


def _timing(samples: list, unit: str) -> dict:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples), "unit": unit, "n": len(samples),
        "q1": q1, "q3": q3, "min": min(samples), "samples": samples,
    }


def _timed_reps(name: str, seed: int, scale: float, reps: int, seconds, yards: list) -> list:
    """The timed reps, a yardstick sample after each.

    ``reps`` of them — or, when ``seconds`` is given, as many as fit in
    that many seconds of wall-clock, never fewer than ``MIN_TIMED_REPS``.
    """
    timed: list[Rep] = []
    started = time.perf_counter()
    while True:
        if timed:
            timed[-1].world = None  # Keep only the last: 256 hosts a rep add up.
        timed.append(Rep(name, seed, scale))
        yards.append(yardstick.sample())
        if seconds is None:
            if len(timed) >= reps:
                return timed
        elif len(timed) >= MIN_TIMED_REPS and time.perf_counter() - started >= seconds:
            return timed


def _trace(profiler, profiled: Rep, observed: Rep, sim_by_layer: dict, last: Rep,
           slow_profiled: float, slow_observed: float, host_us: float) -> tuple[dict, list, float]:
    """The per-layer metrics: the cProfile split, the obs split, the
    counter probes of the last timed rep, the tracing overheads."""
    per_layer: dict = {}
    seconds_by_layer, calls_by_layer = layers.split_cprofile(profiler)
    for layer in layers.SPLIT:
        per_layer[f"{layer}.self_us_per_op"] = {
            "value": seconds_by_layer[layer] / profiled.ops * 1e6 / slow_profiled, "unit": "us"}
        per_layer[f"{layer}.calls_per_op"] = {
            "value": calls_by_layer[layer] / profiled.ops, "unit": "count"}
    for layer, sim_seconds in sim_by_layer.items():
        per_layer[f"{layer}.sim_us_per_op"] = {
            "value": sim_seconds / observed.ops * 1e6, "unit": "us"}
    values, notes = probes.collect(last.world, last.outcome, last.base)
    for probe_name, unit, _ in probes.PROBES:
        per_layer[probe_name] = {"value": values[probe_name], "unit": unit}
    per_layer["obs.overhead_ratio"] = {
        "value": observed.us_per_op(slow_observed) / host_us, "unit": "ratio"}
    per_layer["obs.cprofile_ratio"] = {
        "value": profiled.us_per_op(slow_profiled) / host_us, "unit": "ratio"}
    # The profiler clocks wall time, so the split is held to the rep's.
    return per_layer, notes, sum(seconds_by_layer.values()) / profiled.wall_s


def run_workload(
    name: str,
    seed: int,
    *,
    import_s: list,
    scale: float = 1.0,
    reps: int = DEFAULT_REPS,
    seconds: float | None = None,
    trace: bool = True,
) -> dict:
    """Run one workload and return its result record.

    ``import_s`` holds the CPU seconds of each fresh import of the
    program, taken just before this call.  The timed reps come first
    (see :func:`_timed_reps`), then the cProfile rep that gives
    ``py_calls_per_op``, and with ``trace`` the obs rep and the layer
    split.
    """
    # The first sample sits next to the import rounds.
    yards = [yardstick.sample()]
    Rep(name, seed, scale * WARMUP_SHARE)
    timed = _timed_reps(name, seed, scale, reps, seconds, yards)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    last = timed[-1]

    # Per-caller rows are what charges C time to the calling layer; the
    # call count is the same without them and the rep a sixth cheaper.
    profiler = cProfile.Profile(subcalls=trace)
    profiled = Rep(name, seed, scale, around=profiler.runcall)
    reps_run = timed + [profiled]
    if trace:
        yards.append(yardstick.sample())
        obs.enable()
        try:
            observed = Rep(name, seed, scale)
            sim_by_layer = layers.split_obs(metrics.obs_profile())
        finally:
            obs.disable()
        yards.append(yardstick.sample())
        reps_run.append(observed)

    # How much slower than nominal the box ran around each rep (the
    # samples on either side of it), and around the imports.
    slow = [(before + after) / 2 / yardstick.NOMINAL_S for before, after in zip(yards, yards[1:])]
    slow_at_import = yards[0] / yardstick.NOMINAL_S
    end_to_end = {
        "host_us_per_op": _timing([r.us_per_op(k) for r, k in zip(timed, slow)], "us"),
        "py_calls_per_op": {"value": layers.total_calls(profiler) / profiled.ops, "unit": "count"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        # Import rounds and reps are paired off in turn, so the spread
        # of the sum carries the spread of both parts.
        "setup_s": _timing(
            [
                import_s[i % len(import_s)] / slow_at_import + r.setup_s / k
                for i, (r, k) in enumerate(zip(timed, slow))
            ],
            "s",
        ),
    }
    info = {
        "raw_host_us_per_op": statistics.median(r.cpu_s for r in timed) / last.ops * 1e6,
        "raw_setup_s": statistics.median(import_s) + statistics.median(r.setup_s for r in timed),
        "yardstick_s_median": statistics.median(yards),
        "wall_s_median": statistics.median(r.wall_s for r in timed),
        "cprofile_cpu_s": profiled.cpu_s,
    }
    per_layer, notes = {}, []
    if trace:
        per_layer, notes, info["split_share_of_cprofile_rep"] = _trace(
            profiler, profiled, observed, sim_by_layer, last,
            slow[-2], slow[-1], end_to_end["host_us_per_op"]["value"],
        )

    problems = [p for r in reps_run for p in r.outcome.problems]
    # A fixed seed fixes every simulated and counted result: the timed
    # reps and the traced ones must all agree.
    digests = {r.outcome.digest for r in reps_run}
    if len(digests) != 1:
        problems.append(f"{name}: reps disagree on the outcome digest: {sorted(digests)}")

    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "op": WORKLOADS[name].op,
        "ops": last.outcome.ops,
        "attempted": sum(r.outcome.attempted for r in timed),
        "failed": sum(r.outcome.failed for r in timed),
        "correct": not problems,
        "problems": list(dict.fromkeys(problems)),
        "outcome_digest": last.outcome.digest,
        "sim": last.outcome.sim,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "notes": notes,
        "info": info,
    }
