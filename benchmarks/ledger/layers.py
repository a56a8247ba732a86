"""The per-layer split: host time and calls from a cProfile pass,
simulated time from an ``obs.profile`` pass.

Layers are the program's packages.  Both passes observe the program from
the outside — the profiler hooks the interpreter, the obs plane is the
program's own switch — so the benchmark adds no spans inside it.
"""

from __future__ import annotations

import os

#: Layer -> path prefixes under ``src/repro/``.
LAYER_PATHS = {
    "sim": ("sim/",),
    "timers": ("timers/",),
    "mach": ("mach/",),
    "net.buf": ("net/buf.py", "net/checksum.py", "net/headers.py", "protocols/checksum.py"),
    "net.nic": ("net/nic/",),
    "net.link": ("net/link.py", "net/faults.py"),
    "net.fabric": ("net/fabric/",),
    "netio": ("netio/",),
    "protocols.ip": ("protocols/ip.py", "protocols/arp.py", "protocols/udp.py", "protocols/icmp.py"),
    "protocols.tcp": ("protocols/tcp/",),
    "registry": ("registry/",),
    "org": ("org/", "sockets/"),
    "host": ("host.py", "costs.py", "counters.py", "testbed.py"),
    "obs": ("obs/",),
}
LAYERS = tuple(LAYER_PATHS)
#: Where time outside the fourteen layers goes, so the split sums to the
#: profiled total: the benchmark's own application code, and the rest
#: (other ``repro`` modules, the standard library, C calls made from
#: neither).
BENCH, OTHER = "bench", "other"
SPLIT = LAYERS + (BENCH, OTHER)

#: ``obs.profile`` site prefix -> the layer whose cost model charged it.
SITE_LAYERS = {
    "tcp": "protocols.tcp",
    "lib": "org",
    "netio": "netio",
    "demux": "netio",
    "router": "net.fabric",
    "ip": "protocols.ip",
}
SIM_COST_LAYERS = tuple(dict.fromkeys(SITE_LAYERS.values()))

_REPRO = os.sep + os.path.join("src", "repro") + os.sep
_BENCH = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str) -> str:
    """The layer a source file belongs to."""
    if filename.startswith(_BENCH):
        return BENCH
    _, found, rest = filename.rpartition(_REPRO)
    if found:
        rest = rest.replace(os.sep, "/")
        for layer, prefixes in LAYER_PATHS.items():
            if rest.startswith(prefixes):
                return layer
    return OTHER


def split_cprofile(profiler) -> tuple[dict, dict]:
    """Roll one ``cProfile.Profile`` up into ``({layer: self seconds},
    {layer: calls})`` over :data:`SPLIT`.

    A Python function's self time goes to its file's layer.  Built-in
    and C calls have no file: each is charged to the layer of the Python
    function that made it, through the profiler's per-caller rows; what
    no Python caller accounts for lands in ``other``.
    """
    seconds = dict.fromkeys(SPLIT, 0.0)
    calls = dict.fromkeys(SPLIT, 0)
    builtin_seconds, builtin_calls = 0.0, 0
    for entry in profiler.getstats():
        if isinstance(entry.code, str):
            builtin_seconds += entry.inlinetime
            builtin_calls += entry.callcount
            continue
        layer = layer_of(entry.code.co_filename)
        seconds[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                seconds[layer] += callee.inlinetime
                calls[layer] += callee.callcount
                builtin_seconds -= callee.inlinetime
                builtin_calls -= callee.callcount
    seconds[OTHER] += builtin_seconds
    calls[OTHER] += builtin_calls
    return seconds, calls


def total_calls(profiler) -> int:
    """Every call the profiler saw, Python and C (pstats' total_calls)."""
    return sum(entry.callcount for entry in profiler.getstats())


def split_obs(rows) -> dict:
    """Roll ``metrics.obs_profile()`` rows up into ``{layer: simulated
    seconds}`` over :data:`SIM_COST_LAYERS`; unknown sites are skipped."""
    seconds = dict.fromkeys(SIM_COST_LAYERS, 0.0)
    for row in rows:
        layer = SITE_LAYERS.get(row.site.split(".", 1)[0])
        if layer is not None:
            seconds[layer] += row.sim_seconds
    return seconds
