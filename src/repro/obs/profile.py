"""Sim-time profiler.

Attribution of *simulated* microseconds to call sites.  The cost model
already prices every kernel operation (``kernel.cpu.charge`` charges
from ``kernel.costs``); the profiler rides next to those charges so
each one is tagged with a hierarchical dotted site name — ``tcp.input``,
``demux.classify``, ``router.forward`` — instead of vanishing into a
single busy-time scalar.  Sites that wrap a synchronous protocol
callback (the TCP state machine, the flow-table classifier) also record
*wall* time, so "where does the simulation spend real CPU" and "where
does the simulated machine spend cycles" come out of the same report.

Self time is what a site charged directly; cumulative time aggregates
by dotted prefix (``tcp`` = ``tcp.input`` + ``tcp.output`` + …), which
sidesteps maintaining a call stack across interleaved simulation
generators — there is no meaningful stack when a hundred coroutines
take turns.

The profiler is owned by the plane's one switch,
:data:`repro.obs.SESSION`: the disabled cost is one attribute load and
an ``is None`` test per site.
"""

from __future__ import annotations

from dataclasses import dataclass


class _Site:
    __slots__ = ("calls", "sim_self", "wall_self")

    def __init__(self) -> None:
        self.calls = 0
        self.sim_self = 0.0
        self.wall_self = 0.0


@dataclass(frozen=True)
class SiteReport:
    site: str
    calls: int
    sim_seconds: float
    sim_share: float
    cumulative_seconds: float
    wall_seconds: float

    def as_dict(self) -> dict:
        return {
            "site": self.site,
            "calls": self.calls,
            "sim_us": self.sim_seconds * 1e6,
            "sim_share": self.sim_share,
            "cumulative_us": self.cumulative_seconds * 1e6,
            "wall_ms": self.wall_seconds * 1e3,
        }


class SimProfiler:
    """Accumulates per-site simulated and wall time."""

    def __init__(self) -> None:
        self._sites: dict[str, _Site] = {}

    def charge(self, site: str, sim_seconds: float, wall_seconds: float = 0.0) -> None:
        try:
            entry = self._sites[site]
        except KeyError:
            entry = self._sites[site] = _Site()
        entry.calls += 1
        entry.sim_self += sim_seconds
        entry.wall_self += wall_seconds

    def total_sim_seconds(self) -> float:
        return sum(site.sim_self for site in self._sites.values())

    def report(self, top: int | None = None) -> list[SiteReport]:
        """Per-site rows sorted by self sim-time, descending.

        ``cumulative_seconds`` for a site is the sum over every site
        sharing its first dotted component (``tcp.input`` reports the
        ``tcp.*`` total), so related callbacks roll up without a stack.
        """
        total = self.total_sim_seconds()
        groups: dict[str, float] = {}
        for name, site in self._sites.items():
            prefix = name.split(".", 1)[0]
            groups[prefix] = groups.get(prefix, 0.0) + site.sim_self
        rows = [
            SiteReport(
                site=name,
                calls=site.calls,
                sim_seconds=site.sim_self,
                sim_share=(site.sim_self / total) if total else 0.0,
                cumulative_seconds=groups[name.split(".", 1)[0]],
                wall_seconds=site.wall_self,
            )
            for name, site in self._sites.items()
        ]
        rows.sort(key=lambda row: (-row.sim_seconds, row.site))
        return rows[:top] if top is not None else rows

    def render(self, top: int | None = None) -> str:
        rows = self.report(top)
        if not rows:
            return "profiler: no charges recorded"
        lines = [
            f"{'site':<22} {'calls':>8} {'self(ms)':>10} {'share':>7} "
            f"{'cum(ms)':>10} {'wall(ms)':>9}"
        ]
        for row in rows:
            lines.append(
                f"{row.site:<22} {row.calls:>8} {row.sim_seconds * 1e3:>10.3f} "
                f"{row.sim_share * 100:>6.1f}% {row.cumulative_seconds * 1e3:>10.3f} "
                f"{row.wall_seconds * 1e3:>9.2f}"
            )
        return "\n".join(lines)
