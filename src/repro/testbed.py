"""Two-host testbeds: the paper's experimental setup in one call.

"Our hardware environment consists of two DECstation 5000/200
workstations connected to a 10 Mb/s Ethernet, as well as to a
switchless, private segment of a 100 Mb/s AN1 network."

:class:`Testbed` assembles the simulator, link, two hosts, and the
chosen protocol organization on each, and exposes the app-facing
services plus measurement helpers.
"""

from __future__ import annotations

from typing import Generator, Optional

from .costs import CostModel, DECSTATION_5000_200
from .host import Host
from .net.faults import FaultInjector
from .net.headers import str_to_ip, str_to_mac
from .net.link import An1Link, EthernetLink
from .org.base import TcpService
from .org.monolithic import (
    DEDICATED_SERVERS,
    MACH_UX_MAPPED,
    MACH_UX_UNMAPPED,
    MonolithicTcpStack,
    ULTRIX,
)
from .org.userlib import LibraryTcpService
from .protocols.tcp import TcpConfig
from .registry.server import RegistryServer
from .sim import Simulator

IP_A = str_to_ip("10.0.0.1")
IP_B = str_to_ip("10.0.0.2")
MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")
STATION_A = 1
STATION_B = 2

MONOLITHIC_PROFILES = {
    "ultrix": ULTRIX,
    "mach-ux": MACH_UX_MAPPED,
    "mach-ux-unmapped": MACH_UX_UNMAPPED,
    "dedicated": DEDICATED_SERVERS,
}

ORGANIZATIONS = tuple(MONOLITHIC_PROFILES) + ("userlib",)
NETWORKS = ("ethernet", "an1")


class Testbed:
    """Two hosts, one network, one protocol organization."""

    __test__ = False  # Not a pytest test class despite the name.

    def __init__(
        self,
        network: str = "ethernet",
        organization: str = "userlib",
        costs: CostModel = DECSTATION_5000_200,
        config: Optional[TcpConfig] = None,
        faults: Optional[FaultInjector] = None,
        demux_style: str = "synthesized",
        an1_driver_mtu: int = 1500,
        batching: bool = True,
        zero_copy: bool = True,
    ) -> None:
        self.batching = batching
        self.zero_copy = zero_copy
        if network not in NETWORKS:
            raise ValueError(f"unknown network {network!r}")
        if organization not in ORGANIZATIONS:
            raise ValueError(f"unknown organization {organization!r}")
        self.network = network
        self.organization = organization
        self.config = config or TcpConfig()
        self.sim = Simulator()
        if network == "an1":
            self.link = An1Link(self.sim, faults=faults)
            addr_a, addr_b = STATION_A, STATION_B
        else:
            self.link = EthernetLink(self.sim, faults=faults)
            addr_a, addr_b = MAC_A, MAC_B
        self.host_a = Host(
            self.sim, self.link, "alice", IP_A, addr_a,
            costs=costs, demux_style=demux_style,
            an1_driver_mtu=an1_driver_mtu, batching=batching,
        )
        self.host_b = Host(
            self.sim, self.link, "bob", IP_B, addr_b,
            costs=costs, demux_style=demux_style,
            an1_driver_mtu=an1_driver_mtu, batching=batching,
        )
        if network == "an1":
            self.host_a.an1_neighbors[IP_B] = STATION_B
            self.host_b.an1_neighbors[IP_A] = STATION_A

        self.registry_a = self.registry_b = None
        if organization == "userlib":
            self.registry_a = RegistryServer(self.host_a, config=self.config)
            self.registry_b = RegistryServer(self.host_b, config=self.config)
            self.app_a = self.host_a.create_task("app-a")
            self.app_b = self.host_b.create_task("app-b")
            self.service_a: TcpService = LibraryTcpService(
                self.host_a, self.app_a, self.registry_a, zero_copy=zero_copy
            )
            self.service_b: TcpService = LibraryTcpService(
                self.host_b, self.app_b, self.registry_b, zero_copy=zero_copy
            )
        else:
            profile = MONOLITHIC_PROFILES[organization]
            self.service_a = MonolithicTcpStack(
                self.host_a, profile, config=self.config
            )
            self.service_b = MonolithicTcpStack(
                self.host_b, profile, config=self.config
            )

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    @property
    def hosts(self) -> list[Host]:
        """All hosts, for tools (netstat) that walk any testbed shape."""
        return [self.host_a, self.host_b]

    @property
    def faulted_link(self):
        """The link whose fault injector the chaos campaign drives."""
        return self.link

    @property
    def registries(self) -> list:
        return [r for r in (self.registry_a, self.registry_b) if r is not None]

    @property
    def services(self) -> list:
        """Both TCP services, for tools (netstat) walking any testbed."""
        return [self.service_a, self.service_b]

    @property
    def links(self) -> list:
        return [self.link]

    @property
    def switches(self) -> list:
        return []

    @property
    def routers(self) -> list:
        return []

    @property
    def client_services(self) -> list[TcpService]:
        return [self.service_a]

    @property
    def server_services(self) -> list[TcpService]:
        return [self.service_b]

    def server_ip(self, i: int) -> int:
        """Where transfer ``i`` connects: always host b."""
        return IP_B

    def spawn(self, generator: Generator, name: str = "proc"):
        return self.sim.process(generator, name=name)

    def run(self, until=None):
        return self.sim.run(until=until)

    def library_service(self, host_name: str, app_name: str) -> LibraryTcpService:
        """Create another application + library on a host (userlib only)."""
        if self.organization != "userlib":
            raise ValueError("additional apps need the userlib organization")
        if host_name == "alice":
            host, registry = self.host_a, self.registry_a
        elif host_name == "bob":
            host, registry = self.host_b, self.registry_b
        else:
            raise ValueError(f"unknown host {host_name!r}")
        app = host.create_task(app_name)
        return LibraryTcpService(host, app, registry)


class FabricTestbed:
    """Many hosts on a switched fabric, one protocol organization.

    Builds a :mod:`~repro.net.fabric` topology (``chain`` or
    ``dumbbell``) and attaches the chosen TCP organization to every
    host.  Exposes the same duck-typed surface :mod:`~repro.netstat`
    and the transfer drivers walk on :class:`Testbed` (``hosts`` /
    ``registries`` / ``services`` / ``links`` / ``switches`` /
    ``routers``; index-paired ``client_services`` / ``server_services``
    / ``server_ip`` — empty off dumbbells), plus per-host service lookup.
    """

    __test__ = False  # Not a pytest test class despite the name.

    def __init__(
        self,
        kind: str = "dumbbell",
        organization: str = "userlib",
        costs: CostModel = DECSTATION_5000_200,
        config: Optional[TcpConfig] = None,
        faults: Optional[FaultInjector] = None,
        zero_copy: bool = True,
        config_for=None,
        **builder_kwargs,
    ) -> None:
        from .net.fabric import chain, dumbbell

        builders = {"chain": chain, "dumbbell": dumbbell}
        if kind not in builders:
            raise ValueError(f"unknown fabric kind {kind!r}")
        if organization not in ORGANIZATIONS:
            raise ValueError(f"unknown organization {organization!r}")
        self.kind = kind
        self.organization = organization
        self.network = "fabric"
        self.config = config or TcpConfig()
        #: Optional per-host override: ``config_for(host_name)`` returns
        #: the :class:`TcpConfig` for that host (None falls back to the
        #: shared config) — how mixed congestion-control fleets share one
        #: bottleneck in the inter-algorithm fairness benchmarks.
        self.config_for = config_for
        self.sim = Simulator()
        self.topology = builders[kind](
            self.sim, costs=costs, **builder_kwargs
        )
        # Chaos faults go on the trunk (dumbbell) or the first link, so
        # every flow crosses the faulted segment.
        self._faulted_link = self.topology.meta.get("trunk")
        if self._faulted_link is None:
            self._faulted_link = self.topology.links[0]
        if faults is not None:
            self._faulted_link.faults = faults
        self._registry_by_host: dict[str, RegistryServer] = {}
        self._service_by_host: dict[str, TcpService] = {}
        for host in self.topology.hosts:
            host_config = self.config
            if config_for is not None:
                host_config = config_for(host.name) or self.config
            if organization == "userlib":
                registry = RegistryServer(host, config=host_config)
                self._registry_by_host[host.name] = registry
                app = host.create_task(f"app-{host.name}")
                self._service_by_host[host.name] = LibraryTcpService(
                    host, app, registry, zero_copy=zero_copy
                )
            else:
                profile = MONOLITHIC_PROFILES[organization]
                self._service_by_host[host.name] = MonolithicTcpStack(
                    host, profile, config=host_config
                )

    # Duck-typed surface shared with Testbed ---------------------------

    @property
    def hosts(self) -> list[Host]:
        return list(self.topology.hosts)

    @property
    def registries(self) -> list:
        return list(self._registry_by_host.values())

    @property
    def services(self) -> list:
        return list(self._service_by_host.values())

    @property
    def links(self) -> list:
        return list(self.topology.links)

    @property
    def switches(self) -> list:
        return list(self.topology.switches)

    @property
    def routers(self) -> list:
        return list(self.topology.routers)

    @property
    def bottleneck(self):
        return self.topology.bottleneck

    @property
    def faulted_link(self):
        """The link whose fault injector the chaos campaign drives."""
        return self._faulted_link

    def service(self, host: Host) -> TcpService:
        """The TCP service attached to ``host``."""
        return self._service_by_host[host.name]

    @property
    def client_services(self) -> list[TcpService]:
        return [self.service(h) for h in self.topology.clients]

    @property
    def server_services(self) -> list[TcpService]:
        return [self.service(h) for h in self.topology.servers]

    def server_ip(self, i: int) -> int:
        """Where transfer ``i`` connects: server ``i``, wrapping."""
        servers = self.topology.servers
        return servers[i % len(servers)].ip

    def spawn(self, generator: Generator, name: str = "proc"):
        return self.sim.process(generator, name=name)

    def run(self, until=None):
        return self.sim.run(until=until)
