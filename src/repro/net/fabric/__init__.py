"""The switched fabric: the network *between* the end hosts.

The paper's testbed was two workstations on a private segment; this
package adds the middle of the network so many-flow congestion and
multi-hop forwarding experiments are possible: learning switches with
finite per-port egress queues (tail-drop or RED), IP routers lifting
the library's no-gateway-traffic restriction, and topology builders
(chain / dumbbell / fat_tree) that wire them to :class:`~repro.host.Host`.
"""

from .queues import EgressQueue, RedQueue, TailDropQueue
from .router import Router, RouterInterface
from .routing import Route, RouteTable, prefix_mask
from .switch import Switch, SwitchPort
from .topology import Topology, chain, dumbbell, fabric_mac, fat_tree

__all__ = [
    "EgressQueue",
    "TailDropQueue",
    "RedQueue",
    "Switch",
    "SwitchPort",
    "Route",
    "RouteTable",
    "prefix_mask",
    "Router",
    "RouterInterface",
    "Topology",
    "chain",
    "dumbbell",
    "fat_tree",
    "fabric_mac",
]
