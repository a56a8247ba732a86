"""Host-network interfaces: PMADD-AA (PIO Ethernet) and AN1 (DMA + BQI)."""

from .an1ctrl import AN1_BROADCAST, An1Nic
from .base import Nic, RxHandler
from .pmadd import PmaddNic

__all__ = ["Nic", "RxHandler", "PmaddNic", "An1Nic", "AN1_BROADCAST"]
