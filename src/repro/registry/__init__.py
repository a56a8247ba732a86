"""The registry server: trusted endpoint allocation, handshake
execution, channel setup, and connection inheritance."""

from .core import ConnectionGrant, PortInUse, RegistryCore
from .server import RegistryServer

__all__ = ["RegistryServer", "RegistryCore", "ConnectionGrant", "PortInUse"]
