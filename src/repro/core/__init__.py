"""Core service: cluster assembly and the public block-storage API."""

from repro.core.cluster import Cluster
from repro.core.volume import VolumeClient

__all__ = ["Cluster", "VolumeClient"]
