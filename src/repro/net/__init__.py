"""Networking substrate: RPC transport, fault injection, call envelope."""

from repro.net.chaos import (
    ChaosTransport,
    FaultDecision,
    FaultEvent,
    FaultPlan,
    FaultRule,
)
from repro.net.local import DelayModel, LocalTransport
from repro.net.message import Envelope, estimate_size
from repro.net.rpc import pfor
from repro.net.tcp import TcpTransport
from repro.net.transport import RpcHandler, Transport

__all__ = [
    "ChaosTransport",
    "DelayModel",
    "Envelope",
    "FaultDecision",
    "FaultEvent",
    "FaultPlan",
    "FaultRule",
    "LocalTransport",
    "RpcHandler",
    "TcpTransport",
    "Transport",
    "estimate_size",
    "pfor",
]
