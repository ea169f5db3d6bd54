"""Comparator protocols (FAB / GWGR) and the Fig. 1 cost model."""

from repro.baselines.costs import (
    ALL_SCHEMES,
    CostRow,
    ajx_bcast,
    ajx_par,
    ajx_ser,
    cost_table,
    fab,
    format_cost_table,
    gwgr,
)
from repro.baselines.fab import ConcurrentWriteError, FabClient, FabNode, build_fab
from repro.baselines.gwgr import GwgrClient, GwgrNode, build_gwgr

__all__ = [
    "ALL_SCHEMES",
    "ConcurrentWriteError",
    "CostRow",
    "FabClient",
    "FabNode",
    "GwgrClient",
    "GwgrNode",
    "ajx_bcast",
    "ajx_par",
    "ajx_ser",
    "build_fab",
    "build_gwgr",
    "cost_table",
    "fab",
    "format_cost_table",
    "gwgr",
]
