"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures.  Results
print to stdout (run ``PYTHONPATH=src python -m pytest benchmarks -q -s``
to see them) and the structural assertions encode the *shape* the paper
reports — who wins, what grows, where curves flatten.  Kernel times
come from :func:`repro.sim.calibration.time_kernel`, the timer the
simulator is calibrated with.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import Observability

#: Session-wide result rows; flushed as BENCH JSON by
#: ``pytest_sessionfinish`` when ``REPRO_BENCH_JSON`` names a path.
_BENCH_RECORDS: list[dict] = []


def bench_record(name: str, **fields: object) -> None:
    """Append one row to the session's BENCH JSON."""
    _BENCH_RECORDS.append({"bench": name, **fields})


# Benches import this helper into modules whose ``bench_*`` names pytest
# collects; keep the helper itself out of collection.
bench_record.__test__ = False


@pytest.fixture
def bench_obs(request):
    """Per-bench observability sinks (registry + tracer + flight).

    On teardown any counters the bench's cluster accumulated are
    embedded in the session's BENCH JSON under this bench's name, so a
    saved run carries the protocol counters (RPC mix, retries,
    recovery work) that explain its numbers.
    """
    obs = Observability.create()
    yield obs
    counters = obs.registry.snapshot().get("counters", [])
    if counters:
        bench_record(request.node.name, counters=counters)


def pytest_sessionfinish(session, exitstatus):
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path or not _BENCH_RECORDS:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"format": 1, "benches": _BENCH_RECORDS},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Render a figure/table reproduction for the console."""
    widths = [
        max(len(str(h)), *(len(str(row[i])) for row in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def print_series(title: str, xlabel: str, series: dict[str, list[tuple]]) -> None:
    """Render x/y series (a figure) as aligned columns."""
    print(f"\n=== {title} ===")
    for name, points in series.items():
        print(f"-- {name}")
        for x, y in points:
            print(f"   {xlabel}={x:<8} {y}")
