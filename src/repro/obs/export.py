"""Exports: Prometheus text exposition and JSON snapshots.

Both formats render the same :meth:`MetricsRegistry.snapshot` data, so
a snapshot written to disk (by the flight recorder, a soak, or
``repro metrics --out``) can later be re-rendered as exposition text —
which is also how CI checks that a captured snapshot is well-formed.

Exposition rules: label values are escaped (``\\``, ``"``, newline),
non-finite values render as Prometheus' ``NaN`` / ``+Inf`` / ``-Inf``
tokens, integral values render without a fraction, and other floats
use shortest-round-trip ``repr`` formatting.
"""

from __future__ import annotations

import json
import math


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float | int) -> str:
    """Prometheus sample-value text: ``NaN``/``+Inf``/``-Inf`` for the
    non-finite cases, integers without a fraction, shortest
    round-trip ``repr`` otherwise (``float(_format_value(v)) == v``)."""
    f = float(value)
    if math.isnan(f):
        return "NaN"
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def to_prometheus(snapshot: dict) -> str:
    """Prometheus/OpenMetrics-style text exposition of a snapshot.

    Histograms are exposed as summaries (pre-computed quantiles) since
    the registry keeps reservoirs, not fixed buckets.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for row in snapshot.get("counters", []):
        declare(row["name"], "counter")
        lines.append(
            f"{row['name']}{_labels(row['labels'])} "
            f"{_format_value(row['value'])}"
        )
    for row in snapshot.get("gauges", []):
        declare(row["name"], "gauge")
        lines.append(
            f"{row['name']}{_labels(row['labels'])} "
            f"{_format_value(row['value'])}"
        )
    for row in snapshot.get("histograms", []):
        name = row["name"]
        declare(name, "summary")
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            value = row.get(key)
            if value is None:
                continue
            lines.append(
                f"{name}{_labels(row['labels'], {'quantile': q})} "
                f"{_format_value(value)}"
            )
        lines.append(
            f"{name}_count{_labels(row['labels'])} "
            f"{_format_value(row['count'])}"
        )
        lines.append(
            f"{name}_sum{_labels(row['labels'])} {_format_value(row['sum'])}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_to_json(snapshot: dict, indent: int | None = 2) -> str:
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def load_snapshot(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(data.get(section), list):
            raise ValueError(f"snapshot {path!r} lacks a {section!r} list")
    return data
