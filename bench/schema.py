"""One schema for BENCHMARK.json and for the result line a pass prints.

Both validators return a list of human-readable errors (empty: valid),
so the CLI can refuse to print a malformed result and the self-tests
can assert on both documents with the same rules.
"""

from __future__ import annotations

import re

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
MAX_BOUND = 0.25


def _metric_list(doc: dict, key: str, keys: set[str]) -> list[str]:
    errors = []
    for metric in doc.get(key) or [None]:
        if not isinstance(metric, dict) or set(metric) != keys:
            errors.append(f"{key}: each entry needs exactly {sorted(keys)}")
            continue
        if not NAME.match(str(metric["name"])):
            errors.append(f"{key}: bad name {metric['name']!r}")
        if not UNIT.match(str(metric["unit"])):
            errors.append(f"{key}: bad unit {metric['unit']!r}")
        if metric["better"] not in ("lower", "higher"):
            errors.append(f"{key}: {metric['name']}: better must be "
                          "lower or higher")
        bound = metric.get("bound")
        if "bound" in keys and not (
            isinstance(bound, (int, float)) and 0 < bound <= MAX_BOUND
        ):
            errors.append(f"{key}: {metric['name']}: bound must be in "
                          f"(0, {MAX_BOUND}]")
    return errors


def validate_benchmark(doc: dict) -> list[str]:
    errors = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(doc) != want:
        errors.append(f"top level needs exactly {sorted(want)}")
        return errors
    if not (isinstance(doc["command"], list) and doc["command"]
            and all(isinstance(part, str) for part in doc["command"])):
        errors.append("command must be a non-empty list of strings")
    if not (isinstance(doc["run_seconds"], int)
            and 1 <= doc["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    workloads = doc["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        errors.append("need two to eight workloads")
        workloads = []
    for entry in workloads:
        if not isinstance(entry, dict) or set(entry) != {"name", "why"}:
            errors.append("workloads: each entry needs exactly name and why")
            continue
        if not NAME.match(str(entry["name"])):
            errors.append(f"workloads: bad name {entry['name']!r}")
        why = entry["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200
                and "\n" not in why):
            errors.append(f"workloads: {entry['name']}: why must be one "
                          "line of at most 200 characters")
    errors += _metric_list(doc, "end_to_end",
                           {"name", "unit", "better", "bound"})
    errors += _metric_list(doc, "per_layer", {"name", "unit", "better"})
    names = [entry.get("name") for key in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in doc[key] if isinstance(entry, dict)]
    if len(names) != len(set(names)):
        errors.append("a name is used more than once")
    setup = [m for m in doc["end_to_end"] if isinstance(m, dict)
             and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s with unit s, better lower")
    return errors


def validate_result(result: dict, benchmark: dict, trace: int) -> list[str]:
    """The last stdout line of one pass, against BENCHMARK.json."""
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result needs exactly correct, attempted, failed, "
                      "metrics")
        return errors
    if not isinstance(result["correct"], bool):
        errors.append("correct must be a boolean")
    for key, least in (("attempted", 1), ("failed", 0)):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < least:
            errors.append(f"{key} must be a whole number >= {least}")
    declared = {
        metric["name"]: metric
        for metric in benchmark["per_layer" if trace else "end_to_end"]
    }
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        errors.append(
            "metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(declared))}"
        )
        return errors
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"}:
            errors.append(f"{name}: needs exactly value and unit")
        elif metric["unit"] != declared[name]["unit"]:
            errors.append(f"{name}: unit {metric['unit']!r} is not "
                          f"{declared[name]['unit']!r}")
        elif isinstance(metric["value"], bool) \
                or not isinstance(metric["value"], (int, float)) \
                or metric["value"] != metric["value"]:
            errors.append(f"{name}: value must be a number")
        elif not trace and metric["value"] <= 0:
            errors.append(f"{name}: an end-to-end metric is never 0")
    return errors
