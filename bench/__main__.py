"""``python -m bench run|repeat`` — see bench/README.md.

``run --workload NAME --seed N --seconds S --trace 0|1`` is one pass of
one workload in this process; its last stdout line is the result
object BENCHMARK.json's contract describes.  ``run`` without
``--workload`` runs every workload, each pass in a fresh subprocess
(so peak RSS and TCP threads stay isolated).  ``repeat`` runs two full
untraced sets (medians of three runs) and checks they agree within the
bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT_RUNS = 3  # runs per workload in each of ``repeat``'s two sets


def _load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _print_pass(args, result: dict) -> None:
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28}{metric['value']:>16.4f} {metric['unit']}")
    detail = result["detail"]
    for name, metric in detail.get("ungated", {}).items():
        print(f"  {name:<28}{metric['value']:>16.4f} {metric['unit']:<6}"
              "gated: false")
    for key in ("samples", "noise", "setup_times_s",
                "wal_replay_ms", "wal_us_per_write", "layer_share"):
        if key in detail:
            print(f"  {key}: {json.dumps(detail[key])}")
    for key, row in sorted(detail.get("spans", {}).items()):
        print(f"  span {key:<44}calls={row['calls']:<8}"
              f"self_ms={row['self_s'] * 1e3:.2f}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  verify_ok={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")


def _one_pass(args) -> int:
    """One workload, one pass, in this process."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"bench: no program to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from bench import harness, schema, workloads

    spec = workloads.get(args.workload)
    run = harness.run_traced if args.trace else harness.run_untraced
    result = run(spec, args.seed, args.seconds)
    spans = result.pop("spans", None)
    _print_pass(args, result)
    if args.out:
        report = dict(result, workload=spec.name, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      scale=workloads.SCALE)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        if spans is not None:
            with open(args.out + ".spans.jsonl", "w") as dump:
                for span in spans:
                    dump.write(json.dumps(span._asdict()) + "\n")
    line = {key: result[key]
            for key in ("correct", "attempted", "failed", "metrics")}
    errors = schema.validate_result(line, _load_benchmark(), args.trace)
    if errors:
        print("bench: result breaks the schema: " + "; ".join(errors),
              file=sys.stderr)
        return 2
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


def _child(workload: str, seed: int, seconds: float, trace: int,
           out: str | None = None) -> dict | None:
    """One pass in a fresh subprocess; returns its result line."""
    command = [sys.executable, "-m", "bench", "run", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if out:
        command += ["--out", out]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        return None
    return json.loads(lines[-1])


def _all_workloads(args) -> int:
    benchmark = _load_benchmark()
    passes = [args.trace] if args.trace is not None else [0, 1]
    collected = {}
    ok = True
    for entry in benchmark["workloads"]:
        for trace in passes:
            out = None
            if args.out:
                stem = args.out.removesuffix(".json")
                out = f"{stem}.{entry['name']}.trace{trace}.json"
            result = _child(entry["name"], args.seed, args.seconds, trace, out)
            ok = ok and result is not None and result["correct"]
            collected[f"{entry['name']}/trace{trace}"] = result
    if args.out:
        Path(args.out).write_text(json.dumps(collected, indent=1) + "\n")
    print(f"bench run: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _repeat(args) -> int:
    """Two untraced sets of the same code, back to back; non-zero when
    an end-to-end metric disagrees by more than its bound.  A set is
    REPEAT_RUNS runs per workload (seeds ``--seed``, +1, ...) and a
    metric's value is their median: single runs of the two-client
    workloads differ by more than any bound the contract allows."""
    benchmark = _load_benchmark()
    names = [entry["name"] for entry in benchmark["workloads"]]
    sets = [
        {name: [_child(name, args.seed + run, args.seconds, 0)
                for run in range(REPEAT_RUNS)] for name in names}
        for _ in range(2)
    ]
    ok = True
    print(f"{'workload':<20}{'metric':<16}{'first':>14}{'second':>14}"
          f"{'diff':>9}{'bound':>8}")
    for name in names:
        runs = sets[0][name] + sets[1][name]
        if not all(run and run["correct"] for run in runs):
            print(f"{name:<20}a run failed or did not verify")
            ok = False
            continue
        for metric in benchmark["end_to_end"]:
            a, b = (
                statistics.median(run["metrics"][metric["name"]]["value"]
                                  for run in one_set[name])
                for one_set in sets
            )
            diff = abs(a - b) / min(a, b)
            within = diff <= metric["bound"]
            ok = ok and within
            print(f"{name:<20}{metric['name']:<16}{a:>14.3f}{b:>14.3f}"
                  f"{diff:>9.3f}{metric['bound']:>8.2f}"
                  f"{'' if within else '  DISAGREE'}")
    print(f"bench repeat: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "repeat"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--seed", type=int, default=11)
        cmd.add_argument("--seconds", type=float, default=None,
                         help="measured window (default: BENCHMARK.json's "
                              "run_seconds)")
        if name == "run":
            cmd.add_argument("--workload", default=None)
            cmd.add_argument("--trace", type=int, choices=(0, 1), default=None,
                             help="0: end-to-end pass, tracing off; 1: the "
                                  "per-layer traced pass (default: 0 with "
                                  "--workload, else both)")
            cmd.add_argument("--out", default=None,
                             help="also write the full report (and, traced, "
                                  "the span dump) to this file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_load_benchmark()["run_seconds"])
    if args.command == "repeat":
        return _repeat(args)
    if args.workload is None:
        return _all_workloads(args)
    args.trace = args.trace or 0
    return _one_pass(args)


if __name__ == "__main__":
    sys.exit(main())
