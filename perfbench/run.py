#!/usr/bin/env python3
"""Benchmark of the litrag pipeline on a seeded synthetic corpus.

    python3 perfbench/run.py --workload offline-retrieval --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(whose spans are written to ``.perfbench_out/<workload>.spans.jsonl``).
``--workload all`` runs every workload in turn. Each metric is printed by
name with its unit, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
non-zero when an output check fails or the checkout has no litrag sources.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="offline-retrieval, endpoint-latency or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_table(workload: str, result) -> None:
    for name, (value, unit) in result.metrics.items():
        print(f"{workload:18s} {name:34s} {value:14.6f} {unit:6s} (median of {result.sample_counts.get(name, 1)})")
    frac = result.failed / result.attempted if result.attempted else 0.0
    print(f"{workload:18s} {'failed_frac':34s} {frac:14.6f} {'ratio':6s} "
          f"({result.failed} of {result.attempted} operations)")
    for problem in result.problems[:20]:
        print(f"{workload}: output check failed: {problem}", file=sys.stderr)


def _run_all(args: argparse.Namespace, workloads) -> int:
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            status = 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "litrag" / "cli.py").is_file():
        print(f"perfbench: no litrag sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import WORKLOADS, BenchError, run_workload

    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              spans_out=ROOT / ".perfbench_out" / f"{args.workload}.spans.jsonl")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_table(args.workload, result)
    print(result.json_line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
