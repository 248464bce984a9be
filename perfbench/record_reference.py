#!/usr/bin/env python3
"""Record reference output digests for the benchmark's default seeds.

    python3 perfbench/record_reference.py 0 19

Each entry is the digest set of an uninterrupted parallelism-1 run without
latency or faults, written to ``perfbench/reference_digests.json``. Record
once, on a commit whose outputs are known good; later runs of those seeds
must reproduce these bytes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.corpus_gen import generate_corpus
    from perfbench.harness import REFERENCE_FILE, WORKLOADS, BenchError, reference_run

    recorded: dict[str, dict[str, dict[str, str]]] = {}
    work = ROOT / ".perfbench_work" / "record"
    status = 0
    for name, workload in WORKLOADS.items():
        for seed in range(first, last + 1):
            shutil.rmtree(work, ignore_errors=True)
            corpus = generate_corpus(work / "corpus", workload.corpus, seed)
            try:
                recorded.setdefault(name, {})[str(seed)] = reference_run(corpus, work)
            except BenchError as exc:
                print(f"{name} seed {seed}: {exc}", file=sys.stderr)
                status = 1
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
