"""Tests of the benchmark's own parts: generator, output check, span
arithmetic, tracing and endpoint emulation."""

from __future__ import annotations

import filecmp
import json
from pathlib import Path

import pytest

from litrag.corpus import load_corpus
from perfbench.corpus_gen import DUPLICATES, MISSING, CorpusSpec, generate_corpus
from perfbench.emulation import EndpointEmulation
from perfbench.harness import END_TO_END, BenchmarkRun, Workload
from perfbench.pipeline import output_digests
from perfbench.trace import Span, covered_length, self_times

SMALL = CorpusSpec(docs=10, words=100)
BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic(tmp_path):
    spec = CorpusSpec(docs=3, words=2500)
    a = generate_corpus(tmp_path / "a", spec, seed=7)
    b = generate_corpus(tmp_path / "b", spec, seed=7)
    c = generate_corpus(tmp_path / "c", spec, seed=8)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert a.dois == b.dois and a.missing == b.missing
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert all(len(p.read_text().split()) == 2500 for p in (tmp_path / "a").glob("*.txt"))


def test_generator_exercises_dedup_and_skip_report(tmp_path):
    generated = generate_corpus(tmp_path, CorpusSpec(docs=4, words=300), seed=3)
    load = load_corpus(tmp_path)
    assert len(load.parse.records) == 4 + MISSING + DUPLICATES  # the repeats are parsed, then dropped
    assert len(generated.dois) == 4 and len(generated.missing) == MISSING
    assert tuple(p.citation.doi for p in load.publications) == generated.dois
    assert tuple(doi for doi, _ in load.skipped) == generated.missing


def _run(tmp_path: Path, **workload) -> BenchmarkRun:
    run = BenchmarkRun(Workload("test", "", SMALL, **workload), seed=5, work=tmp_path, parallelism=2)
    run.prepare()
    return run


def test_output_check_catches_one_flipped_vote(tmp_path):
    run = _run(tmp_path)
    workspace = tmp_path / "ws"
    run.layer_iteration(workspace, traced=False)
    assert run.problems == []
    votes = workspace / "votes" / "votes.csv"
    original = votes.read_bytes()
    yes, no = b",Yes\r\n", b",No\r\n"
    flipped = original.replace(yes, no, 1) if yes in original else original.replace(no, yes, 1)
    votes.write_bytes(flipped)
    run._expect_reference(workspace, "flipped")
    assert run.problems == ["flipped: votes/votes.csv differ from the reference"]
    votes.write_bytes(original)
    run._expect_reference(workspace, "restored")
    assert len(run.problems) == 1


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 3.0, 1, 1),
        Span(3, "b", 2.0, 5.0, 1, 1),  # overlaps a, as pool threads do
        Span(4, "c", 8.0, 12.0, 1, 1),  # ends after its parent
        Span(5, "grandchild", 2.0, 4.0, 3, 1),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[3] == pytest.approx(3.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert covered_length([], 0.0, 1.0) == 0.0


def test_traced_run_leaves_outputs_identical(tmp_path):
    run = _run(tmp_path)
    run.layer_iteration(tmp_path / "untraced", traced=False)
    run.layer_iteration(tmp_path / "traced", traced=True)
    assert run.problems == []
    assert output_digests(tmp_path / "traced") == output_digests(tmp_path / "untraced") == run.reference
    for name in ("answers/answers.jsonl", "verdicts/verdicts.csv"):
        assert filecmp.cmp(tmp_path / "traced" / name, tmp_path / "untraced" / name, shallow=False)
    layers = {name: values[0] for name, values in run.layer_samples.items()}
    assert layers["retrieval.useful_ratio"] == layers["retrieval.distinct_contexts"] / layers["retrieval.calls"]
    assert layers["gateway.requests"] == layers["gateway.attempts"] > 0
    assert layers["corpus.load_calls"] == 9  # ingest, ask and filter in each of three phases
    reported = run.result(trace=True).metrics
    assert list(reported) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(reported[m["name"]][1] == m["unit"] for m in BENCHMARK["per_layer"])


def test_benchmark_file_lists_every_end_to_end_metric():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END


def test_emulation_keeps_outputs_and_faults_each_request_once(tmp_path):
    run = _run(tmp_path, latency_scale=1 / 20000, fault_rate=0.05)
    run.emulation.install()
    try:
        run.layer_iteration(tmp_path / "ws", traced=True)
    finally:
        run.emulation.uninstall()
    assert run.problems == []
    layers = {name: values[0] for name, values in run.layer_samples.items()}
    assert run.emulation.faults > 0
    assert layers["gateway.attempts"] == layers["gateway.requests"] + run.emulation.faults
    assert layers["gateway.failed"] == 0


def test_emulated_faults_are_seeded():
    a, b = EndpointEmulation(0.0, 0.3, seed=1), EndpointEmulation(0.0, 0.3, seed=2)
    ids = [f"{n:064x}" for n in range(2000)]
    picks_a = [a.faults_first_attempt(i) for i in ids]
    assert picks_a == [EndpointEmulation(0.0, 0.3, seed=1).faults_first_attempt(i) for i in ids]
    assert picks_a != [b.faults_first_attempt(i) for i in ids]
    assert 0.25 < sum(picks_a) / len(ids) < 0.35
