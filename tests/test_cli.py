import csv
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from litrag import appendlog, cli, extraction, prompts, reports, retrieval
from litrag import keywords as keywords_mod
from litrag.appendlog import RecordStore
from litrag.cli import main
from litrag.config import load_config
from litrag.corpus import load_corpus
from litrag.errors import AuthenticationError
from litrag.extraction import AnswerStore, load_competency_questions
from litrag.gateway import ChatRequest, MockBackend, TimingLog, TransientBackendError
from litrag.retrieval import retrieve_context
from litrag.voting import FilterStore, VerdictStore, VoteStore
from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args))


def base_args(workspace, config=None):
    return [
        "--config", str(config or FIXTURES / "config.yaml"),
        "--workspace", str(workspace),
        "--mock", str(FIXTURES / "mock_responses"),
    ]


def config_with(directory: Path, **overrides) -> Path:
    """The fixture config with some top-level keys replaced."""
    data = yaml.safe_load((FIXTURES / "config.yaml").read_text(encoding="utf-8"))
    data.update(overrides)
    path = directory / "config.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def golden_workspace(workspace: Path) -> Path:
    """Lay out the committed golden stores as a ready-made workspace."""
    for sub, name in [
        ("answers", "answers.jsonl"), ("verdicts", "verdicts.csv"),
        ("votes", "votes.csv"), ("filters", "filters.csv"),
    ]:
        (workspace / sub).mkdir(parents=True, exist_ok=True)
        shutil.copy(GOLDEN / name, workspace / sub / name)
    return workspace


class TestAsk:
    def test_three_pub_fixture_yields_420_answers(self, tmp_path, mini_corpus_dir):
        result = invoke("ask", *base_args(tmp_path / "ws"), "--corpus", str(mini_corpus_dir))
        assert result.exit_code == 0, result.output
        store = tmp_path / "ws" / "answers" / "answers.jsonl"
        assert len(store.read_text(encoding="utf-8").splitlines()) == 420

    def test_rerun_is_noop(self, tmp_path, mini_corpus_dir):
        args = base_args(tmp_path / "ws") + ["--corpus", str(mini_corpus_dir)]
        invoke("ask", *args)
        store = tmp_path / "ws" / "answers" / "answers.jsonl"
        before = store.read_bytes()
        result = invoke("ask", *args)
        assert "0 new answer(s), 420 already stored" in result.output
        assert store.read_bytes() == before

    def test_endpoint_subset(self, tmp_path, mini_corpus_dir):
        result = invoke(
            "ask", *base_args(tmp_path / "ws"), "--corpus", str(mini_corpus_dir),
            "--endpoints", "Llama 3 70B,Gemma 2 9B",
        )
        assert result.exit_code == 0, result.output
        store = tmp_path / "ws" / "answers" / "answers.jsonl"
        assert len(store.read_text(encoding="utf-8").splitlines()) == 3 * 28 * 2
        for stage in ("categorize", "vote", "filter", "report"):
            args = base_args(tmp_path / "ws")
            if stage == "filter":
                args += ["--corpus", str(mini_corpus_dir)]
            result = invoke(stage, *args)
            assert result.exit_code == 0, result.output
        for table in ("similarity", "iaa_pairs"):
            text = (tmp_path / "ws" / "reports" / f"{table}.csv").read_text(encoding="utf-8")
            rows = list(csv.reader(text.splitlines()))[1:]
            assert [row[0] for row in rows] == ["Llama 3 70B - Gemma 2 9B"]

    def test_no_resume_discards_verdicts_of_discarded_answers(self, tmp_path, mini_corpus_dir):
        mock = tmp_path / "mock"
        shutil.copytree(FIXTURES / "mock_responses", mock)
        workspace = tmp_path / "ws"
        args = ["--config", str(FIXTURES / "config.yaml"), "--workspace", str(workspace),
                "--mock", str(mock)]
        invoke("ask", *args, "--corpus", str(mini_corpus_dir))
        invoke("categorize", *args)

        config = load_config(FIXTURES / "config.yaml")
        pub = load_corpus(mini_corpus_dir).publications[0]
        cq = load_competency_questions()[0]
        endpoint = config.endpoints[0]
        key = {"doi": pub.citation.doi, "cq_id": str(cq.id), "endpoint": endpoint.name}

        def verdict() -> str:
            text = (workspace / "verdicts" / "verdicts.csv").read_text(encoding="utf-8")
            rows = csv.DictReader(text.splitlines())
            return next(r["verdict"] for r in rows if {k: r[k] for k in key} == key)

        old_verdict = verdict()
        new_verdict = "No" if old_verdict == "Yes" else "Yes"
        new_answer = "A different answer after the canned reply changed."
        context = retrieve_context(pub.full_text, cq.text, config.chunking,
                                   config.retrieval_budget, doc_id=pub.citation.doi)
        asked = ChatRequest.create(
            endpoint, prompts.render("cq-answering", {"query": cq.text, "context": context.text}))
        judged = ChatRequest.create(endpoint, prompts.render(
            "categorical-conversion", {"Question": cq.text, "Answer": new_answer}))
        (mock / f"{asked.request_id}.txt").write_text(new_answer, encoding="utf-8")
        (mock / f"{judged.request_id}.txt").write_text(
            f"Answer:::\nResponse: {new_verdict}\nAnswer:::", encoding="utf-8")

        result = invoke("ask", *args, "--corpus", str(mini_corpus_dir), "--no-resume")
        assert result.exit_code == 0, result.output
        result = invoke("categorize", *args)
        assert "420 new verdict(s)" in result.output
        assert verdict() == new_verdict

    def test_resume_after_torn_final_line(self, tmp_path, mini_corpus_dir, caplog):
        full = tmp_path / "full"
        invoke("ask", *base_args(full), "--corpus", str(mini_corpus_dir))
        data = (full / "answers" / "answers.jsonl").read_bytes()
        newline = len(data) - 1
        start = data.rfind(b"\n", 0, newline) + 1  # first byte of the last record
        # cut inside the last record; the last cut keeps the record but not its newline
        for cut in (start + 1, (start + newline) // 2, newline - 1, newline):
            caplog.clear()
            workspace = tmp_path / f"cut{cut}"
            (workspace / "answers").mkdir(parents=True)
            (workspace / "answers" / "answers.jsonl").write_bytes(data[:cut])
            for stage in ("ask", "categorize", "vote"):
                args = base_args(workspace)
                if stage == "ask":
                    args += ["--corpus", str(mini_corpus_dir)]
                result = invoke(stage, *args)
                assert result.exit_code == 0, (cut, stage, result.output)
            assert ("torn final line" in caplog.text) == (cut < newline)
            assert (workspace / "answers" / "answers.jsonl").read_bytes() == \
                (GOLDEN / "answers.jsonl").read_bytes()
            assert (workspace / "votes" / "votes.csv").read_bytes() == \
                (GOLDEN / "votes.csv").read_bytes()


class TestCategorize:
    def test_converts_every_stored_answer(self, tmp_path, mini_corpus_dir):
        workspace = tmp_path / "ws"
        args = base_args(workspace)
        invoke("ask", *args, "--corpus", str(mini_corpus_dir))
        result = invoke("categorize", *args)
        assert result.exit_code == 0, result.output
        rows = csv_rows(workspace / "verdicts" / "verdicts.csv")
        assert len(rows) == 420
        assert set(r["verdict"] for r in rows) <= {"Yes", "No", "Unparseable"}
        rerun = invoke("categorize", *args)
        assert "0 new verdict(s), 420 already stored" in rerun.output

    def test_resume_after_torn_final_row(self, tmp_path, caplog):
        data = (GOLDEN / "verdicts.csv").read_bytes()
        end = len(data) - 2  # the last row ends with its verdict, then \r\n
        start = data.rfind(b"\n", 0, end) + 1
        verdict = data.rfind(b",", start, end) + 1
        # cut inside the last row; the last two cuts keep the row but not its line end
        for cut in (start + 1, verdict - 1, verdict + 1, end - 1, end, end + 1):
            caplog.clear()
            workspace = golden_workspace(tmp_path / f"cut{cut}")
            (workspace / "votes" / "votes.csv").unlink()
            (workspace / "verdicts" / "verdicts.csv").write_bytes(data[:cut])
            for stage in ("categorize", "vote"):
                result = invoke(stage, *base_args(workspace))
                assert result.exit_code == 0, (cut, stage, result.output)
            assert ("torn final line" in caplog.text) == (cut < end)
            assert (workspace / "verdicts" / "verdicts.csv").read_bytes() == data
            assert (workspace / "votes" / "votes.csv").read_bytes() == \
                (GOLDEN / "votes.csv").read_bytes()

    def test_requires_answers(self, tmp_path):
        result = invoke("categorize", *base_args(tmp_path / "ws"))
        assert result.exit_code != 0
        assert "ask" in result.output


class TestVote:
    def test_unanimous_yes_fixture(self, tmp_path):
        workspace = tmp_path / "ws"
        (workspace / "verdicts").mkdir(parents=True)
        with open(workspace / "verdicts" / "verdicts.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["doi", "cq_id", "endpoint", "verdict"])
            for doi in ("10.1/a", "10.1/b"):
                for cq in (1, 2):
                    for model in range(5):
                        writer.writerow([doi, cq, f"M{model}", "Yes"])
        result = invoke("vote", *base_args(workspace))
        assert result.exit_code == 0, result.output
        rows = csv_rows(workspace / "votes" / "votes.csv")
        assert len(rows) == 4
        assert all(row["decision"] == "Yes" for row in rows)
        assert all(row["yes_count"] == "5" for row in rows)

    def test_missing_verdicts_names_prior_stage(self, tmp_path):
        result = invoke("vote", *base_args(tmp_path / "ws"))
        assert result.exit_code != 0
        assert "categorize" in result.output

    @pytest.mark.parametrize("number, text, error", [
        (5, "garbage,row", "line 5: not enough values to unpack (expected 4, got 2)"),
        (1, "doi,cq,endpoint,verdict", "line 1: expected header doi,cq_id,endpoint,verdict"),
    ])
    def test_a_corrupt_store_line_is_an_error_naming_the_file_and_line(
        self, tmp_path, number, text, error
    ):
        workspace = golden_workspace(tmp_path / "ws")
        path = workspace / "verdicts" / "verdicts.csv"
        lines = path.read_bytes().split(b"\r\n")
        lines[number - 1] = text.encode("utf-8")
        path.write_bytes(b"\r\n".join(lines))
        result = invoke("vote", *base_args(workspace))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr == f"Error: {path}: {error}\n"
        assert (workspace / "votes" / "votes.csv").read_bytes() == golden_output("votes.csv")


class TestReportGolden:
    def test_report_matches_committed_goldens(self, tmp_path):
        workspace = golden_workspace(tmp_path / "ws")
        result = invoke("report", *base_args(workspace))
        assert result.exit_code == 0, result.output
        for name in ("coverage", "similarity", "iaa_pairs"):
            for suffix in (".csv", ".txt"):
                produced = (workspace / "reports" / f"{name}{suffix}").read_bytes()
                expected = (GOLDEN / "reports" / f"{name}{suffix}").read_bytes()
                assert produced == expected, f"{name}{suffix} drifted"

    def test_report_when_filter_retains_nothing(self, tmp_path, mini_corpus_dir):
        workspace = tmp_path / "ws"
        invoke("all", *base_args(workspace), "--corpus", str(mini_corpus_dir))
        filters = workspace / "filters" / "filters.csv"
        dois = [row["doi"] for row in csv.DictReader(filters.read_text().splitlines())]
        filters.write_text("doi,is_dl_study\n" + "".join(f"{doi},false\n" for doi in dois),
                           encoding="utf-8")
        result = invoke("report", *base_args(workspace))
        assert result.exit_code == 0, result.output
        for name in ("similarity", "iaa_pairs"):
            produced = (workspace / "reports" / f"{name}.csv").read_text().splitlines()
            golden = (GOLDEN / "reports" / f"{name}.csv").read_text().splitlines()
            # the after-filtering column goes; the all-publications values stay
            assert produced == [line.rsplit(",", 1)[0] for line in golden]

    def test_a_publication_without_a_filter_verdict_is_retained_in_every_table(self, tmp_path):
        workspace = golden_workspace(tmp_path / "ws")
        filters = workspace / "filters" / "filters.csv"
        lines = filters.read_text(encoding="utf-8").splitlines(keepends=True)
        assert "10.5555/eco.0001,true\n" in lines
        filters.write_text("".join(line for line in lines if not line.startswith("10.5555/eco.0001,")),
                           encoding="utf-8")
        result = invoke("report", *base_args(workspace))
        assert result.exit_code == 0, result.output
        for produced in reports.report_files(workspace / "reports", *cli.REPORT_TABLES):
            expected = (GOLDEN / "reports" / produced.name).read_bytes()
            assert produced.read_bytes() == expected, f"{produced.name} drifted"

    def test_report_over_an_empty_corpus_writes_header_only_pair_tables(self, tmp_path,
                                                                         mini_corpus_dir):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(mini_corpus_dir / "bibliography.bib", corpus)
        workspace = tmp_path / "ws"
        result = invoke("all", *base_args(workspace), "--corpus", str(corpus))
        assert result.exit_code == 0, result.output
        assert result.exception is None, result.output
        assert "ingest: 0 publication(s), 3 skipped, 0 parse error(s)" in result.output
        assert result.output.splitlines()[-1] == "report: wrote coverage, similarity, iaa_pairs"
        for name, value_name in (("similarity", "cosine_similarity"), ("iaa_pairs", "kappa")):
            produced = (workspace / "reports" / f"{name}.csv").read_text(encoding="utf-8")
            assert produced == f"pair,{value_name}_all_publications\n"
        coverage = (workspace / "reports" / "coverage.csv").read_text(encoding="utf-8")
        assert coverage.splitlines()[-1] == "Total,Total for all queries,0/0,0/0"

    def test_report_requires_votes(self, tmp_path):
        result = invoke("report", *base_args(tmp_path / "ws"))
        assert result.exit_code != 0
        assert "vote" in result.output

    @pytest.mark.parametrize("store,marker,stage", [
        ("answers/answers.jsonl", '"endpoint": "Mixtral 8x7B"', "ask"),
        ("verdicts/verdicts.csv", ",Mixtral 8x7B,", "categorize"),
    ])
    def test_report_names_an_endpoint_missing_some_records(self, tmp_path, store, marker, stage):
        workspace = golden_workspace(tmp_path / "ws")
        lines = (workspace / store).read_bytes().splitlines(keepends=True)
        dropped = next(i for i, line in enumerate(lines) if marker.encode() in line)
        (workspace / store).write_bytes(b"".join(lines[:dropped] + lines[dropped + 1:]))
        result = invoke("report", *base_args(workspace))
        assert result.exit_code == 1
        assert "Error: endpoint Mixtral 8x7B" in result.output
        assert f"rerun {stage}" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("cut,left", [("header only", 0), ("one item of every endpoint", 83)])
    def test_report_requires_verdicts_that_cover_the_answers(self, tmp_path, cut, left):
        workspace = golden_workspace(tmp_path / "ws")
        path = workspace / "verdicts" / "verdicts.csv"
        header, *rows = path.read_bytes().splitlines(keepends=True)
        if cut == "header only":
            rows = []
        else:
            dropped = rows[0].split(b",")[:2]
            rows = [row for row in rows if row.split(b",")[:2] != dropped]
        path.write_bytes(header + b"".join(rows))
        result = invoke("report", *base_args(workspace))
        assert result.exit_code == 1
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [
            f"Error: endpoint Llama 3 70B has verdicts for {left} items and answers for 84, "
            "which differ; rerun categorize"
        ], result.output
        assert "Traceback" not in result.output


class TestEvaluate:
    def make_reference_files(self, directory: Path):
        votes = csv_rows(GOLDEN / "votes.csv")
        decisions = {(r["doi"], int(r["cq_id"])): r["decision"] for r in votes}
        verdicts = csv_rows(GOLDEN / "verdicts.csv")
        # categorical reference over 2 questions x 3 pubs, half agreeing
        cat_path = directory / "categorical_reference.csv"
        with open(cat_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["doi", "variable", "label"])
            for i, (doi, cq) in enumerate(sorted({(v["doi"], int(v["cq_id"]))
                                                  for v in verdicts if int(v["cq_id"]) <= 2})):
                writer.writerow([doi, cq, "Yes" if i % 2 == 0 else "No"])
        # voting reference on two variables, built to agree with the votes
        vote_path = directory / "voting_reference.csv"
        with open(vote_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["doi", "variable", "label"])
            for doi in ("10.5555/eco.0001", "10.5555/eco.0002", "10.5555/eco.0003"):
                writer.writerow([doi, "Model architecture", decisions[(doi, 12)]])
                writer.writerow([doi, "Dataset", decisions[(doi, 5)]])
        return cat_path, vote_path

    def config_with_mapping(self, directory: Path) -> Path:
        data = yaml.safe_load((FIXTURES / "config.yaml").read_text(encoding="utf-8"))
        data["cq_variable_mapping"] = {12: "Model architecture", 5: "Dataset"}
        path = directory / "config.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        return path

    def test_evaluate_writes_both_reports(self, tmp_path):
        workspace = golden_workspace(tmp_path / "ws")
        cat_path, vote_path = self.make_reference_files(tmp_path)
        config = self.config_with_mapping(tmp_path)
        result = invoke(
            "evaluate", *base_args(workspace, config=config),
            "--reference", str(cat_path), "--voting-reference", str(vote_path),
        )
        assert result.exit_code == 0, result.output
        agreement = (workspace / "reports" / "categorical_agreement.csv").read_text()
        assert agreement.startswith("endpoint,agreements,kappa")
        assert "/6," in agreement  # 3 pubs x 2 questions
        comparison = (workspace / "reports" / "reference_comparison.csv").read_text()
        lines = comparison.strip().splitlines()
        assert lines[-1] == "Total,6/6"

        # a spreadsheet's "CSV UTF-8" export starts with a byte order mark
        reports = {p.name: p.read_bytes() for p in (workspace / "reports").iterdir()}
        for path in (cat_path, vote_path):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        shutil.rmtree(workspace / "reports")
        result = invoke(
            "evaluate", *base_args(workspace, config=config),
            "--reference", str(cat_path), "--voting-reference", str(vote_path),
        )
        assert result.exit_code == 0, result.output
        assert {p.name: p.read_bytes() for p in (workspace / "reports").iterdir()} == reports

    def test_evaluate_without_references_fails(self, tmp_path):
        workspace = golden_workspace(tmp_path / "ws")
        result = invoke("evaluate", *base_args(workspace))
        assert result.exit_code != 0

    @pytest.mark.parametrize("option,text,error", [
        ("--reference", "doi,variable,label\n10.5555/eco.0001,1,Yes\n10.5555/eco.0001,two,No\n",
         "line 3: variable 'two' is not a question id"),
        ("--reference", "doi,variable\n10.5555/eco.0001,1\n", "no 'label' column"),
        ("--reference", "doi,variable,label\n10.5555/eco.0001,1,yes\n",
         "line 2: label 'yes' is neither Yes nor No"),
        ("--voting-reference", "doi,variable,label\n10.5555/eco.0001,Model architecture,Yes\n",
         "no labels for variable 'Dataset'"),
        ("--voting-reference",
         "doi,variable,label\n10.5555/eco.0001,Model architecture,Yes\n10.9999/none,Dataset,No\n",
         "no vote for (10.9999/none, cq 5)"),
        ("--reference", "doi,variable,label\n10.5555/eco.0001,1,Yes\n10.5555/eco.0001,1,No\n",
         "line 3: a second label for ('10.5555/eco.0001', 1)"),
        ("--reference", "doi,variable,label\n", "no labels"),
    ])
    def test_a_defective_reference_is_an_error_naming_it(self, tmp_path, option, text, error):
        workspace = golden_workspace(tmp_path / "ws")
        reference = tmp_path / "reference.csv"
        reference.write_text(text, encoding="utf-8")
        config = self.config_with_mapping(tmp_path)
        result = invoke("evaluate", *base_args(workspace, config=config), option, str(reference))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "Error: " in result.output and error in result.output, result.output
        assert str(reference) in result.output

    @pytest.mark.parametrize("case", ["no mapping", "defective voting reference"])
    def test_a_failed_comparison_writes_no_report(self, tmp_path, case):
        workspace = golden_workspace(tmp_path / "ws")
        cat_path, vote_path = self.make_reference_files(tmp_path)
        config = None
        if case == "defective voting reference":
            config = self.config_with_mapping(tmp_path)
            vote_path.write_text("doi,variable,label\n10.5555/eco.0001,Dataset,Yes\n",
                                 encoding="utf-8")
        result = invoke("evaluate", *base_args(workspace, config=config),
                        "--reference", str(cat_path), "--voting-reference", str(vote_path))
        assert result.exit_code == 1, result.output
        assert result.output.splitlines()[-1].startswith("Error: ")
        assert not list((workspace / "reports").iterdir())

    def test_an_edited_reference_reruns_and_an_unchanged_one_skips(self, tmp_path):
        workspace = golden_workspace(tmp_path / "ws")
        cat_path, vote_path = self.make_reference_files(tmp_path)
        args = [*base_args(workspace, config=self.config_with_mapping(tmp_path)),
                "--reference", str(cat_path), "--voting-reference", str(vote_path)]
        assert invoke("evaluate", *args).exit_code == 0
        report = workspace / "reports" / "reference_comparison.csv"
        os.utime(report, ns=(PAST_NS, PAST_NS))
        result = invoke("evaluate", *args)
        assert result.stdout == "evaluate: wrote categorical_agreement, reference_comparison\n"
        assert report.stat().st_mtime_ns == PAST_NS
        # one label flipped, so one vote disagrees
        header, first, *rest = vote_path.read_text(encoding="utf-8").splitlines()
        doi, variable, label = first.split(",")
        flipped = f"{doi},{variable},{'No' if label == 'Yes' else 'Yes'}"
        vote_path.write_text("\n".join([header, flipped, *rest]) + "\n", encoding="utf-8")
        result = invoke("evaluate", *args)
        assert result.exit_code == 0, result.output
        assert report.read_text(encoding="utf-8").splitlines()[-1] == "Total,5/6"

    def test_a_missing_reference_is_an_error(self, tmp_path):
        workspace = golden_workspace(tmp_path / "ws")
        result = invoke("evaluate", *base_args(workspace), "--reference", str(tmp_path / "none.csv"))
        assert result.exit_code == 1, result.output
        assert "Error: cannot read reference" in result.output


class TestFootprint:
    def test_report_from_timing_log(self, tmp_path):
        from conftest import build_timing_fixture

        workspace = tmp_path / "ws"
        (workspace / "logs").mkdir(parents=True)
        build_timing_fixture().save_csv(workspace / "logs" / "timing.csv")
        result = invoke("footprint", *base_args(workspace))
        assert result.exit_code == 0, result.output
        rows = {r["stage"]: r for r in csv_rows(workspace / "reports" / "footprint.csv")}
        assert rows["rag"]["runtime_h"] == "264.25"
        # 264.25 h on 48 cores at 7.2917 W plus 192 GB of memory
        expected_kw = (48 * 7.2917 + 192 * 0.3725) / 1000
        assert float(rows["rag"]["energy_kwh"]) == pytest.approx(264.25 * expected_kw, abs=0.01)

    def test_requires_timing_log(self, tmp_path):
        result = invoke("footprint", *base_args(tmp_path / "ws"))
        assert result.exit_code != 0
        assert "ask" in result.output


class CrashingBackend(MockBackend):
    """Serves ``limit`` requests, then raises an error the gateway does not handle."""

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit
        self.served = 0
        self.served_lock = threading.Lock()

    def send(self, endpoint, request):
        with self.served_lock:
            if self.served >= self.limit:
                raise RuntimeError("backend crashed")
            self.served += 1
        return super().send(endpoint, request)


def timing_rows(workspace: Path) -> list[dict]:
    return csv_rows(workspace / "logs" / "timing.csv")


class TestTimingLog:
    @pytest.mark.parametrize("served", [0, 37])
    def test_crashed_ask_keeps_the_timing_of_its_requests(
        self, tmp_path, mini_corpus_dir, monkeypatch, served
    ):
        workspace = tmp_path / "ws"
        with monkeypatch.context() as patch:
            patch.setattr(cli.MockBackend, "from_dir",
                          classmethod(lambda cls, directory: CrashingBackend(served)))
            result = invoke("ask", *base_args(workspace), "--corpus", str(mini_corpus_dir))
        assert isinstance(result.exception, RuntimeError), result.output
        rows = timing_rows(workspace)
        assert len(rows) == served
        assert len({row["unique_id"] for row in rows}) == served
        result = invoke("footprint", *base_args(workspace))
        assert result.exit_code == 0, result.output
        assert (workspace / "reports" / "footprint.csv").read_text().startswith("stage,")

    def test_torn_final_row_is_dropped_and_the_next_stage_appends_on_a_fresh_line(
        self, tmp_path, mini_corpus_dir, caplog
    ):
        full = tmp_path / "full"
        invoke("ask", *base_args(full), "--corpus", str(mini_corpus_dir))
        data = (full / "logs" / "timing.csv").read_bytes()
        end = len(data) - 2  # the last row ends with its timestamp, then \r\n
        start = data.rfind(b"\n", 0, end) + 1
        # cut inside the last row; the last two cuts keep the row but not its line end
        for cut in (start + 1, (start + end) // 2, end - 1, end, end + 1):
            caplog.clear()
            workspace = tmp_path / f"cut{cut}"
            shutil.copytree(full, workspace)
            timing = workspace / "logs" / "timing.csv"
            timing.write_bytes(data[:cut])
            kept = 420 if cut >= end else 419
            result = invoke("footprint", *base_args(workspace))
            assert result.exit_code == 0, (cut, result.output)
            assert ("torn final line" in caplog.text) == (cut < end)

            caplog.clear()
            result = invoke("categorize", *base_args(workspace))
            assert result.exit_code == 0, (cut, result.output)
            assert timing.read_bytes().startswith(data[:cut] if cut >= end else data[:start])
            assert len(TimingLog.load_csv(timing)) == kept + 420
            assert "torn final line" not in caplog.text
            assert {row["stage"] for row in timing_rows(workspace)[kept:]} == {"categorize"}

    def test_noop_rerun_neither_reads_nor_changes_the_timing_log(
        self, tmp_path, mini_corpus_dir, monkeypatch
    ):
        workspace = tmp_path / "ws"
        args = base_args(workspace)
        corpus = ["--corpus", str(mini_corpus_dir)]
        assert invoke("all", *args, *corpus).exit_code == 0
        timing = workspace / "logs" / "timing.csv"
        before = timing.read_bytes()
        stores = [workspace / "answers" / "answers.jsonl", workspace / "verdicts" / "verdicts.csv",
                  workspace / "filters" / "filters.csv"]
        # a fixed past mtime shows a rewrite at any clock resolution
        for store in stores:
            os.utime(store, ns=(10**18, 10**18))

        def no_load(cls, path):
            raise AssertionError("the timing log was read")

        monkeypatch.setattr(TimingLog, "load_csv", classmethod(no_load))
        monkeypatch.setattr(RecordStore, "scan", no_load)
        for stage, extra in (("ask", corpus), ("categorize", []), ("filter", corpus)):
            result = invoke(stage, *args, *extra)
            assert result.exit_code == 0, (stage, result.output)
        assert timing.read_bytes() == before
        assert [store.stat().st_mtime_ns for store in stores] == [10**18] * 3

    def test_no_worker_thread_writes_a_file(self, tmp_path, mini_corpus_dir, monkeypatch):
        writers = []
        for owner, name in ((AnswerStore, "append"), (VerdictStore, "append"),
                            (TimingLog, "save_csv")):
            def record(self, *args, _write=getattr(owner, name)):
                writers.append(threading.current_thread())
                return _write(self, *args)

            monkeypatch.setattr(owner, name, record)
        result = invoke("all", *base_args(tmp_path / "ws"), "--corpus", str(mini_corpus_dir))
        assert result.exit_code == 0, result.output
        assert len(writers) == 420 + 420 + 3
        assert set(writers) == {threading.current_thread()}

    def test_all_runs_the_names_a_tracer_patches(self, tmp_path, mini_corpus_dir, monkeypatch):
        calls = {"answer_cq": [], "score_chunks": [], "save_csv": []}
        for owner, name in ((extraction, "answer_cq"), (retrieval, "score_chunks"),
                            (TimingLog, "save_csv")):
            def record(*args, _calls=calls[name], _call=getattr(owner, name)):
                _calls.append(args)
                return _call(*args)

            monkeypatch.setattr(owner, name, record)
        result = invoke("all", *base_args(tmp_path / "ws"), "--corpus", str(mini_corpus_dir))
        assert result.exit_code == 0, result.output
        assert len(calls["answer_cq"]) == 420
        template = prompts.default_registry()["dl-filter"]
        query = next(line[len("Query: "):] for line in template.body.splitlines()
                     if line.startswith("Query: "))
        # 3 publications x 28 questions in ask, one query per publication in filter
        assert Counter(args[0] == query for args in calls["score_chunks"]) == \
            {False: 84, True: 3}
        assert [{entry.stage for entry in timing} for timing, _ in calls["save_csv"]] == \
            [{"rag"}, {"categorize"}, {"filter"}]


class RejectingBackend(MockBackend):
    """Rejects the credentials of one endpoint and counts sends per endpoint."""

    def __init__(self, rejected: str) -> None:
        super().__init__()
        self.rejected = rejected
        self.sends: Counter[str] = Counter()
        self.sends_lock = threading.Lock()

    def send(self, endpoint, request):
        with self.sends_lock:
            self.sends[endpoint.name] += 1
        if endpoint.name == self.rejected:
            raise AuthenticationError(f"endpoint {endpoint.name} rejected credentials (HTTP 401)")
        return super().send(endpoint, request)


class QuestionFailingBackend(MockBackend):
    """Fails every attempt of each request whose prompt holds ``text``."""

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def send(self, endpoint, request):
        if self.text in request.prompt:
            raise TransientBackendError("mock transient failure")
        return super().send(endpoint, request)


class TestFailedRequests:
    def test_failed_items_are_reported_in_key_order(self, tmp_path, mini_corpus_dir, monkeypatch):
        config = config_with(tmp_path, backoff_seconds=0)
        cq = load_competency_questions()[0]
        monkeypatch.setattr(cli.MockBackend, "from_dir", classmethod(
            lambda cls, directory: QuestionFailingBackend(cq.text)))
        reports = []
        for run in range(2):
            result = invoke("ask", *base_args(tmp_path / f"ws{run}", config=config),
                            "--corpus", str(mini_corpus_dir))
            assert result.exit_code == 1, result.output
            assert "ask: 405 new answer(s), 0 already stored, 15 failed" in result.stdout
            reports.append([line for line in result.stderr.splitlines()
                            if line.startswith("  failed: ")])
        dois = sorted(pub.citation.doi for pub in load_corpus(mini_corpus_dir).publications)
        names = sorted(endpoint.name for endpoint in load_config(config).endpoints)
        # the first 10 of the 15 failures, by (doi, question, endpoint)
        expected = [f"{doi}|{cq.id}|{name}" for doi in dois for name in names][:10]
        assert [line.split(": ")[1] for line in reports[0]] == expected
        assert reports[1] == reports[0]

    def test_failed_requests_store_nothing_and_a_rerun_fills_them(
        self, tmp_path, mini_corpus_dir, monkeypatch
    ):
        config_path = config_with(tmp_path, backoff_seconds=0)
        config = load_config(config_path)
        pub = load_corpus(mini_corpus_dir).publications[1]
        cq = load_competency_questions()[3]
        endpoint = config.endpoints[2]
        answer = next(a for a in AnswerStore(GOLDEN / "answers.jsonl").load()
                      if a.key == (pub.citation.doi, cq.id, endpoint.name))
        judged = ChatRequest.create(endpoint, prompts.render(
            "categorical-conversion", {"Question": cq.text, "Answer": answer.clean_text}))
        template = prompts.default_registry().get("dl-filter")
        query = next(line[len("Query: "):] for line in template.body.splitlines()
                     if line.startswith("Query: "))
        context = retrieve_context(pub.full_text, query, config.chunking,
                                   config.retrieval_budget, doc_id=pub.citation.doi)
        filtered = ChatRequest.create(config.endpoint(config.filter_endpoint),
                                      template.render({"context": context.text}))
        canned = MockBackend.from_dir(FIXTURES / "mock_responses").canned
        workspace = tmp_path / "ws"
        args = base_args(workspace, config=config_path)
        corpus = ["--corpus", str(mini_corpus_dir)]

        with monkeypatch.context() as patch:
            patch.setattr(cli.MockBackend, "from_dir", classmethod(
                lambda cls, directory: MockBackend(
                    canned=canned, fail_first={judged.request_id: 99, filtered.request_id: 99})))
            result = invoke("all", *args, *corpus)
            assert result.exit_code == 1, result.output
            assert "categorize: 419 new verdict(s), 0 already stored, 1 failed" in result.output
            assert not (workspace / "votes" / "votes.csv").exists()  # all stopped there
            result = invoke("filter", *args, *corpus)
            assert result.exit_code == 1, result.output
            assert "filter: 2 new verdict(s), 0 already stored, 1 failed" in result.output
        assert answer.key not in VerdictStore(workspace / "verdicts" / "verdicts.csv").keys()
        assert len(VerdictStore(workspace / "verdicts" / "verdicts.csv").load()) == 419
        assert FilterStore(workspace / "filters" / "filters.csv").keys() == \
            FilterStore(GOLDEN / "filters.csv").keys() - {(pub.citation.doi,)}

        result = invoke("all", *args, *corpus)
        assert result.exit_code == 0, result.output
        assert "categorize: 1 new verdict(s), 419 already stored" in result.output
        assert "filter: 1 new verdict(s), 2 already stored" in result.output
        for sub, name in (("verdicts", "verdicts.csv"), ("votes", "votes.csv"),
                          ("filters", "filters.csv")):
            assert (workspace / sub / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_rejected_credentials_stop_their_endpoint(self, tmp_path, mini_corpus_dir, monkeypatch):
        # one worker, so no second request to the endpoint is already in flight
        # when its first rejection arrives
        config = config_with(tmp_path, parallelism=1)
        workspace = tmp_path / "ws"
        rejected = "Mixtral 8x7B"
        backend = RejectingBackend(rejected)
        monkeypatch.setattr(cli.MockBackend, "from_dir",
                            classmethod(lambda cls, directory: backend))
        result = invoke("ask", *base_args(workspace, config=config),
                        "--corpus", str(mini_corpus_dir))
        assert result.exit_code == 1, result.output
        assert "ask: 336 new answer(s), 0 already stored, 84 failed" in result.output
        assert backend.sends[rejected] == 1
        assert sorted(backend.sends.values()) == [1, 84, 84, 84, 84]
        answers = AnswerStore(workspace / "answers" / "answers.jsonl").load()
        assert len(answers) == 336
        assert rejected not in {a.endpoint for a in answers}

    # the removed endpoint's answers sort first, or last, among the pending ones
    @pytest.mark.parametrize("removed", ["Gemma 2 9B", "Mixtral 8x7B"])
    def test_categorize_rejects_answers_of_an_unconfigured_endpoint(self, tmp_path, removed):
        workspace = golden_workspace(tmp_path / "ws")
        (workspace / "verdicts" / "verdicts.csv").unlink()
        endpoints = yaml.safe_load((FIXTURES / "config.yaml").read_text(encoding="utf-8"))["endpoints"]
        config = config_with(tmp_path, endpoints=[e for e in endpoints if e["name"] != removed])
        result = invoke("categorize", *base_args(workspace, config=config))
        assert result.exit_code == 1, result.output
        assert not isinstance(result.exception, KeyError)
        assert f"{removed!r}" in result.output and "ask --no-resume" in result.output
        assert not (workspace / "verdicts" / "verdicts.csv").exists()
        assert not timing_rows(workspace)  # no request was made


class TestKeywordsCommand:
    def test_harvest_and_curation_diff(self, tmp_path):
        abstracts = tmp_path / "abstracts"
        abstracts.mkdir()
        (abstracts / "talk1.txt").write_text(
            "We used a convolutional neural network for species identification.",
            encoding="utf-8",
        )
        (abstracts / "talk2.txt").write_text(
            "A transformer pipeline for acoustic monitoring.", encoding="utf-8"
        )
        workspace = tmp_path / "ws"
        (workspace / "keywords").mkdir(parents=True)
        (workspace / "keywords" / "curated.txt").write_text(
            "neural network\n", encoding="utf-8"
        )
        result = invoke(
            "keywords", *base_args(workspace), "--abstracts", str(abstracts),
        )
        assert result.exit_code == 0, result.output
        raw = (workspace / "keywords" / "raw.txt").read_text(encoding="utf-8").splitlines()
        assert len(raw) == 4  # the offline backend returns two keywords per abstract
        assert (workspace / "keywords" / "consolidated.txt").is_file()
        assert "curation:" in result.output

    @pytest.mark.parametrize("case, culprit", [
        ("empty abstract", "abstracts/talk2.txt"),
        ("no abstract", "abstracts"),
        ("no keyword marker", "abstracts"),
        ("empty curated list", "ws/keywords/curated.txt"),
    ])
    def test_a_bad_input_is_an_error_naming_it(self, tmp_path, monkeypatch, case, culprit):
        abstracts = tmp_path / "abstracts"
        abstracts.mkdir()
        if case != "no abstract":
            (abstracts / "talk1.txt").write_text("A transformer for bird calls.", encoding="utf-8")
            (abstracts / "talk2.txt").write_text(
                " \n" if case == "empty abstract" else "A CNN for camera traps.", encoding="utf-8"
            )
        if case == "no keyword marker":
            monkeypatch.setattr(MockBackend, "_default_response",
                                staticmethod(lambda request: "Answer:::\nnone\nAnswer:::"))
        workspace = tmp_path / "ws"
        (workspace / "keywords").mkdir(parents=True)
        if case == "empty curated list":
            (workspace / "keywords" / "curated.txt").write_text("\n  \n", encoding="utf-8")
        result = invoke("keywords", *base_args(workspace), "--abstracts", str(abstracts))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.splitlines()[-1].startswith(f"Error: {tmp_path / culprit}: ")

    @pytest.mark.parametrize("case", ["empty abstract", "empty curated list"])
    def test_a_bad_input_is_found_before_any_request(self, tmp_path, case):
        abstracts = tmp_path / "abstracts"
        abstracts.mkdir()
        # sorted after a good abstract, so a stage that checks as it sends pays for that one
        (abstracts / "talk1.txt").write_text("A transformer for bird calls.", encoding="utf-8")
        (abstracts / "talk2.txt").write_text(
            " \n" if case == "empty abstract" else "A CNN for camera traps.", encoding="utf-8"
        )
        workspace = tmp_path / "ws"
        (workspace / "keywords").mkdir(parents=True)
        if case == "empty curated list":
            (workspace / "keywords" / "curated.txt").write_text("\n", encoding="utf-8")
        result = invoke("keywords", *base_args(workspace), "--abstracts", str(abstracts))
        assert result.exit_code == 1, result.output
        assert result.output.splitlines()[-1].startswith("Error: ")
        assert not (workspace / "logs" / "timing.csv").exists()  # no request was made
        assert not (workspace / "keywords" / "replies.jsonl").exists()

    def abstracts(self, directory: Path) -> Path:
        abstracts = directory / "abstracts"
        abstracts.mkdir()
        for stem, text in (("talk1", "A convolutional neural network for species identification."),
                           ("talk2", "A transformer pipeline for acoustic monitoring."),
                           ("talk3", "Random forests and a recurrent network for bird song.")):
            (abstracts / f"{stem}.txt").write_text(text, encoding="utf-8")
        return abstracts

    def test_an_unchanged_rerun_sends_nothing(self, tmp_path):
        abstracts = self.abstracts(tmp_path)
        workspace = tmp_path / "ws"
        (workspace / "keywords").mkdir(parents=True)
        curated = workspace / "keywords" / "curated.txt"
        curated.write_text("neural network\n", encoding="utf-8")
        args = [*base_args(workspace), "--abstracts", str(abstracts)]
        first = invoke("keywords", *args)
        assert first.exit_code == 0, first.output
        assert first.stdout == "keywords: 6 raw, 2 consolidated\n" \
            "curation: 1 kept, 1 removed, 0 added\n"
        rerun = invoke("keywords", *args)
        assert rerun.exit_code == 0, rerun.output
        assert rerun.stdout == first.stdout
        assert len(timing_rows(workspace)) == 4  # three extractions and a consolidation, once each
        # an edited curated list re-sends only the consolidation
        curated.write_text("neural network\ncnn\n", encoding="utf-8")
        edited = invoke("keywords", *args)
        assert edited.exit_code == 0, edited.output
        assert edited.stdout.splitlines()[-1] == "curation: 2 kept, 1 removed, 1 added"
        assert [row["doi"] for row in timing_rows(workspace)[4:]] == ["keywords"]

    @staticmethod
    def extraction_id(config: Path, abstract: Path, endpoint: int = 0) -> str:
        return ChatRequest.create(load_config(config).endpoints[endpoint], prompts.render(
            "keyword-extraction",
            {"query": prompts.KEYWORD_EXTRACTION_QUERY,
             "context": abstract.read_text(encoding="utf-8")},
        )).request_id

    @staticmethod
    def run_with(monkeypatch, backend, *args):
        """``keywords`` with ``args``, served by ``backend``; the result and what it sent."""
        with monkeypatch.context() as patch:
            patch.setattr(cli.MockBackend, "from_dir", classmethod(lambda cls, directory: backend))
            return invoke("keywords", *args), backend.sent

    def test_a_failed_extraction_stores_nothing_and_a_rerun_sends_only_what_is_missing(
        self, tmp_path, monkeypatch
    ):
        abstracts = self.abstracts(tmp_path)
        config = config_with(tmp_path, backoff_seconds=0)
        failing = self.extraction_id(config, abstracts / "talk2.txt")
        clean, workspace = tmp_path / "clean", tmp_path / "ws"
        assert invoke("keywords", *base_args(clean, config=config),
                      "--abstracts", str(abstracts)).exit_code == 0
        args = [*base_args(workspace, config=config), "--abstracts", str(abstracts)]

        def run(backend):
            return self.run_with(monkeypatch, backend, *args)

        result, _ = run(SendingBackend(fail_first={failing: 99}))
        assert result.exit_code == 1, result.output
        assert result.stdout == "keywords: 2 new abstract(s), 0 already stored, 1 failed\n"
        assert "failed: Llama 3 70B|talk2: " in result.stderr
        replies = keywords_mod.ReplyStore(workspace / "keywords" / "replies.jsonl")
        assert replies.keys() == {("Llama 3 70B", "talk1"), ("Llama 3 70B", "talk3")}
        assert not (workspace / "keywords" / "raw.txt").exists()
        assert not (workspace / "logs" / "keywords.digest.json").exists()

        result, sent = run(SendingBackend())
        assert result.exit_code == 0, result.output
        assert result.stdout == "keywords: 6 raw, 2 consolidated\n"
        assert len(sent) == 2 and sent[0] == failing  # the missing extraction, then consolidation
        result, sent = run(SendingBackend())
        assert result.stdout == "keywords: 6 raw, 2 consolidated\n"
        assert sent == []
        for name in ("raw.txt", "consolidated.txt"):
            assert (workspace / "keywords" / name).read_bytes() == \
                (clean / "keywords" / name).read_bytes(), name

    def test_another_endpoint_extracts_every_abstract_itself(self, tmp_path, monkeypatch):
        abstracts = self.abstracts(tmp_path)
        config = FIXTURES / "config.yaml"
        gemma = ["--endpoint", "Gemma 2 9B"]
        clean, workspace = tmp_path / "clean", tmp_path / "ws"
        assert invoke("keywords", *base_args(clean), "--abstracts", str(abstracts),
                      *gemma).exit_code == 0
        args = [*base_args(workspace), "--abstracts", str(abstracts)]
        assert invoke("keywords", *args).exit_code == 0
        first_raw = (workspace / "keywords" / "raw.txt").read_bytes()

        result, sent = self.run_with(monkeypatch, SendingBackend(), *args, *gemma)
        assert result.exit_code == 0, result.output
        extractions = [self.extraction_id(config, abstracts / f"talk{i}.txt", endpoint=4)
                       for i in (1, 2, 3)]
        assert sent[:3] == extractions and len(sent) == 4  # three extractions, a consolidation
        for name in ("raw.txt", "consolidated.txt"):
            assert (workspace / "keywords" / name).read_bytes() == \
                (clean / "keywords" / name).read_bytes(), name
        # back to the first endpoint: its replies are still stored
        result, sent = self.run_with(monkeypatch, SendingBackend(), *args)
        assert result.exit_code == 0, result.output
        assert len(sent) == 1  # the consolidation
        assert (workspace / "keywords" / "raw.txt").read_bytes() == first_raw

    def test_a_reply_without_a_keyword_list_is_not_stored(self, tmp_path, monkeypatch):
        abstracts = self.abstracts(tmp_path)
        config = FIXTURES / "config.yaml"
        unmarked = self.extraction_id(config, abstracts / "talk2.txt")
        clean, workspace = tmp_path / "clean", tmp_path / "ws"
        assert invoke("keywords", *base_args(clean), "--abstracts", str(abstracts)).exit_code == 0
        args = [*base_args(workspace), "--abstracts", str(abstracts)]

        backend = SendingBackend(canned={unmarked: "Answer:::\nnone\nAnswer:::"})
        result, _ = self.run_with(monkeypatch, backend, *args)
        assert result.exit_code == 0, result.output
        assert result.stdout.startswith("keywords: 4 raw, ")  # the other two abstracts
        replies = keywords_mod.ReplyStore(workspace / "keywords" / "replies.jsonl")
        assert {stem for _, stem in replies.keys()} == {"talk1", "talk3"}
        # the next run of the stage asks that abstract again
        (workspace / "logs" / "keywords.digest.json").unlink()
        result, sent = self.run_with(monkeypatch, SendingBackend(), *args)
        assert result.exit_code == 0, result.output
        assert len(sent) == 2 and sent[0] == unmarked  # then the consolidation
        for name in ("raw.txt", "consolidated.txt"):
            assert (workspace / "keywords" / name).read_bytes() == \
                (clean / "keywords" / name).read_bytes(), name

    def test_replies_without_any_keyword_list_are_all_asked_again(self, tmp_path, monkeypatch):
        abstracts = self.abstracts(tmp_path)
        args = [*base_args(tmp_path / "ws"), "--abstracts", str(abstracts)]
        with monkeypatch.context() as patch:
            patch.setattr(MockBackend, "_default_response",
                          staticmethod(lambda request: "Answer:::\nnone\nAnswer:::"))
            result, sent = self.run_with(monkeypatch, SendingBackend(), *args)
        assert result.exit_code == 1, result.output
        assert len(sent) == 3 and "no reply carried" in result.output
        result, sent = self.run_with(monkeypatch, SendingBackend(), *args)
        assert result.exit_code == 0, result.output
        assert len(sent) == 4  # every extraction again, then the consolidation


class SendingBackend(MockBackend):
    """Records the id of every request it is sent, in order."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.sent: list[str] = []

    def send(self, endpoint, request):
        self.sent.append(request.request_id)
        return super().send(endpoint, request)


class TestAllChain:
    def test_all_reproduces_goldens(self, tmp_path, mini_corpus_dir):
        workspace = tmp_path / "ws"
        result = invoke("all", *base_args(workspace), "--corpus", str(mini_corpus_dir))
        assert result.exit_code == 0, result.output
        checks = [
            (workspace / "answers" / "answers.jsonl", GOLDEN / "answers.jsonl"),
            (workspace / "verdicts" / "verdicts.csv", GOLDEN / "verdicts.csv"),
            (workspace / "votes" / "votes.csv", GOLDEN / "votes.csv"),
            (workspace / "filters" / "filters.csv", GOLDEN / "filters.csv"),
        ]
        for produced, expected in checks:
            assert produced.read_bytes() == expected.read_bytes(), produced.name
        for path in sorted((GOLDEN / "reports").glob("*")):
            assert (workspace / "reports" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_stores_left_out_of_order_are_rewritten_in_key_order(self, tmp_path, mini_corpus_dir):
        # every record stored, but not in key order: a run killed after its
        # last append and before its rewrite leaves the stores like this
        workspace = golden_workspace(tmp_path / "ws")
        for sub, name, header in (("answers", "answers.jsonl", 0),
                                  ("verdicts", "verdicts.csv", 1),
                                  ("filters", "filters.csv", 1)):
            lines = (GOLDEN / name).read_bytes().splitlines(keepends=True)
            (workspace / sub / name).write_bytes(b"".join(lines[:header] + lines[header:][::-1]))
        corpus = ["--corpus", str(mini_corpus_dir)]
        for stage, extra in (("ask", corpus), ("categorize", []), ("filter", corpus)):
            result = invoke(stage, *base_args(workspace), *extra)
            assert result.exit_code == 0, (stage, result.output)
            assert f"{stage}: 0 new" in result.output
        for sub, name in (("answers", "answers.jsonl"), ("verdicts", "verdicts.csv"),
                          ("filters", "filters.csv")):
            assert (workspace / sub / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_all_hashes_each_package_file_once_per_process(
        self, tmp_path, mini_corpus_dir, monkeypatch
    ):
        hashed = []
        file_sha256 = cli._file_sha256
        monkeypatch.setattr(cli, "_file_sha256", lambda path: hashed.append(path) or file_sha256(path))
        cli._package_digest.cache_clear()  # as in a fresh process
        package = sorted(cli.PACKAGE_DIR.rglob("*.py")) + sorted(cli.PACKAGE_DIR.rglob("*.txt"))
        args = base_args(tmp_path / "ws") + ["--corpus", str(mini_corpus_dir)]
        for reads in (package, []):
            hashed.clear()
            result = invoke("all", *args)
            assert result.exit_code == 0, result.output
            assert [path for path in hashed if cli.PACKAGE_DIR in path.parents] == reads

    def test_all_rerun_is_noop(self, tmp_path, mini_corpus_dir):
        workspace = tmp_path / "ws"
        args = base_args(workspace) + ["--corpus", str(mini_corpus_dir)]
        invoke("all", *args)
        result = invoke("all", *args)
        assert result.exit_code == 0, result.output
        assert "0 new answer(s), 420 already stored" in result.output
        assert (workspace / "answers" / "answers.jsonl").read_bytes() == \
            (GOLDEN / "answers.jsonl").read_bytes()


# The stages `all` runs, in order, when no references are configured.
ALL_ORDER = ["ingest", "ask", "categorize", "vote", "filter", "footprint", "report"]


def summary_stages(stdout: str) -> list[str]:
    return [line.split(":")[0] for line in stdout.splitlines()]


class TestAllOrder:
    def references_config(self, directory: Path, mapping: bool = True) -> Path:
        cat_path, vote_path = TestEvaluate().make_reference_files(directory)
        keys = {"reference_labels": str(cat_path), "voting_reference": str(vote_path)}
        if mapping:
            keys["cq_variable_mapping"] = {12: "Model architecture", 5: "Dataset"}
        return config_with(directory, **keys)

    def test_all_evaluates_when_references_are_configured(self, tmp_path, mini_corpus_dir):
        workspace = tmp_path / "ws"
        config = self.references_config(tmp_path)
        result = invoke("all", *base_args(workspace, config=config),
                        "--corpus", str(mini_corpus_dir))
        assert result.exit_code == 0, result.output
        assert summary_stages(result.stdout) == [*ALL_ORDER[:5], "evaluate", *ALL_ORDER[5:]]
        assert "evaluate: wrote categorical_agreement, reference_comparison\n" in result.stdout
        for name in ("categorical_agreement", "reference_comparison"):
            for suffix in (".csv", ".txt"):
                assert (workspace / "reports" / f"{name}{suffix}").is_file(), name

    def test_all_without_references_does_not_evaluate(self, tmp_path, mini_corpus_dir):
        workspace = tmp_path / "ws"
        result = invoke("all", *base_args(workspace), "--corpus", str(mini_corpus_dir))
        assert result.exit_code == 0, result.output
        assert summary_stages(result.stdout) == ALL_ORDER
        assert "evaluate:" not in result.output
        assert not (workspace / "reports" / "categorical_agreement.csv").exists()

    def test_a_noop_all_with_references_rewrites_no_file(
        self, tmp_path, mini_corpus_dir, monkeypatch
    ):
        workspace = tmp_path / "ws"
        args = [*base_args(workspace, config=self.references_config(tmp_path)),
                "--corpus", str(mini_corpus_dir)]
        first = invoke("all", *args)
        assert first.exit_code == 0, first.output
        files = sorted(path for path in workspace.rglob("*") if path.is_file())
        for path in files:
            os.utime(path, ns=(PAST_NS, PAST_NS))
        before = {path: path.read_bytes() for path in files}
        monkeypatch.setattr(RecordStore, "load", no_store_read)
        result = invoke("all", *args)
        assert result.exit_code == 0, result.output
        assert summary_stages(result.stdout) == summary_stages(first.stdout)
        assert "evaluate: wrote categorical_agreement, reference_comparison\n" in result.stdout
        assert sorted(path for path in workspace.rglob("*") if path.is_file()) == files
        for path in files:
            assert path.read_bytes() == before[path], path
            assert path.stat().st_mtime_ns == PAST_NS, path

    def test_a_failing_evaluate_stops_all(self, tmp_path, mini_corpus_dir):
        workspace = tmp_path / "ws"
        config = self.references_config(tmp_path, mapping=False)
        result = invoke("all", *base_args(workspace, config=config),
                        "--corpus", str(mini_corpus_dir))
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.splitlines()[-1] == (
            "Error: config key cq_variable_mapping is required for the voting comparison"
        )
        assert summary_stages(result.stdout) == ALL_ORDER[:5]
        assert not (workspace / "reports" / "footprint.csv").exists()


class Interrupted(Exception):
    """Stands in for a crash at one point of a store rewrite."""


class TestInterruptedRewrite:
    @pytest.mark.parametrize("point", ["write", "replace"])
    @pytest.mark.parametrize("stage, store, name, header", [
        ("ask", AnswerStore, "answers/answers.jsonl", 0),
        ("categorize", VerdictStore, "verdicts/verdicts.csv", 1),
    ])
    def test_an_interrupted_rewrite_keeps_every_record(
        self, finished, tmp_path, mini_corpus_dir, monkeypatch, point, stage, store, name, header
    ):
        workspace = tmp_path / "ws"
        shutil.copytree(finished[0], workspace)
        path = workspace / name
        # every record stored, but out of key order, so the stage rewrites the store
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:header] + lines[header:][::-1]))
        corpus = ["--corpus", str(mini_corpus_dir)]
        with monkeypatch.context() as patch:
            if point == "write":
                def replace_file(target, chunks, _replace_file=appendlog.replace_file):
                    def cut():
                        written = 0
                        for chunk in chunks:
                            if written >= 40:
                                raise Interrupted
                            written += chunk.count("\n")
                            yield chunk

                    _replace_file(target, cut() if Path(target) == path else chunks)

                # the rewrite stops once 40 lines have reached <name>.tmp
                patch.setattr(appendlog, "replace_file", replace_file)
            else:
                def replace(source, target, _replace=os.replace):
                    if Path(target) == path:
                        raise Interrupted
                    _replace(source, target)

                patch.setattr(os, "replace", replace)
            result = invoke(stage, *base_args(workspace), *(corpus if stage == "ask" else []))
        assert isinstance(result.exception, Interrupted), result.output
        golden = store(GOLDEN / path.name).load()
        assert sorted(store(path).load(), key=lambda record: record.key) == golden
        assert not path.with_name(path.name + ".tmp").exists()

        result = invoke("all", *base_args(workspace), *corpus)
        assert result.exit_code == 0, result.output
        assert "ask: 0 new answer(s), 420 already stored, 0 failed" in result.stdout
        assert "categorize: 0 new verdict(s), 420 already stored, 0 failed" in result.stdout
        for sub in ("answers/answers.jsonl", "verdicts/verdicts.csv", "votes/votes.csv",
                    "filters/filters.csv"):
            assert (workspace / sub).read_bytes() == golden_output(sub), sub


# What each skippable stage writes, relative to the workspace; every file has
# a committed golden.
STAGE_OUTPUTS = {
    "vote": ["votes/votes.csv"],
    "footprint": ["reports/footprint.csv", "reports/footprint.txt"],
    "report": [f"reports/{name}{suffix}" for name in ("coverage", "similarity", "iaa_pairs")
               for suffix in (".csv", ".txt")],
}
PAST_NS = 10**18  # a fixed past mtime shows a rewrite at any clock resolution


def golden_output(name: str) -> bytes:
    return (GOLDEN / (name if name.startswith("reports/") else Path(name).name)).read_bytes()


def flip_one_verdict(workspace: Path) -> bytes:
    """Turn the first Yes verdict into No; the store's bytes before."""
    path = workspace / "verdicts" / "verdicts.csv"
    data = path.read_bytes()
    yes = data.index(b",Yes\r\n")
    path.write_bytes(data[:yes] + b",No\r\n" + data[yes + len(b",Yes\r\n"):])
    return data


@pytest.fixture(scope="module")
def finished(tmp_path_factory, mini_corpus_dir):
    """A workspace after `all`, and each stage's summary line."""
    workspace = tmp_path_factory.mktemp("finished") / "ws"
    result = invoke("all", *base_args(workspace), "--corpus", str(mini_corpus_dir))
    assert result.exit_code == 0, result.output
    return workspace, {line.split(":")[0]: line for line in result.stdout.splitlines()}


@pytest.mark.parametrize("stage", sorted(STAGE_OUTPUTS))
class TestSkipUnchanged:
    def workspace(self, finished, tmp_path, stage) -> Path:
        """A copy of the finished workspace with the stage's outputs at PAST_NS."""
        workspace = tmp_path / "ws"
        shutil.copytree(finished[0], workspace)
        for name in STAGE_OUTPUTS[stage]:
            os.utime(workspace / name, ns=(PAST_NS, PAST_NS))
        return workspace

    def rerun(self, workspace, stage, config=None):
        result = invoke(stage, *base_args(workspace, config=config))
        assert result.exit_code == 0, result.output
        return result

    def assert_golden(self, workspace, stage, rewritten):
        for name in STAGE_OUTPUTS[stage]:
            assert (workspace / name).read_bytes() == golden_output(name), name
            assert ((workspace / name).stat().st_mtime_ns != PAST_NS) == rewritten, name

    def test_unchanged_rerun_reads_no_input_and_rewrites_nothing(
        self, finished, tmp_path, monkeypatch, stage
    ):
        workspace = self.workspace(finished, tmp_path, stage)

        def no_read(*args):
            raise AssertionError("an input was read")

        for store in (AnswerStore, VerdictStore, FilterStore):
            monkeypatch.setattr(store, "load", no_read)
        monkeypatch.setattr(TimingLog, "load_csv", classmethod(no_read))
        monkeypatch.setattr(RecordStore, "scan", no_read)
        monkeypatch.setattr(VoteStore, "load", no_read)
        result = self.rerun(workspace, stage)
        assert result.stdout == finished[1][stage] + "\n"
        self.assert_golden(workspace, stage, rewritten=False)

    @pytest.mark.parametrize("change", ["delete", "edit", "truncate record", "garbage record"])
    def test_a_missing_or_edited_file_is_regenerated(self, finished, tmp_path, stage, change):
        workspace = self.workspace(finished, tmp_path, stage)
        output = workspace / STAGE_OUTPUTS[stage][-1]
        record = workspace / "logs" / f"{stage}.digest.json"
        if change == "delete":
            output.unlink()
        elif change == "edit":
            output.write_bytes(output.read_bytes() + b"edited\n")
            os.utime(output, ns=(PAST_NS, PAST_NS))
        elif change == "truncate record":
            record.write_bytes(record.read_bytes()[:40])
        else:
            record.write_bytes(b"\xff\x00 not json")
        result = self.rerun(workspace, stage)
        assert result.stdout == finished[1][stage] + "\n"
        self.assert_golden(workspace, stage, rewritten=True)

    def test_a_changed_config_recomputes(self, finished, tmp_path, stage):
        workspace = self.workspace(finished, tmp_path, stage)
        # five voters never tie, so the outputs stay golden but are rewritten
        self.rerun(workspace, stage, config=config_with(tmp_path, tie_rule="yes"))
        self.assert_golden(workspace, stage, rewritten=True)

    def test_an_edited_question_list_recomputes(self, finished, tmp_path, monkeypatch, stage):
        workspace = self.workspace(finished, tmp_path, stage)
        package = tmp_path / "litrag"
        shutil.copytree(cli.PACKAGE_DIR, package, ignore=shutil.ignore_patterns("__pycache__"))
        with open(package / "data" / "competency_questions.txt", "a", encoding="utf-8") as fh:
            fh.write("29\tAn added question?\n")
        monkeypatch.setattr(cli, "PACKAGE_DIR", package)
        self.rerun(workspace, stage)
        self.assert_golden(workspace, stage, rewritten=True)

    def test_a_flipped_verdict_recomputes_what_reads_verdicts(self, finished, tmp_path, stage):
        workspace = self.workspace(finished, tmp_path, stage)
        verdicts = flip_one_verdict(workspace)
        self.rerun(workspace, stage)
        if stage == "footprint":
            self.assert_golden(workspace, stage, rewritten=False)
            return
        # what the stage writes on the flipped store with no record to trust
        fresh = tmp_path / "fresh"
        shutil.copytree(workspace, fresh)
        for name in STAGE_OUTPUTS[stage] + [f"logs/{stage}.digest.json"]:
            (fresh / name).unlink()
        self.rerun(fresh, stage)
        produced = [(workspace / name).read_bytes() for name in STAGE_OUTPUTS[stage]]
        assert produced == [(fresh / name).read_bytes() for name in STAGE_OUTPUTS[stage]]
        assert produced != [golden_output(name) for name in STAGE_OUTPUTS[stage]]

        (workspace / "verdicts" / "verdicts.csv").write_bytes(verdicts)
        self.rerun(workspace, stage)
        self.assert_golden(workspace, stage, rewritten=True)

    def test_a_record_left_by_a_crash_before_it_was_written(self, finished, tmp_path, stage):
        workspace = self.workspace(finished, tmp_path, stage)
        record = workspace / "logs" / f"{stage}.digest.json"
        old_record = record.read_bytes()
        # a run on other inputs writes its outputs, then dies before its record
        if stage == "footprint":
            changed = workspace / "logs" / "timing.csv"
            old_input = changed.read_bytes()
            changed.write_bytes(b"".join(old_input.splitlines(keepends=True)[:100]))
        else:
            changed, old_input = workspace / "verdicts" / "verdicts.csv", flip_one_verdict(workspace)
        self.rerun(workspace, stage)
        assert any((workspace / name).read_bytes() != golden_output(name)
                   for name in STAGE_OUTPUTS[stage])
        record.write_bytes(old_record)
        # back on the recorded inputs, the outputs no longer match the record
        changed.write_bytes(old_input)
        self.rerun(workspace, stage)
        self.assert_golden(workspace, stage, rewritten=True)


def test_all_after_a_resume_reproduces_the_goldens(tmp_path, finished, mini_corpus_dir):
    workspace = tmp_path / "ws"
    shutil.copytree(finished[0], workspace)
    for name in STAGE_OUTPUTS["vote"] + STAGE_OUTPUTS["report"]:
        os.utime(workspace / name, ns=(PAST_NS, PAST_NS))
    for store, header in (("answers/answers.jsonl", 0), ("verdicts/verdicts.csv", 1)):
        lines = (workspace / store).read_bytes().splitlines(keepends=True)
        (workspace / store).write_bytes(b"".join(lines[:header] + lines[header::7]))
    result = invoke("all", *base_args(workspace), "--corpus", str(mini_corpus_dir))
    assert result.exit_code == 0, result.output
    assert "categorize: 360 new verdict(s)" in result.output
    for name in STAGE_OUTPUTS["vote"] + STAGE_OUTPUTS["footprint"] + STAGE_OUTPUTS["report"]:
        assert (workspace / name).read_bytes() == golden_output(name), name
    # the resumed stores are byte-identical again, so vote and report skipped
    for name in STAGE_OUTPUTS["vote"] + STAGE_OUTPUTS["report"]:
        assert (workspace / name).stat().st_mtime_ns == PAST_NS, name


def test_an_interrupted_report_keeps_the_previous_tables(
    finished, tmp_path, monkeypatch
):
    workspace = tmp_path / "ws"
    shutil.copytree(finished[0], workspace)
    flip_one_verdict(workspace)  # so the report runs and would write other tables

    def replace(source, target):
        raise Interrupted

    monkeypatch.setattr(os, "replace", replace)
    result = invoke("report", *base_args(workspace))
    assert isinstance(result.exception, Interrupted), result.output
    for name in STAGE_OUTPUTS["report"]:
        assert (workspace / name).read_bytes() == golden_output(name), name
    assert not list((workspace / "reports").glob("*.tmp"))


def test_every_required_file_is_written_by_an_earlier_stage():
    order = [stage.name for stage in cli.STAGES]
    for stage in cli.STAGES:
        for path, writer in stage.requires:
            assert order.index(writer) < order.index(stage.name), (stage.name, path)


def test_all_records_a_digest_for_exactly_the_stages_with_outputs(finished):
    recorded = sorted(path.name for path in (finished[0] / "logs").glob("*.digest.json"))
    assert all(stage.outputs for stage in cli.STAGES)
    # the stages `all` runs without references
    assert recorded == sorted(f"{name}.digest.json" for name in ALL_ORDER)
    assert len(recorded) == 7


# The store each stage that sends requests fills, relative to the workspace,
# and the line it prints on the finished workspace.
REQUEST_STORES = {
    "ask": ("answers/answers.jsonl", "ask: 0 new answer(s), 420 already stored, 0 failed"),
    "categorize": ("verdicts/verdicts.csv",
                   "categorize: 0 new verdict(s), 420 already stored, 0 failed"),
    "filter": ("filters/filters.csv", "filter: 0 new verdict(s), 3 already stored, 0 failed"),
}
# categorize reads answers, not the corpus
CORPUS_CHANGES = ("edited text", "new text for a skipped citation", "edited bibliography")
REQUEST_CHANGES = [
    (stage, change)
    for stage in REQUEST_STORES
    for change in (*CORPUS_CHANGES, "added mock reply", "edited mock reply", "changed config",
                   "changed endpoints", "deleted store", "edited store", "garbage record")
    if change != "changed endpoints" or stage == "ask"  # only ask takes --endpoints
]


def no_store_read(self):
    raise AssertionError("a store was read")


class TestSkipUnchangedRequests:
    """ask, categorize and filter skip on unchanged inputs and stores. Their
    first run prints other counts than a rerun, hence a class of their own."""

    def copies(self, finished, tmp_path) -> tuple[Path, Path, Path]:
        """Copies of the finished workspace, the corpus and the mock replies."""
        workspace, corpus, mock = tmp_path / "ws", tmp_path / "corpus", tmp_path / "mock"
        shutil.copytree(finished[0], workspace)
        shutil.copytree(FIXTURES / "mini_corpus", corpus)
        shutil.copytree(FIXTURES / "mock_responses", mock)
        return workspace, corpus, mock

    def invoke(self, stage, workspace, corpus, mock, *extra, config=None):
        args = [stage, "--config", str(config or FIXTURES / "config.yaml"),
                "--workspace", str(workspace), "--mock", str(mock)]
        if stage != "categorize":
            args += ["--corpus", str(corpus)]
        return invoke(*args, *extra)

    def assert_golden(self, workspace, stage):
        name = REQUEST_STORES[stage][0]
        assert (workspace / name).read_bytes() == (GOLDEN / Path(name).name).read_bytes(), name

    @pytest.mark.parametrize("stage", sorted(REQUEST_STORES))
    def test_unchanged_rerun_reads_no_store_and_rewrites_nothing(
        self, finished, tmp_path, monkeypatch, stage
    ):
        workspace, corpus, mock = self.copies(finished, tmp_path)
        store = workspace / REQUEST_STORES[stage][0]
        os.utime(store, ns=(PAST_NS, PAST_NS))
        # the line the body prints on these inputs, with no record to trust
        fresh = tmp_path / "fresh"
        shutil.copytree(workspace, fresh)
        (fresh / "logs" / f"{stage}.digest.json").unlink()
        body = self.invoke(stage, fresh, corpus, mock)
        assert body.stdout == REQUEST_STORES[stage][1] + "\n"

        monkeypatch.setattr(RecordStore, "load", no_store_read)
        result = self.invoke(stage, workspace, corpus, mock)
        assert result.exit_code == 0, result.output
        assert result.stdout == body.stdout
        self.assert_golden(workspace, stage)
        assert store.stat().st_mtime_ns == PAST_NS

    @pytest.mark.parametrize("stage,change", REQUEST_CHANGES)
    def test_a_change_runs_the_stage(self, finished, tmp_path, monkeypatch, stage, change):
        workspace, corpus, mock = self.copies(finished, tmp_path)
        store = workspace / REQUEST_STORES[stage][0]
        config, extra = None, []
        if change == "edited text":
            with open(corpus / "10.5555_eco.0001.txt", "a", encoding="utf-8") as fh:
                fh.write("An added closing sentence.\n")
        elif change == "new text for a skipped citation":
            text = corpus / "10.5555_eco.0002.txt"
            held = text.read_bytes()
            text.unlink()
            # the record of a run on the corpus that lacks the text
            assert self.invoke(stage, workspace, corpus, mock).exit_code == 0
            text.write_bytes(held)
        elif change == "edited bibliography":
            bib = corpus / "bibliography.bib"
            bib.write_text(bib.read_text(encoding="utf-8").replace(
                "Seasonal water chemistry", "Seasonal ice and water chemistry"), encoding="utf-8")
        elif change == "added mock reply":
            (mock / f"{'0' * 64}.txt").write_text("An unused reply.", encoding="utf-8")
        elif change == "edited mock reply":
            reply = sorted(mock.glob("*.txt"))[0]
            reply.write_bytes(reply.read_bytes() + b"\n")
        elif change == "changed config":
            config = config_with(tmp_path, tie_rule="yes")
        elif change == "changed endpoints":
            extra = ["--endpoints", "Llama 3 70B,Gemma 2 9B"]
        elif change == "deleted store":
            store.unlink()
        elif change == "edited store":
            store.write_bytes(b"".join(store.read_bytes().splitlines(keepends=True)[:-1]))
        else:
            (workspace / "logs" / f"{stage}.digest.json").write_bytes(b"\xff\x00 not json")

        loads = []
        load = RecordStore.load
        with monkeypatch.context() as patch:
            patch.setattr(RecordStore, "load", lambda self: loads.append(self) or load(self))
            result = self.invoke(stage, workspace, corpus, mock, *extra, config=config)
        assert result.exit_code == 0, result.output
        assert bool(loads) == (stage != "categorize" or change not in CORPUS_CHANGES)
        self.assert_golden(workspace, stage)
        # the run left a record that the next one trusts
        monkeypatch.setattr(RecordStore, "load", no_store_read)
        rerun = self.invoke(stage, workspace, corpus, mock, *extra, config=config)
        assert rerun.exit_code == 0, rerun.output
        assert " 0 new " in rerun.stdout

    @pytest.mark.parametrize("stage", sorted(REQUEST_STORES))
    def test_a_run_that_stores_nothing_rewrites_no_store(
        self, finished, tmp_path, monkeypatch, stage
    ):
        workspace, corpus, mock = self.copies(finished, tmp_path)
        store = workspace / REQUEST_STORES[stage][0]
        os.utime(store, ns=(PAST_NS, PAST_NS))
        # a config change that no record depends on
        config = config_with(tmp_path, tree_month_constant=1.0)
        loads = []
        load = RecordStore.load
        monkeypatch.setattr(RecordStore, "load", lambda self: loads.append(self) or load(self))
        result = self.invoke(stage, workspace, corpus, mock, config=config)
        assert result.exit_code == 0, result.output
        assert result.stdout == REQUEST_STORES[stage][1] + "\n"
        # the stage ran, and parsed its store once: its canonicalization reads nothing
        assert [loaded.path for loaded in loads].count(store) == 1
        self.assert_golden(workspace, stage)
        assert store.stat().st_mtime_ns == PAST_NS

    def test_no_resume_refills_the_answer_store(self, finished, tmp_path):
        workspace, corpus, mock = self.copies(finished, tmp_path)
        result = self.invoke("ask", workspace, corpus, mock, "--no-resume")
        assert result.exit_code == 0, result.output
        assert result.stdout == "ask: 420 new answer(s), 0 already stored, 0 failed\n"
        self.assert_golden(workspace, "ask")
        result = self.invoke("categorize", workspace, corpus, mock)
        assert result.stdout == "categorize: 420 new verdict(s), 0 already stored, 0 failed\n"
        self.assert_golden(workspace, "categorize")


class TestIngest:
    def test_citations_and_skip_report(self, tmp_path, mini_corpus_dir):
        workspace = tmp_path / "ws"
        result = invoke("ingest", *base_args(workspace), "--corpus", str(mini_corpus_dir))
        assert result.exit_code == 0, result.output
        citations = csv_rows(workspace / "corpus" / "citations.csv")
        assert [c["doi"] for c in citations] == [
            "10.5555/eco.0001", "10.5555/eco.0002", "10.5555/eco.0003",
        ]
        skip = (workspace / "corpus" / "skip_report.csv").read_text(encoding="utf-8")
        assert skip.strip() == "doi,reason"

    @pytest.mark.parametrize("stage", ["ingest", "ask", "filter"])
    def test_corpus_without_bibliography_is_an_error(self, tmp_path, stage):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "10.1_a.txt").write_text("some words", encoding="utf-8")
        result = invoke(stage, *base_args(tmp_path / "ws"), "--corpus", str(corpus))
        assert result.exit_code == 1
        assert "Error: no bibliography in" in result.output
        assert isinstance(result.exception, SystemExit)  # no traceback

    @pytest.mark.parametrize("stage", ["ingest", "ask", "filter"])
    def test_only_ingest_reports_skipped_citations(self, tmp_path, mini_corpus_dir, caplog, stage):
        corpus = tmp_path / "corpus"
        shutil.copytree(mini_corpus_dir, corpus)
        (corpus / "10.5555_eco.0002.txt").unlink()
        result = invoke(stage, *base_args(tmp_path / "ws"), "--corpus", str(corpus))
        assert result.exit_code == 0, result.output
        skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert skipped == (
            ["skipped 10.5555/eco.0002: no full-text file"] if stage == "ingest" else []
        )

    def test_parse_errors_are_reported_with_their_byte_offset(self, tmp_path, mini_corpus_dir):
        corpus = tmp_path / "corpus"
        shutil.copytree(mini_corpus_dir, corpus)
        bib = corpus / "bibliography.bib"
        # the comment's two-byte characters make the byte offset differ from
        # the character offset
        head = bib.read_bytes() + "\n% Müller & Grün, draft\n".encode("utf-8")
        bib.write_bytes(head + b"@article{broken2024,\n  doi = {10.5555/eco.0004\n")
        workspace = tmp_path / "ws"
        result = invoke("ingest", *base_args(workspace), "--corpus", str(corpus))
        assert result.exit_code == 0, result.output
        assert result.stdout == "ingest: 3 publication(s), 0 skipped, 1 parse error(s)\n"
        assert result.stderr == (
            f"bibliography.bib: byte {len(head)}: unbalanced braces in @article entry\n"
        )
        skip = (workspace / "corpus" / "skip_report.csv").read_text(encoding="utf-8")
        assert skip.strip() == "doi,reason"

    def test_a_skipped_rerun_still_reports_the_bibliography_problems(
        self, tmp_path, mini_corpus_dir, caplog
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(mini_corpus_dir, corpus)
        (corpus / "10.5555_eco.0002.txt").unlink()
        with open(corpus / "bibliography.bib", "a", encoding="utf-8") as fh:
            fh.write("@article{broken2024,\n  doi = {10.5555/eco.0004\n")
        workspace = tmp_path / "ws"
        args = [*base_args(workspace), "--corpus", str(corpus)]
        first = invoke("ingest", *args)
        assert first.exit_code == 0, first.output
        assert "unbalanced braces" in first.stderr
        tables = [workspace / "corpus" / name for name in ("citations.csv", "skip_report.csv")]
        for table in tables:
            os.utime(table, ns=(PAST_NS, PAST_NS))
        caplog.clear()
        rerun = invoke("ingest", *args)
        assert rerun.exit_code == 0, rerun.output
        assert (rerun.stdout, rerun.stderr) == (first.stdout, first.stderr)
        assert [r.getMessage() for r in caplog.records] == [
            "skipped 10.5555/eco.0002: no full-text file"
        ]
        assert all(table.stat().st_mtime_ns == PAST_NS for table in tables)

    def test_a_text_that_goes_from_missing_to_empty_updates_the_skip_report(
        self, tmp_path, mini_corpus_dir
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(mini_corpus_dir, corpus)
        text = corpus / "10.5555_eco.0002.txt"
        text.unlink()
        workspace = tmp_path / "ws"
        args = [*base_args(workspace), "--corpus", str(corpus)]
        skip_report = workspace / "corpus" / "skip_report.csv"
        assert invoke("ingest", *args).exit_code == 0
        assert skip_report.read_text(encoding="utf-8").splitlines()[1:] == [
            "10.5555/eco.0002,no full-text file"
        ]
        text.write_text("", encoding="utf-8")
        result = invoke("ingest", *args)
        assert result.exit_code == 0, result.output
        assert skip_report.read_text(encoding="utf-8").splitlines()[1:] == [
            "10.5555/eco.0002,empty full text"
        ]

    def test_an_entry_without_a_doi_is_reported_with_its_byte_offset(
        self, tmp_path, mini_corpus_dir
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(mini_corpus_dir, corpus)
        bib = corpus / "bibliography.bib"
        head = bib.read_bytes() + "\n% Müller & Grün, draft\n".encode("utf-8")
        entry = b"@article{nodoi2020,\n  title = {No identifier},\n  year = {2020}\n}\n"
        # a broken entry after it: the lines follow the file's order
        bib.write_bytes(head + entry + b"@article{broken2024,\n  doi = {10.5555/eco.0004\n")
        workspace = tmp_path / "ws"
        result = invoke("ingest", *base_args(workspace), "--corpus", str(corpus))
        assert result.exit_code == 0, result.output
        assert result.stdout == "ingest: 3 publication(s), 0 skipped, 1 parse error(s)\n"
        assert result.stderr == (
            f"bibliography.bib: byte {len(head)}: entry nodoi2020 has no DOI\n"
            f"bibliography.bib: byte {len(head) + len(entry)}: "
            "unbalanced braces in @article entry\n"
        )
        skip = (workspace / "corpus" / "skip_report.csv").read_text(encoding="utf-8")
        assert skip.strip() == "doi,reason"


@pytest.mark.parametrize("stage", ["ingest", "ask", "vote"])
@pytest.mark.parametrize("kind", ["missing", "file"])
def test_a_mock_directory_that_does_not_exist_is_a_usage_error(
    tmp_path, mini_corpus_dir, stage, kind
):
    mock = tmp_path / "no" / "such" / "dir"
    if kind == "file":
        mock = tmp_path / "replies.txt"
        mock.write_text("a file, not a directory", encoding="utf-8")
    corpus = ["--corpus", str(mini_corpus_dir)] if stage != "vote" else []
    workspace = tmp_path / "ws"
    result = invoke(stage, "--config", str(FIXTURES / "config.yaml"),
                    "--workspace", str(workspace), "--mock", str(mock), *corpus)
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--mock'" in result.stderr
    assert str(mock) in result.stderr
    assert not workspace.exists()


def test_mock_stage_never_imports_requests(tmp_path, mini_corpus_dir):
    # the pytest process has imported requests already, so look in a fresh one
    code = (
        "import sys\n"
        "from litrag.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
        "print('requests' in sys.modules)\n"
        "from litrag.gateway import HttpBackend\n"
        "HttpBackend()\n"
        "print('requests' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "ask", *base_args(tmp_path / "ws"),
         "--corpus", str(mini_corpus_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ask: 420 new answer(s), 0 already stored, 0 failed", "False", "True",
    ]


# The first help line and the options, in order, of `litrag` ("main") and of
# each subcommand: an option's name and its default, or REQUIRED.
REQUIRED = "required"
SHARED_OPTIONS = [("--mock", None), ("--workspace", "workspace"), ("--config", None)]
CORPUS_OPTION = ("--corpus", REQUIRED)
CLI_SURFACE = {
    "main": ("Extract deep-learning methodology reporting from a publication corpus",
             [("--verbose", False)]),
    "ingest": ("Parse the bibliography, attach full texts, write the skip report.",
               [*SHARED_OPTIONS, CORPUS_OPTION, ("--fetch-command", None)]),
    "keywords": ("Harvest keywords from abstracts, consolidate them, and report",
                 [*SHARED_OPTIONS, ("--abstracts", REQUIRED), ("--endpoint", None)]),
    "ask": ("Answer every question for every publication on every endpoint.",
            [*SHARED_OPTIONS, CORPUS_OPTION, ("--endpoints", None),
             ("--resume/--no-resume", True)]),
    "categorize": ("Convert stored textual answers into Yes/No verdicts.", SHARED_OPTIONS),
    "vote": ("Aggregate per-endpoint verdicts with a hard majority vote.", SHARED_OPTIONS),
    "filter": ("Judge which publications actually describe a deep-learning study.",
               [*SHARED_OPTIONS, CORPUS_OPTION]),
    "evaluate": ("Compare verdicts and vote decisions against human reference labels.",
                 [*SHARED_OPTIONS, ("--reference", None), ("--voting-reference", None)]),
    "footprint": ("Estimate energy, carbon, and tree-months from the timing log.",
                  SHARED_OPTIONS),
    "report": ("Write the coverage, similarity, and pairwise-agreement tables.", SHARED_OPTIONS),
    "all": ("Run ingest, ask, categorize, vote, filter, evaluate (when references",
            [*SHARED_OPTIONS, CORPUS_OPTION, ("--endpoints", None)]),
}


def test_cli_has_exactly_the_listed_subcommands():
    assert sorted(main.commands) == sorted(name for name in CLI_SURFACE if name != "main")


@pytest.mark.parametrize("name", list(CLI_SURFACE))
def test_cli_surface(name):
    command = main if name == "main" else main.commands[name]
    help_line, options = CLI_SURFACE[name]
    assert command.help.splitlines()[0] == help_line
    assert [
        ("/".join(p.opts + p.secondary_opts), REQUIRED if p.required else p.default)
        for p in command.params
    ] == options
