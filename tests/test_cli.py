import csv
import shutil
import threading
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from litrag import cli, prompts
from litrag.cli import main
from litrag.config import load_config
from litrag.corpus import load_corpus
from litrag.extraction import AnswerStore, load_competency_questions
from litrag.gateway import ChatRequest, MockBackend, TimingLog
from litrag.retrieval import retrieve_context
from litrag.voting import VerdictStore
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
        rows = list(csv.DictReader(open(workspace / "verdicts" / "verdicts.csv")))
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
        rows = list(csv.DictReader(open(workspace / "votes" / "votes.csv")))
        assert len(rows) == 4
        assert all(row["decision"] == "Yes" for row in rows)
        assert all(row["yes_count"] == "5" for row in rows)

    def test_missing_verdicts_names_prior_stage(self, tmp_path):
        result = invoke("vote", *base_args(tmp_path / "ws"))
        assert result.exit_code != 0
        assert "categorize" in result.output


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

    def test_report_requires_votes(self, tmp_path):
        result = invoke("report", *base_args(tmp_path / "ws"))
        assert result.exit_code != 0
        assert "vote" in result.output


class TestEvaluate:
    def make_reference_files(self, directory: Path):
        votes = list(csv.DictReader(open(GOLDEN / "votes.csv")))
        decisions = {(r["doi"], int(r["cq_id"])): r["decision"] for r in votes}
        verdicts = list(csv.DictReader(open(GOLDEN / "verdicts.csv")))
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

    def test_evaluate_without_references_fails(self, tmp_path):
        workspace = golden_workspace(tmp_path / "ws")
        result = invoke("evaluate", *base_args(workspace))
        assert result.exit_code != 0


class TestFootprint:
    def test_report_from_timing_log(self, tmp_path):
        from conftest import build_timing_fixture

        workspace = tmp_path / "ws"
        (workspace / "logs").mkdir(parents=True)
        build_timing_fixture().append_csv(workspace / "logs" / "timing.csv")
        result = invoke("footprint", *base_args(workspace))
        assert result.exit_code == 0, result.output
        rows = {r["stage"]: r for r in
                csv.DictReader(open(workspace / "reports" / "footprint.csv"))}
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
    with open(workspace / "logs" / "timing.csv", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


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

        def no_load(cls, path):
            raise AssertionError("the timing log was read")

        monkeypatch.setattr(TimingLog, "load_csv", classmethod(no_load))
        for stage, extra in (("ask", corpus), ("categorize", []), ("filter", corpus)):
            result = invoke(stage, *args, *extra)
            assert result.exit_code == 0, (stage, result.output)
        assert timing.read_bytes() == before

    def test_no_worker_thread_writes_a_file(self, tmp_path, mini_corpus_dir, monkeypatch):
        writers = []
        for owner, name in ((AnswerStore, "append"), (VerdictStore, "append"),
                            (TimingLog, "append_csv")):
            def record(self, *args, _write=getattr(owner, name)):
                writers.append(threading.current_thread())
                return _write(self, *args)

            monkeypatch.setattr(owner, name, record)
        result = invoke("all", *base_args(tmp_path / "ws"), "--corpus", str(mini_corpus_dir))
        assert result.exit_code == 0, result.output
        assert len(writers) == 420 + 420 + 3
        assert set(writers) == {threading.current_thread()}


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

    def test_all_rerun_is_noop(self, tmp_path, mini_corpus_dir):
        workspace = tmp_path / "ws"
        args = base_args(workspace) + ["--corpus", str(mini_corpus_dir)]
        invoke("all", *args)
        result = invoke("all", *args)
        assert result.exit_code == 0, result.output
        assert "0 new answer(s), 420 already stored" in result.output
        assert (workspace / "answers" / "answers.jsonl").read_bytes() == \
            (GOLDEN / "answers.jsonl").read_bytes()


class TestIngest:
    def test_citations_and_skip_report(self, tmp_path, mini_corpus_dir):
        workspace = tmp_path / "ws"
        result = invoke("ingest", *base_args(workspace), "--corpus", str(mini_corpus_dir))
        assert result.exit_code == 0, result.output
        citations = list(csv.DictReader(open(workspace / "corpus" / "citations.csv")))
        assert [c["doi"] for c in citations] == [
            "10.5555/eco.0001", "10.5555/eco.0002", "10.5555/eco.0003",
        ]
        skip = (workspace / "corpus" / "skip_report.csv").read_text(encoding="utf-8")
        assert skip.strip() == "doi,reason"
