import json
import threading

import pytest

from litrag import prompts, textsim
from litrag.corpus import CitationRecord, PublicationRecord
from litrag.extraction import (
    AnswerStore,
    CompetencyQuestion,
    TextualAnswer,
    answer_cq,
    load_competency_questions,
    run_matrix,
    strip_answer_markers,
)
from litrag.gateway import ChatRequest, LlmGateway, MockBackend, ModelEndpoint
from litrag.retrieval import ChunkingConfig, retrieve_context


def make_pub(doi="10.1/a", text="A convolutional network was trained on labelled images."):
    return PublicationRecord(citation=CitationRecord(doi=doi), full_text=text)


def make_gateway(canned=None, fail_first=None):
    return LlmGateway(
        MockBackend(canned=canned, fail_first=fail_first), sleep=lambda s: None
    )


class TestStripAnswerMarkers:
    def test_helpful_answer_marker(self):
        assert strip_answer_markers("Helpful Answer:: The model uses CNN.") == "The model uses CNN."

    def test_no_markers_identity(self):
        assert strip_answer_markers("no markers here") == "no markers here"

    def test_final_marker_wins(self):
        assert strip_answer_markers("Answer:: a Answer:: b") == "b"

    def test_mixed_markers_final_wins(self):
        assert strip_answer_markers("Answer:: early Helpful Answer:: late") == "late"

    def test_idempotent(self):
        for text in ["Answer:: x", "Helpful Answer:: y Answer:: z", "plain", "  padded  "]:
            once = strip_answer_markers(text)
            assert strip_answer_markers(once) == once

    def test_clean_text_never_contains_marker(self):
        cleaned = strip_answer_markers("Helpful Answer:: Helpful Answer:: tail")
        assert "Helpful Answer::" not in cleaned


class TestCompetencyQuestions:
    def test_packaged_list(self):
        questions = load_competency_questions()
        assert [q.id for q in questions] == list(range(1, 29))
        assert questions[0].text.startswith("What methods are utilized for collecting raw data")
        assert questions[24].text.startswith("What is the purpose of the deep learning model")

    def test_non_contiguous_ids_rejected(self, tmp_path):
        path = tmp_path / "cqs.txt"
        path.write_text("1\tq one\n3\tq three\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_competency_questions(path)


class TestAnswerCq:
    CONFIG = ChunkingConfig(chunk_size=50, overlap=10)

    def context(self, pub, cq, budget=1200):
        return retrieve_context(pub.full_text, cq.text, self.CONFIG, budget,
                                doc_id=pub.citation.doi).text

    def test_mock_answer_stored_clean(self):
        pub = make_pub()
        cq = CompetencyQuestion(id=1, text="What data formats are used?")
        endpoint = ModelEndpoint(name="M")
        # compute the exact prompt so a canned response can be registered
        context = self.context(pub, cq)
        prompt = prompts.render("cq-answering", {"query": cq.text, "context": context})
        request = ChatRequest.create(endpoint, prompt)
        gateway = make_gateway(canned={request.request_id: "Helpful Answer:: Images."})
        answer = answer_cq(pub, cq, endpoint, context, gateway)
        assert answer.clean_text == "Images."
        assert answer.duration_ms >= 0

    def test_budget_zero_still_prompts(self):
        pub = make_pub()
        cq = CompetencyQuestion(id=2, text="Where is the code?")
        gateway = make_gateway()
        answer = answer_cq(pub, cq, ModelEndpoint(name="M"), self.context(pub, cq, budget=0),
                           gateway)
        assert answer.clean_text  # the default mock still answers

    def test_empty_publication_rejected(self, tmp_path):
        pub = PublicationRecord(citation=CitationRecord(doi="10.1/e"), full_text="  ")
        cq = CompetencyQuestion(id=1, text="q")
        with pytest.raises(ValueError):
            run_matrix([pub], [cq], [ModelEndpoint(name="M")], make_gateway(),
                       AnswerStore(tmp_path / "answers.jsonl"), self.CONFIG)

    def test_rag_stage_logged(self):
        pub = make_pub()
        cq = CompetencyQuestion(id=1, text="q")
        gateway = make_gateway()
        answer_cq(pub, cq, ModelEndpoint(name="M"), self.context(pub, cq), gateway)
        assert gateway.timing_log.entries()[0].stage == "rag"


class TestAnswerStore:
    def test_append_load_roundtrip(self, tmp_path):
        store = AnswerStore(tmp_path / "answers.jsonl")
        store.append(TextualAnswer("10.1/a", 1, "M", "clean", 5))
        records = store.load()  # each record is flushed as it is appended
        store.close()
        assert records == [TextualAnswer("10.1/a", 1, "M", "clean", 5)]

    def test_canonicalize_sorts_by_key(self, tmp_path):
        store = AnswerStore(tmp_path / "answers.jsonl")
        store.append(TextualAnswer("10.1/b", 2, "M", "two", 1))
        store.append(TextualAnswer("10.1/a", 1, "Z", "one-z", 1))
        store.append(TextualAnswer("10.1/a", 1, "A", "one-a", 1))
        store.canonicalize()
        keys = [r.key for r in store.load()]
        assert keys == sorted(keys)

    def test_canonical_file_is_stable_json(self, tmp_path):
        store = AnswerStore(tmp_path / "answers.jsonl")
        store.append(TextualAnswer("10.1/a", 1, "M", "text", 7))
        store.canonicalize()
        line = (tmp_path / "answers.jsonl").read_text(encoding="utf-8").strip()
        assert json.loads(line) == {
            "doi": "10.1/a", "cq_id": 1, "endpoint": "M", "clean_text": "text",
            "duration_ms": 7,
        }

    def test_malformed_line_before_the_last_raises(self, tmp_path):
        store = AnswerStore(tmp_path / "answers.jsonl")
        store.append(TextualAnswer("10.1/a", 1, "M", "one", 1))
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"doi": "10.1/b", "cq\n')
        store.append(TextualAnswer("10.1/c", 1, "M", "three", 1))
        store.close()
        with pytest.raises(json.JSONDecodeError):
            store.load()


class TestRunMatrix:
    CONFIG = ChunkingConfig(chunk_size=50, overlap=10)

    def pubs(self, n=3):
        texts = [
            "A convolutional model was trained on images with augmentation.",
            "A transformer was fine tuned for segmentation of drone imagery.",
            "Classical statistics only, with no learned model in this study.",
        ]
        return [make_pub(doi=f"10.1/p{i}", text=texts[i % 3]) for i in range(n)]

    def questions(self, n=28):
        return [CompetencyQuestion(id=i + 1, text=f"Question number {i + 1}?") for i in range(n)]

    def endpoints(self, n=5):
        return [ModelEndpoint(name=f"Model {i}") for i in range(n)]

    def test_full_matrix_420_answers(self, tmp_path):
        store = AnswerStore(tmp_path / "answers.jsonl")
        result = run_matrix(
            self.pubs(3), self.questions(28), self.endpoints(5), make_gateway(),
            store, self.CONFIG, parallelism=4,
        )
        assert result.completed == 420
        assert result.is_complete
        assert len(store.load()) == 420

    def test_minimal_matrix(self, tmp_path):
        store = AnswerStore(tmp_path / "answers.jsonl")
        result = run_matrix(
            self.pubs(1), self.questions(1), self.endpoints(1), make_gateway(),
            store, self.CONFIG, parallelism=1,
        )
        assert result.completed == 1
        assert len(store.load()) == 1

    def test_rerun_is_noop(self, tmp_path):
        store = AnswerStore(tmp_path / "answers.jsonl")
        run_matrix(self.pubs(2), self.questions(3), self.endpoints(2), make_gateway(),
                   store, self.CONFIG, parallelism=2)
        before = (tmp_path / "answers.jsonl").read_bytes()
        result = run_matrix(self.pubs(2), self.questions(3), self.endpoints(2),
                            make_gateway(), store, self.CONFIG, parallelism=2)
        assert result.completed == 0
        assert result.skipped == 12
        assert (tmp_path / "answers.jsonl").read_bytes() == before

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        pubs, questions, endpoints = self.pubs(2), self.questions(4), self.endpoints(3)
        full_store = AnswerStore(tmp_path / "full.jsonl")
        run_matrix(pubs, questions, endpoints, make_gateway(), full_store,
                   self.CONFIG, parallelism=1)
        # interrupted run: only a prefix of the work got stored
        partial_store = AnswerStore(tmp_path / "partial.jsonl")
        run_matrix(pubs[:1], questions[:2], endpoints[:2], make_gateway(), partial_store,
                   self.CONFIG, parallelism=1)
        run_matrix(pubs, questions, endpoints, make_gateway(), partial_store,
                   self.CONFIG, parallelism=4)
        assert (tmp_path / "partial.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()

    def test_store_bytes_independent_of_parallelism(self, tmp_path):
        blobs = []
        for parallelism in (1, 4, 16):
            store = AnswerStore(tmp_path / f"answers_{parallelism}.jsonl")
            run_matrix(self.pubs(3), self.questions(6), self.endpoints(3), make_gateway(),
                       store, self.CONFIG, parallelism=parallelism)
            blobs.append(store.path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_end_of_run_retry_recovers_single_failure(self, tmp_path):
        pubs, questions, endpoints = self.pubs(1), self.questions(2), self.endpoints(1)
        # find the request id for one work item, then make it fail through
        # the first pass (3 attempts) and succeed on the end-of-run retry
        probe_store = AnswerStore(tmp_path / "probe.jsonl")
        probe_gateway = make_gateway()
        run_matrix(pubs, questions, endpoints, probe_gateway, probe_store, self.CONFIG,
                   parallelism=1)
        request_ids = {
            e.unique_id for e in probe_gateway.timing_log.entries()
        }
        assert len(request_ids) == 2
        # fail one concrete prompt: recompute its request id via a fresh probe
        from litrag.retrieval import retrieve_context

        context = retrieve_context(pubs[0].full_text, questions[0].text, self.CONFIG, 1200,
                                   doc_id=pubs[0].citation.doi)
        prompt = prompts.render("cq-answering",
                                {"query": questions[0].text, "context": context.text})
        request = ChatRequest.create(endpoints[0], prompt)
        store = AnswerStore(tmp_path / "answers.jsonl")
        gateway = make_gateway(fail_first={request.request_id: 3})
        result = run_matrix(pubs, questions, endpoints, gateway, store, self.CONFIG,
                            parallelism=1)
        assert result.is_complete
        assert len(store.load()) == 2

    def test_persistent_failure_reported(self, tmp_path):
        pubs, questions, endpoints = self.pubs(1), self.questions(1), self.endpoints(1)
        from litrag.retrieval import retrieve_context

        context = retrieve_context(pubs[0].full_text, questions[0].text, self.CONFIG, 1200,
                                   doc_id=pubs[0].citation.doi)
        prompt = prompts.render("cq-answering",
                                {"query": questions[0].text, "context": context.text})
        request = ChatRequest.create(endpoints[0], prompt)
        store = AnswerStore(tmp_path / "answers.jsonl")
        gateway = make_gateway(fail_first={request.request_id: 100})
        result = run_matrix(pubs, questions, endpoints, gateway, store, self.CONFIG,
                            parallelism=1)
        assert not result.is_complete
        assert result.failed[0][:3] == ("10.1/p0", 1, "Model 0")
        assert store.load() == []

    def test_one_index_per_document_with_pending_work(self, tmp_path, monkeypatch):
        fit = textsim.TfidfModel.__dict__["fit"].__func__
        transform = textsim.TfidfModel.transform
        fit_threads, transform_threads = [], []

        def counting_fit(cls, documents):
            fit_threads.append(threading.current_thread())
            return fit(cls, documents)

        def counting_transform(model, text):
            transform_threads.append(threading.current_thread())
            return transform(model, text)

        monkeypatch.setattr(textsim.TfidfModel, "fit", classmethod(counting_fit))
        monkeypatch.setattr(textsim.TfidfModel, "transform", counting_transform)
        pubs, questions, endpoints = self.pubs(3), self.questions(4), self.endpoints(5)
        store = AnswerStore(tmp_path / "answers.jsonl")

        def run():
            fit_threads.clear()
            transform_threads.clear()
            return run_matrix(pubs, questions, endpoints, make_gateway(), store,
                              self.CONFIG, parallelism=4)

        assert run().completed == 3 * 4 * 5
        caller = threading.current_thread()
        assert fit_threads == [caller] * 3
        assert set(transform_threads) == {caller}

        assert run().completed == 0
        assert fit_threads == transform_threads == []

        # a resume indexes only the publication it re-asks
        kept = [line for line in store.path.read_text(encoding="utf-8").splitlines()
                if not ('"10.1/p1"' in line and '"cq_id": 2,' in line)]
        store.path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        assert run().completed == 5
        assert fit_threads == [caller]
