import collections
import json
import sys
import threading
import time

import pytest

from litrag import extraction, prompts, textsim
from litrag.corpus import CitationRecord, PublicationRecord
from litrag.errors import AuthenticationError, CorruptStoreError, GatewayError
from litrag.extraction import (
    AnswerStore,
    CompetencyQuestion,
    TextualAnswer,
    answer_cq,
    load_competency_questions,
    run_matrix,
    run_requests,
    strip_answer_markers,
)
from litrag.gateway import (
    DEFAULT_PARALLELISM,
    ChatRequest,
    LlmGateway,
    MockBackend,
    ModelEndpoint,
    _Slots,
)
from litrag.retrieval import ChunkingConfig, DocumentIndex, retrieve_context


def make_pub(doi="10.1/a", text="A convolutional network was trained on labelled images."):
    return PublicationRecord(citation=CitationRecord(doi=doi), full_text=text)


def make_gateway(canned=None, fail_first=None, parallelism=DEFAULT_PARALLELISM):
    return LlmGateway(
        MockBackend(canned=canned, fail_first=fail_first), parallelism=parallelism,
        sleep=lambda s: None,
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
        with pytest.raises(CorruptStoreError, match=r"answers\.jsonl: line 2: "):
            store.load()


class TestRunRequests:
    def test_requests_in_backoff_leave_their_send_slots_to_others(self, tmp_path):
        parallelism = 2
        endpoint = ModelEndpoint(name="Model 0")
        requests = {item: ChatRequest.create(endpoint, f"item {item}") for item in range(6)}
        # the first `parallelism` items fail their first send
        flaky = {requests[item].request_id for item in range(parallelism)}
        all_in_backoff, sent_meanwhile = threading.Event(), threading.Event()
        in_backoff = []
        lock = threading.Lock()

        class Backend(MockBackend):
            def send(self, endpoint, request):
                if all_in_backoff.is_set() and request.request_id not in flaky:
                    sent_meanwhile.set()
                return super().send(endpoint, request)

        def sleep(seconds):
            with lock:
                in_backoff.append(seconds)
                if len(in_backoff) == parallelism:
                    all_in_backoff.set()
            # the backoff ends once another item was sent during it
            assert sent_meanwhile.wait(timeout=5), "no item was sent during the backoffs"

        gateway = LlmGateway(Backend(fail_first=dict.fromkeys(flaky, 1)),
                             parallelism=parallelism, sleep=sleep)

        def call(item):
            def request():
                if requests[item].request_id not in flaky:
                    # reach the gateway only once every flaky item is in its backoff
                    all_in_backoff.wait(timeout=5)
                response = gateway.complete(endpoint, requests[item])
                return TextualAnswer(f"10.1/{item}", 1, endpoint.name, response.text,
                                     response.duration_ms)
            return request

        result = run_requests([range(6)], lambda item: (f"10.1/{item}", 1, endpoint.name),
                              call, AnswerStore(tmp_path / "answers.jsonl"), parallelism)
        assert result.completed == 6
        assert in_backoff == [2.0] * parallelism

    def test_at_parallelism_1_a_request_in_backoff_leaves_the_send_slot_to_another(
        self, tmp_path
    ):
        endpoint = ModelEndpoint(name="Model 0")
        requests = {item: ChatRequest.create(endpoint, f"item {item}") for item in range(4)}
        flaky = requests[0].request_id  # fails its first send
        in_backoff, sent_meanwhile = threading.Event(), threading.Event()
        backoffs = []

        class Backend(MockBackend):
            def send(self, endpoint, request):
                if in_backoff.is_set() and request.request_id != flaky:
                    sent_meanwhile.set()
                return super().send(endpoint, request)

        def sleep(seconds):
            backoffs.append(seconds)
            in_backoff.set()
            # the backoff ends once another item reached the backend during it
            assert sent_meanwhile.wait(timeout=2), "no item was sent during the backoff"

        gateway = LlmGateway(Backend(fail_first={flaky: 1}), parallelism=1, sleep=sleep)

        def call(item):
            def request():
                if requests[item].request_id != flaky:
                    # reach the gateway only once the flaky item is in its backoff
                    in_backoff.wait(timeout=5)
                response = gateway.complete(endpoint, requests[item])
                return TextualAnswer(f"10.1/{item}", 1, endpoint.name, response.text,
                                     response.duration_ms)
            return request

        store = AnswerStore(tmp_path / "answers.jsonl")
        result = run_requests([range(4)], lambda item: (f"10.1/{item}", 1, endpoint.name),
                              call, store, parallelism=1)
        assert result.completed == 4 and result.is_complete
        assert backoffs == [2.0]
        assert sorted(answer.key for answer in store.load()) == [
            (f"10.1/{item}", 1, endpoint.name) for item in range(4)]

    def test_at_parallelism_1_a_rejection_is_recorded_before_the_send_slot_is_given_back(
        self, tmp_path, monkeypatch
    ):
        endpoint = ModelEndpoint(name="Model 0")
        sends = []

        class Rejecting(MockBackend):
            def send(self, endpoint, request):
                sends.append(request.request_id)
                raise AuthenticationError(f"endpoint {endpoint.name} rejected credentials")

        give_back = _Slots.__exit__

        def give_back_slowly(self, *exc_info):
            give_back(self, *exc_info)
            # time for a request waiting on the token to take it and go on
            time.sleep(0.01)

        monkeypatch.setattr(_Slots, "__exit__", give_back_slowly)
        gateway = LlmGateway(Rejecting(), parallelism=1, sleep=lambda s: None)

        def call(item):
            request = ChatRequest.create(endpoint, f"item {item}")

            def answer():
                response = gateway.complete(endpoint, request)
                return TextualAnswer(f"10.1/{item}", 1, endpoint.name, response.text, 0)
            return answer

        result = run_requests([range(8)], lambda item: (f"10.1/{item}", 1, endpoint.name),
                              call, AnswerStore(tmp_path / "answers.jsonl"), parallelism=1)
        assert result.completed == 0
        assert [failure[0] for failure in result.failed] == [f"10.1/{item}" for item in range(8)]
        assert all("rejected credentials" in failure[-1] for failure in result.failed)
        assert len(sends) == 1

    def test_every_request_is_made_once_under_fast_thread_switching(self, tmp_path):
        items = range(300)
        flaky = set(items[::7])  # fail their first request, so the end pass makes them again
        made, lock = collections.Counter(), threading.Lock()

        def call(item):
            def request():
                with lock:
                    made[item] += 1
                    first = made[item] == 1
                if item in flaky and first:
                    raise GatewayError(f"item {item}")
                return TextualAnswer(f"10.1/{item}", 1, "M", "text", 0)
            return request

        sizes = [1, 17, 40, 2, 90, 0, 35, 115]
        starts = [sum(sizes[:k]) for k in range(len(sizes))]
        store = AnswerStore(tmp_path / "answers.jsonl")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # 16 threads on one queue, more than there are cores
            result = run_requests([items[start:start + size] for start, size in zip(starts, sizes)],
                                  lambda item: (f"10.1/{item}", 1, "M"), call, store,
                                  parallelism=8)
        finally:
            sys.setswitchinterval(interval)
        assert result.completed == len(items) and result.is_complete
        assert made == {item: 2 if item in flaky else 1 for item in items}
        assert sorted(answer.key for answer in store.load()) == sorted(
            (f"10.1/{item}", 1, "M") for item in items)

    @pytest.mark.parametrize("where", ["request", "append", "prepare"])
    def test_an_error_stops_the_run_without_making_the_queued_requests(self, tmp_path, where):
        parallelism, size = 2, 40
        made, made_at_error, closes = [], [], []
        lock = threading.Lock()

        def error():
            with lock:
                made_at_error.append(len(made))
            # an interrupt reaches the calling thread, never a request
            return KeyboardInterrupt() if where == "prepare" else RuntimeError(where)

        class Store(AnswerStore):
            def append(self, record):
                super().append(record)
                if where == "append":
                    raise error()

            def close(self):
                closes.append(True)
                super().close()

        def call(item):
            if where == "prepare" and item == size:  # the second batch's first item
                raise error()

            def request():
                with lock:
                    made.append(item)
                if where == "request" and item == 1:
                    raise error()
                time.sleep(0.05)
                return TextualAnswer(f"10.1/{item}", 1, "M", "text", 0)
            return request

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt if where == "prepare" else RuntimeError):
            run_requests([range(size), range(size, 2 * size)],
                         lambda item: (f"10.1/{item}", 1, "M"), call,
                         Store(tmp_path / "answers.jsonl"), parallelism)
        # each thread finishes at most the request it was making
        assert len(made) <= made_at_error[0] + 2 * parallelism
        assert closes
        assert threading.active_count() == before

    def test_at_most_two_batches_are_in_flight(self, tmp_path):
        sizes = [5, 3, 6, 2, 4, 5]
        appended = []
        # the number of records appended when each batch's first item is prepared
        appended_at_prepare = []
        second_batch_prepared = threading.Event()

        class Store(AnswerStore):
            def append(self, record):
                appended.append(record.key)
                super().append(record)

        def call(item):
            batch, index = item
            if index == 0:
                appended_at_prepare.append(len(appended))
            if (batch, index) == (1, sizes[1] - 1):
                second_batch_prepared.set()

            def request():
                if batch == 0:
                    # the next batch is prepared while this one's requests run
                    assert second_batch_prepared.wait(timeout=5)
                return TextualAnswer(f"10.1/{batch}", index, "M", "text", 0)
            return request

        result = run_requests(
            ([(batch, index) for index in range(size)] for batch, size in enumerate(sizes)),
            lambda item: (f"10.1/{item[0]}", item[1], "M"), call,
            Store(tmp_path / "answers.jsonl"), parallelism=2,
        )
        assert result.completed == len(appended) == sum(sizes)
        # batch k + 2 is prepared once as many records are appended as batches
        # 0 to k hold, and not later
        assert appended_at_prepare == [0, 0] + [sum(sizes[:k + 1])
                                                for k in range(len(sizes) - 2)]

    @pytest.mark.parametrize("where", ["prepare", "append", "append-after-interrupt"])
    def test_the_replies_made_before_an_error_are_stored_unless_the_store_failed(
        self, tmp_path, where
    ):
        parallelism, size = 2, 40
        made, appended, appends_after_interrupt = [], [], []
        interrupted = threading.Event()
        lock = threading.Lock()

        class Store(AnswerStore):
            def append(self, record):
                if interrupted.is_set() and where == "append-after-interrupt":
                    appends_after_interrupt.append(record.key)
                    raise OSError("disk full")
                super().append(record)
                appended.append(record.key)
                if where == "append" and len(appended) == size + 1:
                    raise RuntimeError("append")

        def call(item):
            if where != "append" and item == 2 * size:  # the third batch's first item
                # interrupt while the second batch's requests are being made
                deadline = time.monotonic() + 5
                while len(made) <= size and time.monotonic() < deadline:
                    time.sleep(0.001)
                interrupted.set()
                raise KeyboardInterrupt

            def request():
                with lock:
                    made.append(item)
                time.sleep(0.05)
                return TextualAnswer(f"10.1/{item}", 1, "M", "text", 0)
            return request

        store = Store(tmp_path / "answers.jsonl")
        with pytest.raises(RuntimeError if where == "append" else KeyboardInterrupt) as raised:
            run_requests([range(size), range(size, 2 * size), range(2 * size, 3 * size)],
                         lambda item: (f"10.1/{item}", 1, "M"), call, store, parallelism)
        stored = [answer.key for answer in AnswerStore(store.path).load()]
        if where == "prepare":
            # every request made was stored, also those made after the interrupt
            assert size < len(made) < 2 * size
            assert sorted(stored) == sorted((f"10.1/{item}", 1, "M") for item in made)
        elif where == "append":
            # nothing more is appended once the store has failed
            assert str(raised.value) == "append"
            assert stored == appended and len(appended) == size + 1
        else:
            # a failed append stops the rest and does not replace the interrupt
            assert len(appends_after_interrupt) == 1
            assert stored == appended and len(appended) == size


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
            self.pubs(3), self.questions(28), self.endpoints(5), make_gateway(parallelism=4),
            store, self.CONFIG,
        )
        assert result.completed == 420
        assert result.is_complete
        assert len(store.load()) == 420

    def test_minimal_matrix(self, tmp_path):
        store = AnswerStore(tmp_path / "answers.jsonl")
        result = run_matrix(
            self.pubs(1), self.questions(1), self.endpoints(1), make_gateway(parallelism=1),
            store, self.CONFIG,
        )
        assert result.completed == 1
        assert len(store.load()) == 1

    def test_rerun_is_noop(self, tmp_path):
        store = AnswerStore(tmp_path / "answers.jsonl")
        run_matrix(self.pubs(2), self.questions(3), self.endpoints(2),
                   make_gateway(parallelism=2), store, self.CONFIG)
        before = (tmp_path / "answers.jsonl").read_bytes()
        result = run_matrix(self.pubs(2), self.questions(3), self.endpoints(2),
                            make_gateway(parallelism=2), store, self.CONFIG)
        assert result.completed == 0
        assert result.skipped == 12
        assert (tmp_path / "answers.jsonl").read_bytes() == before

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        pubs, questions, endpoints = self.pubs(2), self.questions(4), self.endpoints(3)
        full_store = AnswerStore(tmp_path / "full.jsonl")
        run_matrix(pubs, questions, endpoints, make_gateway(parallelism=1), full_store,
                   self.CONFIG)
        # interrupted run: only a prefix of the work got stored
        partial_store = AnswerStore(tmp_path / "partial.jsonl")
        run_matrix(pubs[:1], questions[:2], endpoints[:2], make_gateway(parallelism=1),
                   partial_store, self.CONFIG)
        run_matrix(pubs, questions, endpoints, make_gateway(parallelism=4), partial_store,
                   self.CONFIG)
        assert (tmp_path / "partial.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()

    def request_ids(self, pubs, questions, endpoints, tmp_path):
        """The request id of each item, in the order a parallelism-1 run sends them."""
        sent = []

        class Recording(MockBackend):
            def send(self, endpoint, request):
                sent.append(request.request_id)
                return super().send(endpoint, request)

        run_matrix(pubs, questions, endpoints, LlmGateway(Recording(), parallelism=1),
                   AnswerStore(tmp_path / "probe.jsonl"), self.CONFIG)
        return sent

    def test_store_bytes_independent_of_parallelism(self, tmp_path):
        pubs, questions, endpoints = self.pubs(3), self.questions(6), self.endpoints(3)
        # every third request fails its first send
        faults = {rid: 1 for rid in self.request_ids(pubs, questions, endpoints, tmp_path)[::3]}
        blobs = []
        for fail_first in (None, faults):
            for parallelism in (1, 4, 16):
                store = AnswerStore(tmp_path / f"answers_{parallelism}_{bool(fail_first)}.jsonl")
                gateway = make_gateway(fail_first=fail_first, parallelism=parallelism)
                result = run_matrix(pubs, questions, endpoints, gateway, store, self.CONFIG)
                assert result.completed == 54
                blobs.append(store.path.read_bytes())
        assert len(set(blobs)) == 1

    def test_no_pool_thread_outlives_the_run(self, tmp_path):
        pubs, questions, endpoints = self.pubs(2), self.questions(4), self.endpoints(3)
        # two items fail every send of the first pass, so the end pass runs too
        faults = {rid: 3 for rid in self.request_ids(pubs, questions, endpoints, tmp_path)[:2]}
        before = threading.active_count()
        result = run_matrix(pubs, questions, endpoints,
                            make_gateway(fail_first=faults, parallelism=4),
                            AnswerStore(tmp_path / "answers.jsonl"), self.CONFIG)
        assert result.completed == 24
        assert threading.active_count() == before

    def test_requests_run_on_the_module_executor_threads(self, tmp_path, monkeypatch):
        # perfbench's tracer swaps `extraction.ThreadPoolExecutor` for a pool
        # that hands each submitter's span to its worker; a request made on
        # any other thread would lose its stage span
        on_marked_thread = threading.local()

        class Marking(extraction.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                def run(*a, **k):
                    on_marked_thread.value = True
                    try:
                        return fn(*a, **k)
                    finally:
                        on_marked_thread.value = False
                return super().submit(run, *args, **kwargs)

        sent_on_marked_thread = []

        class Recording(MockBackend):
            def send(self, endpoint, request):
                sent_on_marked_thread.append(getattr(on_marked_thread, "value", False))
                return super().send(endpoint, request)

        monkeypatch.setattr(extraction, "ThreadPoolExecutor", Marking)
        result = run_matrix(self.pubs(2), self.questions(4), self.endpoints(3),
                            LlmGateway(Recording(), parallelism=2),
                            AnswerStore(tmp_path / "answers.jsonl"), self.CONFIG)
        assert result.completed == 24
        assert sent_on_marked_thread == [True] * 24

    def test_end_pass_requests_overlap(self, tmp_path):
        pubs, questions, endpoints = self.pubs(1), self.questions(4), self.endpoints(1)
        failing = self.request_ids(pubs, questions, endpoints, tmp_path)[:2]
        # the end-pass sends of both items must be in flight together
        meet = threading.Barrier(2, timeout=5)

        class Outage(MockBackend):
            def send(self, endpoint, request):
                reply = super().send(endpoint, request)  # fails each item's first 3 sends
                if request.request_id in failing:
                    meet.wait()
                return reply

        gateway = LlmGateway(Outage(fail_first={rid: 3 for rid in failing}), parallelism=2,
                             sleep=lambda s: None)
        store = AnswerStore(tmp_path / "answers.jsonl")
        result = run_matrix(pubs, questions, endpoints, gateway, store, self.CONFIG)
        assert result.is_complete
        assert result.completed == 4
        assert len(store.load()) == 4

    def test_end_pass_failures_sorted_and_not_stored(self, tmp_path):
        pubs, questions, endpoints = self.pubs(2), self.questions(3), self.endpoints(2)
        ids = self.request_ids(pubs, questions, endpoints, tmp_path)
        store = AnswerStore(tmp_path / "answers.jsonl")
        # the last and the first item fail every send
        gateway = make_gateway(fail_first={ids[-1]: 99, ids[0]: 99}, parallelism=2)
        result = run_matrix(pubs, questions, endpoints, gateway, store, self.CONFIG)
        assert [failure[:3] for failure in result.failed] == [
            ("10.1/p0", 1, "Model 0"), ("10.1/p1", 3, "Model 1"),
        ]
        assert result.completed == 10
        assert {answer.key for answer in store.load()}.isdisjoint(
            failure[:3] for failure in result.failed
        )

    def test_end_of_run_retry_recovers_single_failure(self, tmp_path):
        pubs, questions, endpoints = self.pubs(1), self.questions(2), self.endpoints(1)
        # find the request id for one work item, then make it fail through
        # the first pass (3 attempts) and succeed on the end-of-run retry
        probe_store = AnswerStore(tmp_path / "probe.jsonl")
        probe_gateway = make_gateway(parallelism=1)
        run_matrix(pubs, questions, endpoints, probe_gateway, probe_store, self.CONFIG)
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
        gateway = make_gateway(fail_first={request.request_id: 3}, parallelism=1)
        result = run_matrix(pubs, questions, endpoints, gateway, store, self.CONFIG)
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
        gateway = make_gateway(fail_first={request.request_id: 100}, parallelism=1)
        result = run_matrix(pubs, questions, endpoints, gateway, store, self.CONFIG)
        assert not result.is_complete
        assert result.failed[0][:3] == ("10.1/p0", 1, "Model 0")
        assert store.load() == []

    def test_one_index_per_document_with_pending_work(self, tmp_path, monkeypatch):
        fit_terms = textsim.TfidfModel.__dict__["fit_terms"].__func__
        transform = textsim.TfidfModel.transform
        fit_threads, transform_threads = [], []

        def counting_fit_terms(cls, documents):
            fit_threads.append(threading.current_thread())
            return fit_terms(cls, documents)

        def counting_transform(model, text):
            transform_threads.append(threading.current_thread())
            return transform(model, text)

        retrieve = DocumentIndex.retrieve
        queries = []

        def counting_retrieve(index, query, budget):
            queries.append(query)
            return retrieve(index, query, budget)

        monkeypatch.setattr(textsim.TfidfModel, "fit_terms", classmethod(counting_fit_terms))
        monkeypatch.setattr(textsim.TfidfModel, "transform", counting_transform)
        monkeypatch.setattr(DocumentIndex, "retrieve", counting_retrieve)
        pubs, questions, endpoints = self.pubs(3), self.questions(4), self.endpoints(5)
        store = AnswerStore(tmp_path / "answers.jsonl")

        def run():
            fit_threads.clear()
            transform_threads.clear()
            queries.clear()
            return run_matrix(pubs, questions, endpoints, make_gateway(parallelism=4), store,
                              self.CONFIG)

        assert run().completed == 3 * 4 * 5
        caller = threading.current_thread()
        assert fit_threads == [caller] * 3
        assert set(transform_threads) == {caller}
        assert len(queries) == 3 * 4

        assert run().completed == 0
        assert fit_threads == transform_threads == queries == []

        # a resume indexes only the publication it re-asks and retrieves only
        # the context it re-asks, once for its five endpoints
        kept = [line for line in store.path.read_text(encoding="utf-8").splitlines()
                if not ('"10.1/p1"' in line and '"cq_id": 2,' in line)]
        store.path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        assert run().completed == 5
        assert fit_threads == [caller]
        assert queries == ["Question number 2?"]
