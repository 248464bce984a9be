import random
import sys
import threading

import pytest

from litrag import appendlog
from litrag.errors import AuthenticationError, GatewayError
from litrag.gateway import (
    ChatRequest,
    LlmGateway,
    MockBackend,
    ModelEndpoint,
    RateLimiter,
    TimingEntry,
    TimingLog,
    dedupe_timing_logs,
    format_hours_minutes,
    sum_runtime,
)
from conftest import STAGE_RUNTIMES, build_timing_fixture

ENDPOINT = ModelEndpoint(name="Test Model")


def entry(uid, duration, ts, stage="rag", endpoint="Test Model"):
    return TimingEntry(
        unique_id=uid, doc_id="doc", endpoint=endpoint, stage=stage,
        duration_ms=duration, timestamp=ts,
    )


class TestModelEndpoint:
    def test_temperature_pinned_to_zero(self):
        with pytest.raises(ValueError):
            ModelEndpoint(name="hot", temperature=0.7)

    def test_request_id_stable(self):
        first = ChatRequest.create(ENDPOINT, "prompt text")
        second = ChatRequest.create(ENDPOINT, "prompt text")
        assert first.request_id == second.request_id
        other = ChatRequest.create(ModelEndpoint(name="Other"), "prompt text")
        assert other.request_id != first.request_id


class TestComplete:
    def test_canned_response(self):
        request = ChatRequest.create(ENDPOINT, "hello")
        backend = MockBackend(canned={request.request_id: "Response: Yes"})
        gateway = LlmGateway(backend, sleep=lambda s: None)
        response = gateway.complete(ENDPOINT, request)
        assert response.text == "Response: Yes"
        assert response.attempt_count == 1

    def test_retry_until_success(self):
        request = ChatRequest.create(ENDPOINT, "flaky")
        backend = MockBackend(
            canned={request.request_id: "ok"},
            fail_first={request.request_id: 2},
        )
        delays = []
        gateway = LlmGateway(backend, sleep=delays.append)
        response = gateway.complete(ENDPOINT, request)
        assert response.attempt_count == 3
        assert delays == [2.0, 4.0]  # exponential backoff from 2 s

    def test_retries_exhausted(self):
        request = ChatRequest.create(ENDPOINT, "dead")
        backend = MockBackend(fail_first={request.request_id: 99})
        gateway = LlmGateway(backend, sleep=lambda s: None)
        with pytest.raises(GatewayError):
            gateway.complete(ENDPOINT, request)

    def test_auth_failure_propagates(self):
        class AuthBackend:
            def send(self, endpoint, request):
                raise AuthenticationError("bad key")

        gateway = LlmGateway(AuthBackend(), sleep=lambda s: None)
        with pytest.raises(AuthenticationError):
            gateway.complete(ENDPOINT, ChatRequest.create(ENDPOINT, "x"))

    def test_timing_entry_appended(self):
        request = ChatRequest.create(ENDPOINT, "timed")
        gateway = LlmGateway(MockBackend(), sleep=lambda s: None)
        gateway.complete(ENDPOINT, request, doc_id="10.1/x", stage="rag")
        entries = gateway.timing_log.entries()
        assert len(entries) == 1
        assert entries[0].doc_id == "10.1/x"
        assert entries[0].stage == "rag"
        assert entries[0].duration_ms >= 0

    def test_unknown_stage_rejected(self):
        gateway = LlmGateway(MockBackend(), sleep=lambda s: None)
        with pytest.raises(ValueError):
            gateway.complete(ENDPOINT, ChatRequest.create(ENDPOINT, "x"), stage="mystery")

    def test_mock_transcript_independent_of_parallelism(self):
        prompts = [f"question {i}" for i in range(40)]

        def run(workers):
            gateway = LlmGateway(MockBackend(), sleep=lambda s: None)
            results = {}
            lock = threading.Lock()

            def one(prompt):
                request = ChatRequest.create(ENDPOINT, prompt)
                response = gateway.complete(ENDPOINT, request)
                with lock:
                    results[prompt] = (response.text, response.duration_ms)

            threads = []
            for chunk_start in range(0, len(prompts), max(1, len(prompts) // workers)):
                batch = prompts[chunk_start:chunk_start + max(1, len(prompts) // workers)]
                thread = threading.Thread(target=lambda b=batch: [one(p) for p in b])
                threads.append(thread)
                thread.start()
            for thread in threads:
                thread.join()
            return results

        assert run(1) == run(8)


class TestInFlightCap:
    def test_at_most_four_concurrent_requests_per_endpoint(self):
        import time as time_mod

        state = {"active": 0, "peak": 0}
        lock = threading.Lock()

        class SlowBackend:
            def send(self, endpoint, request):
                with lock:
                    state["active"] += 1
                    state["peak"] = max(state["peak"], state["active"])
                time_mod.sleep(0.01)
                with lock:
                    state["active"] -= 1
                return "ok", 1

        # sixteen send slots, so only the endpoint's cap can hold the peak at 4
        gateway = LlmGateway(SlowBackend(), parallelism=16, sleep=lambda s: None)
        threads = [
            threading.Thread(
                target=lambda i=i: gateway.complete(
                    ENDPOINT, ChatRequest.create(ENDPOINT, f"p{i}")
                )
            )
            for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert state["peak"] <= 4


class TestSendSlots:
    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_at_most_parallelism_sends_at_once(self, parallelism):
        import time as time_mod

        state = {"active": 0, "peak": 0}
        lock = threading.Lock()

        class SlowBackend:
            def send(self, endpoint, request):
                with lock:
                    state["active"] += 1
                    state["peak"] = max(state["peak"], state["active"])
                time_mod.sleep(0.01)
                with lock:
                    state["active"] -= 1
                return "ok", 1

        # four endpoints, so their in-flight caps alone would allow 16 sends
        endpoints = [ModelEndpoint(name=f"Model {i}") for i in range(4)]
        gateway = LlmGateway(SlowBackend(), parallelism=parallelism, sleep=lambda s: None)
        threads = [
            threading.Thread(
                target=gateway.complete,
                args=(endpoints[i % 4], ChatRequest.create(endpoints[i % 4], f"p{i}")),
            )
            for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(gateway.timing_log) == 16
        assert 1 <= state["peak"] <= parallelism

    def test_backoff_holds_no_send_slot(self):
        flaky = ChatRequest.create(ENDPOINT, "flaky")
        other = ChatRequest.create(ENDPOINT, "other")
        in_backoff, other_sent = threading.Event(), threading.Event()
        waited = []

        class Backend(MockBackend):
            def send(self, endpoint, request):
                if request.request_id == other.request_id:
                    other_sent.set()
                return super().send(endpoint, request)

        def sleep(seconds):
            # the backoff ends once the other request went out on the one slot
            in_backoff.set()
            waited.append(other_sent.wait(timeout=5))

        gateway = LlmGateway(
            Backend(fail_first={flaky.request_id: 1}), parallelism=1, sleep=sleep
        )
        first = threading.Thread(target=gateway.complete, args=(ENDPOINT, flaky))
        first.start()
        assert in_backoff.wait(timeout=5)
        gateway.complete(ENDPOINT, other)
        first.join(timeout=10)
        assert not first.is_alive()
        assert waited == [True]
        assert len(gateway.timing_log) == 2

    def test_rate_limit_wait_holds_no_send_slot(self):
        limited = ModelEndpoint(name="Limited", rate_limit_per_min=1)
        free = ModelEndpoint(name="Free")
        in_wait, free_sent = threading.Event(), threading.Event()
        clock = {"now": 0.0}
        waited = []

        class Backend(MockBackend):
            def send(self, endpoint, request):
                if endpoint == free:
                    free_sent.set()
                return super().send(endpoint, request)

        def sleep(seconds):
            # the window frees up once the other endpoint was sent to
            in_wait.set()
            waited.append(free_sent.wait(timeout=5))
            clock["now"] += seconds

        gateway = LlmGateway(Backend(), parallelism=1, sleep=sleep, clock=lambda: clock["now"])
        gateway.complete(limited, ChatRequest.create(limited, "first"))
        second = threading.Thread(
            target=gateway.complete, args=(limited, ChatRequest.create(limited, "second"))
        )
        second.start()
        assert in_wait.wait(timeout=5)
        gateway.complete(free, ChatRequest.create(free, "free"))
        second.join(timeout=10)
        assert not second.is_alive()
        assert waited == [True]
        assert len(gateway.timing_log) == 3

    def test_rate_limit_counts_a_request_only_once_it_holds_a_send_slot(self):
        limited = ModelEndpoint(name="Limited", rate_limit_per_min=1)
        free = ModelEndpoint(name="Free")
        clock = {"now": 0.0}
        blocking, release, late_at_slot = threading.Event(), threading.Event(), threading.Event()
        sent_at = []

        class Backend(MockBackend):
            def send(self, endpoint, request):
                if endpoint == free:
                    blocking.set()
                    assert release.wait(timeout=5)
                else:
                    sent_at.append(clock["now"])
                return super().send(endpoint, request)

        def sleep(seconds):
            clock["now"] += seconds

        gateway = LlmGateway(Backend(), parallelism=1, sleep=sleep, clock=lambda: clock["now"])

        class AnnouncingSlots(threading.BoundedSemaphore):
            def __enter__(self):
                if threading.current_thread().name == "late":
                    late_at_slot.set()
                return super().__enter__()

        gateway._sending = AnnouncingSlots(1)
        holder = threading.Thread(target=gateway.complete,
                                  args=(free, ChatRequest.create(free, "holder")))
        holder.start()
        assert blocking.wait(timeout=5)
        late = threading.Thread(target=gateway.complete, name="late",
                                args=(limited, ChatRequest.create(limited, "late")))
        late.start()
        assert late_at_slot.wait(timeout=5)
        # the wait for the slot straddles the end of the 60 s window
        clock["now"] = 70.0
        release.set()
        holder.join(timeout=10)
        late.join(timeout=10)
        assert not holder.is_alive() and not late.is_alive()
        gateway.complete(limited, ChatRequest.create(limited, "next"))
        assert sent_at == [70.0, 130.0]


class TestRateLimiter:
    def test_window_property(self):
        clock = {"now": 0.0}
        sleeps = []
        limiter = RateLimiter(5, clock=lambda: clock["now"])
        dispatch_times = []
        for _ in range(23):
            # a refused try counts nothing, so the caller may try again after the wait
            while wait := limiter.try_acquire():
                sleeps.append(wait)
                clock["now"] += wait
            dispatch_times.append(clock["now"])
            clock["now"] += 0.5
        for i, start in enumerate(dispatch_times):
            in_window = [t for t in dispatch_times if start <= t < start + 60.0]
            assert len(in_window) <= 5
        assert sleeps, "limiter never had to wait"
        # the sixth goes out as soon as the first leaves the window
        assert dispatch_times[5] == 60.0


class TestDedupeTimingLogs:
    def test_last_instance_wins_with_survivor_order(self):
        log = TimingLog([
            entry("a", 5, "2024-01-01T00:00:01+00:00"),
            entry("b", 7, "2024-01-01T00:00:02+00:00"),
            entry("a", 9, "2024-01-01T00:00:03+00:00"),
        ])
        deduped = dedupe_timing_logs(log).entries()
        assert [(e.unique_id, e.duration_ms) for e in deduped] == [("b", 7), ("a", 9)]

    def test_unique_ids_unchanged(self):
        log = TimingLog([
            entry("a", 1, "2024-01-01T00:00:01+00:00"),
            entry("b", 2, "2024-01-01T00:00:02+00:00"),
        ])
        assert dedupe_timing_logs(log).entries() == log.entries()

    def test_empty_log(self):
        assert dedupe_timing_logs(TimingLog()).entries() == []

    def test_matches_brute_force_oracle_and_idempotent(self):
        rng = random.Random(13)
        for _ in range(200):
            entries = [
                entry(
                    f"id{rng.randrange(8)}",
                    rng.randrange(1000),
                    f"2024-01-01T00:{rng.randrange(60):02d}:00+00:00",
                )
                for _ in range(rng.randrange(0, 30))
            ]
            log = TimingLog(entries)
            deduped = dedupe_timing_logs(log).entries()
            # oracle: group by id, keep max (timestamp, position)
            expected = {}
            for position, e in enumerate(entries):
                key = (e.timestamp, position)
                if e.unique_id not in expected or key > expected[e.unique_id][0]:
                    expected[e.unique_id] = (key, e)
            assert {e.unique_id: e for e in deduped} == {
                uid: e for uid, (_, e) in expected.items()
            }
            assert dedupe_timing_logs(TimingLog(deduped)).entries() == deduped


class TestSumRuntime:
    def test_fixture_rows_reproduced(self):
        log = dedupe_timing_logs(build_timing_fixture())
        for endpoint, (rag_h, rag_m), conversion in STAGE_RUNTIMES:
            total = sum_runtime(log, "rag", endpoint=endpoint)
            assert format_hours_minutes(total) == f"{rag_h}hr {rag_m}min"
            if conversion is not None:
                conv_h, conv_m = conversion
                total = sum_runtime(log, "categorize", endpoint=endpoint)
                assert format_hours_minutes(total) == f"{conv_h}hr {conv_m}min"

    def test_llama31_rows(self):
        log = dedupe_timing_logs(build_timing_fixture())
        assert format_hours_minutes(sum_runtime(log, "rag", "Llama 3.1 70B")) == "5hr 52min"
        assert format_hours_minutes(sum_runtime(log, "categorize", "Llama 3.1 70B")) == "9hr 31min"

    def test_rag_stage_total(self):
        log = dedupe_timing_logs(build_timing_fixture())
        assert format_hours_minutes(sum_runtime(log, "rag")) == "264hr 15min"

    def test_empty_log_sums_to_zero(self):
        assert sum_runtime(TimingLog(), "rag") == 0

    def test_half_hours_add_up(self):
        log = TimingLog([
            entry("a", 30 * 60_000, "2024-01-01T00:00:01+00:00"),
            entry("b", 30 * 60_000, "2024-01-01T00:00:02+00:00"),
        ])
        assert format_hours_minutes(sum_runtime(log, "rag")) == "1hr 0min"

    def test_per_document_totals(self):
        log = TimingLog([
            TimingEntry("u1", "10.1/a", "M", "rag", 100, "2024-01-01T00:00:01+00:00"),
            TimingEntry("u2", "10.1/a", "M", "rag", 150, "2024-01-01T00:00:02+00:00"),
            TimingEntry("u3", "10.1/b", "M", "rag", 999, "2024-01-01T00:00:03+00:00"),
        ])
        assert sum_runtime(log, "rag", doc_id="10.1/a") == 250
        assert sum_runtime(log, "rag", doc_id="10.1/b") == 999

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            sum_runtime(TimingLog(), "nonsense")


class TestTimingCsvRoundTrip:
    def test_save_and_load(self, tmp_path):
        log = TimingLog([entry("a", 5, "2024-01-01T00:00:01+00:00")])
        path = tmp_path / "timing.csv"
        log.save_csv(path)
        assert TimingLog.load_csv(path).entries() == log.entries()

    def test_append_writes_header_once(self, tmp_path):
        first = TimingLog([entry("a", 5, "2024-01-01T00:00:01+00:00")])
        second = TimingLog([entry("b", 7, "2024-01-01T00:00:02+00:00", stage="filter")])
        path = tmp_path / "timing.csv"
        first.save_csv(path)
        second.save_csv(path)
        TimingLog().save_csv(path)
        assert path.read_bytes() == (
            b"unique_id,doi,endpoint,stage,duration_ms,timestamp_iso8601\r\n"
            b"a,doc,Test Model,rag,5,2024-01-01T00:00:01+00:00\r\n"
            b"b,doc,Test Model,filter,7,2024-01-01T00:00:02+00:00\r\n"
        )
        assert TimingLog.load_csv(path).entries() == first.entries() + second.entries()

    def test_csv_line_matches_a_fresh_writer_on_every_thread(self):
        import csv
        import io

        rows = [
            ("plain", 1, 2.5), ('quo"ted', "com,ma", "new\nline"), (), ("",),
            ("crlf\r\n", " lead", "trail "), ("ünïcode", None, True),
        ] * 50

        def fresh(row):
            out = io.StringIO()
            csv.writer(out).writerow(row)
            return out.getvalue()

        results = {}

        def encode(worker):
            results[worker] = [appendlog.csv_line(row) for row in rows]

        # more threads than cores, switching often, so that rows would mix if
        # two threads shared a buffer
        threads = [threading.Thread(target=encode, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        expected = [fresh(row) for row in rows]
        assert expected[0] == "plain,1,2.5\r\n"
        assert all(lines == expected for lines in results.values())
        assert [appendlog.csv_line(row) for row in rows] == expected

    def test_malformed_earlier_row_raises(self, tmp_path):
        path = tmp_path / "timing.csv"
        TimingLog([entry("a", 5, "2024-01-01T00:00:01+00:00")]).save_csv(path)
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write("b,doc,Test Model,rag,oops,2024-01-01T00:00:02+00:00\r\n")
        TimingLog([entry("c", 5, "2024-01-01T00:00:03+00:00")]).save_csv(path)
        with pytest.raises(ValueError):
            TimingLog.load_csv(path)


class TestMockBackendDir:
    def test_canned_directory(self, tmp_path):
        request = ChatRequest.create(ENDPOINT, "prompt")
        (tmp_path / f"{request.request_id}.txt").write_text("canned reply", encoding="utf-8")
        backend = MockBackend.from_dir(tmp_path)
        text, _ = backend.send(ENDPOINT, request)
        assert text == "canned reply"

    def test_default_rule_is_deterministic(self):
        backend = MockBackend()
        request = ChatRequest.create(ENDPOINT, "any prompt at all")
        assert backend.send(ENDPOINT, request) == backend.send(ENDPOINT, request)
