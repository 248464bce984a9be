"""Property: a failed request is retried or reported, never stored as data.

Random first-attempt faults on the fixture run's requests, and at most one
endpoint whose credentials are rejected, go through `ask`, `categorize` and
`filter` on the CLI. Each fault must end as a later successful retry or as
exit 1 with nothing stored for its item. A stage that failed leaves no skip
record, so a healthy rerun stores each item that failed and reaches the
golden stores byte for byte; its records then let a further rerun skip
without reading a store.
"""

import functools
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from litrag import cli, prompts
from litrag.appendlog import RecordStore
from litrag.config import load_config
from litrag.corpus import load_corpus
from litrag.errors import AuthenticationError
from litrag.extraction import AnswerStore, load_competency_questions
from litrag.gateway import ChatRequest, MockBackend
from litrag.retrieval import DocumentIndex
from litrag.voting import FilterStore, VerdictStore
from conftest import FIXTURES
from test_cli import GOLDEN, base_args, config_with, invoke, no_store_read

CORPUS = FIXTURES / "mini_corpus"
CONFIG = load_config(FIXTURES / "config.yaml")
ENDPOINTS = [e.name for e in CONFIG.endpoints]
# a request is sent at most max_attempts times per call, and a failed item is
# called once more at the end of its stage
SENDS_PER_ITEM = 2 * CONFIG.max_attempts
STORES = {
    "ask": (AnswerStore, "answers", "answers.jsonl"),
    "categorize": (VerdictStore, "verdicts", "verdicts.csv"),
    "filter": (FilterStore, "filters", "filters.csv"),
}


@functools.cache
def fixture_requests() -> dict[str, dict[str, tuple]]:
    """Per stage, the request id of each item of the fixture run and the key
    of the record it yields."""
    questions = load_competency_questions()
    golden = {a.key: a for a in AnswerStore(GOLDEN / "answers.jsonl").load()}
    template = prompts.default_registry()["dl-filter"]
    query = next(line[len("Query: "):] for line in template.body.splitlines()
                 if line.startswith("Query: "))
    judge = CONFIG.endpoint(CONFIG.filter_endpoint)
    requests: dict[str, dict[str, tuple]] = {stage: {} for stage in STORES}
    for pub in load_corpus(CORPUS).publications:
        doi = pub.citation.doi
        index = DocumentIndex(pub.full_text, CONFIG.chunking, doc_id=doi)
        for cq in questions:
            context = index.retrieve(cq.text, CONFIG.retrieval_budget).text
            for endpoint in CONFIG.endpoints:
                key = (doi, cq.id, endpoint.name)
                asked = prompts.render("cq-answering", {"query": cq.text, "context": context})
                judged = prompts.render("categorical-conversion",
                                        {"Question": cq.text, "Answer": golden[key].clean_text})
                requests["ask"][ChatRequest.create(endpoint, asked).request_id] = key
                requests["categorize"][ChatRequest.create(endpoint, judged).request_id] = key
        context = index.retrieve(query, CONFIG.retrieval_budget).text
        filtered = ChatRequest.create(judge, template.render({"context": context}))
        requests["filter"][filtered.request_id] = (doi,)
    assert [len(ids) for ids in requests.values()] == [420, 420, 3]  # no shared request id
    return requests


class FaultyBackend(MockBackend):
    """The canned fixture replies, with first-attempt faults and, optionally,
    one endpoint whose credentials are rejected."""

    def __init__(self, fail_first: dict[str, int], rejected: str | None) -> None:
        super().__init__(MockBackend.from_dir(FIXTURES / "mock_responses").canned, fail_first)
        self.rejected = rejected

    def send(self, endpoint, request):
        if endpoint.name == self.rejected:
            raise AuthenticationError(f"endpoint {endpoint.name} rejected credentials (HTTP 401)")
        return super().send(endpoint, request)


def faults(stage: str, max_size: int) -> st.SearchStrategy[dict[str, int]]:
    """Request id -> first attempts to fail, for some of one stage's items;
    from SENDS_PER_ITEM failures on, the item fails for good."""
    return st.dictionaries(
        st.sampled_from(sorted(fixture_requests()[stage])),
        st.integers(1, SENDS_PER_ITEM + 1),
        max_size=max_size,
    )


def run(workspace: Path, config: Path, backend: MockBackend,
        read_no_store: bool = False) -> tuple[dict[str, int], dict[str, str]]:
    """Each stage's exit status and stdout; with ``read_no_store`` any store
    read fails the stage."""
    statuses, outputs = {}, {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.MockBackend, "from_dir", classmethod(lambda cls, directory: backend))
        if read_no_store:
            patch.setattr(RecordStore, "load", no_store_read)
        for stage in STORES:
            corpus = [] if stage == "categorize" else ["--corpus", str(CORPUS)]
            result = invoke(stage, *base_args(workspace, config=config), *corpus)
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                result.output
            statuses[stage], outputs[stage] = result.exit_code, result.stdout
    return statuses, outputs


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    ask=faults("ask", 3),
    categorize=faults("categorize", 3),
    filter_=faults("filter", 2),
    rejected=st.none() | st.sampled_from(ENDPOINTS),
)
@example(ask={}, categorize={}, filter_={}, rejected=CONFIG.filter_endpoint)
def test_every_fault_is_retried_or_reported_never_stored(ask, categorize, filter_, rejected):
    requests = fixture_requests()
    fail_first = {**ask, **categorize, **filter_}

    def failed(stage: str, endpoint: str, among: set) -> set:
        """Keys of the items of ``stage`` among ``among`` that fail for good."""
        out = {key for rid, key in requests[stage].items()
               if fail_first.get(rid, 0) >= SENDS_PER_ITEM or endpoint(key) == rejected}
        return out & among

    all_keys = {stage: set(ids.values()) for stage, ids in requests.items()}
    expected_failed = {"ask": failed("ask", lambda key: key[2], all_keys["ask"])}
    answered = all_keys["ask"] - expected_failed["ask"]
    expected_failed["categorize"] = failed("categorize", lambda key: key[2], answered)
    expected_failed["filter"] = failed(
        "filter", lambda key: CONFIG.filter_endpoint, all_keys["filter"])
    expected_stored = {
        "ask": answered,
        "categorize": answered - expected_failed["categorize"],
        "filter": all_keys["filter"] - expected_failed["filter"],
    }

    with tempfile.TemporaryDirectory() as directory:
        config = config_with(Path(directory), backoff_seconds=0)
        workspace = Path(directory) / "ws"
        statuses, _ = run(workspace, config, FaultyBackend(fail_first, rejected))
        for stage, (store, sub, name) in STORES.items():
            assert statuses[stage] == (1 if expected_failed[stage] else 0), stage
            stored = set(store(workspace / sub / name).load())
            assert {record.key for record in stored} == expected_stored[stage], stage
            # whatever was stored is what a healthy run stores
            assert stored <= set(store(GOLDEN / name).load()), stage

        # a stage that failed left no record, so the rerun requests what failed
        statuses, outputs = run(workspace, config, FaultyBackend({}, None))
        assert statuses == {stage: 0 for stage in STORES}
        for stage, noun in (("ask", "answer"), ("categorize", "verdict"), ("filter", "verdict")):
            stored = len(expected_stored[stage])
            new = len(all_keys[stage]) - stored
            assert outputs[stage] == \
                f"{stage}: {new} new {noun}(s), {stored} already stored, 0 failed\n", stage
        for _, sub, name in STORES.values():
            assert (workspace / sub / name).read_bytes() == (GOLDEN / name).read_bytes(), name

        # the healthy run left records, so the next one reads no store
        statuses, _ = run(workspace, config, FaultyBackend({}, None), read_no_store=True)
        assert statuses == {stage: 0 for stage in STORES}
