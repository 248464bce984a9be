import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrag import prompts, voting
from litrag.corpus import CitationRecord, PublicationRecord
from litrag.errors import GatewayError, PipelineError
from litrag.extraction import CompetencyQuestion, TextualAnswer
from litrag.gateway import ChatRequest, LlmGateway, MockBackend, ModelEndpoint
from litrag.retrieval import ChunkingConfig
from litrag.voting import (
    CategoricalAnswer,
    Verdict,
    VerdictStore,
    VoteStore,
    filter_dl_publication,
    majority_vote,
    parse_categorical_response,
    run_conversions,
    to_categorical,
    vote_all,
)
from conftest import FIXTURES

ENDPOINT = ModelEndpoint(name="Judge")
CONFIG = ChunkingConfig(chunk_size=50, overlap=10)

# The in-context pairs shipped inside the conversion template.
EXAMPLE_NO_QUESTION = (
    "What methods are utilized for collecting raw data in the deep learning "
    "pipeline (e.g., surveys, sensors, public datasets)?"
)
EXAMPLE_NO_ANSWER = (
    "Unfortunately, there is no information provided about where the code repository "
    "of the deep learning pipeline is available. It could be hosted on platforms such "
    "as GitHub, GitLab, or BitBucket, but without explicit mention in the provided "
    "context, I cannot provide a definitive answer."
)
EXAMPLE_YES_QUESTION = (
    "What data formats are used in the deep learning pipeline (e.g., image, audio, "
    "video, CSV)?"
)
EXAMPLE_YES_ANSWER = (
    "The study uses audio data from bird calls, specifically spectrograms derived "
    "from the audio files. These spectrograms serve as the input for the Convolutional "
    "Neural Network (CNN) model employed in the research. Therefore, the primary data "
    "format utilized in this deep learning pipeline is audio data, processed into "
    "spectrograms for further analysis."
)


def conversion_gateway(question_text, answer_text, reply):
    prompt = prompts.render(
        "categorical-conversion", {"Question": question_text, "Answer": answer_text}
    )
    request = ChatRequest.create(ENDPOINT, prompt)
    return LlmGateway(MockBackend(canned={request.request_id: reply}), sleep=lambda s: None)


class TestParseCategoricalResponse:
    def test_answer_block_yes(self):
        assert parse_categorical_response("Answer:::\nResponse: Yes\nAnswer:::") is Verdict.YES

    def test_case_insensitive_no(self):
        assert parse_categorical_response("response: no") is Verdict.NO

    def test_prose_is_unparseable(self):
        assert parse_categorical_response("The answer is affirmative.") is Verdict.UNPARSEABLE

    def test_last_response_line_wins(self):
        text = "Response: Yes\nsome rationale\nResponse: No"
        assert parse_categorical_response(text) is Verdict.NO

    def test_inline_answer_marker_prefix(self):
        assert parse_categorical_response("Answer::: Response: yes.") is Verdict.YES

    def test_format_echo_is_unparseable(self):
        assert parse_categorical_response("Response: (Yes or No)") is Verdict.UNPARSEABLE


def line_by_line_verdict(text):
    """The verdict parse read forwards over every line, the last "Response:"
    line overriding those before it: the reference the last-line scan of
    `parse_categorical_response` must agree with."""
    verdict = Verdict.UNPARSEABLE
    for line in text.splitlines():
        stripped = line.strip()
        while stripped.startswith("Answer:::"):
            stripped = stripped[len("Answer:::"):].strip()
        if not stripped.lower().startswith("response:"):
            continue
        value = stripped[len("response:"):].strip().strip('."\'').lower()
        if value == "yes":
            verdict = Verdict.YES
        elif value == "no":
            verdict = Verdict.NO
        else:
            verdict = Verdict.UNPARSEABLE
    return verdict


# every line boundary `str.splitlines` splits on
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


def mixed_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper)))


def marks(max_size):
    return st.lists(st.sampled_from(['.', '"', "'", " "]), max_size=max_size).map("".join)


RESPONSE_LINES = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", " ", "\t"]),
        st.lists(st.sampled_from(["Answer:::", "Answer::: ", " Answer:::", "answer:::"]),
                 max_size=3).map("".join),
        st.one_of(mixed_case("response:"), st.sampled_from(["Response", "The response:", ""])),
        marks(2),
        st.one_of(mixed_case("yes"), mixed_case("no"),
                  st.sampled_from(["maybe", "", "(Yes or No)", "yes no", "yess"])),
        marks(3),
    ),
)
RESPONSES = st.lists(
    st.tuples(st.one_of(RESPONSE_LINES, st.text(max_size=12)), st.sampled_from(LINE_BREAKS)),
    max_size=6,
).map(lambda lines: "".join(line + end for line, end in lines))


class TestParseCategoricalResponseAgreesLineByLine:
    @settings(max_examples=400, deadline=None)
    @given(RESPONSES, st.booleans())
    def test_the_last_line_scan_equals_the_forward_parse(self, text, cut_last_break):
        if cut_last_break:
            # a reply need not end in a line break
            text = text[:-1]
        assert parse_categorical_response(text) is line_by_line_verdict(text)

    @pytest.mark.parametrize("end", LINE_BREAKS)
    def test_each_line_break_ends_a_response_line(self, end):
        text = f"Response: Yes{end}Response: no{end}Answer:::"
        assert parse_categorical_response(text) is Verdict.NO
        assert line_by_line_verdict(text) is Verdict.NO

    def test_an_unparseable_last_response_line_wins_over_an_earlier_yes(self):
        text = "Response: Yes\nAnswer::: response: (Yes or No)\nAnswer:::"
        assert parse_categorical_response(text) is Verdict.UNPARSEABLE


class TestToCategorical:
    def test_specific_answer_judged_yes(self):
        question = CompetencyQuestion(id=2, text=EXAMPLE_YES_QUESTION)
        answer = TextualAnswer("10.1/a", 2, ENDPOINT.name, EXAMPLE_YES_ANSWER, 10)
        gateway = conversion_gateway(EXAMPLE_YES_QUESTION, EXAMPLE_YES_ANSWER,
                                     "Answer:::\nResponse: Yes\nAnswer:::")
        verdict = to_categorical(question, answer, ENDPOINT, gateway)
        assert verdict.verdict is Verdict.YES

    def test_unspecific_answer_judged_no(self):
        question = CompetencyQuestion(id=1, text=EXAMPLE_NO_QUESTION)
        answer = TextualAnswer("10.1/a", 1, ENDPOINT.name, EXAMPLE_NO_ANSWER, 10)
        gateway = conversion_gateway(EXAMPLE_NO_QUESTION, EXAMPLE_NO_ANSWER,
                                     "Answer:::\nResponse: No\nAnswer:::")
        verdict = to_categorical(question, answer, ENDPOINT, gateway)
        assert verdict.verdict is Verdict.NO

    def test_free_prose_is_unparseable(self):
        question = CompetencyQuestion(id=1, text="Q?")
        answer = TextualAnswer("10.1/a", 1, ENDPOINT.name, "A.", 10)
        gateway = conversion_gateway("Q?", "A.", "I believe the answer is affirmative.")
        assert to_categorical(question, answer, ENDPOINT, gateway).verdict is Verdict.UNPARSEABLE

    def test_gateway_failure_raises(self):
        question = CompetencyQuestion(id=1, text="Q?")
        answer = TextualAnswer("10.1/a", 1, ENDPOINT.name, "A.", 10)
        prompt = prompts.render("categorical-conversion", {"Question": "Q?", "Answer": "A."})
        request = ChatRequest.create(ENDPOINT, prompt)
        gateway = LlmGateway(
            MockBackend(fail_first={request.request_id: 99}), sleep=lambda s: None
        )
        with pytest.raises(GatewayError):
            to_categorical(question, answer, ENDPOINT, gateway)

    def test_mismatched_endpoint_rejected(self):
        question = CompetencyQuestion(id=1, text="Q?")
        answer = TextualAnswer("10.1/a", 1, "Somebody Else", "A.", 10)
        with pytest.raises(ValueError):
            to_categorical(question, answer, ENDPOINT,
                           LlmGateway(MockBackend(), sleep=lambda s: None))

    def test_categorize_stage_logged(self):
        question = CompetencyQuestion(id=1, text="Q?")
        answer = TextualAnswer("10.1/a", 1, ENDPOINT.name, "A.", 10)
        gateway = conversion_gateway("Q?", "A.", "Response: Yes")
        to_categorical(question, answer, ENDPOINT, gateway)
        assert gateway.timing_log.entries()[0].stage == "categorize"


class TestMajorityVote:
    def test_unanimous_yes(self):
        record = majority_vote([Verdict.YES] * 5)
        assert (record.decision, record.yes_count, record.no_count) == (Verdict.YES, 5, 0)

    def test_three_two_split(self):
        record = majority_vote([Verdict.YES, Verdict.YES, Verdict.YES, Verdict.NO, Verdict.NO])
        assert record.decision is Verdict.YES

    def test_tie_rule_no(self):
        record = majority_vote([Verdict.YES, Verdict.YES, Verdict.NO, Verdict.NO], tie_rule="no")
        assert record.decision is Verdict.NO

    def test_tie_rule_yes(self):
        record = majority_vote([Verdict.YES, Verdict.NO], tie_rule="yes")
        assert record.decision is Verdict.YES

    def test_unparseable_counts_as_no(self):
        record = majority_vote([Verdict.YES, Verdict.UNPARSEABLE, Verdict.UNPARSEABLE])
        assert record.decision is Verdict.NO
        assert record.no_count == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([])

    def test_bad_tie_rule_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([Verdict.YES], tie_rule="coin")

    def test_exhaustive_five_voters(self):
        for bits in itertools.product([Verdict.YES, Verdict.NO], repeat=5):
            record = majority_vote(list(bits))
            yes = sum(1 for b in bits if b is Verdict.YES)
            assert (record.decision is Verdict.YES) == (yes >= 3)
            assert record.yes_count + record.no_count == 5

    def test_permutation_invariance(self):
        rng = random.Random(17)
        for _ in range(200):
            verdicts = [rng.choice([Verdict.YES, Verdict.NO, Verdict.UNPARSEABLE])
                        for _ in range(rng.randrange(1, 9))]
            baseline = majority_vote(verdicts)
            shuffled = verdicts[:]
            rng.shuffle(shuffled)
            again = majority_vote(shuffled)
            assert (again.decision, again.yes_count) == (baseline.decision, baseline.yes_count)


class TestVoteAll:
    def test_groups_by_doi_and_question(self):
        answers = [
            CategoricalAnswer("10.1/a", 1, f"M{i}", Verdict.YES if i < 3 else Verdict.NO)
            for i in range(5)
        ] + [
            CategoricalAnswer("10.1/b", 1, f"M{i}", Verdict.NO)
            for i in range(5)
        ]
        votes = vote_all(answers)
        assert [(v.doi, v.decision) for v in votes] == [
            ("10.1/a", Verdict.YES), ("10.1/b", Verdict.NO),
        ]
        assert all(v.yes_count + v.no_count == 5 for v in votes)


def filter_gateway(pub, reply):
    template = prompts.default_registry().get("dl-filter")
    query = next(line[len("Query: "):] for line in template.body.splitlines()
                 if line.startswith("Query: "))
    from litrag.retrieval import retrieve_context

    context = retrieve_context(pub.full_text, query, CONFIG, 1200, doc_id=pub.citation.doi)
    prompt = template.render({"context": context.text})
    request = ChatRequest.create(ENDPOINT, prompt)
    return LlmGateway(MockBackend(canned={request.request_id: reply}), sleep=lambda s: None)


class TestFilterDlPublication:
    def pub(self, doi="10.1/f", text="We trained a CNN on annotated camera trap images."):
        return PublicationRecord(citation=CitationRecord(doi=doi), full_text=text)

    def test_dl_study_retained(self):
        pub = self.pub()
        gateway = filter_gateway(pub, "Answer:::\nResponse: Yes\nAnswer:::")
        verdict = filter_dl_publication(pub, ENDPOINT, gateway, CONFIG)
        assert verdict.is_dl_study is True

    def test_keyword_only_mention_rejected(self):
        pub = self.pub(text="Deep learning is mentioned once; only manual methods are used.")
        gateway = filter_gateway(pub, "Answer:::\nResponse: No\nAnswer:::")
        verdict = filter_dl_publication(pub, ENDPOINT, gateway, CONFIG)
        assert verdict.is_dl_study is False

    def test_gateway_failure_raises(self):
        pub = self.pub()
        template = prompts.default_registry().get("dl-filter")
        query = next(line[len("Query: "):] for line in template.body.splitlines()
                     if line.startswith("Query: "))
        from litrag.retrieval import retrieve_context

        context = retrieve_context(pub.full_text, query, CONFIG, 1200,
                                   doc_id=pub.citation.doi)
        prompt = template.render({"context": context.text})
        request = ChatRequest.create(ENDPOINT, prompt)
        gateway = LlmGateway(MockBackend(fail_first={request.request_id: 99}),
                             sleep=lambda s: None)
        with pytest.raises(GatewayError):
            filter_dl_publication(pub, ENDPOINT, gateway, CONFIG)

    def test_unparseable_retains_publication(self):
        pub = self.pub()
        gateway = filter_gateway(pub, "hard to say really")
        verdict = filter_dl_publication(pub, ENDPOINT, gateway, CONFIG)
        assert verdict.is_dl_study is True

    def test_464_publications_257_retained(self):
        pubs = [
            self.pub(doi=f"10.9/f{i:03d}", text=f"Study {i} used monitoring method {i}.")
            for i in range(464)
        ]
        canned = {}
        template = prompts.default_registry().get("dl-filter")
        query = next(line[len("Query: "):] for line in template.body.splitlines()
                     if line.startswith("Query: "))
        from litrag.retrieval import retrieve_context

        for i, pub in enumerate(pubs):
            context = retrieve_context(pub.full_text, query, CONFIG, 1200,
                                       doc_id=pub.citation.doi)
            prompt = template.render({"context": context.text})
            request = ChatRequest.create(ENDPOINT, prompt)
            reply = "Yes" if i < 257 else "No"
            canned[request.request_id] = f"Answer:::\nResponse: {reply}\nAnswer:::"
        gateway = LlmGateway(MockBackend(canned=canned), sleep=lambda s: None)
        verdicts = [filter_dl_publication(pub, ENDPOINT, gateway, CONFIG) for pub in pubs]
        assert sum(1 for v in verdicts if v.is_dl_study) == 257


class SendCountingBackend(MockBackend):
    def __init__(self):
        super().__init__()
        self.sends = 0

    def send(self, endpoint, request):
        self.sends += 1
        return super().send(endpoint, request)


class TestRunConversions:
    QUESTIONS = {1: CompetencyQuestion(1, "Question one?"), 2: CompetencyQuestion(2, "Question two?")}
    ENDPOINTS = {"A": ModelEndpoint(name="A"), "B": ModelEndpoint(name="B")}

    @staticmethod
    def answer(doi, cq_id, endpoint):
        return TextualAnswer(doi, cq_id, endpoint, f"An answer to {cq_id} about {doi}.", 100)

    def answers(self):
        """Two questions by two endpoints for three publications, shuffled,
        and one answer of an endpoint that is not configured, for the last
        publication in key order."""
        answers = [self.answer(f"10.1/p{p}", cq, e) for p in range(3) for cq in (1, 2)
                   for e in ("A", "B")]
        random.Random(5).shuffle(answers)
        return answers + [self.answer("10.1/p2", 2, "Gone")]

    def convert(self, answers, store, backend=None):
        gateway = LlmGateway(backend or MockBackend(), sleep=lambda s: None, parallelism=2)
        return run_conversions(answers, self.QUESTIONS, self.ENDPOINTS, gateway, store)

    def test_a_pending_unconfigured_answer_stops_the_run_before_any_request(self, tmp_path):
        backend = SendCountingBackend()
        store = VerdictStore(tmp_path / "verdicts.csv")
        with pytest.raises(PipelineError, match="endpoint 'Gone', which is not configured"):
            self.convert(self.answers(), store, backend)
        assert backend.sends == 0
        assert not store.path.exists()

    def test_an_unconfigured_answer_with_a_stored_verdict_is_not_pending(self, tmp_path):
        store = VerdictStore(tmp_path / "verdicts.csv")
        store.write([CategoricalAnswer("10.1/p2", 2, "Gone", Verdict.NO)])
        result = self.convert(self.answers(), store)
        assert (result.completed, result.skipped, result.failed) == (12, 1, [])
        assert [v.key for v in store.load()] == sorted(a.key for a in self.answers())

    def test_one_batch_per_publication_in_key_order(self, tmp_path, monkeypatch):
        batches = []
        run_requests = voting.run_requests

        def recording_run_requests(given, *args):
            def recorded():
                for batch in given:
                    batch = list(batch)
                    batches.append([answer.key for answer in batch])
                    yield batch
            return run_requests(recorded(), *args)

        monkeypatch.setattr(voting, "run_requests", recording_run_requests)
        answers = [a for a in self.answers() if a.endpoint != "Gone"]
        result = self.convert(answers, VerdictStore(tmp_path / "verdicts.csv"))
        assert result.completed == 12
        keys = sorted(a.key for a in answers)
        assert batches == [keys[0:4], keys[4:8], keys[8:12]]


class TestVerdictStore:
    def test_roundtrip_and_canonicalize(self, tmp_path):
        store = VerdictStore(tmp_path / "verdicts.csv")
        store.append(CategoricalAnswer("10.1/b", 1, "M", Verdict.NO))
        store.append(CategoricalAnswer("10.1/a", 2, "M", Verdict.YES))
        store.append(CategoricalAnswer("10.1/a", 1, "M", Verdict.UNPARSEABLE))
        store.canonicalize()
        loaded = store.load()
        assert [a.key for a in loaded] == sorted(a.key for a in loaded)
        assert loaded[0].verdict is Verdict.UNPARSEABLE

    @pytest.mark.parametrize("edit", [
        lambda data: data.replace(b"\r\n", b"\r\n\r\n", 2),
        lambda data: data.replace(b"verdict\r\n", b"verdict\n"),
        lambda data: data[:-2],
    ], ids=["blank lines", "header line end", "unterminated last row"])
    def test_a_store_in_key_order_but_not_as_written_is_rewritten(self, tmp_path, edit):
        path = tmp_path / "verdicts.csv"
        store = VerdictStore(path)
        store.extend([CategoricalAnswer("10.1/a", 1, "M", Verdict.YES),
                      CategoricalAnswer("10.1/a", 2, "M", Verdict.NO)])
        store.close()
        written = path.read_bytes()
        path.write_bytes(edit(written))
        store = VerdictStore(path)
        assert len(store.keys()) == 2
        store.canonicalize()
        assert path.read_bytes() == written

    @pytest.mark.parametrize("cut, torn", [(-4, True), (-3, True), (-2, False), (-1, False)])
    def test_final_row_cut_by_a_crash(self, tmp_path, caplog, cut, torn):
        path = tmp_path / "verdicts.csv"
        first = CategoricalAnswer("10.1/a", 1, "M", Verdict.NO)
        last = CategoricalAnswer("10.1/a", 2, "M", Verdict.YES)
        store = VerdictStore(path)
        store.append(first)
        store.append(last)
        store.close()
        # the file ends "Yes\r\n": -4 and -3 cut inside the verdict, -2 and -1
        # keep the whole row but not its line end
        path.write_bytes(path.read_bytes()[:cut])
        kept = [first] if torn else [first, last]
        assert VerdictStore(path).load() == kept
        assert ("torn final line" in caplog.text) == torn

        store = VerdictStore(path)
        extra = CategoricalAnswer("10.1/b", 1, "M", Verdict.UNPARSEABLE)
        store.append(extra)
        store.close()
        assert VerdictStore(path).load() == kept + [extra]
        assert path.read_bytes().count(b"doi,cq_id") == 1

    def test_extend_writes_the_header_once_and_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "verdicts.csv"
        header = b"doi,cq_id,endpoint,verdict\r\n"
        first = CategoricalAnswer("10.1/a", 1, "M", Verdict.NO)
        second = CategoricalAnswer("10.1/b", 1, "M", Verdict.YES)
        store = VerdictStore(path)
        store.extend([])
        assert path.read_bytes() == header
        store.extend([first, second])
        assert store.load() == [first, second]  # one flush per call
        store.write([first])  # closes the file extend opened
        assert path.read_bytes() == header + b"10.1/a,1,M,No\r\n"
        store.append(second)  # reopens the new file
        store.close()
        assert VerdictStore(path).load() == [first, second]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["verdicts.csv"]

    def test_malformed_earlier_row_raises(self, tmp_path):
        path = tmp_path / "verdicts.csv"
        store = VerdictStore(path)
        store.append(CategoricalAnswer("10.1/a", 1, "M", Verdict.NO))
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write("10.1/a,2,M,Ye\r\n")
        store.append(CategoricalAnswer("10.1/a", 3, "M", Verdict.YES))
        store.close()
        with pytest.raises(ValueError):
            store.load()


class TestVoteStore:
    def test_golden_votes_keep_their_bytes(self, tmp_path):
        golden = FIXTURES / "golden" / "votes.csv"
        votes = VoteStore(golden).load()
        assert len(votes) == 84 and votes == sorted(votes, key=lambda v: (v.doi, v.cq_id))
        path = tmp_path / "votes.csv"
        path.write_bytes(b"a stale table")
        VoteStore(path).write(votes)
        assert path.read_bytes() == golden.read_bytes()

    def test_malformed_row_raises(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_bytes(b"doi,cq_id,yes_count,no_count,decision\r\n10.1/a,1,3,2,Maybe\r\n"
                         b"10.1/a,2,3,2,Yes\r\n")
        with pytest.raises(ValueError):
            VoteStore(path).load()
