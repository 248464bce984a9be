import itertools
import random

import pytest

from litrag import prompts
from litrag.corpus import CitationRecord, PublicationRecord
from litrag.extraction import CompetencyQuestion, TextualAnswer
from litrag.gateway import ChatRequest, LlmGateway, MockBackend, ModelEndpoint
from litrag.retrieval import ChunkingConfig
from litrag.voting import (
    CategoricalAnswer,
    Verdict,
    VerdictStore,
    filter_dl_publication,
    majority_vote,
    parse_categorical_response,
    to_categorical,
    vote_all,
)

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


class TestToCategorical:
    def test_specific_answer_judged_yes(self):
        question = CompetencyQuestion(id=2, text=EXAMPLE_YES_QUESTION)
        answer = TextualAnswer("10.1/a", 2, ENDPOINT.name, EXAMPLE_YES_ANSWER,
                               EXAMPLE_YES_ANSWER, 10)
        gateway = conversion_gateway(EXAMPLE_YES_QUESTION, EXAMPLE_YES_ANSWER,
                                     "Answer:::\nResponse: Yes\nAnswer:::")
        verdict = to_categorical(question, answer, ENDPOINT, gateway)
        assert verdict.verdict is Verdict.YES

    def test_unspecific_answer_judged_no(self):
        question = CompetencyQuestion(id=1, text=EXAMPLE_NO_QUESTION)
        answer = TextualAnswer("10.1/a", 1, ENDPOINT.name, EXAMPLE_NO_ANSWER,
                               EXAMPLE_NO_ANSWER, 10)
        gateway = conversion_gateway(EXAMPLE_NO_QUESTION, EXAMPLE_NO_ANSWER,
                                     "Answer:::\nResponse: No\nAnswer:::")
        verdict = to_categorical(question, answer, ENDPOINT, gateway)
        assert verdict.verdict is Verdict.NO

    def test_free_prose_is_unparseable(self):
        question = CompetencyQuestion(id=1, text="Q?")
        answer = TextualAnswer("10.1/a", 1, ENDPOINT.name, "A.", "A.", 10)
        gateway = conversion_gateway("Q?", "A.", "I believe the answer is affirmative.")
        assert to_categorical(question, answer, ENDPOINT, gateway).verdict is Verdict.UNPARSEABLE

    def test_gateway_failure_becomes_unparseable_with_note(self):
        question = CompetencyQuestion(id=1, text="Q?")
        answer = TextualAnswer("10.1/a", 1, ENDPOINT.name, "A.", "A.", 10)
        prompt = prompts.render("categorical-conversion", {"Question": "Q?", "Answer": "A."})
        request = ChatRequest.create(ENDPOINT, prompt)
        gateway = LlmGateway(
            MockBackend(fail_first={request.request_id: 99}), sleep=lambda s: None
        )
        verdict = to_categorical(question, answer, ENDPOINT, gateway)
        assert verdict.verdict is Verdict.UNPARSEABLE
        assert "gateway failure" in verdict.note

    def test_mismatched_endpoint_rejected(self):
        question = CompetencyQuestion(id=1, text="Q?")
        answer = TextualAnswer("10.1/a", 1, "Somebody Else", "A.", "A.", 10)
        with pytest.raises(ValueError):
            to_categorical(question, answer, ENDPOINT,
                           LlmGateway(MockBackend(), sleep=lambda s: None))

    def test_categorize_stage_logged(self):
        question = CompetencyQuestion(id=1, text="Q?")
        answer = TextualAnswer("10.1/a", 1, ENDPOINT.name, "A.", "A.", 10)
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

    def test_gateway_failure_returns_none(self):
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
        assert filter_dl_publication(pub, ENDPOINT, gateway, CONFIG) is None

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
