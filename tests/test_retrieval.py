import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrag.retrieval import (
    Chunk,
    ChunkScore,
    ChunkingConfig,
    DocumentIndex,
    RetrievalContext,
    assemble_context,
    chunk_document,
    rank_scores,
    retrieve_context,
    score_chunks,
)
from litrag import textsim


def words(n, prefix="w"):
    return " ".join(f"{prefix}{i}" for i in range(n))


def make_chunks(lengths):
    return [
        Chunk(doc_id="d", index=i, start=0, text=words(length, prefix=f"c{i}x"), length=length)
        for i, length in enumerate(lengths)
    ]


class TestChunkDocument:
    def test_2500_tokens_default_config(self):
        chunks = chunk_document(words(2500), ChunkingConfig(chunk_size=1000, overlap=50))
        assert [c.start for c in chunks] == [0, 950, 1900]
        assert [c.length for c in chunks] == [1000, 1000, 600]

    def test_short_text_single_chunk(self):
        chunks = chunk_document(words(800), ChunkingConfig(chunk_size=1000, overlap=50))
        assert len(chunks) == 1
        assert chunks[0].length == 800

    def test_exact_tiling_without_overlap(self):
        chunks = chunk_document(words(250), ChunkingConfig(chunk_size=100, overlap=0))
        assert [c.start for c in chunks] == [0, 100, 200]

    def test_empty_text(self):
        assert chunk_document("", ChunkingConfig()) == []

    def test_invalid_overlap_rejected(self):
        with pytest.raises(ValueError):
            ChunkingConfig(chunk_size=100, overlap=100)

    def test_coverage_and_stride_properties(self):
        rng = random.Random(3)
        for _ in range(200):
            n_tokens = rng.randrange(0, 3000)
            size = rng.randrange(1, 1200)
            overlap = rng.randrange(0, size)
            config = ChunkingConfig(chunk_size=size, overlap=overlap)
            chunks = chunk_document(words(n_tokens), config)
            if n_tokens == 0:
                assert chunks == []
                continue
            covered = set()
            for chunk in chunks:
                assert chunk.length <= size
                covered.update(range(chunk.start, chunk.start + chunk.length))
            assert covered == set(range(n_tokens))
            starts = [c.start for c in chunks]
            assert starts == sorted(starts)
            for previous, current in zip(starts, starts[1:]):
                assert current - previous == config.stride
            assert all(c.length == size for c in chunks[:-1])


def index_of(*texts):
    """An index whose chunks are ``texts``, which have the same number of words."""
    config = ChunkingConfig(chunk_size=len(texts[0].split()), overlap=0)
    index = DocumentIndex(" ".join(texts), config, doc_id="d")
    assert [chunk.text for chunk in index.chunks] == list(texts)
    return index


class TestScoreChunks:
    def test_identical_query_scores_one_and_ranks_first(self):
        index = index_of("dogs eat meat", "cats drink milk")
        scores = score_chunks("dogs eat meat", index)
        assert scores[0].score == pytest.approx(1.0, abs=1e-12)
        ranked = rank_scores(scores)
        assert ranked[0].chunk_index == 0

    def test_disjoint_vocabulary_scores_zero(self):
        scores = score_chunks("gamma delta", index_of("alpha beta"))
        assert scores[0].score == 0.0

    def test_hand_computed_ranking(self):
        # Oracle: tf*idf with idf = ln((1+N)/(1+df)) + 1 over the three chunks,
        # cosine computed from explicit arithmetic.
        index = index_of("cats eat fish", "dogs eat meat", "birds sing songs")
        idf1 = math.log(4 / 2) + 1  # df = 1
        idf2 = math.log(4 / 3) + 1  # df = 2 ("eat")
        query_norm = math.sqrt(2 * idf1 ** 2)
        c0_norm = math.sqrt(2 * idf1 ** 2 + idf2 ** 2)
        expected_c0 = (2 * idf1 ** 2) / (query_norm * c0_norm)
        scores = score_chunks("cats fish", index)
        assert scores[0].score == pytest.approx(expected_c0, abs=1e-12)
        assert scores[1].score == 0.0
        assert scores[2].score == 0.0
        assert [s.chunk_index for s in rank_scores(scores)] == [0, 1, 2]

    def test_no_chunks_rejected(self):
        with pytest.raises(ValueError):
            score_chunks("query", DocumentIndex("", ChunkingConfig()))

    def test_rank_ties_broken_by_index(self):
        scores = [ChunkScore(2, 0.5), ChunkScore(0, 0.5), ChunkScore(1, 0.9)]
        assert [s.chunk_index for s in rank_scores(scores)] == [1, 0, 2]


class TestAssembleContext:
    def test_single_1000_token_chunk_fits_1200(self):
        chunks = make_chunks([1000, 1000, 1000])
        ranked = [ChunkScore(i, 1.0 - i * 0.1) for i in range(3)]
        context = assemble_context(ranked, chunks, budget=1200)
        assert len(context.chunks) == 1
        assert context.total_tokens == 1000

    def test_budget_zero_empty_context(self):
        chunks = make_chunks([10])
        context = assemble_context([ChunkScore(0, 1.0)], chunks, budget=0)
        assert context.chunks == ()
        assert context.total_tokens == 0

    def test_greedy_prefix_admission(self):
        chunks = make_chunks([600, 500, 400])
        ranked = [ChunkScore(0, 0.9), ChunkScore(1, 0.8), ChunkScore(2, 0.7)]
        context = assemble_context(ranked, chunks, budget=1200)
        assert [c.index for c in context.chunks] == [0, 1]
        assert context.total_tokens == 1100

    def test_text_joined_with_blank_line(self):
        chunks = make_chunks([2, 2])
        ranked = [ChunkScore(0, 0.9), ChunkScore(1, 0.8)]
        context = assemble_context(ranked, chunks, budget=10)
        assert context.text == chunks[0].text + "\n\n" + chunks[1].text

    def test_budget_never_exceeded_and_monotone(self):
        rng = random.Random(5)
        for _ in range(300):
            lengths = [rng.randrange(1, 700) for _ in range(rng.randrange(1, 12))]
            chunks = make_chunks(lengths)
            scores = [ChunkScore(i, rng.random()) for i in range(len(lengths))]
            ranked = rank_scores(scores)
            budget = rng.randrange(0, 2000)
            smaller = assemble_context(ranked, chunks, budget)
            assert smaller.total_tokens <= budget
            larger = assemble_context(ranked, chunks, budget + rng.randrange(0, 500))
            admitted_small = [c.index for c in smaller.chunks]
            admitted_large = [c.index for c in larger.chunks]
            assert admitted_large[: len(admitted_small)] == admitted_small


class TestRetrieveContext:
    def test_deterministic_across_calls(self):
        text = " ".join(f"tok{i % 97} filler" for i in range(600))
        config = ChunkingConfig(chunk_size=100, overlap=10)
        first = retrieve_context(text, "tok3 tok5", config, budget=250)
        second = retrieve_context(text, "tok3 tok5", config, budget=250)
        assert first.text == second.text

    def test_empty_document_gives_empty_context(self):
        context = retrieve_context("", "query", ChunkingConfig(), budget=100)
        assert context.chunks == ()
        assert context.text == ""


def seed_retrieve(text, query, config, budget, doc_id=""):
    """The per-call algorithm the index replaces: fit on the chunks, transform
    every chunk, cosine, rank, assemble. Returns (scores, context)."""
    chunks = chunk_document(text, config, doc_id=doc_id)
    if not chunks:
        return [], RetrievalContext(chunks=(), total_tokens=0, budget=budget)
    model = textsim.TfidfModel.fit(chunk.text for chunk in chunks)
    query_vec = model.transform(query)
    scores = [
        ChunkScore(chunk.index, textsim.cosine(query_vec, model.transform(chunk.text)))
        for chunk in chunks
    ]
    return scores, assemble_context(rank_scores(scores), chunks, budget)


VOCABULARY = ("cnn", "Model", "data", "train", "images", "code,", "GPU", "x", "é", "42")
texts = st.lists(st.sampled_from(VOCABULARY), max_size=120).map(" ".join)


class TestDocumentIndex:
    @settings(max_examples=150, deadline=None)
    @given(
        text=texts,
        queries=st.lists(texts, min_size=1, max_size=4),
        chunk_size=st.integers(1, 40),
        overlap_share=st.floats(0.0, 0.99),
        budget=st.one_of(st.just(0), st.integers(0, 200)),
    )
    def test_matches_per_call_retrieval(self, text, queries, chunk_size, overlap_share, budget):
        config = ChunkingConfig(chunk_size=chunk_size, overlap=int(overlap_share * chunk_size))
        index = DocumentIndex(text, config, doc_id="d")
        for query in queries:
            scores, context = seed_retrieve(text, query, config, budget, "d")
            assert index.retrieve(query, budget) == context
            if scores:
                assert score_chunks(query, index) == scores


def assert_fitted_as_by_fit_and_transform(index):
    """``index`` holds the model, vectors and norms that `TfidfModel.fit` and
    `transform` give over its chunk texts, with each vector's terms in the
    same order."""
    texts = [chunk.text for chunk in index.chunks]
    model = textsim.TfidfModel.fit(texts)
    vectors = [model.transform(text) for text in texts]
    assert index.model.idf == model.idf
    assert [list(vector.items()) for vector in index.vectors] == [
        list(vector.items()) for vector in vectors
    ]
    assert index.norms == [textsim.norm(vector) for vector in vectors]


class TestDocumentIndexFit:
    @settings(max_examples=150, deadline=None)
    @given(
        text=texts,
        chunk_size=st.integers(1, 40),
        overlap_share=st.floats(0.0, 0.99),
    )
    def test_equals_fit_and_transform(self, text, chunk_size, overlap_share):
        config = ChunkingConfig(chunk_size=chunk_size, overlap=int(overlap_share * chunk_size))
        assert_fitted_as_by_fit_and_transform(DocumentIndex(text, config))

    def test_one_chunk_that_repeats_a_term(self):
        index = DocumentIndex("cnn data cnn gpu cnn", ChunkingConfig(chunk_size=50, overlap=0))
        assert len(index.chunks) == 1
        assert_fitted_as_by_fit_and_transform(index)
        # one chunk: every term is in every chunk, so each idf is ln(2/2) + 1,
        # however often the chunk repeats it
        assert set(index.model.idf.values()) == {1.0}
        assert index.vectors == [{"cnn": 3.0, "data": 1.0, "gpu": 1.0}]

    def test_chunks_that_repeat_terms(self):
        text = "cnn cnn cnn data gpu gpu model model cnn images data data"
        index = DocumentIndex(text, ChunkingConfig(chunk_size=4, overlap=1))
        assert len(index.chunks) > 1
        assert_fitted_as_by_fit_and_transform(index)
        # "cnn" is in 2 of 4 chunks, and three times in the first
        assert index.model.idf["cnn"] == math.log(5 / 3) + 1.0
        assert index.vectors[0]["cnn"] == 3 * index.model.idf["cnn"]


class TestTextsim:
    def test_cosine_zero_vector(self):
        assert textsim.cosine({}, {"a": 1.0}) == 0.0

    def test_transform_drops_unseen_terms(self):
        model = textsim.TfidfModel.fit(["alpha beta", "beta gamma"])
        assert "delta" not in model.transform("delta alpha")

    def test_tokens_lowercased_on_word_boundaries(self):
        assert textsim.tokenize("The CNN-based model, v2.") == [
            "the", "cnn", "based", "model", "v2"
        ]
