import pytest

from litrag import prompts
from litrag.errors import PipelineError
from litrag.gateway import ChatRequest, LlmGateway, MockBackend, ModelEndpoint
from litrag.keywords import (
    CONSOLIDATION_QUERY,
    consolidate_keywords,
    curation_diff,
    extract_keywords,
    load_curated,
    parse_keyword_response,
)

ENDPOINT = ModelEndpoint(name="Extractor")


def canned_gateway(prompt_to_text):
    canned = {
        ChatRequest.create(ENDPOINT, prompt).request_id: text
        for prompt, text in prompt_to_text.items()
    }
    return LlmGateway(MockBackend(canned=canned), sleep=lambda s: None)


def extraction_prompt(abstract):
    return prompts.render(
        "keyword-extraction",
        {"query": prompts.KEYWORD_EXTRACTION_QUERY, "context": abstract},
    )


def consolidation_prompt(raw):
    return prompts.render(
        "keyword-extraction",
        {"query": CONSOLIDATION_QUERY, "context": ", ".join(raw)},
    )


class TestParseKeywordResponse:
    def test_comma_separated_list(self):
        assert parse_keyword_response(
            "Deep learning related words: CNN, transfer learning"
        ) == ["cnn", "transfer learning"]

    def test_marker_absent(self):
        assert parse_keyword_response("no marker in sight") == []

    def test_trailing_answer_block_ignored(self):
        text = "Answer:::\nDeep learning related words: cnn, rnn\nAnswer:::"
        assert parse_keyword_response(text) == ["cnn", "rnn"]

    def test_idempotent_normalization(self):
        parsed = parse_keyword_response("Deep learning related words:  CNN ,  cnn model ")
        assert parsed == ["cnn", "cnn model"]
        assert [kw.strip().lower() for kw in parsed] == parsed


class TestExtractKeywords:
    def test_mock_extraction(self):
        abstract = "We trained a CNN with transfer learning."
        gateway = canned_gateway({
            extraction_prompt(abstract): "Deep learning related words: CNN, transfer learning"
        })
        assert extract_keywords(abstract, ENDPOINT, gateway) == ["cnn", "transfer learning"]

    def test_missing_marker_warns_and_returns_empty(self, caplog):
        abstract = "An abstract."
        gateway = canned_gateway({extraction_prompt(abstract): "I cannot help."})
        with caplog.at_level("WARNING"):
            assert extract_keywords(abstract, ENDPOINT, gateway) == []
        assert "no keyword marker" in caplog.text

    def test_empty_abstract_rejected(self):
        with pytest.raises(ValueError):
            extract_keywords("  ", ENDPOINT, canned_gateway({}))

    def test_44_abstracts_yield_248_raw_keywords(self):
        # 28 abstracts produce 6 keywords, 16 produce 5: 28*6 + 16*5 = 248.
        abstracts = [f"Abstract number {i} about monitoring." for i in range(44)]
        prompt_map = {}
        for i, abstract in enumerate(abstracts):
            size = 6 if i < 28 else 5
            kws = ", ".join(f"kw-{i}-{j}" for j in range(size))
            prompt_map[extraction_prompt(abstract)] = (
                f"Deep learning related words: {kws}"
            )
        gateway = canned_gateway(prompt_map)
        raw = []
        for abstract in abstracts:
            raw.extend(extract_keywords(abstract, ENDPOINT, gateway))
        assert len(raw) == 248


class TestConsolidateKeywords:
    def test_mock_reduction_to_123(self):
        raw = [f"kw{i % 150}" for i in range(248)]
        reduced = ", ".join(f"kw{i}" for i in range(123))
        gateway = canned_gateway({
            consolidation_prompt(raw): f"Deep learning related words: {reduced}"
        })
        assert len(consolidate_keywords(raw, ENDPOINT, gateway)) == 123

    def test_local_exact_dedup_after_echo(self):
        raw = ["cnn", "cnn"]
        gateway = canned_gateway({
            consolidation_prompt(raw): "Deep learning related words: cnn, cnn"
        })
        assert consolidate_keywords(raw, ENDPOINT, gateway) == ["cnn"]

    def test_single_keyword_identity(self):
        gateway = canned_gateway({
            consolidation_prompt(["cnn"]): "Deep learning related words: cnn"
        })
        assert consolidate_keywords(["cnn"], ENDPOINT, gateway) == ["cnn"]

    def test_output_subset_of_response_vocabulary(self):
        raw = ["cnn", "rnn", "gan"]
        gateway = canned_gateway({
            consolidation_prompt(raw): "Deep learning related words: cnn, gan"
        })
        result = consolidate_keywords(raw, ENDPOINT, gateway)
        assert set(result) <= {"cnn", "gan"}

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            consolidate_keywords([], ENDPOINT, canned_gateway({}))


class TestLoadCurated:
    def test_packaged_curated_list(self):
        from importlib import resources

        ref = resources.files("litrag.data").joinpath("curated_keywords.txt")
        with resources.as_file(ref) as path:
            keywords = load_curated(path)
        assert len(keywords) == 25
        assert "convolutional neural network" in keywords.keywords

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "curated.txt"
        path.write_text("cnn\n\n\ntransformer\n", encoding="utf-8")
        assert load_curated(path).keywords == ("cnn", "transformer")

    def test_duplicates_warn_and_collapse(self, tmp_path, caplog):
        path = tmp_path / "curated.txt"
        path.write_text("cnn\nCNN\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert load_curated(path).keywords == ("cnn",)
        assert "duplicate" in caplog.text

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "curated.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="curated keyword file is empty"):
            load_curated(path)


def test_curation_diff():
    removed, added = curation_diff(["a", "b", "c"], ["b", "d"])
    assert removed == ["a", "c"]
    assert added == ["d"]
