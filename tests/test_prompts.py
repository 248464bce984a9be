from pathlib import Path

import pytest

from litrag import prompts
from litrag.errors import TemplateError

GOLDEN = Path(__file__).parent / "fixtures" / "prompts"


def identity_bindings(template_id):
    template = prompts.default_registry().get(template_id)
    return {name: "{" + name + "}" for name in template.placeholders}


class TestGoldenFidelity:
    def test_keyword_extraction_matches_golden(self):
        rendered = prompts.render("keyword-extraction", identity_bindings("keyword-extraction"))
        golden = (GOLDEN / "keyword_extraction_golden.txt").read_text(encoding="utf-8")
        assert rendered == golden

    def test_categorical_conversion_matches_golden(self):
        rendered = prompts.render(
            "categorical-conversion", identity_bindings("categorical-conversion")
        )
        golden = (GOLDEN / "categorical_conversion_golden.txt").read_text(encoding="utf-8")
        assert rendered == golden


class TestRender:
    def test_keyword_extraction_substitution(self):
        rendered = prompts.render(
            "keyword-extraction",
            {"query": prompts.KEYWORD_EXTRACTION_QUERY, "context": "an abstract about CNNs"},
        )
        assert "Query: your task is to extract the deep learning related keywords" in rendered
        assert "Context: an abstract about CNNs" in rendered
        assert "Deep learning related words:" in rendered
        assert "{query}" not in rendered

    def test_conversion_contains_examples_and_answer_format(self):
        rendered = prompts.render(
            "categorical-conversion", {"Question": "Q?", "Answer": "A."}
        )
        assert "Provide a binary response" in rendered
        assert rendered.count("Example") == 3
        assert "spectrograms derived from the audio files" in rendered
        assert "Response: (Yes or No)" in rendered
        assert "Question: Q?" in rendered
        assert "Answer: A." in rendered

    def test_placeholder_like_binding_inserted_literally(self):
        rendered = prompts.render(
            "cq-answering", {"query": "{query}", "context": "{query} stays verbatim"}
        )
        assert "Query: {query}" in rendered
        assert "Context: {query} stays verbatim" in rendered

    def test_missing_binding_names_the_placeholder(self):
        with pytest.raises(TemplateError, match="context"):
            prompts.render("cq-answering", {"query": "only one"})

    def test_unknown_template_rejected(self):
        with pytest.raises(TemplateError):
            prompts.render("does-not-exist", {})

    def test_cq_answering_carries_word_cap(self):
        template = prompts.default_registry().get("cq-answering")
        assert "fewer than 400 words" in template.body

    def test_dl_filter_has_fixed_query_and_context_slot(self):
        template = prompts.default_registry().get("dl-filter")
        assert template.placeholders == ("context",)
        assert "deep learning pipeline" in template.body
        assert "Response: (Yes or No)" in template.body

    def test_registry_lists_all_templates(self):
        assert tuple(sorted(prompts.default_registry())) == (
            "categorical-conversion", "cq-answering", "dl-filter", "keyword-extraction",
        )

    def test_injective_over_distinct_bindings(self):
        first = prompts.render("cq-answering", {"query": "a", "context": "b"})
        second = prompts.render("cq-answering", {"query": "a", "context": "c"})
        assert first != second
