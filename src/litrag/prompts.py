"""Fixed prompt templates and their rendering.

Template bodies live as UTF-8 text files under ``litrag/templates`` with
``{name}`` placeholders. Rendering is a single-pass substitution: text coming
in through a binding is inserted literally and never re-expanded.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

from .errors import TemplateError

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")

_TEMPLATE_FILES = {
    "keyword-extraction": "keyword_extraction.txt",
    "cq-answering": "cq_answering.txt",
    "categorical-conversion": "categorical_conversion.txt",
    "dl-filter": "dl_filter.txt",
}

# Query string sent with the keyword-extraction template.
KEYWORD_EXTRACTION_QUERY = (
    "your task is to extract the deep learning related keywords from the "
    "provided context for the literature survey"
)


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    body: str
    placeholders: tuple[str, ...]

    def render(self, bindings: Mapping[str, str]) -> str:
        missing = [name for name in self.placeholders if name not in bindings]
        if missing:
            raise TemplateError(
                f"template {self.id!r}: unbound placeholder(s) {', '.join(missing)}"
            )

        def substitute(match: re.Match[str]) -> str:
            return bindings[match.group(1)]

        return _PLACEHOLDER_RE.sub(substitute, self.body)


def _load(template_id: str) -> PromptTemplate:
    filename = _TEMPLATE_FILES[template_id]
    body = resources.files("litrag.templates").joinpath(filename).read_text("utf-8")
    names = []
    for name in _PLACEHOLDER_RE.findall(body):
        if name not in names:
            names.append(name)
    return PromptTemplate(id=template_id, body=body, placeholders=tuple(names))


@functools.cache
def default_registry() -> dict[str, PromptTemplate]:
    """Every template by id, loaded once; callers must not modify it."""
    return {tid: _load(tid) for tid in _TEMPLATE_FILES}


def render(template_id: str, bindings: Mapping[str, str]) -> str:
    try:
        template = default_registry()[template_id]
    except KeyError:
        raise TemplateError(f"unknown template id {template_id!r}") from None
    return template.render(bindings)
