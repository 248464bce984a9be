"""Lexical text similarity: a small tf-idf vectorizer and cosine.

The weighting scheme is pinned so that results are reproducible and can be
checked against hand computations:

    tokens      \\w+ runs on the lowercased text
    tf          raw term count within one text
    idf         ln((1 + N) / (1 + df)) + 1   (smoothed)
    vector      tf * idf per term, kept sparse as a dict
    cosine      dot(u, v) / (|u| |v|), defined as 0.0 when either norm is 0

Terms absent from the fitted corpus are dropped at transform time.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Dict, Iterable, Mapping, Optional

_TOKEN_RE = re.compile(r"\w+")

Vector = Dict[str, float]


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def term_counts(text: str) -> Counter[str]:
    """Raw term frequencies of ``text``, in first-occurrence order."""
    return Counter(tokenize(text))


class TfidfModel:
    """Idf table fitted over a fixed document collection."""

    def __init__(self, idf: Mapping[str, float]):
        self.idf = dict(idf)

    @classmethod
    def fit(cls, documents: Iterable[str]) -> "TfidfModel":
        return cls.fit_terms(set(tokenize(doc)) for doc in documents)

    @classmethod
    def fit_terms(cls, documents: Iterable[Iterable[str]]) -> "TfidfModel":
        """Fit on documents given as their distinct terms, such as the keys
        of `term_counts`."""
        doc_freq: Counter[str] = Counter()
        n = 0
        for terms in documents:
            n += 1
            doc_freq.update(terms)
        idf = {
            term: math.log((1 + n) / (1 + df)) + 1.0
            for term, df in doc_freq.items()
        }
        return cls(idf)

    def transform(self, text: str) -> Vector:
        return self.weigh(term_counts(text))

    def weigh(self, counts: Mapping[str, int]) -> Vector:
        """The tf-idf vector of a text given as its `term_counts`."""
        return {
            term: count * self.idf[term]
            for term, count in counts.items()
            if term in self.idf
        }


def norm(u: Mapping[str, float]) -> float:
    return math.sqrt(sum(w * w for w in u.values()))


def cosine(
    u: Mapping[str, float],
    v: Mapping[str, float],
    norm_v: Optional[float] = None,
    norm_u: Optional[float] = None,
) -> float:
    """``norm_v`` and ``norm_u`` may pass a precomputed `norm` of a vector
    scored many times."""
    nu = norm(u) if norm_u is None else norm_u
    nv = norm(v) if norm_v is None else norm_v
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if len(v) < len(u):
        u, v = v, u
    dot = sum(w * v[t] for t, w in u.items() if t in v)
    # clamp float noise back inside the Cauchy-Schwarz bound
    return max(-1.0, min(1.0, dot / (nu * nv)))
