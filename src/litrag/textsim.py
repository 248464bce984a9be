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


class TfidfModel:
    """Idf table fitted over a fixed document collection."""

    def __init__(self, idf: Mapping[str, float], n_docs: int):
        self.idf = dict(idf)
        self.n_docs = n_docs

    @classmethod
    def fit(cls, documents: Iterable[str]) -> "TfidfModel":
        doc_freq: Counter[str] = Counter()
        n_docs = 0
        for doc in documents:
            n_docs += 1
            doc_freq.update(set(tokenize(doc)))
        idf = {
            term: math.log((1 + n_docs) / (1 + df)) + 1.0
            for term, df in doc_freq.items()
        }
        return cls(idf, n_docs)

    def transform(self, text: str) -> Vector:
        counts = Counter(tokenize(text))
        return {
            term: count * self.idf[term]
            for term, count in counts.items()
            if term in self.idf
        }


def norm(u: Mapping[str, float]) -> float:
    return math.sqrt(sum(w * w for w in u.values()))


def cosine(u: Mapping[str, float], v: Mapping[str, float], norm_v: Optional[float] = None) -> float:
    """``norm_v`` may pass a precomputed ``norm(v)`` for a vector scored many times."""
    nu, nv = norm(u), norm(v) if norm_v is None else norm_v
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if len(v) < len(u):
        u, v = v, u
    dot = sum(w * v[t] for t, w in u.items() if t in v)
    # clamp float noise back inside the Cauchy-Schwarz bound
    return max(-1.0, min(1.0, dot / (nu * nv)))
