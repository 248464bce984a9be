"""Agreement and similarity analytics over categorical and textual outputs."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import textsim
from .voting import Verdict, VoteRecord

log = logging.getLogger(__name__)

BINARY_LABELS = ("Yes", "No")


@dataclass(frozen=True)
class LabelSeries:
    """Aligned (key, label) pairs with Yes/No labels and unique keys."""

    keys: tuple
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.labels):
            raise ValueError("keys and labels must have equal length")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("keys must be unique")
        bad = [lab for lab in self.labels if lab not in BINARY_LABELS]
        if bad:
            raise ValueError(f"labels must be Yes/No, got {bad[:3]}")

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple]) -> "LabelSeries":
        return cls(
            keys=tuple(key for key, _ in pairs),
            labels=tuple(label for _, label in pairs),
        )


@dataclass(frozen=True)
class ConfusionMatrix2x2:
    yy: int
    yn: int
    ny: int
    nn: int

    @property
    def total(self) -> int:
        return self.yy + self.yn + self.ny + self.nn

    @classmethod
    def from_series(cls, a: LabelSeries, b: LabelSeries) -> "ConfusionMatrix2x2":
        _check_aligned(a, b)
        counts = {"YY": 0, "YN": 0, "NY": 0, "NN": 0}
        for la, lb in zip(a.labels, b.labels):
            counts[la[0] + lb[0]] += 1
        return cls(yy=counts["YY"], yn=counts["YN"], ny=counts["NY"], nn=counts["NN"])


def _check_aligned(a: LabelSeries, b: LabelSeries) -> None:
    if a.keys != b.keys:
        raise ValueError("label series must share the same keys in the same order")
    if len(a) == 0:
        raise ValueError("label series are empty")


def kappa_from_confusion(m: ConfusionMatrix2x2) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e) for binary labels.

    Degenerate marginals (p_e = 1, both raters constant) are defined as 1.0
    when the raters agree everywhere and 0.0 (with a warning) otherwise.
    """
    n = m.total
    if n == 0:
        raise ValueError("empty confusion matrix")
    p_o = (m.yy + m.nn) / n
    p_a_yes = (m.yy + m.yn) / n
    p_b_yes = (m.yy + m.ny) / n
    p_e = p_a_yes * p_b_yes + (1 - p_a_yes) * (1 - p_b_yes)
    if p_e == 1.0:
        # both raters constant with the same label; p_o is necessarily 1
        return 1.0
    if p_a_yes in (0.0, 1.0) and p_b_yes in (0.0, 1.0):
        log.warning("constant raters with different labels; kappa defined as 0.0")
        return 0.0
    return (p_o - p_e) / (1 - p_e)


def cohen_kappa(a: LabelSeries, b: LabelSeries) -> float:
    return kappa_from_confusion(ConfusionMatrix2x2.from_series(a, b))


def pairwise_kappa(
    labels_by_endpoint: Mapping[str, Mapping[object, str]], keys: Sequence[object]
) -> SimilarityMatrix:
    """Cohen's kappa of every pair of endpoints over ``keys``, one
    `cohen_kappa` call per pair; the diagonal is 1.0."""
    names = tuple(labels_by_endpoint)
    series = [
        LabelSeries(keys=tuple(keys), labels=tuple(labels_by_endpoint[name][k] for k in keys))
        for name in names
    ]
    matrix = [[1.0] * len(names) for _ in names]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            matrix[i][j] = matrix[j][i] = cohen_kappa(series[i], series[j])
    return SimilarityMatrix(names=names, values=tuple(tuple(row) for row in matrix))


def agreement_counts(a: LabelSeries, b: LabelSeries) -> tuple[int, int]:
    """Positional agreements and the comparison total."""
    _check_aligned(a, b)
    agree = sum(1 for la, lb in zip(a.labels, b.labels) if la == lb)
    return agree, len(a)


@dataclass(frozen=True)
class SimilarityMatrix:
    names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def pair(self, a: str, b: str) -> float:
        i, j = self.names.index(a), self.names.index(b)
        return self.values[i][j]

    def pairs(self) -> list[tuple[str, str, float]]:
        out = []
        for i, a in enumerate(self.names):
            for j in range(i + 1, len(self.names)):
                out.append((a, self.names[j], self.values[i][j]))
        return out


def average_pairwise_similarity(
    answers_by_endpoint: Mapping[str, Mapping[object, str | Counter[str]]],
    keys: Optional[Sequence[object]] = None,
) -> SimilarityMatrix:
    """Average, over all shared keys, the tf-idf cosine between answer texts.

    Each answer is its text or its `textsim.term_counts`; pass counts to
    tokenize once for several matrices. The idf table is fitted on the union
    of every endpoint's answers. Empty answers become zero vectors and
    contribute 0 to each average. Diagonal entries are 1.0 for any endpoint
    with at least one nonzero vector. No endpoint gives an empty matrix.

    The vectors of one key are weighed at a time, so memory holds one
    vector per endpoint, not one per endpoint and key; each pair's cosines
    are added up in key order.
    """
    names = tuple(answers_by_endpoint)
    key_sets = [set(answers) for answers in answers_by_endpoint.values()]
    shared = key_sets[0] if key_sets else set()
    if any(ks != shared for ks in key_sets):
        raise ValueError("every endpoint must answer the same keys")
    ordered_keys = list(keys) if keys is not None else sorted(shared)
    counts = [
        [_term_counts(answers_by_endpoint[name][key]) for key in ordered_keys]
        for name in names
    ]
    model = textsim.TfidfModel.fit_terms(c.keys() for row in counts for c in row)
    size = len(names)
    matrix = [[0.0] * size for _ in range(size)]
    for key_counts in zip(*counts):
        vectors = [model.weigh(c) for c in key_counts]
        norms = [textsim.norm(v) for v in vectors]
        for i in range(size):
            if vectors[i]:
                matrix[i][i] = 1.0
            for j in range(i + 1, size):
                matrix[i][j] += textsim.cosine(
                    vectors[i], vectors[j], norm_v=norms[j], norm_u=norms[i]
                )
    for i in range(size):
        for j in range(i + 1, size):
            matrix[i][j] = matrix[j][i] = matrix[i][j] / len(ordered_keys)
    return SimilarityMatrix(names=names, values=tuple(tuple(row) for row in matrix))


def _term_counts(answer: str | Counter[str]) -> Counter[str]:
    return textsim.term_counts(answer) if isinstance(answer, str) else answer


@dataclass(frozen=True)
class CoverageRow:
    cq_id: int
    yes_before: int
    total_before: int
    yes_after: int
    total_after: int


@dataclass(frozen=True)
class CoverageTable:
    rows: tuple[CoverageRow, ...]

    @property
    def totals(self) -> CoverageRow:
        return CoverageRow(
            cq_id=0,
            yes_before=sum(r.yes_before for r in self.rows),
            total_before=sum(r.total_before for r in self.rows),
            yes_after=sum(r.yes_after for r in self.rows),
            total_after=sum(r.total_after for r in self.rows),
        )


def is_retained(doi: str, filter_verdicts: Mapping[str, bool]) -> bool:
    """A publication is retained in every after-filtering column unless its filter
    verdict says it is no deep-learning study, so one without a verdict is retained."""
    return filter_verdicts.get(doi, True)


def per_cq_coverage(
    votes: Sequence[VoteRecord],
    filter_verdicts: Optional[Mapping[str, bool]] = None,
) -> CoverageTable:
    """Per question: how many publications voted Yes, before and after masking
    publications judged not to be deep-learning studies.

    The vote store must be complete (every publication answered every
    question). A publication is retained unless its filter verdict says it is
    no deep-learning study (`is_retained`), so one without a verdict is retained.
    """
    dois = sorted({v.doi for v in votes})
    cq_ids = sorted({v.cq_id for v in votes})
    by_key = {(v.doi, v.cq_id): v for v in votes}
    if len(by_key) != len(votes):
        raise ValueError("duplicate (doi, cq) vote records")
    missing = [
        (doi, cq) for doi in dois for cq in cq_ids if (doi, cq) not in by_key
    ]
    if missing:
        raise ValueError(f"vote store incomplete; first missing: {missing[0]}")
    filter_verdicts = filter_verdicts or {}
    retained = [doi for doi in dois if is_retained(doi, filter_verdicts)]
    rows = []
    for cq in cq_ids:
        yes_before = sum(1 for doi in dois if by_key[(doi, cq)].decision is Verdict.YES)
        yes_after = sum(
            1 for doi in retained if by_key[(doi, cq)].decision is Verdict.YES
        )
        rows.append(
            CoverageRow(
                cq_id=cq,
                yes_before=yes_before,
                total_before=len(dois),
                yes_after=yes_after,
                total_after=len(retained),
            )
        )
    return CoverageTable(rows=tuple(rows))


@dataclass(frozen=True)
class ReferenceComparison:
    rows: tuple[tuple[str, int, int], ...]  # (variable, agreements, total)

    @property
    def total(self) -> tuple[int, int]:
        return (
            sum(agree for _, agree, _ in self.rows),
            sum(total for _, _, total in self.rows),
        )


def compare_with_reference(
    mapping: Mapping[int, str],
    votes: Sequence[VoteRecord],
    reference: LabelSeries,
) -> ReferenceComparison:
    """Agreements between vote decisions and human reference labels.

    ``mapping`` sends a question id to the reference variable name; the
    reference series is keyed by (doi, variable).
    """
    decisions = {(v.doi, v.cq_id): v.decision.value for v in votes}
    reference_by_key = dict(zip(reference.keys, reference.labels))
    rows = []
    for cq_id, variable in mapping.items():
        dois = sorted(doi for doi, var in reference_by_key if var == variable)
        if not dois:
            raise ValueError(f"reference has no labels for variable {variable!r}")
        agree = 0
        for doi in dois:
            if (doi, cq_id) not in decisions:
                raise ValueError(f"no vote for ({doi}, cq {cq_id})")
            if decisions[(doi, cq_id)] == reference_by_key[(doi, variable)]:
                agree += 1
        rows.append((variable, agree, len(dois)))
    return ReferenceComparison(rows=tuple(rows))
