import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrag import textsim
from litrag.metrics import (
    ConfusionMatrix2x2,
    LabelSeries,
    agreement_counts,
    average_pairwise_similarity,
    cohen_kappa,
    compare_with_reference,
    kappa_from_confusion,
    per_cq_coverage,
)
from litrag.voting import Verdict, VoteRecord
from conftest import (
    AGREEMENT_COUNTS,
    COVERAGE_COUNTS,
    N_PUBS,
    N_RETAINED,
    VARIABLE_AGREEMENTS,
    build_agreement_fixture,
    build_reference_fixture,
    build_vote_fixture,
)


def series(labels):
    return LabelSeries(keys=tuple(range(len(labels))), labels=tuple(labels))


def brute_force_kappa(a, b):
    """Independent oracle: direct observed/expected agreement computation."""
    n = len(a.labels)
    observed = sum(1 for x, y in zip(a.labels, b.labels) if x == y) / n
    expected = 0.0
    for label in ("Yes", "No"):
        pa = sum(1 for x in a.labels if x == label) / n
        pb = sum(1 for y in b.labels if y == label) / n
        expected += pa * pb
    if expected == 1.0:
        return None
    return (observed - expected) / (1 - expected)


class TestCohenKappa:
    def test_identical_mixed_series(self):
        s = series(["Yes", "No", "Yes", "Yes", "No"])
        assert cohen_kappa(s, s) == 1.0

    def test_fully_crossed_is_minus_one(self):
        a = series(["Yes", "Yes", "No", "No"])
        b = series(["No", "No", "Yes", "Yes"])
        assert cohen_kappa(a, b) == -1.0

    def test_hand_confusion_case(self):
        kappa = kappa_from_confusion(ConfusionMatrix2x2(yy=20, yn=5, ny=10, nn=15))
        assert kappa == pytest.approx(0.400, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(100):
            n = rng.randrange(10, 1001)
            a = series([rng.choice(["Yes", "No"]) for _ in range(n)])
            b = series([rng.choice(["Yes", "No"]) for _ in range(n)])
            expected = brute_force_kappa(a, b)
            if expected is None:
                continue
            assert cohen_kappa(a, b) == pytest.approx(expected, abs=1e-12)
            checked += 1
        assert checked >= 95

    def test_symmetry_and_bounds(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randrange(2, 50)
            a = series([rng.choice(["Yes", "No"]) for _ in range(n)])
            b = series([rng.choice(["Yes", "No"]) for _ in range(n)])
            kappa = cohen_kappa(a, b)
            assert cohen_kappa(b, a) == pytest.approx(kappa, abs=1e-15)
            assert -1.0 - 1e-12 <= kappa <= 1.0 + 1e-12

    def test_self_agreement_of_nonconstant_series(self):
        s = series(["Yes", "No", "No"])
        assert cohen_kappa(s, s) == 1.0

    def test_degenerate_constant_identical(self):
        s = series(["Yes", "Yes", "Yes"])
        assert cohen_kappa(s, s) == 1.0

    def test_degenerate_constant_different_warns_zero(self, caplog):
        a = series(["Yes", "Yes"])
        b = series(["No", "No"])
        with caplog.at_level("WARNING"):
            assert cohen_kappa(a, b) == 0.0
        assert "constant raters" in caplog.text

    def test_mismatched_keys_rejected(self):
        a = LabelSeries(keys=(1, 2), labels=("Yes", "No"))
        b = LabelSeries(keys=(2, 1), labels=("Yes", "No"))
        with pytest.raises(ValueError):
            cohen_kappa(a, b)


class TestAgreementCounts:
    def test_identical_840(self):
        labels = ["Yes" if i % 3 else "No" for i in range(840)]
        s = series(labels)
        assert agreement_counts(s, s) == (840, 840)

    def test_fixture_rows(self):
        fixtures = build_agreement_fixture()
        for name, expected in AGREEMENT_COUNTS:
            llm, human = fixtures[name]
            assert agreement_counts(llm, human) == (expected, 840)
        best = max(AGREEMENT_COUNTS, key=lambda item: item[1])
        assert best == ("Llama 3 70B", 752)

    def test_disjoint_labels(self):
        a = series(["Yes"] * 6)
        b = series(["No"] * 6)
        assert agreement_counts(a, b) == (0, 6)


class TestAveragePairwiseSimilarity:
    def test_identical_answers_average_one(self):
        answers = {
            "A": {1: "the same text", 2: "another answer"},
            "B": {1: "the same text", 2: "another answer"},
        }
        matrix = average_pairwise_similarity(answers)
        assert matrix.pair("A", "B") == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_vocabulary_average_zero(self):
        answers = {
            "A": {1: "alpha beta", 2: "gamma delta"},
            "B": {1: "epsilon zeta", 2: "eta theta"},
        }
        assert average_pairwise_similarity(answers).pair("A", "B") == 0.0

    def test_hand_computed_two_key_fixture(self):
        answers = {
            "A": {"k1": "cnn model", "k2": "no info"},
            "B": {"k1": "cnn network", "k2": "no info"},
        }
        # oracle: idf over the four fitted texts; shared term "cnn" has df 2,
        # "model"/"network" df 1, "no"/"info" df 2
        idf_df2 = math.log(5 / 3) + 1
        idf_df1 = math.log(5 / 2) + 1
        cos_k1 = idf_df2 ** 2 / (idf_df2 ** 2 + idf_df1 ** 2)
        expected = (cos_k1 + 1.0) / 2
        matrix = average_pairwise_similarity(answers, keys=["k1", "k2"])
        assert matrix.pair("A", "B") == pytest.approx(expected, abs=1e-12)

    def test_empty_answer_contributes_zero(self):
        answers = {
            "A": {1: "shared words", 2: ""},
            "B": {1: "shared words", 2: "anything"},
        }
        matrix = average_pairwise_similarity(answers)
        assert matrix.pair("A", "B") == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_unit_diagonal_in_bounds(self):
        rng = random.Random(31)
        vocab = ["term%d" % i for i in range(30)]
        answers = {
            name: {
                key: " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 12)))
                for key in range(6)
            }
            for name in ("A", "B", "C")
        }
        matrix = average_pairwise_similarity(answers)
        for i, a in enumerate(matrix.names):
            assert matrix.values[i][i] == 1.0
            for j, b in enumerate(matrix.names):
                assert matrix.values[i][j] == matrix.values[j][i]
                assert 0.0 <= matrix.values[i][j] <= 1.0

    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValueError):
            average_pairwise_similarity({"A": {1: "x"}, "B": {2: "x"}})


def oracle_similarity(answers_by_endpoint, keys):
    """The matrix as computed before answers were tokenized once per report:
    fit over every text, transform each one, and recompute both norms in
    every cosine."""
    names = tuple(answers_by_endpoint)
    texts = [answers_by_endpoint[name][key] for name in names for key in keys]
    doc_freq = Counter()
    for text in texts:
        doc_freq.update(set(textsim.tokenize(text)))
    idf = {term: math.log((1 + len(texts)) / (1 + df)) + 1.0 for term, df in doc_freq.items()}

    def transform(text):
        counts = Counter(textsim.tokenize(text))
        return {term: count * idf[term] for term, count in counts.items() if term in idf}

    def norm(u):
        return math.sqrt(sum(w * w for w in u.values()))

    def cosine(u, v):
        nu, nv = norm(u), norm(v)
        if nu == 0.0 or nv == 0.0:
            return 0.0
        if len(v) < len(u):
            u, v = v, u
        dot = sum(w * v[t] for t, w in u.items() if t in v)
        return max(-1.0, min(1.0, dot / (nu * nv)))

    vectors = {name: [transform(answers_by_endpoint[name][key]) for key in keys] for name in names}
    size = len(names)
    matrix = [[0.0] * size for _ in range(size)]
    for i in range(size):
        matrix[i][i] = 1.0 if any(vectors[names[i]]) else 0.0
        for j in range(i + 1, size):
            total = sum(
                cosine(vectors[names[i]][k], vectors[names[j]][k]) for k in range(len(keys))
            )
            matrix[i][j] = matrix[j][i] = total / len(keys)
    return tuple(tuple(row) for row in matrix)


WORDS = ["cnn", "CNN", "model", "réseau", "neuronal", "数据集", "naïve", "straße",
         "x1", "_", "42", "the", "a", "ÉTUDE"]


@st.composite
def answer_sets(draw):
    """Endpoints' answers over shared keys, and a nonempty sorted key subset."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from(["10.1/a", "10.1/b", "10.1/c"]), st.integers(1, 4)),
        min_size=1, max_size=6, unique=True,
    ))
    disjoint = draw(st.booleans())
    answers = {}
    for i in range(draw(st.integers(1, 6))):
        words = st.sampled_from(WORDS) if disjoint else st.sampled_from(WORDS) | st.text(max_size=6)
        answers[f"E{i}"] = {
            key: " ".join(w + (f"_{i}" if disjoint else "") for w in draw(st.lists(words, max_size=10)))
            for key in keys
        }
    subset = sorted(draw(st.lists(st.sampled_from(keys), min_size=1, unique=True)))
    return answers, subset


class TestSimilarityMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(answer_sets())
    def test_every_entry_equals_the_oracle(self, case):
        answers, subset = case
        assert average_pairwise_similarity(answers).values == \
            oracle_similarity(answers, sorted(next(iter(answers.values()))))
        expected = oracle_similarity(answers, subset)
        assert average_pairwise_similarity(answers, keys=subset).values == expected
        # the report tokenizes once and filters the term counts
        terms = {
            name: {key: textsim.term_counts(texts[key]) for key in subset}
            for name, texts in answers.items()
        }
        assert average_pairwise_similarity(terms).values == expected


class TestPerCqCoverage:
    def test_fixture_reproduces_published_totals(self):
        votes, filters = build_vote_fixture()
        coverage = per_cq_coverage(votes, filters)
        by_cq = {row.cq_id: row for row in coverage.rows}
        for cq_id, before, after in COVERAGE_COUNTS:
            assert by_cq[cq_id].yes_before == before
            assert by_cq[cq_id].yes_after == after
            assert by_cq[cq_id].total_before == N_PUBS
            assert by_cq[cq_id].total_after == N_RETAINED
        totals = coverage.totals
        assert (totals.yes_before, totals.total_before) == (3524, 12992)
        assert (totals.yes_after, totals.total_after) == (2574, 7196)

    def test_all_no_votes(self):
        votes = [
            VoteRecord(doi=f"10.1/{i}", cq_id=cq, yes_count=0, no_count=5,
                       decision=Verdict.NO)
            for i in range(3) for cq in (1, 2)
        ]
        coverage = per_cq_coverage(votes, {})
        assert all(row.yes_before == 0 for row in coverage.rows)

    def test_single_yes(self):
        votes = [VoteRecord(doi="10.1/a", cq_id=1, yes_count=5, no_count=0,
                            decision=Verdict.YES)]
        coverage = per_cq_coverage(votes, {})
        assert coverage.rows[0].yes_before == 1
        assert coverage.rows[0].total_before == 1

    def test_after_never_exceeds_before(self):
        votes, filters = build_vote_fixture()
        for row in per_cq_coverage(votes, filters).rows:
            assert row.yes_after <= row.yes_before

    def test_incomplete_store_rejected(self):
        votes = [
            VoteRecord(doi="10.1/a", cq_id=1, yes_count=5, no_count=0, decision=Verdict.YES),
            VoteRecord(doi="10.1/b", cq_id=2, yes_count=5, no_count=0, decision=Verdict.YES),
        ]
        with pytest.raises(ValueError):
            per_cq_coverage(votes, {})

    def test_missing_filter_verdict_retains(self):
        votes = [VoteRecord(doi="10.1/a", cq_id=1, yes_count=5, no_count=0,
                            decision=Verdict.YES)]
        coverage = per_cq_coverage(votes, None)
        assert coverage.rows[0].total_after == 1


class TestCompareWithReference:
    def test_fixture_reproduces_variable_agreements(self):
        votes, reference, mapping = build_reference_fixture()
        comparison = compare_with_reference(mapping, votes, reference)
        by_variable = {variable: (agree, total) for variable, agree, total in comparison.rows}
        for _, variable, agreements in VARIABLE_AGREEMENTS:
            assert by_variable[variable] == (agreements, 100)
        assert by_variable["Model architecture"] == (89, 100)
        assert comparison.total == (417, 600)

    def test_reference_equals_votes(self):
        votes, _, mapping = build_reference_fixture()
        pairs = []
        for vote in votes:
            variable = mapping.get(vote.cq_id)
            if variable:
                pairs.append(((vote.doi, variable), vote.decision.value))
        reference = LabelSeries.from_pairs(pairs)
        assert compare_with_reference(mapping, votes, reference).total == (600, 600)

    def test_reference_complement_of_votes(self):
        votes, _, mapping = build_reference_fixture()
        pairs = []
        for vote in votes:
            variable = mapping.get(vote.cq_id)
            if variable:
                flipped = "No" if vote.decision is Verdict.YES else "Yes"
                pairs.append(((vote.doi, variable), flipped))
        reference = LabelSeries.from_pairs(pairs)
        assert compare_with_reference(mapping, votes, reference).total == (0, 600)

    def test_missing_vote_rejected(self):
        reference = LabelSeries(keys=(("10.1/a", "Dataset"),), labels=("Yes",))
        with pytest.raises(ValueError):
            compare_with_reference({5: "Dataset"}, [], reference)


class TestLabelSeries:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            LabelSeries(keys=(1, 1), labels=("Yes", "No"))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError):
            LabelSeries(keys=(1,), labels=("Maybe",))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LabelSeries(keys=(1, 2), labels=("Yes",))
