import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FILLERS, KEYS, make_embedding, make_separable_groups
from verseqa.data import Candidate, QuestionGroup
from verseqa.embeddings import embed_sequence
from verseqa.evaluation import (SCORE_CHUNK_PAIRS, Prediction, evaluate,
                                gold_ranks, random_baseline, rank_candidates,
                                rank_order, score_groups, threshold_f1)
from verseqa.models import BidafModel, CnnPairModel, RnnPairModel


def plist(scores, gold):
    return [Prediction(score=s, label=int(i == gold))
            for i, s in enumerate(scores)]


class TestRankCandidates:
    def test_top_score_is_rank_one(self):
        assert rank_candidates(plist([0.1, 0.9, 0.3], gold=1)) == 1

    def test_all_tied_uses_original_order(self):
        assert rank_candidates(plist([0.5, 0.5, 0.5], gold=2)) == 3

    def test_gold_top_of_ten(self):
        scores = [0.1] * 10
        scores[4] = 0.99
        assert rank_candidates(plist(scores, gold=4)) == 1

    @pytest.mark.parametrize("labels", [[0, 0, 0], [1, 0, 1], []],
                             ids=["no-gold", "two-golds", "no-candidates"])
    def test_needs_exactly_one_gold(self, labels):
        preds = [Prediction(score=0.5, label=y) for y in labels]
        with pytest.raises(ValueError, match="exactly one gold"):
            rank_candidates(preds)


class TestSelectAnswer:
    def test_tie_takes_lowest_index(self):
        assert rank_order([0.2, 0.8, 0.8])[0] == 1

    def test_single_candidate(self):
        assert rank_order([0.4])[0] == 0

    def test_strictly_increasing(self):
        assert rank_order([0.1, 0.2, 0.3, 0.4, 0.5])[0] == 4


def test_rank_order_is_descending_with_ties_in_position_order():
    assert rank_order([0.2, 0.8, 0.1, 0.8, 0.2]) == [1, 3, 0, 4, 2]


class TestF1Top1:
    def test_perfect(self):
        preds = {q: plist([0.1, 0.9], gold=1) for q in range(5)}
        report = evaluate(preds)
        assert (report.f1, report.precision, report.recall) == (1.0, 1.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate({})

    def test_f1_equals_precision_equals_recall(self):
        rng = np.random.default_rng(0)
        preds = {q: plist(rng.random(4).tolist(), gold=int(rng.integers(4)))
                 for q in range(50)}
        report = evaluate(preds)
        f1, p, r = report.f1, report.precision, report.recall
        assert f1 == p == r

    def test_one_hit_in_five_is_exactly_one_fifth(self):
        preds = {q: plist([0.9, 0.1], gold=int(q > 0)) for q in range(5)}
        report = evaluate(preds)
        assert report.ranks == [1, 2, 2, 2, 2]
        assert report.f1 == report.precision == report.recall == 0.2


class TestMrr:
    def test_hand_computed(self):
        preds = {
            0: plist([0.9, 0.1, 0.1, 0.1], gold=0),   # rank 1
            1: plist([0.9, 0.5, 0.1, 0.1], gold=1),   # rank 2
            2: plist([0.9, 0.5, 0.4, 0.3], gold=3),   # rank 4
        }
        assert evaluate(preds).mrr == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert evaluate(preds).mrr == pytest.approx(0.58333, abs=1e-5)

    def test_always_first(self):
        preds = {q: plist([0.9, 0.1], gold=0) for q in range(4)}
        assert evaluate(preds).mrr == 1.0


def brute_force_metrics(preds):
    """Independent reimplementation: explicit stable sort per question."""
    hits = 0
    rr = []
    for plist_ in preds.values():
        order = sorted(range(len(plist_)),
                       key=lambda i: (-plist_[i].score, i))
        ranked_labels = [plist_[i].label for i in order]
        rr.append(1.0 / (ranked_labels.index(1) + 1))
        hits += ranked_labels[0]
    acc = hits / len(preds)
    f1 = 2 * acc * acc / (acc + acc) if acc else 0.0
    return f1, sum(rr) / len(rr)


def test_metrics_match_brute_force_on_randomized_inputs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n_q = int(rng.integers(1, 11))
        preds = {}
        for q in range(n_q):
            n_c = int(rng.integers(1, 11))
            scores = rng.random(n_c)
            # random ties to exercise the tie rules
            if n_c > 1 and rng.random() < 0.5:
                scores[rng.integers(n_c)] = scores[rng.integers(n_c)]
            preds[q] = plist(scores.tolist(), gold=int(rng.integers(n_c)))
        bf_f1, bf_mrr = brute_force_metrics(preds)
        assert evaluate(preds).f1 == pytest.approx(bf_f1, abs=1e-12)
        assert evaluate(preds).mrr == pytest.approx(bf_mrr, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000),
       scale=st.floats(0.1, 5.0), shift=st.floats(-2.0, 2.0))
def test_metrics_invariant_under_monotone_transform(seed, scale, shift):
    rng = np.random.default_rng(seed)
    preds, warped = {}, {}
    for q in range(8):
        scores = rng.random(5)
        gold = int(rng.integers(5))
        preds[q] = plist(scores.tolist(), gold=gold)
        warped[q] = plist((scale * scores + shift).tolist(), gold=gold)
    assert evaluate(preds).f1 == evaluate(warped).f1
    assert evaluate(preds).mrr == pytest.approx(evaluate(warped).mrr, abs=1e-12)


class TestRandomBaseline:
    def test_same_seed_identical(self):
        groups = make_separable_groups(20, seed=0)
        p1 = random_baseline(groups, seed=7)
        p2 = random_baseline(groups, seed=7)
        assert all(a.score == b.score for q in p1
                   for a, b in zip(p1[q], p2[q]))

    def test_three_candidate_statistics(self):
        groups = make_separable_groups(5000, seed=1)
        preds = random_baseline(groups, seed=3)
        assert evaluate(preds).mrr == pytest.approx(11 / 18, abs=0.02)
        assert evaluate(preds).f1 == pytest.approx(1 / 3, abs=0.02)

    def test_ten_candidate_statistics(self):
        groups = make_separable_groups(5000, seed=2, n_candidates=10)
        preds = random_baseline(groups, seed=4)
        h10 = sum(1 / k for k in range(1, 11))
        assert evaluate(preds).mrr == pytest.approx(h10 / 10, abs=0.02)
        assert evaluate(preds).f1 == pytest.approx(0.10, abs=0.02)


class TestEvalReport:
    def test_report_fields_and_bounds(self):
        groups = make_separable_groups(50, seed=5)
        report = evaluate(random_baseline(groups, seed=1), model="baseline",
                          dataset="synthetic", seed=1)
        assert report.n == 50
        assert 0.0 <= report.f1 <= 1.0
        assert 1 / 3 <= report.mrr <= 1.0
        assert len(report.ranks) == 50
        assert report.f1 == report.precision == report.recall

    def test_json_is_deterministic(self):
        groups = make_separable_groups(10, seed=5)
        r1 = evaluate(random_baseline(groups, seed=1), seed=1).to_json()
        r2 = evaluate(random_baseline(groups, seed=1), seed=1).to_json()
        assert r1 == r2

    def test_threshold_f1_diagnostic(self):
        preds = {0: plist([0.9, 0.1, 0.1], gold=0),
                 1: plist([0.6, 0.7, 0.1], gold=0)}
        # tp=2 (both golds above 0.5), fp=1, fn=0
        assert threshold_f1(preds) == pytest.approx(2 * (2 / 3) / (2 / 3 + 1))


SCORING_MODELS = [
    lambda: RnnPairModel(16, d_h=3, seed=2),
    lambda: CnnPairModel(16, n_filters=3, window=3, dropout=0.5, seed=2),
    lambda: BidafModel(16, d_h=3, seed=2),
]
SCORING_EMB = make_embedding(16)
WORDS = st.lists(st.sampled_from(KEYS + FILLERS + ["unseen"]), min_size=1, max_size=6)


class ScoreLog:
    """A model that records the number of candidates of each ``score`` call,
    and its questions and question indices."""

    def __init__(self, model):
        self.model, self.calls, self.questions = model, [], []

    def score(self, q_embs, which, a_embs, training=False, rng=None):
        self.calls.append(len(a_embs))
        self.questions.append((list(q_embs), list(which)))
        return self.model.score(q_embs, which, a_embs, training, rng)


@settings(max_examples=30, deadline=None)
@given(which=st.integers(0, 2),
       groups=st.lists(st.tuples(WORDS, st.lists(WORDS, min_size=1, max_size=10)),
                       min_size=1, max_size=8),
       big=st.integers(0, 8))
def test_score_groups_equals_forward_per_pair(which, groups, big):
    # groups are scored in chunks of whole groups of up to SCORE_CHUNK_PAIRS
    # candidates, and one group larger than that, inserted at position
    # ``big``, is a chunk alone; each distinct question text of a chunk,
    # encoded once, scores every candidate of its groups as forward(q, a)
    # does, bit for bit. Two groups of equal question text follow the large
    # one, so they open a chunk together. 1-token texts are shorter than
    # cnn's window
    groups.insert(big, (["k1"], [["f2", "k1"]] * (SCORE_CHUNK_PAIRS + 3)))
    groups[big + 1:big + 1] = [(["f1", "k2"], [["k2"], ["f1", "f2"]]), (["f1", "k2"], [["k1"]])]
    model = ScoreLog(SCORING_MODELS[which]())
    built = [QuestionGroup(qid=k, translation="syn", question=" ".join(q),
                           candidates=[Candidate(text=" ".join(a), label=0) for a in cands])
             for k, (q, cands) in enumerate(groups)]
    preds = score_groups(model, built, SCORING_EMB, 5, 5)
    sizes = [len(g.candidates) for g in built]
    ends = set(np.cumsum(sizes).tolist())
    calls = np.cumsum(model.calls).tolist()
    assert set(calls) <= ends and calls[-1] == sum(sizes)  # groups stay whole
    for n, (a, b) in enumerate(zip([0] + calls, calls)):
        whole = [k for k, end in enumerate(np.cumsum(sizes)) if a < end <= b]
        assert b - a <= SCORE_CHUNK_PAIRS or len(whole) == 1
        if n + 1 < len(calls):  # a chunk takes every group that fits
            assert b - a + sizes[whole[-1] + 1] > SCORE_CHUNK_PAIRS
        # each distinct question of the chunk once, in order of first use,
        # and each candidate its group's
        q_data, which_q = model.questions[n]
        texts = list(dict.fromkeys(tuple(built[k].question_tokens) for k in whole))
        assert len(q_data) == len(texts)
        for q, tokens in zip(q_data, texts):
            np.testing.assert_array_equal(q, embed_sequence(tokens, SCORING_EMB, 5))
        assert which_q == [texts.index(tuple(built[k].question_tokens))
                           for k in whole for _ in range(sizes[k])]
        if big + 1 in whole:  # the equal questions share one encode
            assert len(q_data) < len(whole)
    for key, g in enumerate(built):
        q = embed_sequence(g.question_tokens, SCORING_EMB, 5)
        assert [p.score for p in preds[key]] == [
            model.model.forward(q, embed_sequence(c.tokens, SCORING_EMB, 5)).item()
            for c in g.candidates]
