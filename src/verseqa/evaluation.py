"""Candidate ranking, F1/MRR metrics, random baseline.

``rank_order`` is the one ranking rule: descending score, ties to the
lower position. Each question has exactly one gold candidate and its
top-ranked candidate is the predicted positive, so top-1 F1 = precision =
recall = top-1 accuracy, exactly: the share of golds ranked first. MRR
comes from the same gold ranks. A 0.5-threshold binary F1 is also
reported as an auxiliary diagnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embeddings import (EmbeddingMatrix, MAX_ANSWER_TOKENS,
                         MAX_QUESTION_TOKENS, embed_sequence)


@dataclass
class Prediction:
    score: float
    label: int


@dataclass
class EvalReport:
    n: int
    f1: float
    precision: float
    recall: float
    mrr: float
    ranks: list[int] = field(default_factory=list)
    seed: int | None = None
    model: str = ""
    dataset: str = ""
    translation: str = ""
    threshold_f1: float = 0.0  # auxiliary diagnostic, 0.5-threshold binary F1

    def rank_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for r in self.ranks:
            hist[r] = hist.get(r, 0) + 1
        return hist

    def to_json(self) -> str:
        return json.dumps({
            "model": self.model, "dataset": self.dataset,
            "translation": self.translation, "n": self.n,
            "f1": self.f1, "precision": self.precision, "recall": self.recall,
            "mrr": self.mrr, "threshold_f1": self.threshold_f1,
            "seed": self.seed,
            "ranks_histogram": {str(k): v for k, v in sorted(self.rank_histogram().items())},
        }, sort_keys=True)


def rank_order(scores: Sequence[float]) -> list[int]:
    """Candidate positions best first; a stable sort keeps ties in order."""
    return sorted(range(len(scores)), key=lambda i: -scores[i])


def rank_candidates(preds: Sequence[Prediction]) -> int:
    """1-based rank of the gold candidate under ``rank_order``."""
    golds = [i for i, p in enumerate(preds) if p.label == 1]
    if len(golds) != 1:
        raise ValueError(f"expected exactly one gold candidate, got {len(golds)}")
    return rank_order([p.score for p in preds]).index(golds[0]) + 1


THRESHOLD = 0.5


def threshold_f1(preds: dict[int, list[Prediction]]) -> float:
    """Binary F1 where every candidate scoring above ``THRESHOLD`` is a
    predicted positive. Diagnostic only."""
    if not preds:
        raise ValueError("empty prediction set")
    tp = fp = fn = 0
    for plist in preds.values():
        for p in plist:
            positive = p.score > THRESHOLD
            if positive and p.label == 1:
                tp += 1
            elif positive:
                fp += 1
            elif p.label == 1:
                fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def gold_ranks(preds: dict[int, list[Prediction]]) -> list[int]:
    return [rank_candidates(preds[qid]) for qid in sorted(preds)]


def random_baseline(groups, seed: int) -> dict[int, list[Prediction]]:
    """Independent uniform [0,1) scores per candidate, seeded PCG-64."""
    rng = np.random.default_rng(seed)
    preds: dict[int, list[Prediction]] = {}
    for key, g in enumerate(groups):
        preds[key] = [Prediction(score=float(rng.random()), label=c.label)
                      for c in g.candidates]
    return preds


def score_groups(model, groups, embedding: EmbeddingMatrix,
                 max_question_tokens: int = MAX_QUESTION_TOKENS,
                 max_answer_tokens: int = MAX_ANSWER_TOKENS
                 ) -> dict[int, list[Prediction]]:
    """Score every candidate of every group with a pair model.

    Each group's question is encoded once (``model.encode_questions``) and
    all its candidates are scored against that encoding in one
    ``model.score`` call. A pair's score does not depend on the batch it is
    in, so the scores equal ``model.forward`` of each pair bit for bit.
    Keys are group positions; each list follows the group's candidate
    order. This is the one inference loop: validation and ``predict`` use
    it too.
    """
    preds: dict[int, list[Prediction]] = {}
    for key, g in enumerate(groups):
        q_emb = embed_sequence(g.question_tokens, embedding, max_question_tokens)
        q_states = model.encode_questions([q_emb]) * len(g.candidates)
        a_embs = [embed_sequence(c.tokens, embedding, max_answer_tokens) for c in g.candidates]
        preds[key] = [Prediction(score=p.item(), label=c.label)
                      for p, c in zip(model.score(q_states, a_embs), g.candidates)]
    return preds


def evaluate(preds: dict[int, list[Prediction]], model: str = "",
             dataset: str = "", translation: str = "",
             seed: int | None = None) -> EvalReport:
    if not preds:
        raise ValueError("empty prediction set")
    ranks = gold_ranks(preds)
    n = len(ranks)
    top1 = ranks.count(1) / n
    return EvalReport(n=n, f1=top1, precision=top1, recall=top1,
                      mrr=sum(1.0 / r for r in ranks) / n, ranks=ranks, seed=seed,
                      model=model, dataset=dataset, translation=translation,
                      threshold_f1=threshold_f1(preds))
