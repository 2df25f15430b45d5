"""Shared fixtures: synthetic separable ranking tasks, tiny embeddings, a
finite-difference gradient check and a scalar reduction for it, and plain
numpy references of the LSTM recurrence and the conv-pool layer.

The separable task: question tokens mix filler words with one key word;
the positive candidate copies that key word from the question, negatives
are pure filler. Key and filler vocabularies are disjoint, so the task is
learnable by construction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest

from verseqa.data import Candidate, QuestionGroup
from verseqa.embeddings import EmbeddingMatrix, Vocabulary
from verseqa.tensor import GraphError, ParameterSet, Tensor

KEYS = [f"k{i}" for i in range(15)]
FILLERS = [f"f{i}" for i in range(30)]
SHIFTED_KEYS = [f"m{i}" for i in range(15)]


def make_separable_groups(n_groups: int, seed: int, keys=None, fillers=None,
                          n_candidates: int = 3) -> list[QuestionGroup]:
    keys = KEYS if keys is None else keys
    fillers = FILLERS if fillers is None else fillers
    rng = np.random.default_rng(seed)
    groups = []
    for qid in range(n_groups):
        key = keys[rng.integers(len(keys))]

        def filler(k):
            return [fillers[i] for i in rng.integers(len(fillers), size=k)]

        question = " ".join(filler(2) + [key])
        gold = int(rng.integers(n_candidates))
        candidates = []
        for i in range(n_candidates):
            toks = filler(4) if i != gold else filler(1) + [key] + filler(2)
            candidates.append(Candidate(text=" ".join(toks), label=int(i == gold)))
        groups.append(QuestionGroup(qid=qid, translation="syn",
                                    question=question, candidates=candidates))
    return groups


def make_embedding(dim: int = 16, seed: int = 0,
                   extra_tokens=()) -> EmbeddingMatrix:
    """Random embeddings for the synthetic vocabularies.

    All key tokens (base and shifted) share a common direction plus noise,
    so a detector learned on one key vocabulary transfers to the other.
    """
    tokens = KEYS + SHIFTED_KEYS + FILLERS + list(extra_tokens)
    vocab = Vocabulary(tokens)
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(len(vocab), dim)) * 0.5
    table[0] = 0.0
    key_direction = rng.normal(size=dim)
    key_direction /= np.linalg.norm(key_direction)
    for tok in KEYS + SHIFTED_KEYS:
        idx = vocab.index(tok)
        table[idx] = 1.5 * key_direction + 0.3 * rng.normal(size=dim)
    return EmbeddingMatrix(vocab=vocab, dim=dim, table=table)


@pytest.fixture(scope="session")
def tiny_embedding() -> EmbeddingMatrix:
    return make_embedding()


def total(x: Tensor) -> Tensor:
    """Sum of all entries as a [1, 1] tensor: one row times a ones column."""
    n = x.data.size
    return x.reshape(1, n) @ Tensor(np.ones((n, 1)))


def grad_check(f: Callable[[ParameterSet], Tensor], params: ParameterSet,
               eps: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central finite differences.

    Returns the max over all coordinates of
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    out = f(params)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise GraphError("grad_check requires f to return a scalar tensor")
    out.backward()
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in params.items()}

    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(params).item()
            flat[i] = orig - eps
            f_minus = f(params).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(1e-8, abs(a_flat[i]) + abs(numeric))
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst


def lstm_reference(cell, seq: np.ndarray) -> np.ndarray:
    """Hidden states [rows, d_h] of ``cell`` on ``seq``, one recurrence step
    per row as a per-step graph computes it: a fresh [1, d_in+d_h] row
    ``[x_t | h_{t-1}]`` times each gate's own weights."""
    W = {g: cell.W[g].data for g in cell.GATES}
    b = {g: cell.b[g].data for g in cell.GATES}
    c = h = np.zeros((1, cell.d_h))
    hs = []
    for t in range(seq.shape[0]):
        z = np.concatenate([seq[t:t + 1].copy(), h], axis=1)
        with np.errstate(over="ignore"):
            i, f, o = (1.0 / (1.0 + np.exp(-(z @ W[g] + b[g]))) for g in "ifo")
        c_tilde = np.tanh(z @ W["c"] + b["c"])
        c = f * c + i * c_tilde
        h = o * np.tanh(c)
        hs.append(h)
    return np.concatenate(hs)


def pool_reference(model, seq: np.ndarray) -> np.ndarray:
    """Max over positions of relu(window @ conv.W + conv.b) [1, n_filters],
    one fresh flattened window row per position, zero-padded up to one
    window."""
    w = model.window
    if seq.shape[0] < w:
        seq = np.vstack([seq, np.zeros((w - seq.shape[0], seq.shape[1]))])
    feats = [np.maximum(0.0, seq[k:k + w].copy().reshape(1, -1) @ model.w_conv.data
                        + model.b_conv.data)
             for k in range(seq.shape[0] - w + 1)]
    return np.concatenate(feats).max(axis=0).reshape(1, -1)
