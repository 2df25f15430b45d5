"""Shared fixtures: synthetic separable ranking tasks, tiny embeddings,
per-coordinate and directional finite-difference gradient checks and a
scalar reduction for them, and plain numpy references of the LSTM
recurrence, the conv-pool layer and BiDAF attention.

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
from verseqa.tensor import GraphError, ParameterSet, ShapeError, Tensor

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


def total(x: Tensor, weights: np.ndarray | None = None) -> Tensor:
    """Sum of all entries of ``x``, each times the matching entry of
    ``weights`` where given, as one [1, 1] graph node."""
    w = np.ones_like(x.data) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != x.shape:
        raise ShapeError(f"weights {w.shape} do not match {x.shape}")
    out = Tensor(np.sum(x.data * w).reshape(1, 1), (x,))
    out._backward = lambda g: x._accumulate(g[0, 0] * w)
    return out


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


def directional_check(f: Callable[[ParameterSet], Tensor], params: ParameterSet,
                      seed: int = 0, eps: float = 1e-5) -> float:
    """Compare the analytic derivative of ``f`` along one random unit
    direction over all of ``params`` with a central difference along it.

    Returns |analytic - numeric| / max(1e-8, |analytic| + |numeric|), the
    measure of ``grad_check``, for that one directional derivative. A random
    direction mixes every coordinate, so coordinates whose gradient is zero or
    tiny do not dominate the error, and edge shapes need no hand-picked inputs.
    """
    out = f(params)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise GraphError("directional_check requires f to return a scalar tensor")
    out.backward()
    rng = np.random.default_rng(seed)
    direction = {name: rng.normal(size=t.data.shape) for name, t in params.items()}
    norm = np.sqrt(sum(np.sum(d * d) for d in direction.values()))
    analytic = sum(np.sum(t.grad * direction[name]) for name, t in params.items()
                   if t.grad is not None) / norm
    saved = params.copy_values()

    def at(step: float) -> float:
        for name, t in params.items():
            np.copyto(t.data, saved[name] + (step / norm) * direction[name])
        value = f(params).item()
        params.load_values(saved)
        return value

    numeric = (at(eps) - at(-eps)) / (2.0 * eps)
    return abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))


BLOCK = 4  # rows per weight product, models.ROW_BLOCK spelled out


def _block_product(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``rows @ w`` as separate [BLOCK, K] products, a short last block
    filled with zero rows."""
    padded = np.zeros((-(-len(rows) // BLOCK) * BLOCK, rows.shape[1]))
    padded[:len(rows)] = rows
    return np.concatenate([np.dot(padded[k:k + BLOCK], w)
                           for k in range(0, len(padded), BLOCK)])[:len(rows)]


def lstm_reference(cell, seq: np.ndarray) -> np.ndarray:
    """Hidden states [rows, d_h] of ``cell`` on ``seq``, one recurrence step
    per row: a fresh row ``[x_t | h_{t-1}]``, in a block of zero rows, times
    the four gate weights joined into one [d_in+d_h, 4*d_h] matrix."""
    W = np.concatenate([cell.W[g].data for g in cell.GATES], axis=1)
    b = np.concatenate([cell.b[g].data for g in cell.GATES], axis=1)
    d_h = cell.d_h
    c = h = np.zeros((1, d_h))
    hs = []
    for t in range(seq.shape[0]):
        z = np.concatenate([seq[t:t + 1].copy(), h], axis=1)
        a = _block_product(z, W) + b
        with np.errstate(over="ignore"):
            i, f, o = (1.0 / (1.0 + np.exp(-a[:, k * d_h:(k + 1) * d_h])) for k in range(3))
        c_tilde = np.tanh(a[:, 3 * d_h:])
        c = f * c + i * c_tilde
        h = o * np.tanh(c)
        hs.append(h)
    return np.concatenate(hs)


def pool_reference(model, seq: np.ndarray) -> np.ndarray:
    """Max over positions of relu(window @ conv.W + conv.b) [1, n_filters],
    one fresh flattened window row per position, zero-padded up to one
    window, the window rows multiplied in blocks of zero-filled rows."""
    w = model.window
    if seq.shape[0] < w:
        seq = np.vstack([seq, np.zeros((w - seq.shape[0], seq.shape[1]))])
    windows = np.concatenate([seq[k:k + w].copy().reshape(1, -1)
                              for k in range(seq.shape[0] - w + 1)])
    feats = np.maximum(0.0, _block_product(windows, model.w_conv.data) + model.b_conv.data)
    return feats.max(axis=0).reshape(1, -1)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def bidaf_reference(q: np.ndarray, a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """BiDAF attention's combined rows [t_a, 4*d_h], spelled out as the
    composed graph computes them: ones-matrix tiling, fresh copies for
    row slices and transposes, softmax rows and a row max."""
    t_a, d_h = a.shape
    t_q = q.shape[0]
    w1, w2, w3 = (w[k * d_h:(k + 1) * d_h].copy() for k in range(3))
    ones_a, ones_q = np.ones((t_a, 1)), np.ones((1, t_q))
    s_a = (a @ w1) @ ones_q
    s_q = ones_a @ (q @ w2).T.copy()
    s_prod = (a * (ones_a @ w3.T.copy())) @ q.T.copy()
    sim = s_a + s_q + s_prod
    att_q = _softmax_rows(sim) @ q
    pooled_a = _softmax_rows(np.max(sim, axis=1).reshape(1, t_a)) @ a
    til_a = ones_a @ pooled_a
    return np.concatenate([a, att_q, a * att_q, a * til_a], axis=1)
