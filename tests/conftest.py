"""Shared fixtures: synthetic separable ranking tasks, tiny embeddings,
per-coordinate and directional finite-difference gradient checks and a
scalar reduction of a stage's output for them, (array, rows) sequences,
and plain numpy references of the LSTM recurrence and its backprop through
time, the conv-pool layer, BiDAF attention and CBOW training, and the
row-at-a-time vector-file parser that ``load_pretrained`` replaced.

The separable task: question tokens mix filler words with one key word;
the positive candidate copies that key word from the question, negatives
are pure filler. Key and filler vocabularies are disjoint, so the task is
learnable by construction.
"""

from __future__ import annotations

import logging
from typing import Callable, Iterable

import numpy as np
import pytest

from verseqa.data import Candidate, QuestionGroup
from verseqa.embeddings import (NEGATIVE_SAMPLES, PAD_INDEX, UNK_INDEX, CbowConfig,
                                EmbeddingError, EmbeddingMatrix, Vocabulary)
from verseqa.tensor import GraphError, ParameterSet, ShapeError, Tensor, logistic

KEYS = [f"k{i}" for i in range(15)]
FILLERS = [f"f{i}" for i in range(30)]
SHIFTED_KEYS = [f"m{i}" for i in range(15)]

logger = logging.getLogger(__name__)


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


def whole(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of ``x`` as one (array, rows) sequence."""
    return x, np.arange(len(x))


def gather(seqs) -> np.ndarray:
    """The rows of (array, rows) sequences, stacked."""
    return np.concatenate([x[rows] for x, rows in seqs])


def total(stage, params: ParameterSet, weights: np.ndarray | None = None,
          inputs=()) -> Tensor:
    """The sum of a stage's output, each entry times the matching entry of
    ``weights`` where given, as a scalar Tensor. ``stage`` is what a stage
    returns: its output (an array, or (array, rows) sequences into one
    array) and its backward. The Tensor's backward clears the grads of
    ``params`` and of the Tensors ``inputs``, runs the stage's backward, and
    adds the input gradients it returns into the grads of ``inputs``, in
    order."""
    out, backward = stage
    seqs = [whole(out)] if isinstance(out, np.ndarray) else list(out)
    if len({id(x) for x, _ in seqs}) != 1:
        raise ShapeError("a stage's output sequences point into one array")
    values = gather(seqs)
    w = np.ones_like(values) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != values.shape:
        raise ShapeError(f"weights {w.shape} do not match {values.shape}")
    ends = np.cumsum([0] + [len(rows) for _, rows in seqs])

    def run(g: np.ndarray) -> None:
        for t in [t for _, t in params.items()] + list(inputs):
            t.grad = None
        d_out = np.zeros_like(seqs[0][0])
        for (_, rows), lo, hi in zip(seqs, ends[:-1], ends[1:]):
            d_out[rows] += g[0, 0] * w[lo:hi]
        for t, d in zip(inputs, backward(d_out) or []):
            t.add_grad(d)

    return Tensor(np.sum(values * w).reshape(1, 1), run)


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
GRAD_ROWS = 256  # rows per weight-gradient product, models.GRAD_ROWS spelled out


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


def lstm_bptt_reference(cell, seqs: list[np.ndarray], grads: list[np.ndarray]):
    """The gradients of sum(states_k * grads_k) over the sequences ``seqs`` of
    one ``cell.encode_states`` call, by backprop through time written out
    over the batch's row layout: sequences longest first, step after step,
    each step's rows filled to whole blocks with zero rows. The forward is
    ``lstm_reference``'s recurrence, a step's rows at a time; each step's
    products by the gate weights (forward, recurrent and input gradients)
    are ``_block_product``s, and the weight gradient is the sum, in order, of
    one [x_t | h_{t-1}]^T @ d_a product per ``GRAD_ROWS`` rows of the layout.

    Returns ({gate: d_W}, {gate: d_b}, [d_x of each sequence])."""
    d_in, d_h = cell.d_in, cell.d_h
    W = np.concatenate([cell.W[g].data for g in cell.GATES], axis=1)
    b = np.concatenate([cell.b[g].data for g in cell.GATES], axis=1)
    w_x, w_h = W[:d_in].T.copy(), W[d_in:].T.copy()
    order = sorted(range(len(seqs)), key=lambda k: -len(seqs[k]))
    steps = len(seqs[order[0]])
    live = [sum(len(s) > t for s in seqs) for t in range(steps)]
    start = np.cumsum([0] + [-(-m // BLOCK) * BLOCK for m in live])
    z = np.zeros((start[-1], d_in + d_h))
    d_a = np.zeros((start[-1], 4 * d_h))
    d_rows = np.zeros((start[-1], d_in))
    saved = []  # per step: i, f, o, c_tilde, c_prev, tanh(c)
    h = c = np.zeros((live[0], d_h))
    for t, m in enumerate(live):
        z_t = z[start[t]:start[t] + m]
        z_t[:, :d_in] = [seqs[k][t] for k in order[:m]]
        z_t[:, d_in:] = h[:m]
        a = _block_product(z_t, W) + b
        with np.errstate(over="ignore"):
            i, f, o = (1.0 / (1.0 + np.exp(-a[:, k * d_h:(k + 1) * d_h])) for k in range(3))
        c_tilde = np.tanh(a[:, 3 * d_h:])
        c_prev = c[:m] if t else np.zeros((m, d_h))
        c = f * c_prev + i * c_tilde
        h = o * np.tanh(c)
        saved.append((i, f, o, c_tilde, c_prev, np.tanh(c)))
    dh_next = dc_next = np.zeros((0, d_h))
    for t in reversed(range(steps)):
        m = live[t]
        i, f, o, c_tilde, c_prev, tanh_c = saved[t]
        g = np.array([grads[k][t] for k in order[:m]])
        dh = g + np.concatenate([dh_next, np.zeros((m - len(dh_next), d_h))])
        dc = dh * (o * (1.0 - tanh_c * tanh_c)) + \
            np.concatenate([dc_next, np.zeros((m - len(dc_next), d_h))])
        k_t = np.concatenate([c_tilde * i * (1.0 - i), c_prev * f * (1.0 - f),
                              tanh_c * o * (1.0 - o), i * (1.0 - c_tilde * c_tilde)], axis=1)
        d_a[start[t]:start[t] + m] = np.concatenate([dc, dc, dh, dc], axis=1) * k_t
        dh_next = _block_product(d_a[start[t]:start[t] + m], w_h)
        dc_next = dc * f
        d_rows[start[t]:start[t] + m] = _block_product(d_a[start[t]:start[t] + m], w_x)
    d_w = sum(z[lo:lo + GRAD_ROWS].T @ d_a[lo:lo + GRAD_ROWS]
              for lo in range(0, len(z), GRAD_ROWS))
    d_b = d_a.sum(axis=0)
    d_x = [None] * len(seqs)
    for r, k in enumerate(order):
        d_x[k] = d_rows[start[:len(seqs[k])] + r]
    cols = {g: slice(n * d_h, (n + 1) * d_h) for n, g in enumerate(cell.GATES)}
    return ({g: d_w[:, col] for g, col in cols.items()},
            {g: d_b[None, col] for g, col in cols.items()}, d_x)


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


def cbow_reference(corpus, cfg: CbowConfig) -> tuple[np.ndarray, list[float]]:
    """CBOW training as a plain per-token loop: each token with a context
    draws its negatives with ``rng.choice(nv, p=noise)``, which builds the
    noise CDF on every call. Returns (table, per-epoch mean loss); a corpus
    in which no token has a context reports a loss of 0.0 per epoch."""
    sentences = [list(s) for s in corpus if s]
    vocab = Vocabulary()
    counts: dict[int, int] = {}
    encoded = []
    for sent in sentences:
        ids = [vocab.add(t) for t in sent]
        encoded.append(ids)
        for i in ids:
            counts[i] = counts.get(i, 0) + 1

    nv = len(vocab)
    rng = np.random.default_rng(cfg.seed)
    w_in = (rng.random((nv, cfg.dim)) - 0.5) / cfg.dim
    w_in[PAD_INDEX] = 0.0
    w_in[UNK_INDEX] = 0.0
    w_out = np.zeros((nv, cfg.dim), dtype=np.float64)

    freq = np.zeros(nv, dtype=np.float64)
    for i, c in counts.items():
        freq[i] = c
    noise = freq ** 0.75
    noise[PAD_INDEX] = 0.0
    noise[UNK_INDEX] = 0.0
    noise /= noise.sum()

    history = []
    lr = cfg.learning_rate
    for _epoch in range(cfg.epochs):
        epoch_loss = 0.0
        n_examples = 0
        for ids in encoded:
            for pos, center in enumerate(ids):
                lo = max(0, pos - cfg.window)
                hi = min(len(ids), pos + cfg.window + 1)
                context = ids[lo:pos] + ids[pos + 1:hi]
                if not context:
                    continue
                h = w_in[context].mean(axis=0)

                negs = rng.choice(nv, size=NEGATIVE_SAMPLES, p=noise)
                outs = np.concatenate([[center], negs])
                labels = np.zeros(len(outs))
                labels[0] = 1.0
                scores = logistic(w_out[outs] @ h)
                epoch_loss += -(np.log(np.clip(scores[0], 1e-12, None)) +
                                np.sum(np.log(np.clip(1.0 - scores[1:], 1e-12, None))))
                derr = scores - labels
                dh = derr @ w_out[outs]
                w_out[outs] -= lr * np.outer(derr, h)

                grad_ctx = lr * dh / len(context)
                for c in context:
                    w_in[c] -= grad_ctx
                n_examples += 1
        history.append(epoch_loss / max(1, n_examples))

    w_in[PAD_INDEX] = 0.0
    return w_in, history


def load_pretrained_reference(lines: Iterable[str], expected_dim: int) -> EmbeddingMatrix:
    """``load_pretrained`` as it was before it parsed into one buffer: one
    array per row, stacked, then copied into the table."""
    if expected_dim < 1:
        raise EmbeddingError(f"dimension must be >= 1, got {expected_dim}")
    vocab = Vocabulary()
    rows: list[np.ndarray] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != expected_dim + 1:
            raise EmbeddingError(
                f"line {lineno}: expected {expected_dim} components, "
                f"got {len(parts) - 1}")
        token = parts[0]
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingError(f"line {lineno}: {exc}") from exc
        if token in vocab:
            logger.warning("duplicate token %r at line %d, keeping first", token, lineno)
            continue
        vocab.add(token)
        rows.append(vec)
        linenos.append(lineno)

    table = np.zeros((len(vocab), expected_dim), dtype=np.float64)
    if rows:
        loaded = np.stack(rows)
        finite = np.isfinite(loaded).all(axis=1)
        if not finite.all():
            raise EmbeddingError(f"line {linenos[np.argmin(finite)]}: non-finite component")
        table[2:] = loaded
        with np.errstate(over="ignore"):  # the sum of large finite vectors may overflow
            table[UNK_INDEX] = loaded.mean(axis=0)
        if not np.isfinite(table[UNK_INDEX]).all():
            raise EmbeddingError("the mean of the vectors (the UNK row) is not finite")
    return EmbeddingMatrix(vocab=vocab, dim=expected_dim, table=table)
