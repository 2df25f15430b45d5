"""Vocabulary and word-vector handling.

Covers loading pretrained vectors from text, training CBOW vectors on a
tokenized corpus with negative sampling, concatenating two embedding
sources, and turning token sequences into unpadded input tensors: one row
per token, so the row count is the sequence length.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .tensor import Tensor, logistic

logger = logging.getLogger(__name__)

PAD = "<pad>"
UNK = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

# Defaults sized so nearly all verses fit untruncated.
MAX_QUESTION_TOKENS = 30
MAX_ANSWER_TOKENS = 60
NEGATIVE_SAMPLES = 5  # noise words drawn per CBOW example


class EmbeddingError(ValueError):
    pass


class Vocabulary:
    """Token <-> dense index maps with reserved PAD=0 and UNK=1."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._index = {PAD: PAD_INDEX, UNK: UNK_INDEX}
        self._tokens = [PAD, UNK]
        for tok in tokens:
            self.add(tok)

    def add(self, token: str) -> int:
        idx = self._index.get(token)
        if idx is None:
            idx = len(self._tokens)
            self._index[token] = idx
            self._tokens.append(token)
        return idx

    def index(self, token: str) -> int:
        return self._index.get(token, UNK_INDEX)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self._tokens)

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def tokens(self) -> list[str]:
        """All tokens in index order, reserved entries included."""
        return list(self._tokens)


@dataclass
class EmbeddingMatrix:
    vocab: Vocabulary
    dim: int
    table: np.ndarray  # |V| x dim, float64; PAD row all zero

    def __post_init__(self):
        if self.table.shape != (len(self.vocab), self.dim):
            raise EmbeddingError(
                f"table shape {self.table.shape} does not match "
                f"|V|={len(self.vocab)}, dim={self.dim}")


@dataclass
class CbowConfig:
    window: int = 5
    dim: int = 200
    epochs: int = 5
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.window < 1 or self.dim < 1:
            raise ValueError("window and dim must be >= 1")


def load_pretrained(lines: Iterable[str], expected_dim: int) -> EmbeddingMatrix:
    """Parse `token v1 .. vd` lines into an embedding matrix.

    PAD and UNK rows are prepended; UNK is the mean of all loaded vectors.
    Duplicate tokens keep the first occurrence; a nan or inf, in a vector
    or in their mean, is an error.
    """
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


def save_embedding(m: EmbeddingMatrix) -> list[str]:
    """Render non-reserved rows in the same text format load_pretrained reads."""
    out = []
    for idx in range(2, len(m.vocab)):
        vec = " ".join(repr(float(v)) for v in m.table[idx])
        out.append(f"{m.vocab.token(idx)} {vec}")
    return out


def train_cbow(corpus: Sequence[Sequence[str]], cfg: CbowConfig,
               loss_history: list[float] | None = None) -> EmbeddingMatrix:
    """Train CBOW word vectors: predict each center word from its window.

    Negative sampling against a unigram^0.75 noise distribution.
    Deterministic for a fixed seed. The PAD row is never touched (real
    tokens never map to it).
    """
    sentences = [list(s) for s in corpus if s]
    total = sum(len(s) for s in sentences)
    if total < cfg.window + 1:
        raise EmbeddingError(
            f"corpus has {total} tokens; need at least window+1 = {cfg.window + 1}")

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
        if loss_history is not None:
            loss_history.append(epoch_loss / max(1, n_examples))

    w_in[PAD_INDEX] = 0.0
    return EmbeddingMatrix(vocab=vocab, dim=cfg.dim, table=w_in)


def concat_embeddings(a: EmbeddingMatrix, b: EmbeddingMatrix) -> EmbeddingMatrix:
    """Concatenate two embedding sources over the union of their vocabularies.

    A token absent from one source gets zeros in that segment; PAD stays
    all-zero. Union order: a's tokens first, then b's new tokens.
    """
    vocab = Vocabulary()
    for tok in a.vocab.tokens()[2:]:
        vocab.add(tok)
    for tok in b.vocab.tokens()[2:]:
        vocab.add(tok)
    dim = a.dim + b.dim
    table = np.zeros((len(vocab), dim), dtype=np.float64)
    for idx in range(1, len(vocab)):  # include UNK, skip PAD
        tok = vocab.token(idx)
        if tok in a.vocab:
            table[idx, :a.dim] = a.table[a.vocab.index(tok)]
        if tok in b.vocab:
            table[idx, a.dim:] = b.table[b.vocab.index(tok)]
    return EmbeddingMatrix(vocab=vocab, dim=dim, table=table)


def embed_sequence(tokens: Sequence[str], m: EmbeddingMatrix,
                   max_len: int) -> Tensor:
    """Map tokens to a [min(len(tokens), max_len), dim] tensor, one row each.

    Unknown tokens use the UNK row; long inputs are truncated at the tail.
    Nothing is padded: an empty list yields one all-zero row.
    """
    if max_len < 1:
        raise EmbeddingError("max_len must be >= 1")
    if not tokens:
        return Tensor(np.zeros((1, m.dim)))
    return Tensor(m.table[[m.vocab.index(tok) for tok in tokens[:max_len]]])


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def nearest_neighbors(word: str, m: EmbeddingMatrix, k: int) -> list[tuple[str, float]]:
    """Top-k tokens by cosine similarity to ``word``, descending; every
    candidate when there are fewer than k.

    The query itself, PAD, and UNK are excluded; ties break by vocab index.
    """
    if word not in m.vocab:
        raise KeyError(f"token not in vocabulary: {word!r}")
    q = m.table[m.vocab.index(word)]
    scored = []
    for idx in range(2, len(m.vocab)):
        tok = m.vocab.token(idx)
        if tok == word:
            continue
        scored.append((-cosine(q, m.table[idx]), idx, tok))
    scored.sort()
    return [(tok, -negcos) for negcos, _idx, tok in scored[:k]]
