"""Loss, optimizer, training loop, checkpointing, and weight transfer."""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import evaluation
from . import models as models_mod
from .embeddings import (EmbeddingMatrix, MAX_ANSWER_TOKENS,
                         MAX_QUESTION_TOKENS, embed_sequence)
from .tensor import ParameterSet, ShapeError, Tensor

BCE_EPS = 1e-7
ADAGRAD_EPS = 1e-8


class CheckpointError(ValueError):
    pass


class BadMagicError(CheckpointError):
    pass


class UnsupportedVersionError(CheckpointError):
    pass


class TruncatedCheckpointError(CheckpointError):
    pass


class ManifestMismatchError(CheckpointError):
    pass


class TransferError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """A batch loss or gradient is not finite: training has diverged."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    max_question_tokens: int = MAX_QUESTION_TOKENS
    max_answer_tokens: int = MAX_ANSWER_TOKENS

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def bce_loss(p: Tensor, y: Sequence[float]) -> Tensor:
    """Mean binary cross-entropy of probabilities ``p`` against 0/1 labels.

    One graph node. Probabilities are clipped to [BCE_EPS, 1 - BCE_EPS];
    the gradient is zero where the clip is active.
    """
    labels = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be 0 or 1")
    n = p.data.size
    if n != labels.size:  # also rejects zero labels: a tensor is never empty
        raise ShapeError(f"{n} probabilities vs {labels.size} labels")
    flat = p.data.reshape(n, 1)
    pc = np.clip(flat, BCE_EPS, 1.0 - BCE_EPS)
    inside = (flat > BCE_EPS) & (flat < 1.0 - BCE_EPS)
    ll = labels * np.log(pc) + (1.0 - labels) * np.log(1.0 - pc)
    out = Tensor(-(np.sum(ll) * (1.0 / n)), (p,))

    def backward(g: np.ndarray) -> None:
        d = -g * (1.0 / n)
        dp = (d * labels) / pc - (d * (1.0 - labels)) / (1.0 - pc)
        p.grad += (dp * inside).reshape(p.shape)

    out._backward = backward
    return out


class AdaGradState:
    """Per-parameter accumulated squared gradients."""

    def __init__(self, params: ParameterSet):
        self.accum = {name: np.zeros_like(t.data) for name, t in params.items()}


def adagrad_step(params: ParameterSet, grads: dict[str, np.ndarray],
                 state: AdaGradState, lr: float) -> None:
    """theta -= lr * g / (sqrt(sum g^2) + eps), in place, through two scratch
    arrays per tensor: the operations and their order are those of
    ``acc += g * g; theta -= (lr * g) / (np.sqrt(acc) + eps)``, so are the bits."""
    for name, t in params.items():
        g = grads[name]
        if g.shape != t.data.shape:
            raise ShapeError(f"gradient for {name}: shape {g.shape} "
                             f"does not match {t.data.shape}")
        acc = state.accum[name]
        step, denom = np.empty_like(acc), np.empty_like(acc)
        acc += np.multiply(g, g, out=step)
        np.sqrt(acc, out=denom)
        denom += ADAGRAD_EPS
        np.multiply(lr, g, out=step)
        step /= denom
        t.data -= step


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_f1: float


@dataclass
class TrainResult:
    history: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = float("inf")
    stopped_early: bool = False


def _validate(model, groups, embedding: EmbeddingMatrix,
              cfg: TrainConfig) -> tuple[float, float]:
    """Validation BCE and top-1 F1 from one scoring pass over ``groups``."""
    preds = evaluation.score_groups(model, groups, embedding,
                                    cfg.max_question_tokens, cfg.max_answer_tokens)
    scored = [p for plist in preds.values() for p in plist]
    probs = Tensor(np.array([[p.score] for p in scored]))
    loss = bce_loss(probs, [p.label for p in scored]).item()
    return loss, evaluation.evaluate(preds).f1


def _batch_gradients(model, batch, embedding: EmbeddingMatrix, cfg: TrainConfig,
                     rng: np.random.Generator) -> tuple[float, dict[str, np.ndarray]]:
    """The loss of one minibatch of (question, candidate, label) pairs and
    the gradient of every parameter, from one ``score`` call that encodes
    each distinct question token list once, whose [B, 1] probabilities the
    loss takes directly. The scores, so the loss too, equal ``forward`` of
    each pair bit for bit; the gradients equal the sum of each pair's up to
    rounding, as a shared question's gradient is summed before its encoder's
    backward and an LSTM sums its weight gradients over the batch's rows.
    The embedded inputs are freed when ``score`` returns, each stage's saved
    arrays as the backward passes it, and the rest of the graph on return."""
    questions, which = evaluation.distinct_questions(q for q, _, _ in batch)
    probs = model.score([embed_sequence(q, embedding, cfg.max_question_tokens) for q in questions],
                        which,
                        [embed_sequence(a, embedding, cfg.max_answer_tokens) for _, a, _ in batch],
                        training=True, rng=rng)
    loss = bce_loss(probs, [label for _, _, label in batch])
    loss.backward()  # every input has a row, so it reaches every param
    return loss.item(), {name: t.grad for name, t in model.params.items()}


def train(model, train_groups, val_groups, embedding: EmbeddingMatrix,
          cfg: TrainConfig) -> TrainResult:
    """Mini-batch AdaGrad training with validation-loss early stopping.

    Iterates (question, candidate, label) pairs in seeded-shuffled batches,
    embedding each batch as it runs it; a batch is one ``score`` call that
    encodes each distinct question once. Its scores equal ``forward``'s bit
    for bit, its gradients the per-pair sum up to rounding (``_batch_gradients``).
    Stops when validation loss has not improved for ``cfg.patience`` epochs
    or at ``cfg.max_epochs``; the returned model holds the weights of the
    best validation epoch. Deterministic for fixed weights, data, and seed,
    at any BLAS thread count.
    A non-finite batch loss or gradient raises :class:`DivergenceError`
    before it reaches the weights.
    """
    if not train_groups:
        raise ValueError("empty training set")
    for g in list(train_groups) + list(val_groups):
        positives = sum(c.label for c in g.candidates)
        if positives != 1:
            raise ValueError(f"group {g.qid}: expected exactly one positive, "
                             f"got {positives}")

    train_pairs = [(g.question_tokens, c.tokens, float(c.label))
                   for g in train_groups for c in g.candidates]
    rng = np.random.default_rng(cfg.seed)
    state = AdaGradState(model.params)
    result = TrainResult()
    best_values = model.params.copy_values()
    epochs_since_best = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_pairs))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_pairs[i] for i in order[start:start + cfg.batch_size]]
            loss, grads = _batch_gradients(model, batch, embedding, cfg, rng)
            bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
            if bad or not math.isfinite(loss):
                raise DivergenceError(
                    f"epoch {epoch}, batch {start // cfg.batch_size + 1}: loss "
                    f"{loss}, first non-finite gradient: {bad[0] if bad else 'none'}")
            adagrad_step(model.params, grads, state, cfg.learning_rate)
            losses.append((loss, len(batch)))

        total = sum(n for _, n in losses)
        train_loss = sum(l * n for l, n in losses) / total
        val_loss, val_f1 = (_validate(model, val_groups, embedding, cfg)
                            if val_groups else (train_loss, 0.0))
        result.history.append(EpochRecord(epoch, train_loss, val_loss, val_f1))

        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            best_values = model.params.copy_values()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                result.stopped_early = True
                break

    model.params.load_values(best_values)
    return result


# ---- checkpoints -------------------------------------------------------------

MAGIC = b"BQAC"
FORMAT_VERSION = 1
_DTYPES = {"f4": np.dtype("<f4"), "f8": np.dtype("<f8")}


@dataclass
class Checkpoint:
    model_kind: str
    config: dict
    tensors: dict[str, np.ndarray]


def save_checkpoint(model) -> bytes:
    """Serialize model kind, config, and parameters.

    Layout: magic, u32 version, u32 manifest length, JSON manifest, then
    raw little-endian float64 arrays in manifest order, so parameters
    round-trip bitwise. ``load_checkpoint`` also reads "f4" entries.
    """
    entries = [{"name": name, "shape": list(t.data.shape), "dtype": "f8"}
               for name, t in model.params.items()]
    manifest = {"model_kind": model.kind, "config": model.config(),
                "tensors": entries}
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<I", len(mbytes))
    blob += mbytes
    for _name, t in model.params.items():
        blob += t.data.astype(_DTYPES["f8"]).tobytes(order="C")
    return bytes(blob)


def _check_manifest(manifest) -> None:
    """Raise ManifestMismatchError unless the manifest has the v1 structure."""
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("model_kind"), str)
            and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("tensors"), list)):
        raise ManifestMismatchError("manifest must be an object with a string "
                                    "model_kind, a config object and a tensors list")
    for entry in manifest["tensors"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("dtype"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(d) is int for d in entry["shape"])):
            raise ManifestMismatchError(f"malformed tensor entry: {entry!r}")
        if any(d < 1 for d in entry["shape"]):  # parameters are never empty
            raise ManifestMismatchError(f"tensor {entry['name']}: negative or zero "
                                        f"dimension in shape {entry['shape']}")


def load_checkpoint(data: bytes) -> Checkpoint:
    if len(data) < 12:
        raise TruncatedCheckpointError("checkpoint shorter than header")
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic bytes: {data[:4]!r}")
    version, mlen = struct.unpack("<II", data[4:12])
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}")
    if len(data) < 12 + mlen:
        raise TruncatedCheckpointError("manifest truncated")
    try:
        manifest = json.loads(data[12:12 + mlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
        raise ManifestMismatchError(f"unreadable manifest: {exc}") from exc
    _check_manifest(manifest)

    tensors: dict[str, np.ndarray] = {}
    offset = 12 + mlen
    for entry in manifest["tensors"]:
        name, dt = entry["name"], _DTYPES.get(entry["dtype"])
        if dt is None:
            raise ManifestMismatchError(f"unknown dtype {entry['dtype']!r}")
        if name in tensors:
            raise ManifestMismatchError(f"tensor {name} listed twice")
        count = math.prod(entry["shape"])  # exact: no overflow on huge shapes
        nbytes = count * dt.itemsize
        if offset + nbytes > len(data):
            raise TruncatedCheckpointError(
                f"tensor {name}: blob holds fewer than {count} values")
        arr = np.frombuffer(data, dtype=dt, count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise ManifestMismatchError(f"tensor {name}: non-finite values")
        tensors[name] = arr.reshape(entry["shape"]).astype(np.float64)
        offset += nbytes
    if offset != len(data):
        raise ManifestMismatchError(
            f"{len(data) - offset} trailing bytes beyond manifest contents")
    return Checkpoint(model_kind=manifest["model_kind"],
                      config=manifest["config"], tensors=tensors)


def model_from_checkpoint(ckpt: Checkpoint):
    """The model a checkpoint describes; ManifestMismatchError if it cannot be built.

    The shapes the config implies are checked against the tensors before
    anything is allocated, so a config that asks for more memory than the
    checkpoint holds fails here and not in numpy."""
    def unbuildable(exc: Exception) -> ManifestMismatchError:
        return ManifestMismatchError(f"cannot build a {ckpt.model_kind!r} model from "
                                     f"config {ckpt.config}: {exc}")

    try:
        want = models_mod.param_shapes(ckpt.model_kind, **ckpt.config)
    except (TypeError, ValueError) as exc:  # unknown kind or config key, non-integer size
        raise unbuildable(exc) from exc
    got = {name: a.shape for name, a in ckpt.tensors.items()}
    if got != want:  # a tensor missing, extra or misshapen
        raise ManifestMismatchError(f"tensors {sorted(got.items() - want.items())} "
                                    f"do not fit {sorted(want.items() - got.items())}")
    try:
        model = models_mod.build_model(ckpt.model_kind, **ckpt.config)
    except (TypeError, ValueError) as exc:  # a bad value the shapes do not show
        raise unbuildable(exc) from exc
    model.params.load_values(ckpt.tensors)
    return model


# ---- weight transfer ---------------------------------------------------------

@dataclass
class TransferReport:
    copied: list[str] = field(default_factory=list)
    extended: list[str] = field(default_factory=list)


def _extend_input_rows(src: np.ndarray, dst_shape: tuple, blocks: int,
                       d_new: int) -> np.ndarray:
    """Rows are ``blocks`` input blocks of d_in rows, then a tail of other rows,
    and ``dst_shape`` has ``d_new`` rows per block; each block keeps its old
    rows and zero-fills the new ones."""
    tail = dst_shape[0] - blocks * d_new
    d_old, r_old = divmod(src.shape[0] - tail, blocks)
    if src.shape[1] != dst_shape[1] or r_old or not 0 <= d_old <= d_new:
        raise TransferError(f"cannot extend input rows {src.shape} to {dst_shape}")
    out = np.zeros(dst_shape)
    for j in range(blocks):
        out[j * d_new:j * d_new + d_old] = src[j * d_old:(j + 1) * d_old]
    out[blocks * d_new:] = src[blocks * d_old:]
    return out


def transfer_weights(source: Checkpoint, target) -> TransferReport:
    """Copy checkpoint tensors into ``target`` (same model kind).

    Equal shapes copy exactly. A matrix whose rows grow with ``d_in`` (it has
    ``blocks`` more in ``param_shapes`` at the target's ``d_in + 1``) copies
    the old input rows of each of its d_in blocks and zero-fills the new
    ones, so the transferred model computes the same function while the
    extra embedding dims are zero. Any other mismatch is an error.
    """
    if source.model_kind != target.kind:
        raise TransferError(f"model kind mismatch: checkpoint is "
                            f"{source.model_kind!r}, target is {target.kind!r}")
    grown = models_mod.param_shapes(target.kind, **{**target.config(), "d_in": target.d_in + 1})
    report = TransferReport()
    new_values = {}
    for name, t in target.params.items():
        if name not in source.tensors:
            raise TransferError(f"checkpoint is missing parameter {name}")
        src = source.tensors[name]
        if src.shape == t.data.shape:
            new_values[name] = src.copy()
            report.copied.append(name)
            continue
        blocks = grown[name][0] - t.data.shape[0]  # rows: blocks of d_in, then a tail
        if not blocks or src.ndim != 2:
            raise TransferError(f"parameter {name}: shape {src.shape} does not "
                                f"match {t.data.shape} and is not an input block")
        new_values[name] = _extend_input_rows(src, t.data.shape, blocks, target.d_in)
        report.extended.append(name)
    target.params.load_values(new_values)
    return report
