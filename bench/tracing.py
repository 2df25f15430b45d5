"""Span recorder for the traced benchmark run.

Nothing inside ``verseqa`` is instrumented. :func:`install` replaces the
public functions of each layer with wrappers that record a span per call:
name, layer, start, end, parent span and the operation id of the benchmark
call it belongs to. Spans stay in memory until the run ends, when
:func:`layer_metrics` turns them into per-layer figures. The wrappers also
keep the counters that time alone cannot show (graph nodes, LSTM steps,
padded rows, redundant question encodes).

The program is single-threaded, so spans nest: a span's children lie inside
it and do not overlap, and its self time is its duration minus theirs.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

LAYERS = ("tensor", "models", "embeddings", "training", "data", "evaluation", "cli")
MODEL_KINDS = ("rnn", "cnn", "bidaf")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, layer, start, end, parent, op, error]
        self._open: list[int] = []
        self._open_names: list[str] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.validation_s = 0.0
        self.model = ""               # model kind of the current benchmark call
        self.question = None          # id() of the question tensor of the current forward
        self.val_pairs = 0
        self.loss_pairs: dict[int, int] = {}

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, self.op, False])
        self._open.append(idx)
        self._open_names.append(name)
        return idx

    def close(self, idx: int, error: bool = False) -> float:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[6] = error
        self._open.pop()
        self._open_names.pop()
        return span[3] - span[2]

    def inside(self, name: str) -> bool:
        return name in self._open_names


def _graph_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _wrap(tr: Tracer, fn, name: str, layer: str, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = tr.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tr.close(idx, error=True)
            raise
        seconds = tr.close(idx)
        if after is not None:
            after(args, kwargs, out, seconds)
        return out
    return traced


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def install(tr: Tracer, vq) -> list[tuple]:
    """Wrap the layers of the ``verseqa`` package ``vq``; returns the undo list.

    ``vq`` is a namespace with the imported submodules (``tensor``,
    ``models``, ``embeddings``, ``training``, ``data``, ``evaluation``,
    ``cli``). Names imported into another module (``embed_sequence``) are
    replaced there too. A function the program no longer has is skipped, and
    the metrics that depend on it read 0.
    """
    undo: list[tuple] = []

    def patch(owner, attr, name, layer, before=None, after=None, also=()):
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapped = _wrap(tr, original, name, layer, before, after)
        for target in (owner,) + tuple(also):
            if getattr(target, attr, None) is original:
                undo.append((target, attr, original))
                setattr(target, attr, wrapped)

    def walk(root, model: str, pairs: int) -> None:
        idx = tr.open("trace.graph_walk", "trace")
        nodes = _graph_nodes(root)
        tr.close(idx)
        tr.counts[f"nodes.{model}"] += nodes
        tr.counts[f"nodes_pairs.{model}"] += pairs

    # tensor
    def before_backward(args, kwargs):
        pairs = tr.loss_pairs.pop(id(args[0]), 0)
        if pairs:
            walk(args[0], tr.model, pairs)
    patch(vq.tensor.Tensor, "backward", "tensor.backward", "tensor", before_backward)

    # models
    def before_forward(args, kwargs):
        tr.question = id(_arg(args, kwargs, 1, "q_emb"))

    def after_forward(kind):
        def after(args, kwargs, out, seconds):
            tr.counts[f"forward_pairs.{kind}"] += 1
            if tr.inside("training.train"):
                if not _arg(args, kwargs, 3, "training", False):
                    tr.counts["val_forwards"] += 1
                    if not tr.inside("evaluation.score_groups"):
                        tr.validation_s += seconds
            elif tr.inside("evaluation.score_groups"):
                walk(out, kind, 1)
        return after

    for kind, cls in (("rnn", vq.models.RnnPairModel), ("cnn", vq.models.CnnPairModel),
                      ("bidaf", vq.models.BidafModel)):
        patch(cls, "forward", f"models.forward.{kind}", "models",
              before_forward, after_forward(kind))

    def before_encode(args, kwargs):
        if id(_arg(args, kwargs, 1, "seq")) == tr.question and \
                tr.inside("evaluation.score_groups"):
            tr.counts["question_encodes"] += 1

    def count(key):
        def after(args, kwargs, out, seconds):
            tr.counts[key] += 1
        return after

    patch(vq.models.LstmCell, "step", "models.lstm_step", "models",
          after=count("lstm_steps"))
    patch(vq.models.LstmCell, "encode", "models.lstm_encode", "models", before_encode)
    patch(vq.models.LstmCell, "encode_states", "models.lstm_encode", "models",
          before_encode)
    patch(vq.models.CnnPairModel, "_pool", "models.cnn_pool", "models", before_encode)
    patch(vq.models, "bidaf_attention", "models.bidaf_attention", "models")

    # embeddings
    def before_embed(args, kwargs):
        tokens = _arg(args, kwargs, 0, "tokens")
        max_len = _arg(args, kwargs, 2, "max_len")
        tr.counts["embed_rows"] += max_len
        tr.counts["embed_pad_rows"] += max_len - min(len(tokens), max_len)
    patch(vq.embeddings, "embed_sequence", "embeddings.embed_sequence", "embeddings",
          before_embed, also=(vq.training, vq.evaluation))
    patch(vq.embeddings, "train_cbow", "embeddings.train_cbow", "embeddings")
    patch(vq.embeddings, "load_pretrained", "embeddings.vectors_io", "embeddings")
    patch(vq.embeddings, "save_embedding", "embeddings.vectors_io", "embeddings")

    # training
    def after_bce(args, kwargs, out, seconds):
        tr.loss_pairs[id(out)] = args[0].data.size

    def before_train(args, kwargs):
        tr.val_pairs = sum(len(g.candidates) for g in _arg(args, kwargs, 2, "val_groups"))

    def after_train(args, kwargs, out, seconds):
        tr.counts["val_pairs_epochs"] += tr.val_pairs * len(out.history)

    def after_load(args, kwargs, out, seconds):
        tr.counts["checkpoint_bytes"] += len(_arg(args, kwargs, 0, "data"))
        tr.counts["checkpoint_loads"] += 1

    patch(vq.training, "train", "training.train", "training", before_train, after_train)
    patch(vq.training, "bce_loss", "training.bce_loss", "training", after=after_bce)
    patch(vq.training, "adagrad_step", "training.adagrad_step", "training")
    patch(vq.training, "save_checkpoint", "training.checkpoint_save", "training")
    patch(vq.training, "load_checkpoint", "training.checkpoint_load", "training",
          after=after_load)
    patch(vq.training, "model_from_checkpoint", "training.checkpoint_load", "training")

    # data
    for fn in ("tokenize", "parse_bible", "parse_trivia", "build_bibleqa",
               "group_to_json", "group_from_json", "write_groups", "read_groups"):
        patch(vq.data, fn, f"data.{fn}", "data")

    # evaluation
    def after_score(args, kwargs, out, seconds):
        tr.counts["scored_groups"] += len(_arg(args, kwargs, 1, "groups"))
        if tr.inside("training.train"):
            tr.validation_s += seconds
    patch(vq.evaluation, "score_groups", "evaluation.score_groups", "evaluation",
          after=after_score)
    patch(vq.evaluation, "evaluate", "evaluation.evaluate", "evaluation")

    # cli
    patch(vq.cli, "main", "cli.main", "cli")
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, cycles: int) -> dict[str, float]:
    """Per-layer figures from the recorded spans and counters.

    Times are seconds per traced cycle (one call of every lane of the
    workload); ``_s`` names are inclusive span time unless they say self.
    Spans of operation 0 belong to the traced set-up and only feed the
    ``setup.<layer>.self_s`` figures (seconds per set-up).
    """
    duration: dict[str, float] = defaultdict(float)
    self_layer: dict[str, float] = defaultdict(float)
    setup_layer: dict[str, float] = defaultdict(float)
    errors: Counter = Counter()
    child = [0.0] * len(tr.spans)
    for name, layer, start, end, parent, _op, error in tr.spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, layer, start, end, parent, op, error) in enumerate(tr.spans):
        if error:
            errors[layer] += 1
        if op == 0:
            setup_layer[layer] += end - start - child[i]
            continue
        duration[name] += end - start
        self_layer[layer] += end - start - child[i]

    c = tr.counts
    per = 1.0 / max(cycles, 1)
    m = {
        "tensor.backward_s": duration["tensor.backward"] * per,
        "models.lstm_encode_s": duration["models.lstm_encode"] * per,
        "models.bidaf_attention_s": duration["models.bidaf_attention"] * per,
        "models.lstm_steps_per_pair": _ratio(
            c["lstm_steps"], sum(c[f"forward_pairs.{k}"] for k in MODEL_KINDS)),
        "models.question_encodes_per_group": _ratio(c["question_encodes"],
                                                    c["scored_groups"]),
        "embeddings.embed_sequence_s": duration["embeddings.embed_sequence"] * per,
        "embeddings.pad_row_share": _ratio(c["embed_pad_rows"], c["embed_rows"]),
        "embeddings.train_cbow_s": duration["embeddings.train_cbow"] * per,
        "embeddings.vectors_io_s": duration["embeddings.vectors_io"] * per,
        "training.bce_loss_s": duration["training.bce_loss"] * per,
        "training.adagrad_step_s": duration["training.adagrad_step"] * per,
        "training.validation_s": tr.validation_s * per,
        "training.val_forwards_per_val_pair": _ratio(c["val_forwards"],
                                                     c["val_pairs_epochs"]),
        "training.checkpoint_save_s": duration["training.checkpoint_save"] * per,
        "training.checkpoint_load_s": duration["training.checkpoint_load"] * per,
        "training.checkpoint_bytes": _ratio(c["checkpoint_bytes"], c["checkpoint_loads"]),
        "evaluation.score_groups_s": duration["evaluation.score_groups"] * per,
        "evaluation.evaluate_s": duration["evaluation.evaluate"] * per,
        "cli.self_s": self_layer["cli"] * per,
    }
    for kind in MODEL_KINDS:
        m[f"tensor.nodes_per_pair.{kind}"] = _ratio(c[f"nodes.{kind}"],
                                                    c[f"nodes_pairs.{kind}"])
        m[f"models.forward_s.{kind}"] = duration[f"models.forward.{kind}"] * per
    for fn in ("parse_bible", "parse_trivia", "build_bibleqa", "write_groups",
               "read_groups"):
        m[f"data.{fn}_s"] = duration[f"data.{fn}"] * per
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_layer[layer] * per
        m[f"setup.{layer}.self_s"] = setup_layer[layer]
        m[f"{layer}.errors"] = float(errors[layer])
    m["harness.self_s"] = self_layer["harness"] * per
    m["trace.self_s"] = self_layer["trace"] * per
    return m
