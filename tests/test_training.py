import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FILLERS, KEYS, grad_check, make_separable_groups
import verseqa
from verseqa import models
from verseqa.data import Candidate, QuestionGroup
from verseqa.embeddings import EmbeddingMatrix, Vocabulary, embed_sequence
from verseqa.models import BidafModel, CnnPairModel, RnnPairModel, build_model
from verseqa.tensor import GraphError, ParameterSet, ShapeError, Tensor
from verseqa.training import (AdaGradState, BadMagicError, Checkpoint,
                              CheckpointError, DivergenceError,
                              ManifestMismatchError, TrainConfig,
                              TransferError, TruncatedCheckpointError,
                              UnsupportedVersionError, _batch_gradients,
                              adagrad_step, bce_loss,
                              load_checkpoint, model_from_checkpoint,
                              save_checkpoint, train, transfer_weights)


def probabilities(values) -> Tensor:
    """Probabilities as a Tensor whose backward keeps the gradient it gets
    as its grad, where a model's output would pass it on to its stages."""
    p = Tensor(values)
    p._backward = p.add_grad
    return p


class TestBceLoss:
    def test_half_probability(self):
        assert bce_loss(Tensor([[0.5]]), [1]).item() == pytest.approx(math.log(2))

    def test_confident_correct_is_near_zero(self):
        assert bce_loss(Tensor([[1 - 1e-7]]), [1]).item() == pytest.approx(0.0, abs=1e-6)

    def test_hand_computed_mean(self):
        expected = (-math.log(0.9) - math.log(0.1)) / 2
        assert bce_loss(Tensor([[0.9], [0.9]]), [1, 0]).item() == pytest.approx(expected)
        assert expected == pytest.approx(1.20397, abs=1e-5)

    def test_rejects_empty_and_bad_labels(self):
        with pytest.raises(ValueError):
            bce_loss(Tensor([[0.5]]), [])
        with pytest.raises(ValueError):
            bce_loss(Tensor([[0.5]]), [0.5])

    def test_nonnegative_and_differentiable(self):
        p = probabilities([[0.3], [0.8], [0.5]])
        loss = bce_loss(p, [0, 1, 1])
        assert loss.item() >= 0
        loss.backward()
        assert p.grad is not None and p.grad.shape == (3, 1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        params = ParameterSet({"p": probabilities(rng.uniform(0.05, 0.95, size=(6, 1)))})
        assert grad_check(lambda ps: bce_loss(ps["p"], [1, 0, 0, 1, 1, 0]), params) < 1e-6

    def test_clipped_probabilities_give_finite_loss_and_zero_gradient(self):
        p = probabilities([[0.0], [1.0], [0.0], [1.0], [0.5]])
        loss = bce_loss(p, [1, 0, 0, 1, 1])
        assert math.isfinite(loss.item())
        loss.backward()
        np.testing.assert_array_equal(p.grad[:4], np.zeros((4, 1)))
        assert p.grad[4, 0] == pytest.approx(-2.0 / 5)


class TestAdagrad:
    def test_first_step_magnitude_is_learning_rate(self):
        params = ParameterSet({"w": Tensor([1.0])})
        state = AdaGradState(params)
        adagrad_step(params, {"w": np.array([0.5])}, state, lr=0.1)
        assert params["w"].data[0] == pytest.approx(0.9, abs=1e-7)

    def test_zero_gradient_is_a_noop(self):
        params = ParameterSet({"w": Tensor([2.0])})
        state = AdaGradState(params)
        adagrad_step(params, {"w": np.array([0.0])}, state, lr=0.1)
        assert params["w"].data[0] == 2.0
        assert state.accum["w"][0] == 0.0

    def test_second_step_hand_computed(self):
        params = ParameterSet({"w": Tensor([1.0])})
        state = AdaGradState(params)
        g = {"w": np.array([0.5])}
        adagrad_step(params, g, state, lr=0.1)
        before = params["w"].data[0]
        adagrad_step(params, g, state, lr=0.1)
        step2 = before - params["w"].data[0]
        assert step2 == pytest.approx(0.1 * 0.5 / math.sqrt(0.5), abs=1e-6)

    def test_accumulator_monotone_and_update_bounded(self):
        rng = np.random.default_rng(0)
        params = ParameterSet({"w": Tensor(rng.normal(size=(4,)))})
        state = AdaGradState(params)
        prev_acc = state.accum["w"].copy()
        for _ in range(20):
            before = params["w"].data.copy()
            g = {"w": rng.normal(size=(4,))}
            adagrad_step(params, g, state, lr=0.05)
            assert np.all(state.accum["w"] >= prev_acc)
            assert np.all(np.abs(params["w"].data - before) <= 0.05 + 1e-12)
            prev_acc = state.accum["w"].copy()

    def test_shape_mismatch(self):
        params = ParameterSet({"w": Tensor([1.0, 2.0])})
        state = AdaGradState(params)
        with pytest.raises(ShapeError):
            adagrad_step(params, {"w": np.array([1.0])}, state, lr=0.1)

    def test_bitwise_equal_to_the_plain_expression(self):
        # the in-place step against ``acc += g * g; theta -= lr * g /
        # (sqrt(acc) + eps)`` over several steps, with a tensor whose
        # gradient is always zero and one whose gradient is zero at times
        rng = np.random.default_rng(11)
        shapes = {"a": (3, 4), "b": (1, 4), "w": (5, 2), "z": (2, 2)}
        params = ParameterSet({n: Tensor(rng.normal(size=s)) for n, s in shapes.items()})
        want = params.copy_values()
        acc = {n: np.zeros(s) for n, s in shapes.items()}
        state = AdaGradState(params)
        for step in range(6):
            grads = {n: rng.normal(size=s) * 10.0 ** rng.integers(-8, 3)
                     for n, s in shapes.items()}
            grads["z"] = np.zeros(shapes["z"])
            if step % 3 == 1:
                grads["b"] = np.zeros(shapes["b"])
            adagrad_step(params, grads, state, lr=0.003)
            for n, g in grads.items():
                acc[n] += g * g
                want[n] -= 0.003 * g / (np.sqrt(acc[n]) + 1e-8)
            for n, t in params.items():
                assert t.data.tobytes() == want[n].tobytes(), (step, n)
                assert state.accum[n].tobytes() == acc[n].tobytes(), (step, n)


def small_task(emb_dim=16):
    train_g = make_separable_groups(40, seed=1)
    val_g = make_separable_groups(12, seed=2)
    return train_g, val_g


class TestTrain:
    def _cfg(self, **kw):
        base = dict(learning_rate=0.05, batch_size=16, max_epochs=4,
                    patience=10, seed=0, max_question_tokens=4,
                    max_answer_tokens=4)
        base.update(kw)
        return TrainConfig(**base)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", ["batch_size", "max_epochs"])
    def test_config_rejects_counts_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            self._cfg(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -0.5, math.nan, math.inf, -math.inf])
    def test_config_rejects_learning_rate_not_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="learning_rate"):
            self._cfg(learning_rate=value)

    def test_divergence_raises_typed_error(self, tiny_embedding):
        # at lr 1e300 the conv weights overflow and batch 2's loss and
        # gradients are NaN; the error names where, and no NaN reaches a weight
        model = CnnPairModel(16, n_filters=16, window=2, seed=0)
        cfg = TrainConfig(learning_rate=1e300, max_epochs=3)
        with np.errstate(all="ignore"), pytest.raises(
                DivergenceError, match=r"epoch 1, batch 2: loss nan, .*: conv\.W$"):
            train(model, make_separable_groups(40, seed=10),
                  make_separable_groups(10, seed=11), tiny_embedding, cfg)
        assert all(np.isfinite(t.data).all() for _, t in model.params.items())

    def test_empty_training_set_rejected(self, tiny_embedding):
        model = RnnPairModel(16, d_h=4, seed=0)
        with pytest.raises(ValueError):
            train(model, [], [], tiny_embedding, self._cfg())

    def test_group_without_single_positive_rejected(self, tiny_embedding):
        groups = make_separable_groups(5, seed=3)
        groups[0].candidates[0].label = 1
        groups[0].candidates[1].label = 1
        model = RnnPairModel(16, d_h=4, seed=0)
        with pytest.raises(ValueError, match="exactly one positive"):
            train(model, groups, [], tiny_embedding, self._cfg())

    def test_patience_stops_after_ten_worse_epochs(self, tiny_embedding, monkeypatch):
        # strictly increasing validation loss from epoch 1 onward
        losses = iter(float(x) for x in range(1, 100))
        monkeypatch.setattr("verseqa.training._validate",
                            lambda model, groups, emb, cfg: (next(losses), 0.0))
        train_g, val_g = small_task()
        model = RnnPairModel(16, d_h=4, seed=0)
        result = train(model, train_g, val_g, tiny_embedding,
                       self._cfg(max_epochs=100, patience=10))
        assert result.stopped_early
        assert result.best_epoch == 1
        assert len(result.history) == 11

    def test_best_epoch_weights_restored(self, tiny_embedding):
        from verseqa.training import _validate
        train_g, val_g = small_task()
        model = RnnPairModel(16, d_h=4, seed=0)
        cfg = self._cfg(max_epochs=6)
        result = train(model, train_g, val_g, tiny_embedding, cfg)
        val_loss, _f1 = _validate(model, val_g, tiny_embedding, cfg)
        assert val_loss == pytest.approx(result.best_val_loss)
        assert result.best_val_loss == min(r.val_loss for r in result.history)

    def test_same_seed_bitwise_identical(self, tiny_embedding):
        train_g, val_g = small_task()
        runs = []
        for _ in range(2):
            model = CnnPairModel(16, n_filters=4, window=2, dropout=0.3, seed=7)
            result = train(model, train_g, val_g, tiny_embedding, self._cfg(max_epochs=3))
            runs.append((model.params.copy_values(),
                         [(r.train_loss, r.val_loss, r.val_f1) for r in result.history]))
        assert runs[0][1] == runs[1][1]
        for name in runs[0][0]:
            np.testing.assert_array_equal(runs[0][0][name], runs[1][0][name])


class PerPairModel:
    """``model`` with batches run as one ``forward`` call per pair, the way
    ``train`` ran them before a batch became one ``score`` call."""

    def __init__(self, model):
        self.model, self.params = model, model.params

    def score(self, q_embs, which, a_embs, training=False, rng=None):
        pairs = [self.model.forward(q_embs[j], a, training, rng) for j, a in zip(which, a_embs)]

        def backward(g):  # each pair's backward refills the grads: sum them pair by pair
            sums = {}
            for k, p in enumerate(pairs):
                p.backward_from(g[k:k + 1])
                for name, t in self.params.items():
                    sums[name] = sums[name] + t.grad if k else t.grad
            for name, t in self.params.items():
                t.grad = sums[name]

        return Tensor(np.concatenate([p.data for p in pairs]), backward)


def ragged_groups(n_groups: int, seed: int) -> list[QuestionGroup]:
    """Groups of 2 to 4 candidates whose texts run from 1 to 7 tokens."""
    rng = np.random.default_rng(seed)
    words = KEYS + FILLERS

    def text():
        return " ".join(words[i] for i in rng.integers(len(words), size=rng.integers(1, 8)))

    groups = []
    for qid in range(n_groups):
        n = int(rng.integers(2, 5))
        gold = int(rng.integers(n))
        groups.append(QuestionGroup(qid=qid, translation="syn", question=text(),
                                    candidates=[Candidate(text=text(), label=int(i == gold))
                                                for i in range(n)]))
    return groups


def _distinct(questions) -> tuple[list, list[int]]:
    """The distinct token lists in order of first use, and each one's index."""
    first: dict[tuple, int] = {}
    which = [first.setdefault(tuple(q), len(first)) for q in questions]
    return list(first), which


@pytest.mark.parametrize("kind,config", [
    ("rnn", dict(d_h=5)), ("cnn", dict(n_filters=6, window=3, dropout=0.5)),
    ("bidaf", dict(d_h=5))])
def test_train_batches_equal_per_pair_forward_loop(tiny_embedding, kind, config):
    # a batch run through one score call, each distinct question encoded
    # once, gives every pair the score and dropout mask a forward call of
    # its own would, so the first minibatch's scores and loss agree bit for
    # bit. Its gradients agree up to rounding: a shared question's gradient
    # is summed before its encoder's backward, and an LSTM's weight gradient
    # is one sum over all rows of the batch
    train_g = ragged_groups(30, seed=1)
    cfg = TrainConfig(learning_rate=0.05, batch_size=16, seed=5,
                      max_question_tokens=8, max_answer_tokens=8)
    model = build_model(kind, seed=3, d_in=16, **config)
    pairs = [(g.question_tokens, c.tokens, float(c.label)) for g in train_g for c in g.candidates]
    order = np.random.default_rng(cfg.seed).permutation(len(pairs))  # as train draws it
    batch = [pairs[i] for i in order[:cfg.batch_size]]
    questions, which = _distinct([q for q, _, _ in batch])
    assert len(questions) < len(batch)  # the batch repeats a question
    q_embs = [embed_sequence(q, tiny_embedding, 8) for q in questions]
    a_embs = [embed_sequence(a, tiny_embedding, 8) for _, a, _ in batch]
    runs = []
    for wrap in (lambda m: m, PerPairModel):
        probs = wrap(model).score(q_embs, which, a_embs)
        scores = probs.data[:, 0].tolist()
        loss, grads = _batch_gradients(wrap(model), batch, tiny_embedding, cfg,
                                       np.random.default_rng(cfg.seed))
        runs.append((scores, loss, {name: g.copy() for name, g in grads.items()}))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    for name, want in runs[1][2].items():
        assert np.linalg.norm(runs[0][2][name] - want) <= 1e-12 * np.linalg.norm(want), name


class ScoreLog:
    """``model`` with the questions and question indices of each ``score`` call."""

    def __init__(self, model):
        self.model, self.params, self.calls = model, model.params, []

    def score(self, q_embs, which, a_embs, training=False, rng=None):
        self.calls.append((list(q_embs), list(which)))
        return self.model.score(q_embs, which, a_embs, training, rng)


@pytest.mark.parametrize("kind", ["rnn", "cnn", "bidaf"])
def test_batch_encodes_each_distinct_question_once(tiny_embedding, kind, monkeypatch):
    # pairs of one group share its question's token list, and two groups
    # of equal question text share it too: each distinct token list is
    # embedded once and passed to score once, in order of first use
    twin = ragged_groups(1, seed=4)[0]
    train_g = ragged_groups(6, seed=3) + [QuestionGroup(qid=9, translation="KJV",
                                                        question=twin.question,
                                                        candidates=twin.candidates)]
    pairs = [(g.question_tokens, c.tokens, float(c.label)) for g in train_g + [twin]
             for c in g.candidates]
    batch = [pairs[i] for i in np.random.default_rng(0).permutation(len(pairs))]
    questions, which = _distinct([q for q, _, _ in batch])
    assert len(questions) == 7 and twin.question_tokens is not train_g[-1].question_tokens
    embedded = []

    def logged(tokens, m, max_len):
        embedded.append((tuple(tokens), max_len))
        return embed_sequence(tokens, m, max_len)

    monkeypatch.setattr(verseqa.training, "embed_sequence", logged)
    config = dict(n_filters=5, window=3) if kind == "cnn" else dict(d_h=5)
    model = ScoreLog(build_model(kind, seed=0, d_in=16, **config))
    cfg = TrainConfig(max_question_tokens=8, max_answer_tokens=9)
    _batch_gradients(model, batch, tiny_embedding, cfg, np.random.default_rng(0))
    ((q_data, which_q),) = model.calls
    assert [t for t, max_len in embedded if max_len == 8] == questions
    assert len(embedded) == len(questions) + len(batch)
    assert len(q_data) == len(questions)
    for data, q in zip(q_data, questions):
        np.testing.assert_array_equal(data, embed_sequence(q, tiny_embedding, 8))
    assert which_q == which
    for k, (q, _, _) in enumerate(batch):
        assert questions[which_q[k]] == tuple(q)


def _paper_size_batch(seed: int = 0):
    """A random embedding at d=200 and one minibatch of 32 pairs: candidates
    of 20 to 30 tokens, each asking one of 11 distinct questions of 8 to 12
    tokens, one pair in four positive."""
    rng = np.random.default_rng(seed)
    words = [f"w{k}" for k in range(400)]
    vocab = Vocabulary(words)
    emb = EmbeddingMatrix(vocab=vocab, dim=200, table=rng.normal(size=(len(vocab), 200)) * 0.5)

    def tokens(lo, hi):
        return [str(w) for w in rng.choice(words, size=int(rng.integers(lo, hi + 1)))]

    questions = [tokens(8, 12) for _ in range(11)]
    which = [k % 11 for k in range(32)]
    batch = [(questions[j], tokens(20, 30), float(k % 4 == 0)) for k, j in enumerate(which)]
    return emb, batch


def _paper_size_model(kind: str):
    config = dict(n_filters=100) if kind == "cnn" else dict(d_h=100)
    return build_model(kind, seed=0, d_in=200, **config)


@pytest.mark.parametrize("kind", ["rnn", "cnn", "bidaf"])
def test_minibatch_graph_is_freed_as_backward_runs(kind, monkeypatch):
    # one paper-size minibatch: no stage keeps the embedded inputs, so they
    # are freed when score returns; and every array a stage saved for its
    # backward is freed once that backward has run, before the next stage's
    # starts (bidaf: the modeling LSTM's buffers before the attention's)
    emb, batch = _paper_size_batch()
    inputs, saved, checks = [], [], []

    def embedded(tokens, m, max_len):
        x = embed_sequence(tokens, m, max_len)
        inputs.append(weakref.ref(x))
        return x

    def loss_of(p, y):  # called on what score returned, before the backward
        assert len(inputs) == 11 + 32
        assert all(x() is None for x in inputs)
        return bce_loss(p, y)

    chain = models._chain

    def watched(params, p, stages):
        # weak references to the arrays each stage's backward closes over,
        # the probabilities (the output's data) apart
        saved[:] = [[weakref.ref(c.cell_contents) for c in stage.__closure__
                     if isinstance(c.cell_contents, np.ndarray) and c.cell_contents is not p]
                    for stage in stages]

        def spy(k, stage):
            def run(g):
                checks.append((k, [all(r() is None for r in refs) for refs in saved[k + 1:]]))
                return stage(g)
            return run

        return chain(params, p, [spy(k, stage) for k, stage in enumerate(stages)])

    model = _paper_size_model(kind)
    monkeypatch.setattr(verseqa.training, "embed_sequence", embedded)
    monkeypatch.setattr(verseqa.training, "bce_loss", loss_of)
    monkeypatch.setattr(models, "_chain", watched)
    _, grads = _batch_gradients(model, batch, emb, TrainConfig(), np.random.default_rng(0))
    assert all(g is not None for g in grads.values())
    assert all(saved) and [k for k, _ in checks] == list(reversed(range(len(saved))))
    for k, dead in checks:
        assert all(dead), (k, dead)
    assert all(r() is None for refs in saved for r in refs)
    if kind == "bidaf":  # the attention's backward found the modeling LSTM's buffers dead
        assert checks[2] == (2, [True, True])


@pytest.mark.parametrize("kind", ["rnn", "cnn", "bidaf"])
def test_backward_runs_once_and_only_through_a_closure(kind):
    # a loss's backward runs once; so does the backward of the probabilities
    # under it, whichever loss reaches them; and a loss over probabilities
    # that have no backward has none to run
    config = dict(n_filters=3, window=2) if kind == "cnn" else dict(d_h=3)
    model = build_model(kind, seed=0, d_in=4, **config)
    rng = np.random.default_rng(0)
    q, a = rng.normal(size=(2, 4)), rng.normal(size=(3, 4))
    probs = model.score([q], [0, 0], [a, a[:1]], training=True, rng=rng)
    loss = bce_loss(probs, [1, 0])
    loss.backward()
    with pytest.raises(GraphError, match="already ran"):
        loss.backward()
    with pytest.raises(GraphError, match="already ran"):
        bce_loss(probs, [1, 0]).backward()
    with pytest.raises(GraphError, match="no backward"):
        bce_loss(Tensor(probs.data), [1, 0]).backward()


@pytest.mark.parametrize("kind", ["rnn", "cnn", "bidaf"])
def test_second_minibatch_grad_replaces_the_first(kind, tiny_embedding):
    # a minibatch's gradient is its own: a model that ran one minibatch
    # before gives the next the gradient a fresh copy of it gives, bit for
    # bit, and the first minibatch's gradient arrays are left as they were
    config = dict(n_filters=5, window=3) if kind == "cnn" else dict(d_h=5)
    model = build_model(kind, seed=0, d_in=16, **config)
    fresh = model_from_checkpoint(load_checkpoint(save_checkpoint(model)))
    pairs = [(g.question_tokens, c.tokens, float(c.label))
             for g in make_separable_groups(6, seed=2) for c in g.candidates]
    cfg = TrainConfig()
    _, first = _batch_gradients(model, pairs[:9], tiny_embedding, cfg, np.random.default_rng(0))
    kept = {name: g.copy() for name, g in first.items()}
    _, second = _batch_gradients(model, pairs[9:], tiny_embedding, cfg,
                                 np.random.default_rng(1))
    _, want = _batch_gradients(fresh, pairs[9:], tiny_embedding, cfg, np.random.default_rng(1))
    for name in want:
        np.testing.assert_array_equal(second[name], want[name], err_msg=name)
        np.testing.assert_array_equal(first[name], kept[name], err_msg=name)
        assert second[name] is not first[name]


# tracemalloc peak of one paper-size ``_batch_gradients`` call on a fresh
# model, in MiB: measured 25.0 (bidaf) and 10.4 (rnn) with numpy 2.4; 27.2
# / 11.3 while a graph walk kept every node until it returned, and 37.4 /
# 18.0 while every forward buffer, a zero grad for every node and the
# embedded inputs lived through the whole backward; the budgets allow about
# 10% over the measurement
_BATCH_PEAK_BUDGET_MB = {"bidaf": 27.5, "rnn": 11.5}


@pytest.mark.parametrize("kind", sorted(_BATCH_PEAK_BUDGET_MB))
def test_minibatch_memory_peak(kind):
    emb, batch = _paper_size_batch()
    model = _paper_size_model(kind)
    tracemalloc.start()
    try:
        _batch_gradients(model, batch, emb, TrainConfig(), np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= _BATCH_PEAK_BUDGET_MB[kind], f"{kind}: peak {peak:.2f} MiB"


# trains each model at paper size (d=200, hidden 100) for one epoch of three
# minibatches of ragged pairs and prints its checkpoint's sha256
_PAPER_SIZE_DIGESTS = """
import hashlib
import numpy as np
from verseqa import models, training
from verseqa.data import Candidate, QuestionGroup
from verseqa.embeddings import EmbeddingMatrix, Vocabulary

rng = np.random.default_rng(0)
words = [f"w{k}" for k in range(400)]
vocab = Vocabulary(words)
emb = EmbeddingMatrix(vocab=vocab, dim=200, table=rng.normal(size=(len(vocab), 200)) * 0.5)


def text(lo, hi):
    return " ".join(rng.choice(words, size=int(rng.integers(lo, hi))))


groups = [QuestionGroup(qid=k, translation="syn", question=text(8, 16),
                        candidates=[Candidate(text=text(20, 70), label=int(i == 0))
                                    for i in range(6)])
          for k in range(16)]
cfg = training.TrainConfig(learning_rate=0.005, batch_size=32, max_epochs=1, seed=0)
for kind in ("rnn", "cnn", "bidaf"):
    config = dict(n_filters=100) if kind == "cnn" else dict(d_h=100)
    model = models.build_model(kind, seed=0, d_in=200, **config)
    training.train(model, groups, [], emb, cfg)
    print(kind, hashlib.sha256(training.save_checkpoint(model)).hexdigest())
"""


def test_training_bits_do_not_depend_on_blas_thread_count():
    # at paper sizes OpenBLAS splits a large product between threads, and a
    # product it splits differently can round differently; telling the two
    # counts apart needs a machine with at least 2 cores
    src = os.path.dirname(os.path.dirname(os.path.abspath(verseqa.__file__)))
    runs = [subprocess.run([sys.executable, "-c", _PAPER_SIZE_DIGESTS], check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src,
                                "OPENBLAS_NUM_THREADS": str(threads)}).stdout.split("\n")
            for threads in (1, 2)]
    assert runs[0] == runs[1]
    assert len(runs[0]) == 4  # three digests and the final newline


def _models_for_roundtrip():
    return [
        RnnPairModel(5, d_h=3, seed=1),
        CnnPairModel(5, n_filters=3, window=2, dropout=0.5, seed=1),
        BidafModel(5, d_h=3, seed=1),
    ]


class TestCheckpoint:
    @pytest.mark.parametrize("model", _models_for_roundtrip(),
                             ids=lambda m: m.kind)
    def test_bitwise_round_trip(self, model):
        ckpt = load_checkpoint(save_checkpoint(model))
        assert ckpt.model_kind == model.kind
        for name, t in model.params.items():
            np.testing.assert_array_equal(ckpt.tensors[name], t.data)

    @pytest.mark.parametrize("kind,config,sha", [
        ("rnn", dict(d_in=5, d_h=3),
         "89b7a733d378571d74d1334a5c06325c039575955172b2944d68ccbb11842435"),
        ("cnn", dict(d_in=5, n_filters=3, window=2, dropout=0.5),
         "963d13a53e4eb17e348b43aa0715e8f0607cf742497b1305e46b532534bdf637"),
        ("bidaf", dict(d_in=5, d_h=3),
         "340966dfeb4c059ad2545f83477c14d429e5e1fe9910fff96cc63edad5fbc4d1"),
    ])
    def test_initial_weights_pinned(self, kind, config, sha):
        # the seed-0 initial weights, bit for bit: a change in the order or
        # the law of the draws changes these digests
        blob = save_checkpoint(build_model(kind, seed=0, **config))
        assert hashlib.sha256(blob).hexdigest() == sha

    def test_model_rebuilt_from_checkpoint_scores_identically(self):
        model = RnnPairModel(5, d_h=3, seed=2)
        clone = model_from_checkpoint(load_checkpoint(save_checkpoint(model)))
        rng = np.random.default_rng(0)
        q = rng.normal(size=(2, 5))
        a = rng.normal(size=(3, 5))
        assert clone.forward(q, a).item() == model.forward(q, a).item()

    def test_bad_magic(self):
        blob = bytearray(save_checkpoint(RnnPairModel(3, d_h=2, seed=0)))
        blob[:4] = b"XXXX"
        with pytest.raises(BadMagicError):
            load_checkpoint(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(save_checkpoint(RnnPairModel(3, d_h=2, seed=0)))
        blob[4] = 99
        with pytest.raises(UnsupportedVersionError):
            load_checkpoint(bytes(blob))

    def test_truncated_blob(self):
        blob = save_checkpoint(RnnPairModel(3, d_h=2, seed=0))
        with pytest.raises(TruncatedCheckpointError):
            load_checkpoint(blob[:len(blob) - 16])

    def test_trailing_garbage(self):
        blob = save_checkpoint(RnnPairModel(3, d_h=2, seed=0))
        with pytest.raises(ManifestMismatchError):
            load_checkpoint(blob + b"\x00" * 8)

    def test_float32_entry_loads_as_float64(self):
        values = np.array([[0.1, -2.5], [3.0, 1e-3]], dtype="<f4")
        manifest = {"model_kind": "rnn", "config": {},
                    "tensors": [{"name": "w", "shape": [2, 2], "dtype": "f4"}]}
        ckpt = load_checkpoint(_blob(manifest, values.tobytes()))
        assert ckpt.tensors["w"].dtype == np.float64
        np.testing.assert_array_equal(ckpt.tensors["w"], values.astype(np.float64))


def _blob(manifest, payload: bytes = b"") -> bytes:
    mbytes = json.dumps(manifest).encode("utf-8")
    return b"BQAC" + struct.pack("<II", 1, len(mbytes)) + mbytes + payload


_ENTRY = {"name": "w", "shape": [2], "dtype": "f8"}


class TestMalformedManifest:
    @pytest.mark.parametrize("manifest", [
        ["not", "an", "object"],
        {"config": {}, "tensors": []},
        {"model_kind": "rnn", "tensors": []},
        {"model_kind": "rnn", "config": {}},
        {"model_kind": 7, "config": {}, "tensors": []},
        {"model_kind": "rnn", "config": [], "tensors": []},
        {"model_kind": "rnn", "config": {}, "tensors": {}},
    ], ids=["list", "no-kind", "no-config", "no-tensors", "kind-type",
            "config-type", "tensors-type"])
    def test_bad_top_level(self, manifest):
        with pytest.raises(ManifestMismatchError):
            load_checkpoint(_blob(manifest))

    @pytest.mark.parametrize("missing", ["name", "shape", "dtype"])
    def test_tensor_entry_missing_key(self, missing):
        entry = {k: v for k, v in _ENTRY.items() if k != missing}
        manifest = {"model_kind": "rnn", "config": {}, "tensors": [entry]}
        with pytest.raises(ManifestMismatchError):
            load_checkpoint(_blob(manifest, b"\x00" * 16))

    def test_negative_dimension(self):
        entry = dict(_ENTRY, shape=[-1, 2])
        manifest = {"model_kind": "rnn", "config": {}, "tensors": [entry]}
        with pytest.raises(ManifestMismatchError, match="negative"):
            load_checkpoint(_blob(manifest, b"\x00" * 16))

    def test_well_formed_blob_still_loads(self):
        manifest = {"model_kind": "rnn", "config": {}, "tensors": [_ENTRY]}
        ckpt = load_checkpoint(_blob(manifest, b"\x00" * 16))
        np.testing.assert_array_equal(ckpt.tensors["w"], [0.0, 0.0])


def _small_rnn_blob(edit=lambda manifest, values: None) -> bytes:
    """A small rnn checkpoint, re-packed after ``edit`` changed its parts."""
    model = RnnPairModel(3, d_h=2, seed=0)
    manifest = {"model_kind": "rnn", "config": model.config(),
                "tensors": [{"name": n, "shape": list(t.data.shape), "dtype": "f8"}
                            for n, t in model.params.items()]}
    values = model.params.copy_values()
    edit(manifest, values)
    return _blob(manifest, b"".join(values[e["name"]].astype("<f8").tobytes()
                                    for e in manifest["tensors"]))


def _transpose_first(manifest, values):
    entry = manifest["tensors"][0]
    entry["shape"] = entry["shape"][::-1]
    values[entry["name"]] = values[entry["name"]].T


class TestUnbuildableCheckpoint:
    @pytest.mark.parametrize("edit,error", [
        (lambda m, v: m.update(model_kind="gru"), ManifestMismatchError),
        (lambda m, v: m["config"].update(layers=2), ManifestMismatchError),
        (lambda m, v: m["config"].update(d_h="2"), ManifestMismatchError),
        (lambda m, v: m["config"].update(d_h=10 ** 12), ManifestMismatchError),
        (lambda m, v: m.update(model_kind="cnn", config={
            "d_in": 3, "n_filters": 2, "window": 0, "dropout": 0.0}), ManifestMismatchError),
        (lambda m, v: m["tensors"].pop(), ManifestMismatchError),
        (_transpose_first, ManifestMismatchError),
        (lambda m, v: (m["tensors"].append({"name": "extra", "shape": [1], "dtype": "f8"}),
                       v.update(extra=np.zeros(1))), ManifestMismatchError),
        (lambda m, v: v["out.b"].fill(np.nan), ManifestMismatchError),
        (lambda m, v: m["tensors"].append(dict(m["tensors"][0])), ManifestMismatchError),
        (lambda m, v: m["tensors"][0].update(shape=[2 ** 62, 4]), TruncatedCheckpointError),
        (lambda m, v: m["tensors"][0].update(shape=[0, 2 ** 62]), ManifestMismatchError),
    ], ids=["unknown-kind", "unknown-config-key", "mistyped-config-value",
            "oversized-config", "window-0",
            "missing-tensor", "misshapen-tensor", "extra-tensor", "nan-values",
            "duplicate-tensor", "huge-shape", "empty-huge-shape"])
    def test_raises_typed_error(self, edit, error):
        with pytest.raises(error):
            model_from_checkpoint(load_checkpoint(_small_rnn_blob(edit)))

    def test_unedited_blob_builds(self):
        model = model_from_checkpoint(load_checkpoint(_small_rnn_blob()))
        assert model.kind == "rnn" and model.d_h == 2


_VALID_BLOB = _small_rnn_blob()


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, len(_VALID_BLOB) - 1), st.integers(0, 255)),
                      min_size=1, max_size=4),
       cut=st.integers(0, len(_VALID_BLOB)))
def test_mutated_blob_raises_only_checkpoint_errors(edits, cut):
    blob = bytearray(_VALID_BLOB)
    for i, byte in edits:
        blob[i] = byte
    try:
        model_from_checkpoint(load_checkpoint(bytes(blob[:cut])))
    except CheckpointError:
        pass


class TestTransfer:
    def test_identical_shapes_bitwise_copy(self):
        src = RnnPairModel(5, d_h=3, seed=4)
        dst = RnnPairModel(5, d_h=3, seed=9)
        report = transfer_weights(load_checkpoint(save_checkpoint(src)), dst)
        assert sorted(report.copied) == [n for n, _ in src.params.items()]
        assert report.extended == []
        for name, t in src.params.items():
            np.testing.assert_array_equal(dst.params[name].data, t.data)

    def test_kind_mismatch(self):
        src = RnnPairModel(5, d_h=3, seed=4)
        dst = CnnPairModel(5, n_filters=3, window=2, seed=4)
        with pytest.raises(TransferError, match="kind"):
            transfer_weights(load_checkpoint(save_checkpoint(src)), dst)

    def test_scalar_input_tensor_is_error(self):
        ckpt = load_checkpoint(save_checkpoint(RnnPairModel(5, d_h=3, seed=4)))
        ckpt.tensors["q_cell.W_i"] = np.array(1.0)
        with pytest.raises(TransferError):
            transfer_weights(ckpt, RnnPairModel(5, d_h=3, seed=9))

    def test_output_layer_mismatch_is_error(self):
        src = RnnPairModel(5, d_h=3, seed=4)
        dst = RnnPairModel(5, d_h=4, seed=4)  # grows out.W, not input-adjacent
        with pytest.raises(TransferError):
            transfer_weights(load_checkpoint(save_checkpoint(src)), dst)

    def test_lstm_input_block_placement(self):
        d_h = 3
        src = RnnPairModel(2, d_h=d_h, seed=4)
        dst = RnnPairModel(6, d_h=d_h, seed=9)
        report = transfer_weights(load_checkpoint(save_checkpoint(src)), dst)
        assert len(report.extended) == 8  # 4 gates x 2 cells
        w_src = src.params["q_cell.W_i"].data
        w_dst = dst.params["q_cell.W_i"].data
        np.testing.assert_array_equal(w_dst[:2], w_src[:2])          # old input dims
        np.testing.assert_array_equal(w_dst[2:6], np.zeros((4, d_h)))  # new input dims
        np.testing.assert_array_equal(w_dst[6:], w_src[2:])          # recurrent dims

    def test_conv_input_block_placement(self):
        src = CnnPairModel(2, n_filters=3, window=2, seed=4)
        dst = CnnPairModel(5, n_filters=3, window=2, seed=9)
        transfer_weights(load_checkpoint(save_checkpoint(src)), dst)
        w_src = src.params["conv.W"].data
        w_dst = dst.params["conv.W"].data
        for j in range(2):
            np.testing.assert_array_equal(w_dst[j * 5:j * 5 + 2],
                                          w_src[j * 2:(j + 1) * 2])
            np.testing.assert_array_equal(w_dst[j * 5 + 2:(j + 1) * 5],
                                          np.zeros((3, 3)))

    @pytest.mark.parametrize("kind,config,extended", [
        ("rnn", dict(d_h=3), [f"{cell}.W_{g}" for cell in ("a_cell", "q_cell") for g in "cfio"]),
        ("cnn", dict(n_filters=3, window=2), ["conv.W"]),
        ("bidaf", dict(d_h=3), [f"enc_cell.W_{g}" for g in "cfio"]),
    ])
    def test_grown_input_extends_only_input_tensors(self, kind, config, extended):
        # bidaf's model_cell and attn.w, like every out.*, keep their shapes
        src = build_model(kind, seed=4, d_in=2, **config)
        dst = build_model(kind, seed=9, d_in=5, **config)
        report = transfer_weights(load_checkpoint(save_checkpoint(src)), dst)
        assert report.extended == extended
        assert report.copied == [name for name, _ in dst.params.items() if name not in extended]

    @pytest.mark.parametrize("kind,src_kw,dst_kw", [
        ("rnn", dict(d_in=6, d_h=3), dict(d_in=4, d_h=3)),
        ("cnn", dict(d_in=6, n_filters=3, window=2), dict(d_in=4, n_filters=3, window=2)),
        ("bidaf", dict(d_in=6, d_h=3), dict(d_in=4, d_h=3)),
    ])
    def test_shrinking_input_dim_is_error(self, kind, src_kw, dst_kw):
        src = build_model(kind, seed=6, **src_kw)
        dst = build_model(kind, seed=11, **dst_kw)
        before = dst.params.copy_values()
        with pytest.raises(TransferError):
            transfer_weights(load_checkpoint(save_checkpoint(src)), dst)
        for name, t in dst.params.items():  # nothing was half-copied
            np.testing.assert_array_equal(t.data, before[name])

    @pytest.mark.parametrize("kind,src_kw,dst_kw", [
        ("rnn", dict(d_in=4, d_h=3), dict(d_in=10, d_h=3)),
        ("cnn", dict(d_in=4, n_filters=3, window=2, dropout=0.0),
         dict(d_in=10, n_filters=3, window=2, dropout=0.0)),
        ("bidaf", dict(d_in=4, d_h=3), dict(d_in=10, d_h=3)),
    ])
    def test_zero_extended_dims_preserve_outputs(self, kind, src_kw, dst_kw):
        src = build_model(kind, seed=6, **src_kw)
        dst = build_model(kind, seed=11, **dst_kw)
        transfer_weights(load_checkpoint(save_checkpoint(src)), dst)
        rng = np.random.default_rng(2)
        for _ in range(5):
            q4 = rng.normal(size=(3, 4))
            a4 = rng.normal(size=(4, 4))
            q10 = np.hstack([q4, np.zeros((3, 6))])
            a10 = np.hstack([a4, np.zeros((4, 6))])
            assert dst.forward(q10, a10).item() == pytest.approx(
                src.forward(q4, a4).item(), abs=1e-12)
