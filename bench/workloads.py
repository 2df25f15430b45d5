"""The three benchmark workloads.

Each workload has a ``prepare(seed)`` that makes untimed inputs once, a
``setup(seed)`` that builds its inputs and state, and a tuple of lanes.
``call(lane, k)`` makes the k-th closed-loop call of a lane through
verseqa's public functions and returns a :class:`Call`; its ``verify``
closure checks the outputs and runs outside the timed region.

* ``train-window3``: ``training.train`` for rnn, cnn and bidaf at paper
  sizes on window-3 groups, then a checkpoint save/load round trip.
* ``rank-chapter``: forward-only ``score_groups`` + ``evaluate`` of one
  chapter group per call, models loaded in setup from checkpoints that
  ``prepare`` trained.
* ``corpus-prep``: in-process ``verseqa build-dataset`` in window-10 and
  chapter modes followed by ``read_groups``/``write_groups``, and CBOW
  training followed by a vector-file round trip.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from corpus import DIM, generate  # DIM = 200, the paper's embedding size

HIDDEN = 100     # LSTM hidden size and CNN filter count (paper size)
BATCH = 32
TRAIN_GROUPS = 16  # per train call: 48 window-3 pairs, one full and one partial batch
VAL_GROUPS = 8
LEARNING_RATE = 0.005  # AdaGrad; larger rates make the one-epoch val loss erratic
RANK_TRAIN_GROUPS = 64  # window-3 groups the rank-chapter checkpoints train on
# Warm-up work is the same for every seed, so that setup_s does not follow
# the lengths of whichever group comes first.
PROBE_TOKENS = (10, 25)  # question and verse tokens of train-window3's probe pair
WARMUP_CANDIDATES = 10   # of rank-chapter's first chapter; every chapter has 10 or more
GRAD_EPS = 1e-6   # step of the finite-difference gradient check
GRAD_RTOL = 1e-2  # its relative tolerance
PREP_VOCAB = 40000  # Zipf ranks of the corpus-prep corpus
CBOW_VERSES = 500   # of the base translation: about 12,400 tokens, 5,000 types
# Initial weights, and the corpus rank-chapter's checkpoints are trained on,
# are program configuration, the same for every seed.
MODEL_SEED = 0


@dataclass
class Call:
    tokens: int                     # text tokens the call processed
    counts: dict[str, int] = field(default_factory=dict)   # pairs, groups
    timings: dict[str, float] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)  # loss, f1, mrr
    verify: Callable[[], list[str]] = lambda: []


class VerseqaModules:
    """The imported verseqa submodules, looked up at call time so that the
    tracer's wrappers are seen."""

    def __init__(self):
        from verseqa import cli, data, embeddings, evaluation, models, tensor, training
        self.cli, self.data, self.embeddings = cli, data, embeddings
        self.evaluation, self.models, self.tensor = evaluation, models, tensor
        self.training = training


def _model_config(kind: str) -> dict:
    if kind == "cnn":
        return {"d_in": DIM, "n_filters": HIDDEN, "window": 3, "dropout": 0.5}
    return {"d_in": DIM, "d_h": HIDDEN}


def _score_problems(scores) -> list[str]:
    return [f"score {s!r} not finite or outside (0, 1)" for s in scores
            if not (math.isfinite(s) and 0.0 < s < 1.0)]


def _bce(preds) -> float:
    """Mean binary cross-entropy of a ``score_groups`` result."""
    plists = list(preds.values())
    labels = np.array([p.label for plist in plists for p in plist], dtype=np.float64)
    probs = np.array([p.score for plist in plists for p in plist])
    return float(-np.mean(labels * np.log(probs) + (1 - labels) * np.log1p(-probs)))


def _pair_tokens(groups, max_q: int, max_a: int) -> int:
    return sum(min(len(g.question_tokens), max_q) + min(len(c.tokens), max_a)
               for g in groups for c in g.candidates)


def _load_world(vq, seed: int, mode: str):
    corpus = generate(seed)
    bible = vq.data.parse_bible(corpus.bible_lines)
    questions = vq.data.parse_trivia(corpus.trivia_lines, bible)
    groups = vq.data.build_bibleqa(bible, questions, vq.data.DatasetSpec(context_mode=mode))
    emb = vq.embeddings.load_pretrained(corpus.vector_lines, DIM)
    return groups, emb


def _learns_steadily(kind: str) -> bool:
    """Whether the learning check applies: models without dropout."""
    return not _model_config(kind).get("dropout")


def _slices(groups, seed: int) -> list[tuple[list, list]]:
    """Disjoint (train, validation) slices of a seeded permutation of the groups."""
    order = np.random.default_rng(seed).permutation(len(groups))
    step = TRAIN_GROUPS + VAL_GROUPS
    return [([groups[i] for i in order[s:s + TRAIN_GROUPS]],
             [groups[i] for i in order[s + TRAIN_GROUPS:s + step]])
            for s in range(0, len(order) - step + 1, step)]


class Workload:
    lanes: tuple[str, ...] = ()
    # The loss comes from the first ``loss_calls`` calls of each lane, and
    # the run makes at least that many, so it does not depend on run length.
    loss_calls = 1

    def __init__(self, vq: VerseqaModules):
        self.vq = vq

    def prepare(self, seed: int) -> None:
        """Make the inputs that set-up loads but a user would not remake."""

    def learned(self, model, before: float, groups, emb) -> list[str]:
        """Problems unless training lowered the loss on the groups it trained
        on below ``before``, the untrained model's.

        A wrong update raises that loss and a zero one leaves it as it was.
        One epoch of train-window3 lowered it by at least 0.17 in 12 rnn and
        12 bidaf trainings, so no margin is asked. Only models without
        dropout are checked: with dropout 0.5, one cnn epoch raised it on
        two slices of seed 21 (0.76 to 0.82, 0.79 to 0.99). The update is
        the same code for every model.
        """
        after = _bce(self.vq.evaluation.score_groups(model, groups, emb))
        if after < before:
            return []
        return [f"{model.kind}: training moved the loss on its own pairs from "
                f"{before:.4f} to {after:.4f}"]

    def gradient_problems(self, model, probe) -> list[str]:
        """Problems unless backward's derivative of the probe pair's loss
        along a fixed random direction of the weights matches a central
        finite difference. The tolerance allows for ReLU and max kinks; a
        gradient with a wrong sign or scale is far outside it."""
        bce = self.vq.training.bce_loss
        params = list(model.params.items())
        rng = np.random.default_rng(0)
        direction = [rng.standard_normal(t.data.shape) for _name, t in params]
        for _name, t in params:
            t.grad = None
        bce(model.forward(*probe), [1.0]).backward()
        analytic = sum(float(np.sum(t.grad * d)) for (_name, t), d in zip(params, direction)
                       if t.grad is not None)
        original = [t.data.copy() for _name, t in params]

        def loss_at(scale: float) -> float:
            for (_name, t), d, o in zip(params, direction, original):
                t.data = o + scale * d
            return bce(model.forward(*probe), [1.0]).item()

        numeric = (loss_at(GRAD_EPS) - loss_at(-GRAD_EPS)) / (2 * GRAD_EPS)
        loss_at(0.0)
        if abs(analytic - numeric) <= GRAD_RTOL * max(abs(numeric), 1e-3):
            return []
        return [f"{model.kind}: backward gives {analytic:.6g} along a random direction, "
                f"a finite difference {numeric:.6g}"]

    def untrained_loss(self, kind: str, groups, emb) -> float:
        fresh = self.vq.models.build_model(kind, seed=MODEL_SEED, **_model_config(kind))
        return _bce(self.vq.evaluation.score_groups(fresh, groups, emb))


class TrainWindow3(Workload):
    name = "train-window3"
    lanes = ("rnn", "cnn", "bidaf")
    loss_calls = 2

    def prepare(self, seed: int) -> None:
        """The untrained models' loss on the groups each slice's learning
        check re-scores."""
        groups, emb = _load_world(self.vq, seed, "window-3")
        self.untrained = {(kind, i): self.untrained_loss(kind, train, emb)
                          for i, (train, _val) in enumerate(_slices(groups, seed))
                          for kind in self.lanes if _learns_steadily(kind)}

    def setup(self, seed: int) -> None:
        vq = self.vq
        groups, self.emb = _load_world(vq, seed, "window-3")
        self.slices = _slices(groups, seed)
        self.models = {k: vq.models.build_model(k, seed=MODEL_SEED, **_model_config(k))
                       for k in self.lanes}
        self.initial = {k: m.params.copy_values() for k, m in self.models.items()}
        self.cfg = vq.training.TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH,
                                           max_epochs=1, patience=1, seed=seed)
        val = self.slices[0][1]
        q_tokens = [t for g in val for t in g.question_tokens][:PROBE_TOKENS[0]]
        a_tokens = [t for g in val for c in g.candidates for t in c.tokens][:PROBE_TOKENS[1]]
        self.probe = (
            vq.embeddings.embed_sequence(q_tokens, self.emb, self.cfg.max_question_tokens),
            vq.embeddings.embed_sequence(a_tokens, self.emb, self.cfg.max_answer_tokens))
        self.seen: dict[tuple[str, int], tuple[float, bytes]] = {}
        # warm-up: one batch of forward and backward per model
        for kind, model in self.models.items():
            p = model.forward(*self.probe, training=True, rng=np.random.default_rng(0))
            vq.training.bce_loss(p, [1.0]).backward()

    def call(self, lane: str, k: int) -> Call:
        vq = self.vq
        model = self.models[lane]
        model.params.load_values(self.initial[lane])
        slot = k % len(self.slices)
        train_groups, val_groups = self.slices[slot]
        t0 = time.perf_counter()
        result = vq.training.train(model, train_groups, val_groups, self.emb, self.cfg)
        t_train = time.perf_counter() - t0
        blob = vq.training.save_checkpoint(model)
        restored = vq.training.model_from_checkpoint(vq.training.load_checkpoint(blob))
        epochs = len(result.history)
        pairs = sum(len(g.candidates) for g in train_groups) * epochs
        tokens = _pair_tokens(train_groups, self.cfg.max_question_tokens,
                              self.cfg.max_answer_tokens) * epochs

        def verify() -> list[str]:
            problems = []
            losses = [v for r in result.history for v in (r.train_loss, r.val_loss)]
            if not all(math.isfinite(v) and v > 0.0 for v in losses):
                problems.append(f"{lane}: non-finite or non-positive loss {losses}")
            for name, t in model.params.items():
                if not np.array_equal(t.data, restored.params[name].data):
                    problems.append(f"{lane}: checkpoint changed {name}")
            before = model.forward(*self.probe).item()
            after = restored.forward(*self.probe).item()
            problems += _score_problems([before])
            if before != after:
                problems.append(f"{lane}: restored model scores {after!r}, not {before!r}")
            first = self.seen.setdefault((lane, slot), (result.best_val_loss, blob))
            if first != (result.best_val_loss, blob):
                problems.append(f"{lane}: slice {slot} did not repeat bitwise")
            problems += self.gradient_problems(restored, self.probe)
            if _learns_steadily(lane):
                problems += self.learned(model, self.untrained[(lane, slot)],
                                         train_groups, self.emb)
            return problems

        return Call(tokens=tokens, counts={"pairs": pairs}, timings={"train": t_train},
                    quality={"loss": result.best_val_loss} if k < self.loss_calls else {},
                    verify=verify)


def expected_rank(scores: list[float], label_index: int) -> int:
    """1-based rank of the gold candidate under a stable descending sort."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    return order.index(label_index) + 1


class RankChapter(Workload):
    name = "rank-chapter"
    lanes = ("rnn", "cnn", "bidaf")
    loss_calls = 24

    def __init__(self, vq: VerseqaModules, workdir: str):
        super().__init__(vq)
        self.workdir = workdir

    def prepare(self, seed: int) -> None:
        """Train the checkpoints in a child process, so that its memory peak
        stays out of this process's ``peak_rss_mb``.

        The checkpoints stand for a deployed model: they are trained on the
        corpus of MODEL_SEED, the same for every seed, which then only picks
        the queries. Trained on each seed's own corpus, the models' quality
        varied so much that the spread of ``loss`` across seeds reached 0.29.
        """
        child = multiprocessing.get_context("fork").Process(target=self._train)
        child.start()
        child.join()
        if child.exitcode != 0:
            raise SystemExit(f"training the rank-chapter checkpoints exited {child.exitcode}")
        with open(os.path.join(self.workdir, "learn-problems.json"), encoding="utf-8") as f:
            self.problems: list[str] = json.load(f)

    def _train(self) -> None:
        """Train each model one epoch on window-3 groups, and write its
        checkpoint. A model that did not learn on the first TRAIN_GROUPS of
        them, as many as a train-window3 call trains on, fails every call."""
        vq = self.vq
        groups, emb = _load_world(vq, MODEL_SEED, "window-3")
        order = np.random.default_rng(MODEL_SEED).permutation(len(groups))
        train_groups = [groups[i] for i in order[:RANK_TRAIN_GROUPS]]
        cfg = vq.training.TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH,
                                      max_epochs=1, patience=1, seed=MODEL_SEED)
        problems: list[str] = []
        for kind in self.lanes:
            model = vq.models.build_model(kind, seed=MODEL_SEED, **_model_config(kind))
            checked = train_groups[:TRAIN_GROUPS]
            if _learns_steadily(kind):
                before = self.untrained_loss(kind, checked, emb)
            vq.training.train(model, train_groups, [], emb, cfg)
            if _learns_steadily(kind):
                problems += self.learned(model, before, checked, emb)
            with open(os.path.join(self.workdir, f"{kind}.ckpt"), "wb") as f:
                f.write(vq.training.save_checkpoint(model))
        with open(os.path.join(self.workdir, "learn-problems.json"), "w", encoding="utf-8") as f:
            json.dump(problems, f)

    def setup(self, seed: int) -> None:
        vq = self.vq
        self.groups, self.emb = _load_world(vq, seed, "chapter")
        self.models = {}
        for kind in self.lanes:
            with open(os.path.join(self.workdir, f"{kind}.ckpt"), "rb") as f:
                self.models[kind] = vq.training.model_from_checkpoint(
                    vq.training.load_checkpoint(f.read()))
        first = dataclasses.replace(self.groups[0],
                                    candidates=self.groups[0].candidates[:WARMUP_CANDIDATES])
        self.seen: dict[tuple[str, int], list[float]] = {}
        for kind in self.lanes:  # warm-up, and reference scores of group 0's first verses
            self.seen[(kind, 0)] = [p.score for p in vq.evaluation.score_groups(
                self.models[kind], [first], self.emb)[0]]

    def call(self, lane: str, k: int) -> Call:
        vq = self.vq
        slot = k % len(self.groups)
        group = self.groups[slot]
        preds = vq.evaluation.score_groups(self.models[lane], [group], self.emb)
        report = vq.evaluation.evaluate(preds)

        def verify() -> list[str]:
            plist = preds[0]
            scores = [p.score for p in plist]
            problems = self.problems + _score_problems(scores)
            gold = group.gold_index()
            best = max(range(len(scores)), key=lambda i: (scores[i], -i))
            f1 = 1.0 if best == gold else 0.0
            rank = expected_rank(scores, gold)
            if report.f1 != f1 or report.mrr != 1.0 / rank or report.ranks != [rank]:
                problems.append(f"{lane}: evaluate gave f1 {report.f1} mrr {report.mrr}, "
                                f"recomputed f1 {f1} mrr {1.0 / rank}")
            if [p.label for p in plist] != [c.label for c in group.candidates]:
                problems.append(f"{lane}: predictions lost candidate order")
            reference = self.seen.setdefault((lane, slot), scores)
            if scores[:len(reference)] != reference:
                problems.append(f"{lane}: group {slot} scored differently on a repeat")
            return problems

        tokens = _pair_tokens([group], vq.embeddings.MAX_QUESTION_TOKENS,
                              vq.embeddings.MAX_ANSWER_TOKENS)
        return Call(tokens=tokens, counts={"pairs": len(group.candidates)},
                    quality={"loss": _bce(preds), "f1": report.f1, "mrr": report.mrr}
                    if k < self.loss_calls else {},
                    verify=verify)


class CorpusPrep(Workload):
    name = "corpus-prep"
    lanes = ("window-10", "chapter", "cbow")

    def __init__(self, vq: VerseqaModules, workdir: str):
        super().__init__(vq)
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        vq = self.vq
        corpus = generate(seed, vocab_size=PREP_VOCAB, n_chapters=60, with_vectors=False)
        self.bible = os.path.join(self.workdir, "bible.tsv")
        self.trivia = os.path.join(self.workdir, "trivia.tsv")
        with open(self.bible, "w", encoding="utf-8") as f:
            f.write("\n".join(corpus.bible_lines) + "\n")
        with open(self.trivia, "w", encoding="utf-8") as f:
            f.write("\n".join(corpus.trivia_lines) + "\n")
        base = [line.split("\t")[4] for line in corpus.bible_lines
                if line.startswith(corpus.bible_lines[0].split("\t")[0] + "\t")]
        self.sentences = [vq.data.tokenize(v) for v in base[:CBOW_VERSES]]
        self.cbow = vq.embeddings.CbowConfig(dim=DIM, epochs=1, seed=seed)
        # chapter lengths, to check group sizes against
        bible = vq.data.parse_bible(corpus.bible_lines)
        self.questions = vq.data.parse_trivia(corpus.trivia_lines, bible)
        self.chapter_len = {(q.book, q.chapter): len(bible.chapter("KJV", q.book, q.chapter))
                            for q in self.questions}
        self.n_translations = len(bible.translations())
        self.cbow_first: tuple | None = None
        self._build("window-10")  # warm-up of the data and CLI path

    def _build(self, mode: str) -> tuple:
        out = os.path.join(self.workdir, f"{mode}.jsonl")
        copy = os.path.join(self.workdir, f"{mode}.copy.jsonl")
        t0 = time.perf_counter()
        rc = self.vq.cli.main(["build-dataset", "--bible", self.bible, "--trivia",
                               self.trivia, "--mode", mode, "--out", out])
        t_cli = time.perf_counter() - t0
        groups = self.vq.data.read_groups(out)
        self.vq.data.write_groups(copy, groups)
        return rc, out, copy, t_cli, groups

    def call(self, lane: str, k: int) -> Call:
        if lane == "cbow":
            return self._cbow(k)
        rc, out, copy, t_cli, groups = self._build(lane)

        def verify() -> list[str]:
            problems = [] if rc == 0 else [f"{lane}: build-dataset exited {rc}"]
            if len(groups) != len(self.questions) * self.n_translations:
                problems.append(f"{lane}: {len(groups)} groups")
            for g, q in zip(groups[::self.n_translations], self.questions):
                n = self.chapter_len[(q.book, q.chapter)]
                want = n if lane == "chapter" else min(10, n)
                if len(g.candidates) != want:
                    problems.append(f"{lane}: group {g.qid} has {len(g.candidates)} "
                                    f"candidates, expected {want}")
            if any(sum(c.label for c in g.candidates) != 1 for g in groups):
                problems.append(f"{lane}: a group without exactly one positive")
            with open(out, "rb") as a, open(copy, "rb") as b:
                if a.read() != b.read():
                    problems.append(f"{lane}: write_groups/read_groups round trip differs")
            return problems

        tokens = sum(len(g.question_tokens) + sum(len(c.tokens) for c in g.candidates)
                     for g in groups)
        return Call(tokens=tokens, counts={"groups": len(groups)}, timings={"build": t_cli},
                    verify=verify)

    def _cbow(self, k: int) -> Call:
        vq = self.vq
        history: list[float] = []
        t0 = time.perf_counter()
        m = vq.embeddings.train_cbow(self.sentences, self.cbow, loss_history=history)
        t_cbow = time.perf_counter() - t0
        loaded = vq.embeddings.load_pretrained(vq.embeddings.save_embedding(m), m.dim)
        tokens = sum(len(s) for s in self.sentences) * self.cbow.epochs

        def verify() -> list[str]:
            problems = []
            if not np.all(np.isfinite(m.table)):
                problems.append("cbow: non-finite vectors")
            if np.any(m.table[vq.embeddings.PAD_INDEX] != 0.0):
                problems.append("cbow: PAD row is not zero")
            if (loaded.vocab.tokens() != m.vocab.tokens()
                    or not np.array_equal(loaded.table[2:], m.table[2:])
                    or np.any(loaded.table[vq.embeddings.PAD_INDEX] != 0.0)):
                problems.append("cbow: load_pretrained(save_embedding(m)) differs")
            if not (len(history) == self.cbow.epochs and math.isfinite(history[-1])):
                problems.append(f"cbow: loss history {history}")
            first = self.cbow_first = self.cbow_first or (history[-1], m.table.tobytes())
            if first != (history[-1], m.table.tobytes()):
                problems.append("cbow: a repeat of the same training differs")
            return problems

        quality = {"loss": float(history[-1]), "vocab": len(m.vocab)}
        if k >= self.loss_calls:
            quality = {}
        return Call(tokens=tokens, timings={"cbow": t_cbow}, quality=quality,
                    verify=verify)


def make(name: str, vq: VerseqaModules, workdir: str):
    if name == TrainWindow3.name:
        return TrainWindow3(vq)
    if name == RankChapter.name:
        return RankChapter(vq, workdir)
    if name == CorpusPrep.name:
        return CorpusPrep(vq, workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (TrainWindow3.name, RankChapter.name, CorpusPrep.name)
