"""End-to-end acceptance checks, one per shipping criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s``). The suite is deterministic and budgeted to finish in
well under ten minutes on a laptop CPU.
"""

import functools
import json
import time

import numpy as np
import pytest

from conftest import (SHIFTED_KEYS, grad_check, make_embedding, make_separable_groups, total,
                      whole)
from verseqa import cli
from verseqa.data import (DatasetSpec, TriviaQuestion, build_bibleqa,
                          parse_bible, write_groups)
from verseqa.embeddings import cosine, save_embedding, train_cbow, CbowConfig
from verseqa.evaluation import (Prediction, evaluate, random_baseline,
                                score_groups)
from verseqa.models import bidaf_attention, build_model, readout
from verseqa.tensor import ParameterSet, Tensor
from verseqa.training import (TrainConfig, bce_loss, load_checkpoint,
                              model_from_checkpoint, save_checkpoint, train,
                              transfer_weights)


def _report(number, description):
    """Decorator printing one pass/fail line per criterion."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {number}: {description}")
                raise
            print(f"\n[PASS] criterion {number}: {description}")
        return run
    return wrap


EMB = make_embedding(dim=16, seed=0)
Q_TOK, A_TOK = 3, 4

MODEL_SPECS = [
    ("rnn", {"d_in": 16, "d_h": 16}),
    ("cnn", {"d_in": 16, "n_filters": 16, "window": 2, "dropout": 0.0}),
    ("bidaf", {"d_in": 16, "d_h": 8}),
]


def _train_cfg(lr=0.1, epochs=10, seed=0, batch=32):
    return TrainConfig(learning_rate=lr, batch_size=batch, max_epochs=epochs,
                       patience=10, seed=seed, max_question_tokens=Q_TOK,
                       max_answer_tokens=A_TOK)


def _test_f1(model, groups):
    return evaluate(score_groups(model, groups, EMB, Q_TOK, A_TOK)).f1


@_report(1, "gradient checks: every op < 1e-6, every model < 1e-4, < 60 s")
def test_criterion_1_gradients():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    def input_rows():
        # keep values away from non-smooth points (relu kink, max ties)
        x = rng.normal(size=(3, 4))
        return np.sign(x) * (np.abs(x) + 0.2)

    def check(f):
        """f maps the input Tensor x to a scalar Tensor whose backward
        fills x.grad: checked against finite differences in x."""
        params = ParameterSet({"x": Tensor(input_rows())})
        assert grad_check(lambda p: f(p["x"]), params) < 1e-6

    w, b = Tensor(rng.normal(size=(8, 1))), Tensor([[0.2]])
    keep = np.array([[2.0, 0.0, 2.0, 2.0, 0.0, 2.0, 0.0, 2.0]])
    lstm = build_model("rnn", seed=1, d_in=4, d_h=2).q_cell
    conv = build_model("cnn", seed=1, d_in=4, n_filters=3, window=2, dropout=0.0)
    attn = build_model("bidaf", seed=1, d_in=4, d_h=4).w_alpha

    def two_heads(x):
        """BCE over a readout of x and a readout of x's LSTM states."""
        p_1, back_1 = readout([[whole(x.data)], [whole(x.data)]], w, b)
        (h,), lstm_back = lstm.encode_states([whole(x.data)], input_grads=True)
        p_2, back_2 = readout([[h]] * 4, w, b)

        def backward(g):
            x.grad = None
            (d_1,) = back_1(g[:1])
            (d_2,) = lstm_back(*back_2(g[1:]))
            x.add_grad(d_1 + d_2)

        return bce_loss(Tensor(np.concatenate([p_1, p_2]), backward), [1, 0])

    for op in (lambda x: total(readout([[whole(x.data)], [whole(x.data)]], w, b), ParameterSet(),
                               inputs=[x]),
               lambda x: total(readout([[whole(x.data)], [whole(x.data)]], w, b, keep),
                               ParameterSet(), inputs=[x]),
               two_heads,
               lambda x: total(lstm.encode_states([whole(x.data)], input_grads=True),
                               ParameterSet(), inputs=[x]),
               lambda x: total(bidaf_attention([whole(x.data)], [0], [whole(x.data)], attn),
                               ParameterSet(), inputs=[x])):
        check(op)
    # the conv-pool takes no input gradient (its inputs are embedded rows):
    # its weights' gradient is the check
    x = input_rows()
    assert grad_check(lambda p: total(conv._pool([whole(x)]), p), conv.params) < 1e-6

    for kind, hp in MODEL_SPECS:
        model = build_model(kind, seed=4, **hp)  # see test_models note on seeds
        data_rng = np.random.default_rng(1)
        q = data_rng.normal(size=(3, 16))
        a = data_rng.normal(size=(4, 16))
        err = grad_check(lambda p: model.forward(q, a), model.params)
        assert err < 1e-4, f"{kind}: {err}"
    assert time.perf_counter() - start < 60


@_report(2, "random baseline: 3-cand MRR 0.611/F1 0.333, "
            "10-cand MRR 0.293/F1 0.10, all ± 0.02")
def test_criterion_2_random_baseline():
    three = random_baseline(make_separable_groups(5000, seed=1), seed=3)
    assert evaluate(three).mrr == pytest.approx(11 / 18, abs=0.02)
    assert evaluate(three).f1 == pytest.approx(1 / 3, abs=0.02)
    ten = random_baseline(make_separable_groups(5000, seed=2, n_candidates=10),
                          seed=4)
    assert evaluate(ten).mrr == pytest.approx(sum(1 / k for k in range(1, 11)) / 10,
                                              abs=0.02)
    assert evaluate(ten).f1 == pytest.approx(0.10, abs=0.02)


@_report(3, "learnability: every model reaches test F1 >= 0.9 on the "
            "separable task within 50 epochs, baseline stays near 1/3, < 5 min")
def test_criterion_3_learnability():
    start = time.perf_counter()
    train_g = make_separable_groups(500, seed=10)
    val_g = make_separable_groups(60, seed=11)
    test_g = make_separable_groups(100, seed=12)
    for kind, hp in MODEL_SPECS:
        model = build_model(kind, seed=0, **hp)
        train(model, train_g, val_g, EMB, _train_cfg(epochs=10))
        f1 = _test_f1(model, test_g)
        assert f1 >= 0.9, f"{kind}: test F1 {f1}"
    baseline = evaluate(random_baseline(test_g, seed=5)).f1
    assert baseline == pytest.approx(1 / 3, abs=0.05)
    assert time.perf_counter() - start < 300


@_report(4, "transfer: mean test F1 over 5 seeds with transferred weights "
            ">= without, fine-tuning on 50 shifted-vocabulary groups")
def test_criterion_4_transfer_direction():
    src_train = make_separable_groups(1000, seed=20)
    src_val = make_separable_groups(60, seed=21)
    tgt_train = make_separable_groups(50, seed=22, keys=SHIFTED_KEYS)
    tgt_val = make_separable_groups(10, seed=23, keys=SHIFTED_KEYS)
    tgt_test = make_separable_groups(100, seed=24, keys=SHIFTED_KEYS)

    source = build_model("rnn", seed=0, d_in=16, d_h=16)
    train(source, src_train, src_val, EMB, _train_cfg(epochs=8))
    ckpt = load_checkpoint(save_checkpoint(source))

    def fine_tune(seed, transferred):
        model = build_model("rnn", seed=seed, d_in=16, d_h=16)
        if transferred:
            transfer_weights(ckpt, model)
        train(model, tgt_train, tgt_val, EMB,
              _train_cfg(epochs=1, seed=seed, batch=16))
        return _test_f1(model, tgt_test)

    with_t = np.mean([fine_tune(s, True) for s in range(5)])
    without = np.mean([fine_tune(s, False) for s in range(5)])
    assert with_t >= without, f"transferred {with_t} < fresh {without}"


@_report(5, "dataset construction: |questions| x 4 groups, one positive "
            "each, exact window sizes, chapter mode spans the chapter")
def test_criterion_5_dataset_construction():
    lines = [f"{t}\tMatthew\t1\t{v}\tVerse {v} text in {t}."
             for t in ("KJV", "ASV", "YLT", "WEB") for v in range(1, 26)]
    corpus = parse_bible(lines)
    questions = [TriviaQuestion(qid=i, question=f"Q{i}?", answer="A",
                                book="Matthew", chapter=1, verse=12 + i)
                 for i in range(7)]
    for mode, n_cands in (("window-3", 3), ("window-10", 10), ("chapter", 25)):
        groups = build_bibleqa(corpus, questions, DatasetSpec(mode))
        assert len(groups) == 7 * 4
        for g in groups:
            assert len(g.candidates) == n_cands
            assert sum(c.label for c in g.candidates) == 1


@_report(6, "metrics agree exactly with brute-force reimplementations "
            "on 100 randomized prediction sets")
def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(60)
    for _ in range(100):
        preds = {}
        for q in range(int(rng.integers(1, 11))):
            n_c = int(rng.integers(1, 11))
            scores = rng.random(n_c)
            if n_c > 1 and rng.random() < 0.5:
                scores[int(rng.integers(n_c))] = scores[int(rng.integers(n_c))]
            gold = int(rng.integers(n_c))
            preds[q] = [Prediction(score=float(s),
                                   label=int(i == gold))
                        for i, s in enumerate(scores)]
        # brute force: explicit stable sort, count top hits and ranks
        hits, rr = 0, []
        for plist in preds.values():
            order = sorted(range(len(plist)),
                           key=lambda i: (-plist[i].score, i))
            labels = [plist[i].label for i in order]
            hits += labels[0]
            rr.append(1.0 / (labels.index(1) + 1))
        acc = hits / len(preds)
        assert evaluate(preds).f1 == pytest.approx(acc, abs=1e-12)
        assert evaluate(preds).mrr == pytest.approx(sum(rr) / len(rr), abs=1e-12)


@_report(7, "checkpoints round-trip bitwise; transfer reproduces outputs "
            "exactly, including after zero-padded input-dim growth")
def test_criterion_7_serialization():
    rng = np.random.default_rng(70)
    for kind, hp in MODEL_SPECS:
        model = build_model(kind, seed=7, **hp)
        blob = save_checkpoint(model)
        assert save_checkpoint(model_from_checkpoint(load_checkpoint(blob))) \
            == blob

        same = build_model(kind, seed=8, **hp)
        transfer_weights(load_checkpoint(blob), same)
        grown = build_model(kind, seed=9, **{**hp, "d_in": 48})
        transfer_weights(load_checkpoint(blob), grown)
        for _ in range(20):
            q, a = rng.normal(size=(3, 16)), rng.normal(size=(4, 16))
            expected = model.forward(q, a).item()
            assert same.forward(q, a).item() == expected
            qz = np.hstack([q, np.zeros((3, 32))])
            az = np.hstack([a, np.zeros((4, 32))])
            assert grown.forward(qz, az).item() == expected


@_report(8, "embeddings: CBOW separates the two-cluster corpus by >= 0.2 "
            "cosine, loss decreases, deterministic per seed")
def test_criterion_8_embedding_quality():
    rng = np.random.default_rng(80)
    clusters = [[f"a{i}" for i in range(8)], [f"b{i}" for i in range(8)]]
    corpus = [[clusters[s % 2][i] for i in rng.integers(8, size=6)]
              for s in range(300)]
    cfg = CbowConfig(window=2, dim=10, epochs=8, seed=3)
    losses: list[float] = []
    emb = train_cbow(corpus, cfg, loss_history=losses)
    assert losses[-1] < losses[0]

    def mean_cos(pairs):
        return np.mean([cosine(emb.table[emb.vocab.index(a)], emb.table[emb.vocab.index(b)])
                        for a, b in pairs])

    within = mean_cos([(a, b) for g in clusters
                       for a in g for b in g if a < b])
    cross = mean_cos([(a, b) for a in clusters[0] for b in clusters[1]])
    assert within - cross >= 0.2, f"gap {within - cross}"
    again = train_cbow(corpus, cfg)
    np.testing.assert_array_equal(emb.table, again.table)


@_report(9, "determinism: rerunning train and evaluate commands with the "
            "same seed yields byte-identical checkpoints and reports")
def test_criterion_9_cli_determinism(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    write_groups(data, make_separable_groups(15, seed=90))
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("\n".join(save_embedding(make_embedding(dim=8))) + "\n")

    ckpts, train_reports, eval_reports = [], [], []
    for rerun in range(2):
        ckpt = tmp_path / f"model-{rerun}.ckpt"
        assert cli.main(["train", "--model", "cnn", "--data", str(data),
                         "--embeddings", str(vectors), "--dim", "8",
                         "--hidden", "4", "--conv-window", "2",
                         "--max-epochs", "2", "--seed", "6",
                         "--out", str(ckpt)]) == 0
        ckpts.append(ckpt.read_bytes())
        train_reports.append(capsys.readouterr().out)
        report = tmp_path / f"eval-{rerun}.json"
        assert cli.main(["evaluate", "--model", "baseline", "--data",
                         str(data), "--seed", "6", "--out", str(report)]) == 0
        eval_reports.append(report.read_bytes())
    assert ckpts[0] == ckpts[1]
    assert train_reports[0] == train_reports[1]
    assert eval_reports[0] == eval_reports[1]
    assert json.loads(eval_reports[0])["seed"] == 6
