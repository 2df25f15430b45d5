"""Print one digest line per model and one for CBOW, to compare two
checkouts bit for bit, after a first line naming the build that made them.

The ``build`` line names numpy's BLAS library and its version, numpy's
version, the SIMD extensions numpy found on the CPU, and
``platform.machine()``: the bits below depend on all of them.

For rnn, cnn and bidaf at paper sizes (d=200, hidden 100) on the bench
corpus of seed 3 (``bench/corpus.generate``, read only), the line holds:

* ``forward``: sha256 of the untrained seed-0 model's ``score_groups``
  scores, as float hex, on the chapter groups described under ``scores``;
* ``history``: per-epoch (train loss, validation loss, validation F1) as
  float hex, after 2 epochs on 16 train and 8 validation window-3 groups
  (AdaGrad, lr 0.005, batch 32);
* ``ckpt``: sha256 of the trained model's ``save_checkpoint`` bytes;
* ``scores``: sha256 of the ``score_groups`` scores, as float hex, on the
  12 chapter groups of the first 3 questions (328 candidates);
* ``report``: sha256 of ``evaluate(...).to_json()`` on those scores;
* ``transfer``: sha256 of the checkpoint of a model with ``d_in=250``
  after ``transfer_weights`` from the trained one.

A last ``cbow`` line trains CBOW vectors (d=200, seed 0, 2 epochs) on the
first 300 verses of the corpus's base translation and holds:

* ``table``: sha256 of the trained table's bytes;
* ``history``: the per-epoch mean loss as float hex;
* ``vectors``: sha256 of the ``save_embedding`` text;
* ``concat``: sha256 of the bytes of the ``concat_embeddings`` table of the
  corpus's vectors and the trained CBOW vectors.

Run it from a checkout: ``python tools/parity.py``. It imports verseqa
from that checkout's ``src``, and pins BLAS to one thread. An exact
change prints the same lines as its parent. ``tools/parity_lines.txt``
holds the lines of the current tree, as ``python tools/parity.py >
tools/parity_lines.txt`` writes them; ``tests/test_tools.py`` compares
each run with it on the build it names, so a change that moves rounding
on purpose rewrites it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402
from corpus import DIM, generate  # noqa: E402
from verseqa import data, embeddings, evaluation, models, training  # noqa: E402

SEED = 3
HIDDEN = 100
TRANSFER_DIM = 250
CBOW_VERSES = 300


def build() -> str:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {}).get("found", [])
    return (f"build blas={blas.get('name', '?')}-{blas.get('version', '?')} "
            f"numpy={np.__version__} simd={','.join(simd) or '-'} "
            f"machine={platform.machine()}")


def _sha(payload: bytes | str) -> str:
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _config(kind: str, d_in: int) -> dict:
    if kind == "cnn":
        return {"d_in": d_in, "n_filters": HIDDEN, "window": 3, "dropout": 0.5}
    return {"d_in": d_in, "d_h": HIDDEN}


def _hex_scores(preds) -> str:
    return ",".join(p.score.hex() for plist in preds.values() for p in plist)


def digest(kind: str, window_groups, chapter_groups, emb) -> str:
    model = models.build_model(kind, seed=0, **_config(kind, DIM))
    forward = _hex_scores(evaluation.score_groups(model, chapter_groups, emb))
    cfg = training.TrainConfig(learning_rate=0.005, batch_size=32, max_epochs=2,
                               patience=2, seed=0)
    result = training.train(model, window_groups[:16], window_groups[16:24], emb, cfg)
    history = ",".join(f"{r.train_loss.hex()}/{r.val_loss.hex()}/{r.val_f1.hex()}"
                       for r in result.history)
    blob = training.save_checkpoint(model)
    preds = evaluation.score_groups(model, chapter_groups, emb)
    scores = _hex_scores(preds)
    report = evaluation.evaluate(preds, model=kind).to_json()
    target = models.build_model(kind, seed=0, **_config(kind, TRANSFER_DIM))
    training.transfer_weights(training.load_checkpoint(blob), target)
    return (f"{kind} forward={_sha(forward)} history={history} ckpt={_sha(blob)} "
            f"scores={_sha(scores)} report={_sha(report)} "
            f"transfer={_sha(training.save_checkpoint(target))}")


def cbow_digest(bible_lines: list[str], emb) -> str:
    base = bible_lines[0].split("\t", 1)[0] + "\t"
    verses = [line.split("\t")[4] for line in bible_lines if line.startswith(base)]
    history: list[float] = []
    m = embeddings.train_cbow([data.tokenize(v) for v in verses[:CBOW_VERSES]],
                              embeddings.CbowConfig(dim=DIM, epochs=2, seed=0),
                              loss_history=history)
    vectors = "\n".join(embeddings.save_embedding(m))
    concat = embeddings.concat_embeddings(emb, m)
    return (f"cbow table={_sha(m.table.tobytes())} "
            f"history={','.join(h.hex() for h in history)} vectors={_sha(vectors)} "
            f"concat={_sha(concat.table.tobytes())}")


def main() -> None:
    print(build(), flush=True)
    corpus = generate(SEED)
    bible = data.parse_bible(corpus.bible_lines)
    questions = data.parse_trivia(corpus.trivia_lines, bible)
    window = data.build_bibleqa(bible, questions, data.DatasetSpec(context_mode="window-3"))
    chapter = [g for g in data.build_bibleqa(bible, questions,
                                             data.DatasetSpec(context_mode="chapter"))
               if g.qid < 3]
    emb = embeddings.load_pretrained(corpus.vector_lines, DIM)
    for kind in ("rnn", "cnn", "bidaf"):
        print(digest(kind, window, chapter, emb), flush=True)
    print(cbow_digest(corpus.bible_lines, emb), flush=True)


if __name__ == "__main__":
    main()
