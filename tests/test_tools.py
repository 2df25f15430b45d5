"""The repository's tools still run against the package as it stands:
``tools/parity.py`` still prints the lines recorded in
``tools/parity_lines.txt``, and the benchmark's tracer still wraps the
functions it patches."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_separable_groups
from verseqa import cli, data, embeddings, evaluation, models, tensor, training

ROOT = Path(__file__).resolve().parents[1]

_SHA = "[0-9a-f]{64}"
_EPOCH = "0x[0-9a-f.p+-]+/0x[0-9a-f.p+-]+/0x[0-9a-f.p+-]+"
_LINE = re.compile(rf"(rnn|cnn|bidaf) forward={_SHA} history={_EPOCH}(,{_EPOCH})* "
                   rf"ckpt={_SHA} scores={_SHA} report={_SHA} transfer={_SHA}")
_CBOW = re.compile(rf"cbow table={_SHA} history=0x[0-9a-f.p+-]+(,0x[0-9a-f.p+-]+)* "
                   rf"vectors={_SHA} concat={_SHA}")


def _parity(threads: int) -> str:
    """The stdout of tools/parity.py with BLAS at ``threads`` threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "parity.py")],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_parity_prints_one_digest_line_per_model():
    # tools/parity.py is the gate of every change that claims to be exact: an
    # exact change gives the same bits at 1 and 2 BLAS threads, and the lines
    # recorded for the tree. The bits depend on the BLAS and numpy build and
    # the CPU, so on a build other than the recorded one only the first two
    # checks hold and the comparison is skipped, with both builds named.
    out = _parity(1)
    lines = out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["build", "rnn", "cnn", "bidaf", "cbow"]
    for line in lines[1:4]:
        assert _LINE.fullmatch(line), line
    assert _CBOW.fullmatch(lines[4]), lines[4]
    assert _parity(2) == out
    recorded = (ROOT / "tools" / "parity_lines.txt").read_text()
    recorded_build = recorded.split("\n", 1)[0]
    if lines[0] != recorded_build:
        pytest.skip(f"parity lines recorded on '{recorded_build}', this is '{lines[0]}'")
    assert out == recorded


def test_bench_tracer_runs_over_a_minibatch_of_each_model_and_scoring(tiny_embedding):
    # bench/tracing.py patches verseqa's functions by name, and its wrapper
    # of Tensor.backward counts graph nodes over Tensor._parents: one
    # minibatch of each model and one scoring pass run under it without an
    # error, and uninstall puts every original back
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    vq = SimpleNamespace(tensor=tensor, models=models, embeddings=embeddings,
                         training=training, data=data, evaluation=evaluation, cli=cli)
    originals = (tensor.Tensor.backward, training.bce_loss, training.embed_sequence,
                 evaluation.score_groups, models.bidaf_attention)
    groups = make_separable_groups(4, seed=0)
    pairs = [(g.question_tokens, c.tokens, float(c.label)) for g in groups for c in g.candidates]
    tr = tracing.Tracer()
    tr.op = 1  # a timed call: spans of operation 0 count as set-up
    undo = tracing.install(tr, vq)
    try:
        for kind in tracing.MODEL_KINDS:
            config = dict(n_filters=5, window=3) if kind == "cnn" else dict(d_h=5)
            model = models.build_model(kind, seed=0, d_in=16, **config)
            tr.model = kind
            training._batch_gradients(model, pairs, tiny_embedding, training.TrainConfig(),
                                      np.random.default_rng(0))
        evaluation.score_groups(model, groups, tiny_embedding)
    finally:
        tracing.uninstall(undo)
    assert (tensor.Tensor.backward, training.bce_loss, training.embed_sequence,
            evaluation.score_groups, models.bidaf_attention) == originals
    names = {span[0] for span in tr.spans}
    assert {"tensor.backward", "training.bce_loss", "models.lstm_encode",
            "evaluation.score_groups"} <= names
    assert not any(span[6] for span in tr.spans)  # no span ended in an error
    assert all(tr.counts[f"nodes_pairs.{kind}"] == len(pairs) for kind in tracing.MODEL_KINDS)
    metrics = tracing.layer_metrics(tr, 1)
    assert metrics["tensor.backward_s"] > 0.0
