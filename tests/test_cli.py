import argparse
import json
import logging
import os
import stat
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_embedding, make_separable_groups
from verseqa import cli
from verseqa.data import (Candidate, QuestionGroup, SpanConversion, group_to_json, read_groups,
                          tokenize, write_groups)
from verseqa.embeddings import load_pretrained, save_embedding
from verseqa.evaluation import evaluate, score_groups
from verseqa.models import BidafModel, CnnPairModel, RnnPairModel, build_model
from verseqa.training import load_checkpoint, model_from_checkpoint, save_checkpoint


@pytest.fixture
def bible_tsv(tmp_path):
    lines = []
    for t in ("KJV", "WEB"):
        for v in range(1, 13):
            lines.append(f"{t}\tMatthew\t1\t{v}\tVerse {v} words in {t} here")
    path = tmp_path / "bible.tsv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def trivia_tsv(tmp_path):
    lines = [f"Question {i}?\tanswer\tMatthew\t1\t{i + 1}" for i in range(11)]
    path = tmp_path / "trivia.tsv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def dataset_jsonl(tmp_path):
    path = tmp_path / "data.jsonl"
    write_groups(path, make_separable_groups(15, seed=0))
    return str(path)


@pytest.fixture
def embeddings_txt(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(save_embedding(make_embedding(dim=8))) + "\n")
    return str(path)


def _errors(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]


class TestBuildDataset:
    def test_emits_questions_times_translations(self, bible_tsv, trivia_tsv, tmp_path):
        out = tmp_path / "out.jsonl"
        rc = cli.main(["build-dataset", "--bible", bible_tsv, "--trivia", trivia_tsv,
                       "--mode", "window-3", "--out", str(out)])
        assert rc == 0
        groups = read_groups(out)
        assert len(groups) == 11 * 2
        assert all(len(g.candidates) == 3 for g in groups)
        assert all(sum(c.label for c in g.candidates) == 1 for g in groups)

    @pytest.mark.parametrize("field", [
        '"question": 5', '"book": ["Gen"]', '"chapter": Infinity', '"chapter": 1.7'],
        ids=["question-int", "book-list", "chapter-inf", "chapter-float"])
    def test_mistyped_trivia_json_exits_3(self, bible_tsv, tmp_path, caplog, field):
        rec = {"question": '"Q?"', "answer": '"A"', "book": '"Matthew"',
               "chapter": "1", "verse": "2"}
        key, value = field.split(": ", 1)
        rec[key.strip('"')] = value
        trivia = tmp_path / "trivia.jsonl"
        trivia.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in rec.items()) + "}\n")
        rc = cli.main(["build-dataset", "--bible", bible_tsv, "--trivia", str(trivia),
                       "--out", str(tmp_path / "out.jsonl")])
        assert rc == 3
        assert "line 1" in " ".join(_errors(caplog))
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("number", ["1_0", "+3", " 3", "\u0661"],
                             ids=["underscore", "sign", "space", "arabic-indic"])
    @pytest.mark.parametrize("site", ["bible", "trivia", "mode"])
    def test_number_not_in_ascii_digits_exits_3(self, bible_tsv, trivia_tsv, tmp_path, caplog,
                                                site, number):
        # int() reads each number; the inputs are otherwise valid
        paths, mode = {"bible": bible_tsv, "trivia": trivia_tsv}, "window-3"
        if site == "mode":
            mode = f"window-{number}"
        else:
            bad = tmp_path / f"bad-{site}.tsv"
            with open(paths[site], encoding="utf-8") as f:
                bad.write_text(f.read() + {"bible": f"KJV\tMatthew\t{number}\t1\tMore words",
                                           "trivia": f"Q?\tA\tMatthew\t1\t{number}"}[site]
                               + "\n", encoding="utf-8")
            paths[site] = str(bad)
        out = tmp_path / "out.jsonl"
        rc = cli.main(["build-dataset", "--bible", paths["bible"], "--trivia", paths["trivia"],
                       "--mode", mode, "--out", str(out)])
        assert rc == 3 and not out.exists()
        assert repr(mode if site == "mode" else number) in " ".join(_errors(caplog))

    def test_missing_input_exits_3(self, trivia_tsv, tmp_path):
        rc = cli.main(["build-dataset", "--bible", "nope.tsv",
                       "--trivia", trivia_tsv, "--out", str(tmp_path / "x")])
        assert rc == 3


class TestEvaluate:
    def test_baseline_rerun_is_byte_identical(self, dataset_jsonl, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            rc = cli.main(["evaluate", "--model", "baseline", "--data",
                           dataset_jsonl, "--seed", "7", "--out", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["seed"] == 7 and report["n"] == 15

    def test_trained_model_needs_checkpoint(self, dataset_jsonl):
        rc = cli.main(["evaluate", "--model", "rnn", "--data", dataset_jsonl])
        assert rc == 3

    def test_malformed_checkpoint_manifest_exits_3(self, dataset_jsonl,
                                                   embeddings_txt, tmp_path):
        manifest = json.dumps({"model_kind": "rnn", "tensors": []}).encode()
        ckpt = tmp_path / "no-config.ckpt"
        ckpt.write_bytes(b"BQAC" + struct.pack("<II", 1, len(manifest)) + manifest)
        rc = cli.main(["evaluate", "--model", "rnn", "--data", dataset_jsonl,
                       "--checkpoint", str(ckpt), "--embeddings", embeddings_txt,
                       "--dim", "8"])
        assert rc == 3

    def test_unbuildable_checkpoint_exits_3(self, dataset_jsonl, embeddings_txt,
                                            tmp_path, caplog):
        blob = save_checkpoint(RnnPairModel(8, d_h=2, seed=0))
        blob = blob.replace(b'"d_h": 2', b'"d_x": 2')  # same length, unknown key
        ckpt = tmp_path / "unknown-key.ckpt"
        ckpt.write_bytes(blob)
        rc = cli.main(["evaluate", "--model", "rnn", "--data", dataset_jsonl,
                       "--checkpoint", str(ckpt), "--embeddings", embeddings_txt,
                       "--dim", "8"])
        assert rc == 3
        assert "d_x" in " ".join(_errors(caplog))

    def test_oversized_checkpoint_config_exits_3(self, dataset_jsonl, embeddings_txt,
                                                  tmp_path, caplog):
        blob = save_checkpoint(RnnPairModel(8, d_h=2, seed=0))
        (n,) = struct.unpack_from("<I", blob, 8)
        manifest = blob[12:12 + n].replace(b'"d_h": 2', b'"d_h": 1000000000000')
        ckpt = tmp_path / "oversized.ckpt"
        ckpt.write_bytes(blob[:8] + struct.pack("<I", len(manifest)) + manifest
                         + blob[12 + n:])
        rc = cli.main(["evaluate", "--model", "rnn", "--data", dataset_jsonl,
                       "--checkpoint", str(ckpt), "--embeddings", embeddings_txt,
                       "--dim", "8"])
        assert rc == 3
        assert "do not fit" in " ".join(_errors(caplog))

    def test_maxpool_readout_checkpoint_exits_3(self, dataset_jsonl, embeddings_txt,
                                                tmp_path, caplog):
        blob = save_checkpoint(BidafModel(8, d_h=2, seed=0))
        (n,) = struct.unpack_from("<I", blob, 8)
        manifest = blob[12:12 + n].replace(b'"readout": "final"', b'"readout": "maxpool"')
        ckpt = tmp_path / "maxpool.ckpt"
        ckpt.write_bytes(blob[:8] + struct.pack("<I", len(manifest)) + manifest
                         + blob[12 + n:])
        rc = cli.main(["evaluate", "--model", "bidaf", "--data", dataset_jsonl,
                       "--checkpoint", str(ckpt), "--embeddings", embeddings_txt,
                       "--dim", "8"])
        assert rc == 3
        assert "maxpool" in " ".join(_errors(caplog))

    @pytest.mark.parametrize("ckpt_kind", ["rnn", "cnn", "bidaf"])
    def test_model_flag_must_match_checkpoint_kind(self, dataset_jsonl, embeddings_txt,
                                                   tmp_path, caplog, ckpt_kind):
        # every other --model exits 3 and writes nothing; the checkpoint's own
        # kind writes the report the library computes
        config = dict(n_filters=2, window=2) if ckpt_kind == "cnn" else dict(d_h=2)
        model = build_model(ckpt_kind, seed=0, d_in=8, **config)
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(save_checkpoint(model))
        for kind in ("rnn", "cnn", "bidaf"):
            caplog.clear()
            out = tmp_path / f"{kind}.json"
            rc = cli.main(["evaluate", "--model", kind, "--data", dataset_jsonl,
                           "--checkpoint", str(ckpt), "--embeddings", embeddings_txt,
                           "--dim", "8", "--out", str(out)])
            if kind != ckpt_kind:
                assert rc == 3 and not out.exists()
                (message,) = _errors(caplog)
                assert f"--model {kind}" in message and repr(ckpt_kind) in message
                continue
            assert rc == 0
            with open(embeddings_txt, encoding="utf-8") as f:
                emb = load_pretrained(f, 8)
            preds = score_groups(model, read_groups(dataset_jsonl), emb)
            want = evaluate(preds, model=kind, dataset=dataset_jsonl, seed=0).to_json()
            assert out.read_text() == want + "\n"

    def test_trained_model_needs_embeddings(self, dataset_jsonl, tmp_path, caplog):
        ckpt = tmp_path / "cnn.ckpt"
        ckpt.write_bytes(save_checkpoint(CnnPairModel(8, n_filters=2, window=2, seed=0)))
        rc = cli.main(["evaluate", "--model", "cnn", "--checkpoint", str(ckpt),
                       "--data", dataset_jsonl])
        assert rc == 3
        assert "--embeddings" in " ".join(_errors(caplog))

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank-lines"])
    @pytest.mark.parametrize("model", ["baseline", "rnn"])
    def test_dataset_without_groups_exits_3(self, embeddings_txt, tmp_path, caplog,
                                            model, text):
        path = tmp_path / "empty.jsonl"
        path.write_text(text)
        ckpt = tmp_path / "rnn.ckpt"
        ckpt.write_bytes(save_checkpoint(RnnPairModel(8, d_h=2, seed=0)))
        trained = ["--checkpoint", str(ckpt), "--embeddings", embeddings_txt, "--dim", "8"]
        rc = cli.main(["evaluate", "--model", model, "--data", str(path),
                       *(trained if model == "rnn" else [])])
        assert rc == 3
        assert _errors(caplog) == [f"no question groups in {path}"]

    @pytest.mark.parametrize("bad_line", [
        '{"qid": 1, "translation": "KJV", "question": "q?", "candidates": [',
        '{"qid": 1, "question": "q?", "candidates": [{"text": "a", "label": 1}]}',
        '{"qid": 1, "translation": "KJV", "question": 5, '
        '"candidates": [{"text": "a", "label": 1}]}',
        '{"qid": 1, "translation": "KJV", "question": "q?", "candidates": ["a", "b"]}',
        '{"qid": 1, "translation": "KJV", "question": "q?", '
        '"candidates": [{"text": "a", "label": 0}, {"text": "b", "label": 0}]}',
        '{"qid": 1, "translation": "KJV", "question": "q?", '
        '"candidates": [{"text": "a", "label": 1}, {"text": "b", "label": 1}]}',
        '{"qid": 1, "translation": "KJV", "question": "q?", '
        '"candidates": [{"text": "a", "label": true}]}',
        '{"qid": 1, "translation": "KJV", "question": "q?", '
        '"candidates": [{"text": "a", "label": 1.0}]}',
        '{"qid": 1, "translation": "KJV", "question": "q?", '
        '"candidates": [{"text": "a", "label": 1, "book": 5}]}',
        '{"qid": 1, "translation": "KJV", "question": "q?", '
        '"candidates": [{"text": "a", "label": 1, "chapter": "x"}]}',
        '{"qid": 1, "translation": "KJV", "question": "q?", '
        '"candidates": [{"text": "a", "label": 1, "chapter": true}]}',
        '{"qid": 1, "translation": "KJV", "question": "q?", '
        '"candidates": [{"text": "a", "label": 1, "verse": 2.0}]}',
        '{"qid": 1, "translation": "KJV", "question": "q?", '
        '"candidates": [{"text": "a", "label": 1, "verse": [2]}]}',
    ], ids=["bad-json", "missing-translation", "question-not-string",
            "candidates-not-objects", "no-positive", "two-positives", "label-bool",
            "label-float", "book-not-string", "chapter-string", "chapter-bool",
            "verse-float", "verse-list"])
    def test_malformed_dataset_line_exits_3(self, tmp_path, caplog, bad_line):
        good = json.dumps({"qid": 0, "translation": "KJV", "question": "q?",
                           "candidates": [{"text": "a", "label": 1}]})
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n" + bad_line + "\n")
        rc = cli.main(["evaluate", "--model", "baseline", "--data", str(path)])
        assert rc == 3
        assert "line 2" in " ".join(_errors(caplog))


class TestTrain:
    def _train(self, dataset_jsonl, embeddings_txt, out, seed="3"):
        return cli.main([
            "train", "--model", "cnn", "--data", dataset_jsonl,
            "--embeddings", embeddings_txt, "--dim", "8",
            "--hidden", "4", "--conv-window", "2", "--max-epochs", "2",
            "--batch-size", "8", "--seed", seed, "--out", str(out)])

    def test_train_writes_checkpoint_and_report(self, dataset_jsonl,
                                                embeddings_txt, tmp_path, capsys):
        out = tmp_path / "model.ckpt"
        assert self._train(dataset_jsonl, embeddings_txt, out) == 0
        assert out.read_bytes()[:4] == b"BQAC"
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["f1"] <= 1.0

    def test_rerun_is_byte_identical(self, dataset_jsonl, embeddings_txt,
                                     tmp_path, capsys):
        outs = []
        reports = []
        for name in ("a.ckpt", "b.ckpt"):
            out = tmp_path / name
            assert self._train(dataset_jsonl, embeddings_txt, out) == 0
            outs.append(out.read_bytes())
            reports.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert reports[0] == reports[1]

    def test_divergence_exits_1(self, dataset_jsonl, embeddings_txt, tmp_path, caplog):
        with np.errstate(all="ignore"):
            rc = cli.main([
                "train", "--model", "cnn", "--data", dataset_jsonl,
                "--embeddings", embeddings_txt, "--dim", "8", "--hidden", "16",
                "--conv-window", "2", "--max-epochs", "2", "--batch-size", "8",
                "--seed", "3", "--learning-rate", "1e300", "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert _errors(caplog) == ["runtime failure: epoch 1, batch 2: loss nan, "
                                   "first non-finite gradient: conv.W"]
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_data_exits_3(self, embeddings_txt, tmp_path):
        rc = cli.main(["train", "--model", "rnn", "--data", "missing.jsonl",
                       "--embeddings", embeddings_txt, "--out",
                       str(tmp_path / "x.ckpt")])
        assert rc == 3


class TestTransferTrain:
    def test_round_trip(self, dataset_jsonl, embeddings_txt, tmp_path, capsys):
        base = tmp_path / "base.ckpt"
        common = ["--model", "rnn", "--data", dataset_jsonl,
                  "--embeddings", embeddings_txt, "--dim", "8",
                  "--hidden", "4", "--max-epochs", "1", "--seed", "1"]
        assert cli.main(["train", *common, "--out", str(base)]) == 0
        capsys.readouterr()
        tuned = tmp_path / "tuned.ckpt"
        assert cli.main(["transfer-train", *common, "--pretrained", str(base),
                         "--out", str(tuned)]) == 0
        assert tuned.read_bytes()[:4] == b"BQAC"


class TestNearest:
    def test_lists_neighbors(self, embeddings_txt, capsys):
        rc = cli.main(["nearest", "--embeddings", embeddings_txt, "--dim", "8",
                       "--word", "k0", "-k", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        # key tokens share a direction, so neighbors of a key are keys
        assert all(line.split("\t")[0].startswith(("k", "m")) for line in lines)

    def test_non_finite_vector_exits_3(self, tmp_path, caplog):
        path = tmp_path / "nan.txt"
        path.write_text("a 1 0\nb nan 1\nc 0 1\n")
        rc = cli.main(["nearest", "--embeddings", str(path), "--dim", "2",
                       "--word", "a", "-k", "1"])
        assert rc == 3
        assert "line 2" in " ".join(_errors(caplog))

    def test_unknown_word_exits_3(self, embeddings_txt):
        assert cli.main(["nearest", "--embeddings", embeddings_txt, "--dim", "8",
                         "--word", "zzz"]) == 3

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_usage_error(self, embeddings_txt, capsys, k):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nearest", "--embeddings", embeddings_txt, "--dim", "8",
                      "--word", "k0", "-k", str(k)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "argument -k: must be >= 1" in err
        assert out == ""

    @pytest.mark.parametrize("k", [3, 5, 9])
    def test_k_beyond_neighbours_prints_all(self, tmp_path, capsys, k):
        path = tmp_path / "four.txt"
        path.write_text("a 1 0\nb 2 0\nc 0 1\nd 1 1\n")
        rc = cli.main(["nearest", "--embeddings", str(path), "--dim", "2",
                       "--word", "a", "-k", str(k)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split("\t")[0] for line in lines] == ["b", "d", "c"]

    @pytest.mark.parametrize("cli_k", [[], ["-k", "1"], ["-k1"], ["-k=1"]],
                             ids=["file", "separate", "joined", "equals"])
    def test_config_file_sets_k_and_cli_wins(self, tmp_path, capsys, cli_k):
        # the key is the option's dest: "k" names -k, which has no --k form
        path = tmp_path / "four.txt"
        path.write_text("a 1 0\nb 2 0\nc 0 1\nd 1 1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2}))
        rc = cli.main(["--config", str(cfg), "nearest", "--embeddings", str(path),
                       "--dim", "2", "--word", "a", *cli_k])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split("\t")[0] for line in lines] == ["b", "d"][:1 if cli_k else 2]

    def test_config_key_may_name_an_option_by_flag_or_dest(self, tmp_path):
        # convert-span's --in has dest "input": both keys name it
        spans = tmp_path / "spans.jsonl"
        spans.write_text(json.dumps({"context": "One here. The answer is in.",
                                     "question": "Where?", "answer_text": "answer",
                                     "answer_start": 14}) + "\n")
        for key in ("in", "input"):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: str(spans)}))
            out = tmp_path / f"{key}.jsonl"
            assert cli.main(["--config", str(cfg), "convert-span", "--out", str(out)]) == 0
            assert [c.label for c in read_groups(out)[0].candidates] == [0, 1]

    def test_negative_dim_exits_3(self, tmp_path, caplog):
        path = tmp_path / "empty.txt"
        path.write_text("")
        rc = cli.main(["nearest", "--embeddings", str(path), "--dim", "-1",
                       "--word", "a"])
        assert rc == 3
        assert "dimension" in " ".join(_errors(caplog))


class TestUsageAndConfig:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["build-dataset", "--bible", "b.tsv"])
        assert exc.value.code == 2

    def test_config_file_supplies_flags_and_cli_wins(self, dataset_jsonl,
                                                     tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "baseline", "data": dataset_jsonl,
                                   "seed": 5}))
        rc = cli.main(["--config", str(cfg), "evaluate", "--seed", "9"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 9  # CLI beats the file
        assert report["model"] == "baseline"

    def test_cli_equals_form_beats_config_file(self, dataset_jsonl, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "baseline", "data": dataset_jsonl,
                                   "seed": -1}))  # the file's value is never parsed
        assert cli.main(["--config", str(cfg), "evaluate", "--seed=3"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    def test_config_equals_form_matches_separate_form(self, dataset_jsonl, tmp_path,
                                                      capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "baseline", "data": dataset_jsonl,
                                   "seed": 5}))
        reports = []
        for flag in (["--config", str(cfg)], [f"--config={cfg}"]):
            assert cli.main(flag + ["evaluate"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[1])["seed"] == 5

    def test_missing_config_in_equals_form_exits_3(self, tmp_path, caplog):
        missing = tmp_path / "missing.json"
        assert cli.main([f"--config={missing}", "evaluate"]) == 3
        assert str(missing) in " ".join(_errors(caplog))

    @pytest.mark.parametrize("flag", [["--conf", "cfg.json"], ["--conf=cfg.json"]],
                             ids=["separate", "equals"])
    def test_abbreviated_config_is_usage_error(self, dataset_jsonl, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(flag + ["evaluate", "--model", "baseline", "--data", dataset_jsonl])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", [["KJV", "WEB"], {"KJV": 1}, True, None],
                             ids=["list", "object", "bool", "null"])
    def test_config_value_not_string_or_number_exits_3(self, bible_tsv, trivia_tsv,
                                                       tmp_path, caplog, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"translations": value}))
        rc = cli.main(["--config", str(cfg), "build-dataset", "--bible", bible_tsv,
                       "--trivia", trivia_tsv, "--out", str(tmp_path / "out.jsonl")])
        assert rc == 3
        (message,) = _errors(caplog)
        assert "translations" in message and "string or a number" in message

    @staticmethod
    def _run(*argv):
        """Run the CLI in a child process to see its exit code and stderr."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "verseqa.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_config_without_path_is_usage_error(self):
        proc = self._run("--config")
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert "--config" in proc.stderr

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]"],
                             ids=["bad-json", "not-an-object"])
    def test_config_with_bad_json_exits_3(self, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        proc = self._run("--config", str(cfg), "evaluate")
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1
        assert str(cfg) in proc.stderr


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
@pytest.mark.parametrize("payload", [b"bytes", "text"], ids=["bytes", "text"])
def test_outputs_get_the_mode_a_plain_open_gives(tmp_path, umask, payload):
    old = os.umask(umask)
    try:
        cli._atomic_write(str(tmp_path / "atomic"), payload)
        with open(tmp_path / "plain", "w") as f:
            f.write("plain")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("atomic", "plain")]
    assert modes == [0o666 & ~umask] * 2
    assert sorted(os.listdir(tmp_path)) == ["atomic", "plain"]  # no temp file left


@pytest.mark.parametrize("command", ["build-dataset", "convert-span", "evaluate"])
def test_commands_that_read_no_tokens_never_tokenize(command, bible_tsv, trivia_tsv,
                                                     dataset_jsonl, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("verseqa.data.tokenize",
                        lambda text: calls.append(text) or tokenize(text))
    spans = tmp_path / "spans.jsonl"
    spans.write_text(json.dumps({"context": "One here. The answer. Last.",
                                 "question": "Where?", "answer_text": "answer",
                                 "answer_start": 14}) + "\n")
    out = str(tmp_path / "out")
    argv, groups = {
        "build-dataset": (["--bible", bible_tsv, "--trivia", trivia_tsv], out),
        "convert-span": (["--in", str(spans)], out),
        "evaluate": (["--model", "baseline", "--data", dataset_jsonl], dataset_jsonl),
    }[command]
    assert cli.main([command, *argv, "--out", out]) == 0
    assert calls == []
    group = read_groups(groups)[0]  # the counter sees a read of the tokens
    assert group.question_tokens == tokenize(group.question) and len(calls) == 1


@pytest.mark.parametrize("command", ["build-dataset", "convert-span"])
def test_dataset_commands_write_a_line_at_a_time(command, bible_tsv, trivia_tsv, tmp_path,
                                                 monkeypatch):
    # the JSON lines stream to the file one group at a time: the command
    # never holds the file's text, which as one joined string peaked near
    # twice its size
    groups = make_separable_groups(3000, seed=0)
    monkeypatch.setattr("verseqa.data.build_bibleqa", lambda corpus, questions, spec: groups)
    monkeypatch.setattr("verseqa.data.convert_span_dataset",
                        lambda records: SpanConversion(groups=groups))
    spans = tmp_path / "spans.jsonl"
    spans.write_text("")
    out = tmp_path / "out.jsonl"
    argv = {"build-dataset": ["--bible", bible_tsv, "--trivia", trivia_tsv],
            "convert-span": ["--in", str(spans)]}[command]
    text = "".join(group_to_json(g) + "\n" for g in groups)
    tracemalloc.start()
    try:
        rc = cli.main([command, *argv, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and out.read_text() == text
    assert peak <= len(text) / 4, (peak, len(text))


class TestConvertSpan:
    def test_end_to_end(self, tmp_path):
        spans = tmp_path / "spans.jsonl"
        ctx = "First part here. The answer is inside. Last sentence."
        spans.write_text(json.dumps({
            "context": ctx, "question": "Where?", "answer_text": "answer",
            "answer_start": ctx.index("answer")}) + "\n")
        out = tmp_path / "out.jsonl"
        rc = cli.main(["convert-span", "--in", str(spans), "--out", str(out)])
        assert rc == 0
        (g,) = read_groups(out)
        assert [c.label for c in g.candidates] == [0, 1, 0]

    def test_record_without_context_exits_3(self, tmp_path, caplog):
        spans = tmp_path / "spans.jsonl"
        spans.write_text("\n" + json.dumps({"question": "Where?", "answer_text": "x",
                                            "answer_start": 0}) + "\n")
        rc = cli.main(["convert-span", "--in", str(spans), "--out",
                       str(tmp_path / "out.jsonl")])
        assert rc == 3
        assert "line 2" in " ".join(_errors(caplog))


class TestTrainEmbeddings:
    def test_writes_vectors(self, bible_tsv, tmp_path):
        out = tmp_path / "vec.txt"
        rc = cli.main(["train-embeddings", "--bible", bible_tsv, "--out",
                       str(out), "--dim", "6", "--window", "2",
                       "--epochs", "2"])
        assert rc == 0
        first = out.read_text().splitlines()[0].split(" ")
        assert len(first) == 7  # token + 6 components

    def test_writes_the_save_embedding_lines(self, bible_tsv, tmp_path, monkeypatch):
        # the lines are written one at a time, as the joined text was
        trained = []
        train_cbow = cli.embeddings.train_cbow
        monkeypatch.setattr(cli.embeddings, "train_cbow",
                            lambda *args, **kw: trained.append(train_cbow(*args, **kw))
                            or trained[-1])
        out = tmp_path / "vec.txt"
        assert cli.main(["train-embeddings", "--bible", bible_tsv, "--out", str(out),
                         "--dim", "6", "--window", "2"]) == 0
        (m,) = trained
        assert out.read_bytes() == ("\n".join(list(save_embedding(m))) + "\n").encode()

    def test_verses_of_one_word_exit_3(self, tmp_path, caplog):
        # 12 tokens, more than window+1, but no token has a context
        bible = tmp_path / "bible.tsv"
        bible.write_text("".join(f"KJV\tMatthew\t1\t{v}\tword{v % 4}\n" for v in range(1, 13)))
        out = tmp_path / "vec.txt"
        rc = cli.main(["train-embeddings", "--bible", str(bible), "--out", str(out),
                       "--dim", "4", "--window", "2"])
        assert rc == 3
        errors = _errors(caplog)
        assert len(errors) == 1 and "context" in errors[0]
        assert not out.exists()


class TestPredict:
    # verses 2 and 4 are identical, so their scores tie
    VERSES = ["f1 f2 k3 f4", "f5 f6 f7", "k1 f2", "f5 f6 f7",
              "m2 f9 f10 f11", "f3"]
    QUESTION = "f8 f12 k3"

    @pytest.fixture
    def paths(self, tmp_path, embeddings_txt):
        bible = tmp_path / "chapter.tsv"
        bible.write_text("".join(f"WEB\tMatthew\t1\t{v}\t{text}\n"
                                 for v, text in enumerate(self.VERSES, start=1)))
        ckpt = tmp_path / "rnn.ckpt"
        ckpt.write_bytes(save_checkpoint(RnnPairModel(8, d_h=4, seed=3)))
        return str(bible), str(ckpt), embeddings_txt

    def _argv(self, paths, top=5, translation="WEB", book="Matthew", chapter=1):
        bible, ckpt, emb = paths
        return ["predict", "--checkpoint", ckpt, "--bible", bible,
                "--question", self.QUESTION, "--translation", translation,
                "--book", book, "--chapter", str(chapter), "--top", str(top),
                "--embeddings", emb, "--dim", "8"]

    def _predict(self, paths, capsys, top):
        rc = cli.main(self._argv(paths, top=top))
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one_is_usage_error(self, paths, capsys, top):
        with pytest.raises(SystemExit) as exc:
            cli.main(self._argv(paths, top=top))
        assert exc.value.code == 2
        assert "argument --top: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("ref", [dict(translation="KJV"), dict(book="Nope"),
                                     dict(chapter=2)], ids=["translation", "book", "chapter"])
    def test_missing_chapter_exits_3(self, paths, caplog, ref):
        assert cli.main(self._argv(paths, **ref)) == 3
        assert "no such chapter" in " ".join(_errors(caplog))

    def test_sorted_by_score_with_ties_to_lower_verse(self, paths, capsys):
        ranked = self._predict(paths, capsys, top=len(self.VERSES))
        assert sorted(r["verse"] for r in ranked) == list(range(1, 7))
        keys = [(-r["score"], r["verse"]) for r in ranked]
        assert keys == sorted(keys)
        order = [r["verse"] for r in ranked]
        assert order.index(2) + 1 == order.index(4)
        for r in ranked:
            assert r["text"] == self.VERSES[r["verse"] - 1]

    def test_config_value_may_start_with_a_dash(self, paths, capsys, tmp_path):
        argv = self._argv(paths, top=len(self.VERSES))
        at = argv.index("--question")
        del argv[at:at + 2]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"question": "-k3"}))  # one word, so not an argument
        assert cli.main(["--config", str(cfg)] + argv) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert cli.main(argv + ["--question", "k3"]) == 0  # the dash is no token
        assert from_file == json.loads(capsys.readouterr().out)

    def test_top_truncates(self, paths, capsys):
        full = self._predict(paths, capsys, top=len(self.VERSES))
        assert self._predict(paths, capsys, top=3) == full[:3]

    def test_scores_equal_score_groups(self, paths, capsys):
        ranked = self._predict(paths, capsys, top=len(self.VERSES))
        _bible, ckpt, emb_path = paths
        with open(ckpt, "rb") as f:
            model = model_from_checkpoint(load_checkpoint(f.read()))
        with open(emb_path, encoding="utf-8") as f:
            emb = load_pretrained(f, 8)
        group = QuestionGroup(qid=0, translation="WEB", question=self.QUESTION,
                              candidates=[Candidate(text=t, label=0)
                                          for t in self.VERSES])
        (preds,) = score_groups(model, [group], emb).values()
        for r in ranked:
            assert r["score"] == preds[r["verse"] - 1].score


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("model", [RnnPairModel(8, d_h=2, seed=0),
                                   CnnPairModel(8, n_filters=2, window=2, seed=0),
                                   BidafModel(8, d_h=2, seed=0)], ids=["rnn", "cnn", "bidaf"])
def test_embedding_dim_unlike_checkpoint_exits_3(model, command, bible_tsv, dataset_jsonl,
                                                 tmp_path, caplog):
    vectors = tmp_path / "vectors6.txt"
    vectors.write_text("\n".join(save_embedding(make_embedding(dim=6))) + "\n")
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(save_checkpoint(model))
    if command == "evaluate":
        argv = ["evaluate", "--model", model.kind, "--data", dataset_jsonl]
    else:
        argv = ["predict", "--bible", bible_tsv, "--question", "who?",
                "--book", "Matthew", "--chapter", "1"]
    rc = cli.main(argv + ["--checkpoint", str(ckpt), "--embeddings", str(vectors),
                          "--dim", "6"])
    assert rc == 3
    assert _errors(caplog) == ["embedding dimension 6 does not match the checkpoint's d_in 8"]


class TestNumericFlags:
    @pytest.fixture
    def base(self, bible_tsv, dataset_jsonl, embeddings_txt, tmp_path):
        return {
            "train-embeddings": ["train-embeddings", "--bible", bible_tsv, "--dim", "4",
                                 "--out", str(tmp_path / "vec.txt")],
            "train": ["train", "--model", "rnn", "--data", dataset_jsonl,
                      "--embeddings", embeddings_txt, "--dim", "8", "--hidden", "2",
                      "--max-epochs", "1", "--out", str(tmp_path / "model.ckpt")],
            "evaluate": ["evaluate", "--model", "baseline", "--data", dataset_jsonl],
        }

    @pytest.mark.parametrize("command, flags", [
        ("train-embeddings", ["--epochs", "0"]),
        ("train-embeddings", ["--window", "0"]),
        ("train-embeddings", ["--learning-rate", "0"]),
        ("train-embeddings", ["--learning-rate", "inf"]),
        ("train", ["--batch-size", "0"]),
        ("train", ["--hidden", "0"]),
        ("train", ["--model", "cnn", "--dropout", "1.0"]),
        ("train", ["--learning-rate", "-1"]),
        ("train", ["--learning-rate", "nan"]),
        ("train", ["--patience", "0"]),
        ("train", ["--model", "cnn", "--conv-window", "0"]),
        ("evaluate", ["--seed", "-1"]),
    ], ids=["epochs", "window", "cbow-rate", "cbow-rate-inf", "batch-size", "hidden", "dropout",
            "rate-negative", "rate-nan", "patience", "conv-window", "seed"])
    def test_out_of_range_is_usage_error(self, base, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            cli.main(base[command] + flags)
        assert exc.value.code == 2
        assert f"argument {flags[-2]}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("number", ["١", "1_0", "+3", " 3"],
                             ids=["arabic-indic", "underscore", "sign", "leading-space"])
    @pytest.mark.parametrize("flag", ["--chapter", "--top", "--seed", "--hidden", "--dim"])
    def test_integers_take_ascii_digits_only(self, base, bible_tsv, embeddings_txt, capsys,
                                             flag, number):
        # int() reads all four as 1, 10, 3 and 3
        argv = base["train"] if flag == "--hidden" else [
            "predict", "--checkpoint", "model.ckpt", "--bible", bible_tsv, "--question",
            "Q?", "--book", "Matthew", "--chapter", "1", "--embeddings", embeddings_txt]
        assert getattr(cli.build_parser().parse_args(argv + [flag, "3"]),
                       flag[2:]) == 3
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [flag, number])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid int value" in capsys.readouterr().err


_DEEP_JSON = '{"a": ' + "[" * 100_000


@pytest.mark.parametrize("site", ["dataset", "trivia", "span", "config", "manifest"])
def test_deeply_nested_json_exits_3(bible_tsv, dataset_jsonl, embeddings_txt, tmp_path,
                                    caplog, site):
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP_JSON + "\n")
    ckpt = tmp_path / "deep.ckpt"
    manifest = _DEEP_JSON.encode()
    ckpt.write_bytes(b"BQAC" + struct.pack("<II", 1, len(manifest)) + manifest)
    out = str(tmp_path / "out.jsonl")
    argv = {
        "dataset": ["evaluate", "--model", "baseline", "--data", str(deep)],
        "trivia": ["build-dataset", "--bible", bible_tsv, "--trivia", str(deep),
                   "--out", out],
        "span": ["convert-span", "--in", str(deep), "--out", out],
        "config": ["--config", str(deep), "evaluate"],
        "manifest": ["evaluate", "--model", "rnn", "--data", dataset_jsonl,
                     "--checkpoint", str(ckpt), "--embeddings", embeddings_txt,
                     "--dim", "8"],
    }[site]
    assert cli.main(argv) == 3
    (message,) = _errors(caplog)
    assert "recursion" in message


def test_output_path_that_is_a_directory_exits_3(dataset_jsonl, tmp_path, caplog):
    rc = cli.main(["evaluate", "--model", "baseline", "--data", dataset_jsonl,
                   "--out", str(tmp_path)])
    assert rc == 3
    assert "directory" in " ".join(_errors(caplog))


@pytest.mark.parametrize("command", ["evaluate", "nearest"])
def test_undecodable_input_exits_3(tmp_path, caplog, command):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe not utf-8\n")
    argv = {"evaluate": ["evaluate", "--model", "baseline", "--data", str(binary)],
            "nearest": ["nearest", "--embeddings", str(binary), "--dim", "2",
                        "--word", "a"]}[command]
    assert cli.main(argv) == 3
    assert "utf-8" in " ".join(_errors(caplog))


# ---- argv fuzz -----------------------------------------------------------------

_FLAGS = {name: {a.option_strings[-1]: a for a in sp._actions if a.option_strings
                 and a.option_strings[-1] != "--help"}
          for action in cli.build_parser()._actions
          if isinstance(action, argparse._SubParsersAction)
          for name, sp in action.choices.items()}
_TEXT = {"--question": ["who is k0?", ""], "--translation": ["WEB", "XYZ"],
         "--book": ["Matthew", "Nope"], "--word": ["k0", "zzz"],
         "--mode": ["window-3", "chapter", "window-0", "bogus"],
         "--translations": ["WEB", "KJV,WEB", "XYZ", ""]}
_INTS = ["-1", "0", "1", "2", "3", "x"]
_FLOATS = ["-1", "0", "0.01", "0.5", "1", "nan", "inf", "x"]
# keyed by the parser's type objects; the test below gives every option one pool
_NUMBERS = {cli._INT: _INTS, cli._COUNT: _INTS, cli._SEED: _INTS,
            cli._RATE: _FLOATS, cli._DROPOUT: _FLOATS}
_FILES = {"--bible", "--trivia", "--in", "--data", "--embeddings", "--concat-embeddings",
          "--checkpoint", "--pretrained"}


def test_every_option_has_one_declared_fuzz_kind():
    for command, flags in _FLAGS.items():
        for flag, action in flags.items():
            kinds = [bool(action.choices), action.type in _NUMBERS, flag == "--out",
                     flag in _TEXT, flag in _FILES]
            assert kinds.count(True) == 1, (command, flag)
            assert action.type is None or action.type in _NUMBERS, (command, flag)


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Tiny inputs of every kind, a directory, and paths that do not exist."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "bible.tsv").write_text("".join(f"{t}\tMatthew\t1\t{v}\tk{v} f{v} f1 here\n"
                                         for t in ("KJV", "WEB") for v in range(1, 13)))
    (d / "trivia.tsv").write_text("".join(f"Who k{i + 1}?\tanswer\tMatthew\t1\t{i + 1}\n"
                                          for i in range(11)))
    write_groups(d / "data.jsonl", make_separable_groups(15, seed=0))
    (d / "vectors.txt").write_text("\n".join(save_embedding(make_embedding(dim=8))) + "\n")
    (d / "rnn.ckpt").write_bytes(save_checkpoint(RnnPairModel(8, d_h=2, seed=0)))
    (d / "spans.jsonl").write_text(json.dumps({
        "context": "One here. The k1 answer. Last.", "question": "Where is k1?",
        "answer_text": "k1", "answer_start": 14}) + "\n")
    (d / "config.json").write_text(json.dumps({"seed": 1}))
    (d / "adir").mkdir()
    inputs = [str(d / n) for n in ("bible.tsv", "trivia.tsv", "data.jsonl", "vectors.txt",
                                   "rnn.ckpt", "spans.jsonl", "config.json", "adir",
                                   "missing.txt")]
    outs = [str(d / "out"), str(d / "adir"), str(d / "no-such-dir" / "out")]
    return {"inputs": inputs, "outs": outs, **{p.rsplit("/", 1)[1]: p for p in inputs},
            "out": outs[0]}


def _base(paths) -> dict[str, dict[str, str]]:
    """Per subcommand, flags that make a run succeed."""
    model = {"--model": "rnn", "--data": paths["data.jsonl"],
             "--embeddings": paths["vectors.txt"], "--dim": "8", "--out": paths["out"]}
    return {
        "build-dataset": {"--bible": paths["bible.tsv"], "--trivia": paths["trivia.tsv"],
                          "--out": paths["out"]},
        "convert-span": {"--in": paths["spans.jsonl"], "--out": paths["out"]},
        "train-embeddings": {"--bible": paths["bible.tsv"], "--out": paths["out"],
                             "--dim": "4", "--epochs": "1"},
        "train": model,
        "transfer-train": {**model, "--pretrained": paths["rnn.ckpt"]},
        "evaluate": {"--model": "baseline", "--data": paths["data.jsonl"]},
        "predict": {"--checkpoint": paths["rnn.ckpt"], "--bible": paths["bible.tsv"],
                    "--question": "who is k3?", "--book": "Matthew", "--chapter": "1",
                    "--embeddings": paths["vectors.txt"], "--dim": "8"},
        "nearest": {"--embeddings": paths["vectors.txt"], "--dim": "8", "--word": "k0"},
    }


def _pool(flag: str, action, paths) -> list[str]:
    if action.choices:
        return list(action.choices) + ["bogus"]
    if action.type in _NUMBERS:
        return _NUMBERS[action.type]
    if flag == "--out":
        return paths["outs"]
    return _TEXT.get(flag, paths["inputs"])


@st.composite
def _argv(draw, paths):
    """A working argv of one subcommand with up to three flags changed or
    dropped, sometimes behind a ``--config`` file."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = dict(_base(paths)[command])
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAGS[command])), max_size=3)):
        if flag == "--max-epochs":
            continue
        if flag != "--hidden" and draw(st.booleans()):  # no --hidden is the paper size
            flags.pop(flag, None)
        else:
            flags[flag] = draw(st.sampled_from(_pool(flag, _FLAGS[command][flag], paths)))
    if command in ("train", "transfer-train"):
        flags["--max-epochs"] = "1"
        flags.setdefault("--hidden", "2")
    argv = []
    if draw(st.integers(0, 3)) == 0:
        argv = ["--config", draw(st.sampled_from(paths["inputs"]))]
    return argv + [command] + [part for item in flags.items() for part in item]


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_argv_fuzz_exits_only_0_2_or_3(fuzz_paths, data):
    argv = data.draw(_argv(fuzz_paths))
    assert _exit_code(argv) in (0, 2, 3), argv
