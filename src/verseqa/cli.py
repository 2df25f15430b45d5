"""Batch command-line interface.

Subcommands: build-dataset, convert-span, train-embeddings, train,
transfer-train, evaluate, predict, nearest. Flags override an optional
JSON config file (``--config``); precedence is CLI > file > defaults.
Outputs are written atomically (temp file + rename); logs go to stderr.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 validation
error (bad inputs, missing paths).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import tempfile
from typing import Iterable

from . import data, embeddings, evaluation, models, training

logger = logging.getLogger("verseqa")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


class CliValidationError(ValueError):
    pass


class CliUsageError(ValueError):
    pass


def _atomic_write(path: str, payload: bytes | str | Iterable[str]) -> None:
    """Write through a temp file and a rename; an iterable one item at a time."""
    if os.path.isdir(path):
        raise CliValidationError(f"output path is a directory: {path}")
    mode = "wb" if isinstance(payload, bytes) else "w"
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0o077)  # read it: a plain open() creates 0o666 & ~umask
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-verseqa-")
    try:
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp's 0o600 would survive os.replace
        with os.fdopen(fd, mode) as f:
            f.writelines([payload] if isinstance(payload, (bytes, str)) else payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require_file(path: str) -> str:
    if not os.path.isfile(path):
        raise CliValidationError(f"input file not found: {path}")
    return path


def _read_lines(path: str) -> list[str]:
    with open(_require_file(path), encoding="utf-8") as f:
        return f.readlines()


def _read_vectors(path: str, dim: int) -> embeddings.EmbeddingMatrix:
    """A vector file, parsed as it is read: its lines are never all held."""
    with open(_require_file(path), encoding="utf-8") as f:
        return embeddings.load_pretrained(f, dim)


def _load_embedding(args) -> embeddings.EmbeddingMatrix:
    emb = _read_vectors(args.embeddings, args.dim)
    if getattr(args, "concat_embeddings", None):
        extra = _read_vectors(args.concat_embeddings, args.concat_dim)
        emb = embeddings.concat_embeddings(emb, extra)
    return emb


def _load_scoring_embedding(args, model) -> embeddings.EmbeddingMatrix:
    """The vectors a trained model scores with: their dimension must be the
    checkpoint's input width."""
    emb = _load_embedding(args)
    if emb.dim != model.d_in:
        raise CliValidationError(f"embedding dimension {emb.dim} does not match "
                                 f"the checkpoint's d_in {model.d_in}")
    return emb


def _model_hyperparams(args, d_in: int) -> dict:
    if args.model == "cnn":
        return {"d_in": d_in, "n_filters": args.hidden, "window": args.conv_window,
                "dropout": args.dropout}
    return {"d_in": d_in, "d_h": args.hidden}


def _train_config(args) -> training.TrainConfig:
    lr = args.learning_rate or (0.0001 if args.model == "cnn" else 0.001)  # None if not given
    return training.TrainConfig(learning_rate=lr, batch_size=args.batch_size,
                                max_epochs=args.max_epochs, patience=args.patience,
                                seed=args.seed)


def _echo_config(args) -> None:
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "config") and v is not None}
    logger.info("config: %s", json.dumps(cfg, sort_keys=True, default=str))


# ---- subcommands -------------------------------------------------------------

def cmd_build_dataset(args) -> int:
    corpus = data.parse_bible(_read_lines(args.bible))
    translations = (args.translations.split(",") if args.translations
                    else corpus.translations())
    questions = data.parse_trivia(_read_lines(args.trivia), corpus)
    spec = data.DatasetSpec(context_mode=args.mode, translations=translations)
    groups = data.build_bibleqa(corpus, questions, spec)
    payload = "".join(data.group_to_json(g) + "\n" for g in groups)
    _atomic_write(args.out, payload)
    logger.info("wrote %d groups to %s", len(groups), args.out)
    return EXIT_OK


def cmd_convert_span(args) -> int:
    result = data.convert_span_dataset(data.parse_span_records(_read_lines(args.input)))
    payload = "".join(data.group_to_json(g) + "\n" for g in result.groups)
    _atomic_write(args.out, payload)
    logger.info("wrote %d groups (%d records dropped: answer crossed a "
                "sentence boundary)", len(result.groups), result.dropped)
    return EXIT_OK


def cmd_train_embeddings(args) -> int:
    corpus = data.parse_bible(_read_lines(args.bible))
    sentences = [data.tokenize(verse) for t in corpus.translations()
                 for _book, chapters in sorted(corpus.chapters[t].items())
                 for _chapter, verses in sorted(chapters.items()) for verse in verses]
    cfg = embeddings.CbowConfig(window=args.window, dim=args.dim,
                                epochs=args.epochs, seed=args.seed,
                                learning_rate=args.learning_rate)
    history: list[float] = []
    emb = embeddings.train_cbow(sentences, cfg, loss_history=history)
    logger.info("cbow loss: first epoch %.4f, last epoch %.4f",
                history[0], history[-1])
    _atomic_write(args.out, (line + "\n" for line in embeddings.save_embedding(emb)))
    return EXIT_OK


def _run_training(args, pretrained: training.Checkpoint | None) -> int:
    groups = data.read_groups(_require_file(args.data))
    emb = _load_embedding(args)
    train_groups, val_groups, test_groups = data.split_dataset(groups, args.seed)
    model = models.build_model(args.model, seed=args.seed,
                               **_model_hyperparams(args, emb.dim))
    if pretrained is not None:
        report = training.transfer_weights(pretrained, model)
        logger.info("transfer: copied %d, extended %d tensors",
                    len(report.copied), len(report.extended))
    cfg = _train_config(args)
    result = training.train(model, train_groups, val_groups, emb, cfg)
    for rec in result.history:
        logger.info("epoch %d: train %.4f val %.4f val-f1 %.4f",
                    rec.epoch, rec.train_loss, rec.val_loss, rec.val_f1)
    _atomic_write(args.out, training.save_checkpoint(model))
    logger.info("best epoch %d (val loss %.4f); checkpoint written to %s",
                result.best_epoch, result.best_val_loss, args.out)

    preds = evaluation.score_groups(model, test_groups, emb)
    report = evaluation.evaluate(preds, model=args.model, dataset=args.data,
                                 seed=args.seed)
    print(report.to_json())
    return EXIT_OK


def cmd_train(args) -> int:
    return _run_training(args, None)


def cmd_transfer_train(args) -> int:
    with open(_require_file(args.pretrained), "rb") as f:
        ckpt = training.load_checkpoint(f.read())
    return _run_training(args, ckpt)


def cmd_evaluate(args) -> int:
    groups = data.read_groups(_require_file(args.data))
    if not groups:
        raise CliValidationError(f"no question groups in {args.data}")
    if args.model == "baseline":
        preds = evaluation.random_baseline(groups, args.seed)
    else:
        if not (args.checkpoint and args.embeddings):
            raise CliValidationError("a trained model needs --checkpoint and --embeddings")
        with open(_require_file(args.checkpoint), "rb") as f:
            ckpt = training.load_checkpoint(f.read())
        if ckpt.model_kind != args.model:
            raise CliValidationError(f"--model {args.model} does not match the "
                                     f"{ckpt.model_kind!r} checkpoint {args.checkpoint}")
        model = training.model_from_checkpoint(ckpt)
        emb = _load_scoring_embedding(args, model)
        preds = evaluation.score_groups(model, groups, emb)
    report = evaluation.evaluate(preds, model=args.model, dataset=args.data,
                                 seed=args.seed)
    payload = report.to_json() + "\n"
    if args.out:
        _atomic_write(args.out, payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_predict(args) -> int:
    with open(_require_file(args.checkpoint), "rb") as f:
        model = training.model_from_checkpoint(training.load_checkpoint(f.read()))
    emb = _load_scoring_embedding(args, model)
    corpus = data.parse_bible(_read_lines(args.bible))
    verses = corpus.chapter(args.translation, args.book, args.chapter)
    group = data.QuestionGroup(qid=0, translation=args.translation,
                               question=args.question,
                               candidates=[data.Candidate(text=text, label=0)
                                           for text in verses])
    (preds,) = evaluation.score_groups(model, [group], emb).values()
    top = evaluation.rank_order([p.score for p in preds])[:args.top]
    print(json.dumps([{"verse": i + 1, "score": preds[i].score, "text": verses[i]}
                      for i in top], indent=2))
    return EXIT_OK


def cmd_nearest(args) -> int:
    emb = _read_vectors(args.embeddings, args.dim)
    try:
        neighbors = embeddings.nearest_neighbors(args.word, emb, args.k)
    except KeyError as exc:
        raise CliValidationError(str(exc)) from exc
    for token, sim in neighbors:
        print(f"{token}\t{sim:.6f}")
    return EXIT_OK


# ---- argument plumbing -------------------------------------------------------

def _checked(kind: type, ok=lambda v: True, rule: str = ""):
    """An argparse type: a ``kind`` value for which ``ok`` holds, else exit 2.
    An int must be ASCII digits (``data.ascii_int``)."""
    def parse(text: str):
        value = data.ascii_int(text) if kind is int else kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_INT = _checked(int)
_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_SEED = _checked(int, lambda v: v >= 0, ">= 0")
_RATE = _checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
_DROPOUT = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")


def _add_embedding_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--embeddings", required=required, help="pretrained vector file")
    p.add_argument("--dim", type=_INT, default=100, help="embedding dimension")
    p.add_argument("--concat-embeddings", dest="concat_embeddings",
                   help="second vector file concatenated onto the first")
    p.add_argument("--concat-dim", dest="concat_dim", type=_INT, default=200)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=sorted(models.MODEL_KINDS))
    p.add_argument("--data", required=True, help="JSON-lines dataset")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--hidden", type=_COUNT, default=100)
    p.add_argument("--conv-window", dest="conv_window", type=_COUNT, default=3)
    p.add_argument("--dropout", type=_DROPOUT, default=0.5)
    p.add_argument("--learning-rate", dest="learning_rate", type=_RATE)
    p.add_argument("--batch-size", dest="batch_size", type=_COUNT, default=32)
    p.add_argument("--max-epochs", dest="max_epochs", type=_COUNT, default=100)
    p.add_argument("--patience", type=_COUNT, default=10)
    _add_embedding_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verseqa",
        description="Score candidate Bible verses against questions.",
        allow_abbrev=False)  # _apply_config_file reads only the full --config
    parser.add_argument("--config", help="JSON config file; CLI flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dataset", help="build a question/candidate dataset")
    p.add_argument("--bible", required=True)
    p.add_argument("--trivia", required=True)
    p.add_argument("--mode", default="window-3")
    p.add_argument("--translations", help="comma-separated subset, default all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("convert-span", help="convert span-annotated records")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert_span)

    p = sub.add_parser("train-embeddings", help="train CBOW vectors on a Bible TSV")
    p.add_argument("--bible", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=_COUNT, default=200)
    p.add_argument("--window", type=_COUNT, default=5)
    p.add_argument("--epochs", type=_COUNT, default=5)
    p.add_argument("--learning-rate", dest="learning_rate", type=_RATE, default=0.05)
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("train", help="train a model")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transfer-train", help="fine-tune from a checkpoint")
    _add_train_flags(p)
    p.add_argument("--pretrained", required=True)
    p.set_defaults(func=cmd_transfer_train)

    p = sub.add_parser("evaluate", help="evaluate a model or the random baseline")
    p.add_argument("--model", required=True,
                   choices=sorted(models.MODEL_KINDS) + ["baseline"])
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint")
    _add_embedding_flags(p, required=False)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="score one question against a chapter")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bible", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--translation", default="WEB")
    p.add_argument("--book", required=True)
    p.add_argument("--chapter", type=_INT, required=True)
    p.add_argument("--top", type=_COUNT, default=5)
    _add_embedding_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("nearest", help="nearest embedding neighbors of a word")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--dim", type=_INT, default=200)
    p.add_argument("--word", required=True)
    p.add_argument("-k", type=_COUNT, default=10)
    p.set_defaults(func=cmd_nearest)

    for sp in sub.choices.values():
        sp.add_argument("--seed", type=_SEED, default=0)
    return parser


def _apply_config_file(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Prepend config-file entries as ``FLAG=value`` so CLI flags, in either
    form, win. A key is a subcommand option's dest (``k`` for ``-k``) or its
    long flag. The path comes as ``--config PATH`` or ``--config=PATH``."""
    idx = next((i for i, arg in enumerate(argv)
                if arg == "--config" or arg.startswith("--config=")), None)
    if idx is None:
        return argv
    if argv[idx] == "--config":
        if idx + 1 == len(argv):
            raise CliUsageError("--config needs a path")
        path, rest = argv[idx + 1], argv[:idx] + argv[idx + 2:]
    else:
        path, rest = argv[idx][len("--config="):], argv[:idx] + argv[idx + 1:]
    with open(_require_file(path), encoding="utf-8") as f:
        try:
            file_cfg = json.load(f)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
            raise CliValidationError(f"config file {path}: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise CliValidationError(f"config file {path}: expected a JSON object")
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    actions = commands[rest[0]]._actions if rest and rest[0] in commands else []
    flags = {a.dest: a.option_strings[-1] for a in actions if a.option_strings}
    injected: list[str] = []
    for key, value in file_cfg.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise CliValidationError(f"config file {path}: {key}: expected a string "
                                     f"or a number, got {json.dumps(value)}")
        flag = flags.get(key, "--" + key.replace("_", "-"))
        given = flag if flag[1] != "-" else flag + "="  # -k5 gives -k its value too
        if not any(arg == flag or arg.startswith(given) for arg in argv):
            injected.append(f"{flag}={value}")  # one word: a value may start with -
    # flags after the subcommand, which must be argv[0] after --config removal
    return rest[:1] + injected + rest[1:] if rest else rest


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(argv, parser))
        _echo_config(args)
        return args.func(args)
    except CliUsageError as exc:
        logger.error("%s", exc)
        return EXIT_USAGE
    except (CliValidationError, data.ParseError, data.ValidationError,
            embeddings.EmbeddingError, training.CheckpointError,
            training.TransferError, FileNotFoundError, UnicodeDecodeError) as exc:
        logger.error("%s", exc)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - map anything else to exit 1
        logger.error("runtime failure: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
