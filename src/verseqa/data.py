"""Corpus ingestion, tokenization, dataset construction, and splits.

File formats:

* Bible TSV: ``translation TAB book TAB chapter TAB verse TAB text``.
* Trivia: TSV ``question TAB answer TAB book TAB chapter TAB verse`` or
  JSON-lines with the same field names.
* Emitted dataset: JSON-lines, one question group per line:
  ``{qid, translation, question, candidates: [{book, chapter, verse, text,
  label}]}``.
* Span-format input: JSON-lines ``{context, question, answer_text,
  answer_start}``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

TRANSLATIONS = ("KJV", "ASV", "YLT", "WEB")

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*")
_STR_OR_NONE = (str, type(None))  # exact types of a dataset candidate's fields:
_INT_OR_NONE = (int, type(None))  # a bool is not an int there

# terminators that do not end a sentence when they close these abbreviations
ABBREVIATIONS = ("mr", "mrs", "dr", "st", "e.g", "i.e", "etc", "vs", "no")


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    pass


def ascii_int(text: str) -> int:
    """``text`` as an integer; ValueError unless it is ASCII digits after an
    optional ``-`` (``int`` also takes ``+3``, `` 3``, ``1_0`` and ``١``)."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(text)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; internal apostrophes
    stay inside a token, edge apostrophes are stripped."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class BibleCorpus:
    # translation -> book -> chapter -> ordered verse texts (index 0 = verse 1)
    chapters: dict[str, dict[str, dict[int, list[str]]]] = field(default_factory=dict)

    def translations(self) -> list[str]:
        return sorted(self.chapters)

    def chapter(self, translation: str, book: str, chapter: int) -> list[str]:
        try:
            return self.chapters[translation][book][chapter]
        except KeyError:
            raise ValidationError(f"no such chapter: {translation} {book} {chapter}") from None

    def has_ref(self, translation: str, book: str, chapter: int, verse: int) -> bool:
        verses = self.chapters.get(translation, {}).get(book, {}).get(chapter, [])
        return 1 <= verse <= len(verses)


@dataclass
class TriviaQuestion:
    qid: int
    question: str
    answer: str
    book: str
    chapter: int
    verse: int


@dataclass
class Candidate:
    text: str
    label: int
    book: str | None = None
    chapter: int | None = None
    verse: int | None = None

    @cached_property
    def tokens(self) -> list[str]:
        return tokenize(self.text)


@dataclass
class QuestionGroup:
    qid: int
    translation: str
    question: str
    candidates: list[Candidate]

    @cached_property
    def question_tokens(self) -> list[str]:
        return tokenize(self.question)

    def gold_index(self) -> int:
        for i, c in enumerate(self.candidates):
            if c.label == 1:
                return i
        raise ValidationError(f"group {self.qid}: no positive candidate")


@dataclass
class DatasetSpec:
    context_mode: str = "window-3"  # window-3 | window-10 | chapter
    translations: Sequence[str] = TRANSLATIONS

    def window_size(self) -> int | None:
        if self.context_mode == "chapter":
            return None
        n = self.context_mode.removeprefix("window-")
        try:
            if n != self.context_mode and ascii_int(n) >= 1:
                return int(n)
        except ValueError:
            pass
        raise ValidationError(f"bad context mode: {self.context_mode!r}")


def parse_bible(lines: Iterable[str]) -> BibleCorpus:
    """Read Bible TSV lines, checking verse numbering is dense per chapter."""
    raw: dict[str, dict[str, dict[int, dict[int, str]]]] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(f"line {lineno}: expected 5 tab-separated fields, "
                             f"got {len(parts)}")
        translation, book, chapter_s, verse_s, text = parts
        try:
            chapter, verse = ascii_int(chapter_s), ascii_int(verse_s)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if chapter < 1 or verse < 1:
            raise ParseError(f"line {lineno}: chapter and verse must be >= 1")
        if not text:
            raise ParseError(f"line {lineno}: empty verse text")
        ch = raw.setdefault(translation, {}).setdefault(book, {}).setdefault(chapter, {})
        if verse in ch:
            raise ParseError(f"line {lineno}: duplicate verse "
                             f"{translation} {book} {chapter}:{verse}")
        ch[verse] = text

    corpus = BibleCorpus()
    for translation, books in raw.items():
        for book, chaps in books.items():
            for chapter, verses in chaps.items():
                expected = set(range(1, len(verses) + 1))
                missing = sorted(expected - set(verses))
                if missing or max(verses) != len(verses):
                    gaps = missing or sorted(set(verses) - expected)
                    raise ParseError(f"{translation} {book} {chapter}: gap in "
                                     f"verse numbering at {gaps}")
                ordered = [verses[v] for v in range(1, len(verses) + 1)]
                corpus.chapters.setdefault(translation, {}) \
                    .setdefault(book, {})[chapter] = ordered
    return corpus


def parse_trivia(lines: Iterable[str],
                 corpus: BibleCorpus | None = None) -> list[TriviaQuestion]:
    """Read trivia records (TSV or JSON-lines); ids follow input order.

    With a corpus, each gold reference must resolve in every translation.
    """
    questions = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.lstrip().startswith("{"):
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad or too deeply nested
                raise ParseError(f"line {lineno}: {exc}") from exc
            if not (all(isinstance(rec.get(k), str) for k in ("question", "answer", "book"))
                    and type(rec.get("chapter")) is int and type(rec.get("verse")) is int):
                raise ParseError(f"line {lineno}: expected string question, answer and "
                                 "book and integer chapter and verse")
            fields = [rec[k] for k in ("question", "answer", "book", "chapter", "verse")]
        else:
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"line {lineno}: expected 5 tab-separated "
                                 f"fields, got {len(parts)}")
            try:
                fields = [*parts[:3], ascii_int(parts[3]), ascii_int(parts[4])]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
        if fields[3] < 1 or fields[4] < 1:
            raise ParseError(f"line {lineno}: chapter and verse must be >= 1")
        questions.append(TriviaQuestion(len(questions), *fields))

    if corpus is not None:
        for q in questions:
            for translation in corpus.translations():
                if not corpus.has_ref(translation, q.book, q.chapter, q.verse):
                    raise ValidationError(
                        f"question {q.qid} ({q.question!r}): reference "
                        f"{q.book} {q.chapter}:{q.verse} not found in {translation}")
    return questions


def _window_bounds(gold: int, n: int, chapter_len: int) -> tuple[int, int]:
    """First/last verse of an n-candidate window around the gold verse.

    Centered when possible, shifted (not shrunk) at chapter boundaries,
    shrunk only when the chapter itself is shorter than n.
    """
    if chapter_len <= n:
        return 1, chapter_len
    before = (n - 1) // 2
    start = min(max(gold - before, 1), chapter_len - n + 1)
    return start, start + n - 1


def build_bibleqa(corpus: BibleCorpus, questions: Sequence[TriviaQuestion],
                  spec: DatasetSpec) -> list[QuestionGroup]:
    """One group per (question, translation): consecutive candidate verses
    around the gold verse, exactly one labeled positive."""
    n = spec.window_size()
    groups = []
    for q in questions:
        for translation in spec.translations:
            if not corpus.has_ref(translation, q.book, q.chapter, q.verse):
                raise ValidationError(
                    f"question {q.qid}: reference {q.book} {q.chapter}:{q.verse} "
                    f"not found in {translation}")
            verses = corpus.chapter(translation, q.book, q.chapter)
            first, last = _window_bounds(q.verse, n or len(verses), len(verses))
            candidates = [
                Candidate(text=verses[v - 1], label=int(v == q.verse),
                          book=q.book, chapter=q.chapter, verse=v)
                for v in range(first, last + 1)
            ]
            groups.append(QuestionGroup(qid=q.qid, translation=translation,
                                        question=q.question, candidates=candidates))
    return groups


def split_sentences(paragraph: str) -> list[tuple[int, int]]:
    """Character-offset sentence spans covering the paragraph.

    A sentence ends after '.', '!' or '?' followed by whitespace and an
    uppercase letter (or end of text), unless the period closes a known
    abbreviation.
    """
    spans = []
    start = 0
    i = 0
    n = len(paragraph)
    while i < n:
        ch = paragraph[i]
        if ch in ".!?":
            j = i + 1
            while j < n and paragraph[j] in ".!?":
                j += 1  # swallow runs like "?!" or "..."
            k = j
            while k < n and paragraph[k].isspace():
                k += 1
            boundary = (k == n) or (k > j and paragraph[k].isupper())
            if boundary and ch == ".":
                before = paragraph[start:i].lower()
                if any(before.endswith(a) and
                       (len(before) == len(a) or not before[-len(a) - 1].isalpha())
                       for a in ABBREVIATIONS):
                    boundary = False
            if boundary:
                spans.append((start, k if k < n else n))
                start = k
                i = k
                continue
            i = j
        else:
            i += 1
    if start < n:
        spans.append((start, n))
    return spans


@dataclass
class SpanConversion:
    groups: list[QuestionGroup]
    dropped: int = 0  # answers crossing a sentence boundary


def parse_span_records(lines: Iterable[str]) -> list[dict]:
    """Read span-format JSON-lines, checking each record's field types."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad or too deeply nested
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not (isinstance(rec, dict) and isinstance(rec.get("context"), str)
                and isinstance(rec.get("question"), str)
                and isinstance(rec.get("answer_text", ""), str)
                and type(rec.get("answer_start")) is int):
            raise ParseError(f"line {lineno}: expected an object with string context, "
                             "question and answer_text and an integer answer_start")
        records.append(rec)
    return records


def convert_span_dataset(records: Iterable[dict]) -> SpanConversion:
    """Turn span-annotated (context, question, answer) records into groups.

    Sentences of the context become candidates; the sentence containing the
    answer start offset is the positive. Answers that cross a sentence
    boundary drop the record (counted); an out-of-range offset is an error
    naming the record's position, from 1. Kept groups take qids 0, 1, ...
    """
    result = SpanConversion(groups=[])
    for n, rec in enumerate(records, start=1):
        context = rec["context"]
        answer_start = int(rec["answer_start"])
        answer_text = rec.get("answer_text", "")
        if not (0 <= answer_start < len(context)):
            raise ValidationError(
                f"record {n}: answer_start {answer_start} out of range "
                f"for context of length {len(context)}")
        spans = split_sentences(context)
        answer_end = answer_start + len(answer_text)
        gold = None
        for idx, (lo, hi) in enumerate(spans):
            if lo <= answer_start < hi:
                if answer_end <= hi:
                    gold = idx
                break  # answer crosses into the next sentence: drop
        if gold is None:
            result.dropped += 1
            continue
        candidates = [Candidate(text=context[lo:hi].strip(), label=int(i == gold))
                      for i, (lo, hi) in enumerate(spans)]
        result.groups.append(QuestionGroup(qid=len(result.groups), translation="",
                                           question=rec["question"],
                                           candidates=candidates))
    return result


def split_dataset(groups: Sequence[QuestionGroup], seed: int
                  ) -> tuple[list[QuestionGroup], list[QuestionGroup], list[QuestionGroup]]:
    """Seeded 63/7/30 split at the question-id level.

    All translations of one question land in the same partition. 30% of
    question ids (floor) go to test; 10% (floor) of the remainder to
    validation; the rest to train.
    """
    qids = sorted({g.qid for g in groups})
    if len(qids) < 10:
        raise ValidationError(f"need at least 10 question ids, got {len(qids)}")
    rng = np.random.default_rng(seed)
    order = [qids[i] for i in rng.permutation(len(qids))]
    n_test = int(len(order) * 0.3)
    n_val = int((len(order) - n_test) * 0.1)
    test_ids = set(order[:n_test])
    val_ids = set(order[n_test:n_test + n_val])
    train, val, test = [], [], []
    for g in groups:
        if g.qid in test_ids:
            test.append(g)
        elif g.qid in val_ids:
            val.append(g)
        else:
            train.append(g)
    return train, val, test


# ---- JSON-lines round trip ---------------------------------------------------

def group_to_json(g: QuestionGroup) -> str:
    return json.dumps({
        "qid": g.qid,
        "translation": g.translation,
        "question": g.question,
        "candidates": [{"book": c.book, "chapter": c.chapter, "verse": c.verse,
                        "text": c.text, "label": c.label}
                       for c in g.candidates],
    }, sort_keys=True)


def group_from_json(line: str) -> QuestionGroup:
    """One dataset line as a group; ParseError unless it has the emitted shape."""
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad or too deeply nested
        raise ParseError(str(exc)) from exc
    if not (isinstance(rec, dict) and type(rec.get("qid")) is int
            and isinstance(rec.get("translation"), str)
            and isinstance(rec.get("question"), str)
            and isinstance(rec.get("candidates"), list) and rec["candidates"]
            and all(isinstance(c, dict) and isinstance(c.get("text"), str)
                    and type(c.get("label")) is int and c["label"] in (0, 1)
                    and type(c.get("book")) in _STR_OR_NONE
                    and type(c.get("chapter")) in _INT_OR_NONE
                    and type(c.get("verse")) in _INT_OR_NONE for c in rec["candidates"])):
        raise ParseError("expected an object with an int qid, str translation and question, "
                         "and a non-empty candidates list of {text: str, label: 0/1, "
                         "book: str/null, chapter and verse: int/null}")
    positives = sum(c["label"] for c in rec["candidates"])
    if positives != 1:
        raise ParseError(f"expected exactly one candidate with label 1, got {positives}")
    return QuestionGroup(
        qid=rec["qid"], translation=rec["translation"], question=rec["question"],
        candidates=[Candidate(text=c["text"], label=c["label"], book=c.get("book"),
                              chapter=c.get("chapter"), verse=c.get("verse"))
                    for c in rec["candidates"]])


def write_groups(path, groups: Sequence[QuestionGroup]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for g in groups:
            f.write(group_to_json(g) + "\n")


def read_groups(path) -> list[QuestionGroup]:
    groups = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                try:
                    groups.append(group_from_json(line))
                except ParseError as exc:
                    raise ParseError(f"{path} line {lineno}: {exc}") from None
    return groups
