import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseqa.data import (BibleCorpus, Candidate, DatasetSpec, ParseError,
                          QuestionGroup, TriviaQuestion, ValidationError, build_bibleqa,
                          convert_span_dataset, group_from_json,
                          group_to_json, parse_bible, parse_trivia, read_groups,
                          split_dataset, split_sentences, tokenize, write_groups)


class TestTokenize:
    def test_punctuation_and_possessive(self):
        assert tokenize("Jesus' mother, Mary!") == ["jesus", "mother", "mary"]

    def test_internal_apostrophe_kept(self):
        assert tokenize("don't") == ["don't"]

    def test_empty(self):
        assert tokenize("") == []

    def test_idempotent_on_own_output(self):
        text = "The LORD said: 'Let there be light'; and it was so."
        toks = tokenize(text)
        assert tokenize(" ".join(toks)) == toks


# fields that are not ASCII digits, most of which ``int`` reads: none may be a
# TSV chapter or verse or a window size
NOT_ASCII_DIGITS = ["1_0", "+3", " 3", "3 ", "-1", "3.0", "", "\u0661", "\u0661\u0660"]
NOT_ASCII_DIGITS_IDS = ["underscore", "sign", "leading-space", "trailing-space", "negative",
                        "float", "empty", "arabic-indic", "arabic-indic-10"]


def bible_lines(chapter_verses, translation="KJV", book="Matthew", chapter=1):
    return [f"{translation}\t{book}\t{chapter}\t{v}\t{text}"
            for v, text in chapter_verses]


class TestParseBible:
    def test_three_verse_chapter(self):
        corpus = parse_bible(bible_lines([(1, "In the beginning."),
                                          (2, "And the earth."),
                                          (3, "And God said.")]))
        assert corpus.chapter("KJV", "Matthew", 1) == [
            "In the beginning.", "And the earth.", "And God said."]

    def test_gap_in_numbering(self):
        with pytest.raises(ParseError, match="3"):
            parse_bible(bible_lines([(1, "a"), (2, "b"), (4, "d")]))

    def test_duplicate_verse(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_bible(bible_lines([(1, "a"), (2, "b"), (2, "b again")]))

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_bible(["KJV\tMatthew\t1\t1\tok", "broken line"])

    @pytest.mark.parametrize("number", NOT_ASCII_DIGITS, ids=NOT_ASCII_DIGITS_IDS)
    def test_chapter_and_verse_take_ascii_digits_only(self, number):
        for line in (f"KJV\tMatthew\t{number}\t1\ttext", f"KJV\tMatthew\t1\t{number}\ttext"):
            with pytest.raises(ParseError, match="line 2"):
                parse_bible(["KJV\tMatthew\t2\t1\tok", line])

    def test_missing_chapter_is_validation_error(self):
        corpus = parse_bible(bible_lines([(1, "In the beginning.")]))
        for ref in [("WEB", "Matthew", 1), ("KJV", "Nope", 1), ("KJV", "Matthew", 2)]:
            with pytest.raises(ValidationError):
                corpus.chapter(*ref)


def tiny_corpus(n_verses=25, translations=("KJV", "ASV", "YLT", "WEB")):
    lines = []
    for t in translations:
        for v in range(1, n_verses + 1):
            lines.append(f"{t}\tMatthew\t1\t{v}\tVerse {v} text in {t}.")
    return parse_bible(lines)


class TestParseTrivia:
    def test_tsv_record(self):
        qs = parse_trivia(["Who is Jesus' mother?\tMary\tMatthew\t1\t18"],
                          tiny_corpus())
        assert qs[0].book == "Matthew" and qs[0].chapter == 1 and qs[0].verse == 18

    def test_jsonl_record(self):
        line = ('{"question": "Q?", "answer": "A", "book": "Matthew", '
                '"chapter": 1, "verse": 2}')
        qs = parse_trivia([line])
        assert qs[0].verse == 2

    def test_unresolvable_reference(self):
        with pytest.raises(ValidationError, match="999"):
            parse_trivia(["Q?\tA\tMatthew\t999\t1"], tiny_corpus())

    def test_empty_stream(self):
        assert parse_trivia([]) == []

    @pytest.mark.parametrize("field", [
        '"question": 5', '"answer": null', '"book": ["Gen"]', '"chapter": Infinity',
        '"chapter": 1.7', '"chapter": true', '"verse": "2"', '"verse": 1e400'],
        ids=["question-int", "answer-null", "book-list", "chapter-inf",
             "chapter-float", "chapter-bool", "verse-string", "verse-overflow"])
    def test_jsonl_field_types(self, field):
        rec = {"question": '"Q?"', "answer": '"A"', "book": '"Matthew"',
               "chapter": "1", "verse": "2"}
        key, value = field.split(": ", 1)
        rec[key.strip('"')] = value
        line = "{" + ", ".join(f'"{k}": {v}' for k, v in rec.items()) + "}"
        with pytest.raises(ParseError, match="line 2"):
            parse_trivia(["Q?\tA\tMatthew\t1\t2", line])

    @pytest.mark.parametrize("number", NOT_ASCII_DIGITS, ids=NOT_ASCII_DIGITS_IDS)
    def test_tsv_chapter_and_verse_take_ascii_digits_only(self, number):
        for line in (f"Q?\tA\tMatthew\t{number}\t1", f"Q?\tA\tMatthew\t1\t{number}"):
            with pytest.raises(ParseError, match="line 2"):
                parse_trivia(["Q?\tA\tMatthew\t1\t2", line])

    def test_jsonl_missing_field(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_trivia(['{"question": "Q?", "answer": "A", "book": "Matthew", "chapter": 1}'])


@pytest.mark.parametrize("number", NOT_ASCII_DIGITS, ids=NOT_ASCII_DIGITS_IDS)
def test_window_size_takes_ascii_digits_only(number):
    with pytest.raises(ValidationError, match="bad context mode"):
        DatasetSpec(f"window-{number}").window_size()


class TestBuildBibleqa:
    def _questions(self, verse):
        return [TriviaQuestion(qid=0, question="Q?", answer="A",
                               book="Matthew", chapter=1, verse=verse)]

    def test_window3_centered(self):
        groups = build_bibleqa(tiny_corpus(), self._questions(18),
                               DatasetSpec("window-3", ["WEB"]))
        (g,) = groups
        assert [c.verse for c in g.candidates] == [17, 18, 19]
        assert [c.label for c in g.candidates] == [0, 1, 0]

    def test_window_shifts_at_chapter_start(self):
        groups = build_bibleqa(tiny_corpus(), self._questions(1),
                               DatasetSpec("window-3", ["KJV"]))
        (g,) = groups
        assert [c.verse for c in g.candidates] == [1, 2, 3]
        assert [c.label for c in g.candidates] == [1, 0, 0]

    def test_window_shifts_at_chapter_end(self):
        groups = build_bibleqa(tiny_corpus(), self._questions(25),
                               DatasetSpec("window-10", ["KJV"]))
        (g,) = groups
        assert [c.verse for c in g.candidates] == list(range(16, 26))
        assert sum(c.label for c in g.candidates) == 1

    def test_window_shrinks_only_for_short_chapters(self):
        corpus = tiny_corpus(n_verses=4)
        groups = build_bibleqa(corpus, self._questions(2),
                               DatasetSpec("window-10", ["KJV"]))
        assert len(groups[0].candidates) == 4

    def test_chapter_mode(self):
        groups = build_bibleqa(tiny_corpus(), self._questions(5),
                               DatasetSpec("chapter", ["KJV"]))
        assert len(groups[0].candidates) == 25

    def test_group_count_is_questions_times_translations(self):
        questions = [TriviaQuestion(qid=i, question=f"Q{i}?", answer="A",
                                    book="Matthew", chapter=1, verse=i + 1)
                     for i in range(7)]
        groups = build_bibleqa(tiny_corpus(), questions, DatasetSpec("window-3"))
        assert len(groups) == 7 * 4
        for g in groups:
            assert sum(c.label for c in g.candidates) == 1
            verses = [c.verse for c in g.candidates]
            assert verses == sorted(verses)


class TestSplitSentences:
    def _texts(self, paragraph):
        return [paragraph[lo:hi] for lo, hi in split_sentences(paragraph)]

    def test_two_sentences(self):
        spans = split_sentences("A cat sat. It slept.")
        assert len(spans) == 2

    def test_abbreviation_suppresses_split(self):
        texts = self._texts("Dr. Smith arrived. He left.")
        assert len(texts) == 2
        assert texts[0].startswith("Dr. Smith")

    def test_no_terminal_punctuation(self):
        text = "no punctuation here"
        assert split_sentences(text) == [(0, len(text))]

    def test_spans_cover_without_overlap(self):
        paragraph = ("Mr. Jones went to St. Paul's! Was it far? "
                     "Yes, e.g. by bus... It took 3 hrs.")
        spans = split_sentences(paragraph)
        assert spans[0][0] == 0 and spans[-1][1] == len(paragraph)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo

    def test_lowercase_continuation_not_split(self):
        assert len(split_sentences("He said no. and then left.")) == 1


class TestConvertSpanDataset:
    CONTEXT = "First part here. The answer is inside. Last sentence."

    def test_middle_sentence_positive(self):
        rec = {"context": self.CONTEXT, "question": "Q?",
               "answer_text": "answer", "answer_start": self.CONTEXT.index("answer")}
        result = convert_span_dataset([rec])
        assert [c.label for c in result.groups[0].candidates] == [0, 1, 0]

    def test_answer_at_offset_zero(self):
        rec = {"context": self.CONTEXT, "question": "Q?",
               "answer_text": "First", "answer_start": 0}
        result = convert_span_dataset([rec])
        assert result.groups[0].candidates[0].label == 1

    def test_cross_boundary_answer_dropped(self):
        start = self.CONTEXT.index("here")
        rec = {"context": self.CONTEXT, "question": "Q?",
               "answer_text": "here. The answer", "answer_start": start}
        result = convert_span_dataset([rec])
        assert result.groups == [] and result.dropped == 1

    def test_out_of_range_offset_rejected(self):
        rec = {"context": self.CONTEXT, "question": "Q?",
               "answer_text": "x", "answer_start": 10_000}
        with pytest.raises(ValidationError):
            convert_span_dataset([rec])

    def test_error_names_the_record_by_position_after_a_drop(self):
        # the first record is dropped, so two groups are kept before the bad
        # one, the fourth record; the kept groups still take qids 0 and 1
        ok = {"context": self.CONTEXT, "question": "Q?", "answer_text": "First",
              "answer_start": 0}
        crossing = dict(ok, answer_text="here. The answer",
                        answer_start=self.CONTEXT.index("here"))
        result = convert_span_dataset([crossing, ok, ok])
        assert [g.qid for g in result.groups] == [0, 1] and result.dropped == 1
        with pytest.raises(ValidationError, match="^record 4: answer_start 10000 "):
            convert_span_dataset([crossing, ok, ok, dict(ok, answer_start=10_000)])


def many_groups(n_questions=100, translations=("KJV", "WEB")):
    groups = []
    for qid in range(n_questions):
        for t in translations:
            groups.append(QuestionGroup(
                qid=qid, translation=t, question=f"question {qid}",
                candidates=[Candidate(text=f"cand {i}", label=int(i == 0))
                            for i in range(3)]))
    return groups


class TestSplitDataset:
    def test_63_7_30(self):
        train, val, test = split_dataset(many_groups(100), seed=0)
        assert len({g.qid for g in train}) == 63
        assert len({g.qid for g in val}) == 7
        assert len({g.qid for g in test}) == 30

    def test_same_seed_same_membership(self):
        g = many_groups(40)
        s1 = split_dataset(g, seed=5)
        s2 = split_dataset(g, seed=5)
        for p1, p2 in zip(s1, s2):
            assert [x.qid for x in p1] == [x.qid for x in p2]

    def test_question_id_never_crosses_partitions(self):
        train, val, test = split_dataset(many_groups(50), seed=1)
        ids = [{g.qid for g in part} for part in (train, val, test)]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])
        assert ids[0] | ids[1] | ids[2] == set(range(50))

    def test_too_few_questions(self):
        with pytest.raises(ValidationError):
            split_dataset(many_groups(9), seed=0)


class TestJsonRoundTrip:
    def test_group_round_trips(self):
        g = many_groups(1)[0]
        again = group_from_json(group_to_json(g))
        assert again.qid == g.qid
        assert again.question_tokens == g.question_tokens
        assert [(c.text, c.label) for c in again.candidates] == \
               [(c.text, c.label) for c in g.candidates]


class TestGoldIndex:
    def test_one_positive_is_the_gold(self):
        group = QuestionGroup(qid=3, translation="KJV", question="q",
                              candidates=[Candidate("a", 0), Candidate("b", 1)])
        assert group.gold_index() == 1

    @pytest.mark.parametrize("labels", [[0, 0, 0], [1, 0, 1]])
    def test_anything_but_one_positive_raises_with_the_qid(self, labels):
        group = QuestionGroup(qid=7, translation="KJV", question="q",
                              candidates=[Candidate(f"c{k}", y) for k, y in enumerate(labels)])
        with pytest.raises(ValidationError,
                           match=f"group 7: expected exactly one positive, got {sum(labels)}"):
            group.gold_index()


class TestDerivedTokens:
    def test_tokens_are_no_fields(self):
        assert [f.name for f in dataclasses.fields(Candidate)] == \
            ["text", "label", "book", "chapter", "verse"]
        assert [f.name for f in dataclasses.fields(QuestionGroup)] == \
            ["qid", "translation", "question", "candidates"]
        assert not hasattr(Candidate, "__post_init__")
        assert not hasattr(QuestionGroup, "__post_init__")

    def test_read_groups_tokens_equal_tokenize(self, tmp_path):
        path = tmp_path / "groups.jsonl"
        write_groups(path, [QuestionGroup(qid=0, translation="KJV", question="Who's there?",
                                          candidates=[Candidate("It's Peter.", 1),
                                                      Candidate("'Tis John!", 0)])])
        (group,) = read_groups(path)
        assert group.question_tokens == tokenize(group.question) == ["who's", "there"]
        assert [c.tokens for c in group.candidates] == [["it's", "peter"], ["tis", "john"]]

    def test_replaced_group_reads_its_own_question(self):
        group = many_groups(1)[0]
        assert group.question_tokens == ["question", "0"]  # cached on the original
        fewer = dataclasses.replace(group, candidates=group.candidates[:1])
        assert fewer.question_tokens == ["question", "0"]
        asked = dataclasses.replace(group, question="Who wept?")
        assert asked.question_tokens == ["who", "wept"]


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                     max_leaves=8)
_GROUP_LIKE = st.fixed_dictionaries(
    {"qid": _JSON, "translation": _JSON, "question": _JSON,
     "candidates": _JSON | st.lists(_JSON | st.fixed_dictionaries(
         {"text": _JSON, "label": _JSON | st.sampled_from([0, 1])}), max_size=3)})


@settings(max_examples=200, deadline=None)
@given(value=_JSON | _GROUP_LIKE)
def test_group_from_json_raises_only_parse_error(value):
    try:
        group = group_from_json(json.dumps(value))
    except ParseError:
        return
    assert isinstance(group, QuestionGroup) and group.candidates


# Fields that are sometimes valid, so fuzzed lines also reach the checks
# past the field count: numbering, duplicates, gaps and references.
_FIELD = (st.sampled_from(["KJV", "WEB", "Matthew", "", " 1", "0", "1", "2", "3", "-1",
                           "1.5", "9" * 30])
          | st.integers(-2, 4).map(str) | st.text(max_size=6))
_TSV_LINE = st.lists(_FIELD, max_size=6).map("\t".join) | st.text(max_size=20)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_TSV_LINE, max_size=6))
def test_parse_bible_raises_only_parse_error(lines):
    try:
        corpus = parse_bible(lines)
    except ParseError:
        return
    assert isinstance(corpus, BibleCorpus)


_TRIVIA_JSON = st.fixed_dictionaries(
    {k: _JSON | _FIELD for k in ("question", "answer", "book")}
    | {k: _JSON | st.integers(-2, 4) for k in ("chapter", "verse")}).map(json.dumps)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_TSV_LINE | _TRIVIA_JSON | _JSON.map(json.dumps), max_size=4),
       with_corpus=st.booleans())
def test_parse_trivia_raises_only_typed_errors(lines, with_corpus):
    corpus = tiny_corpus(n_verses=3, translations=("KJV",)) if with_corpus else None
    try:
        questions = parse_trivia(lines, corpus)
    except ParseError:
        return
    except ValidationError:
        assert with_corpus
        return
    for q in questions:
        assert all(isinstance(x, str) for x in (q.question, q.answer, q.book))
        assert type(q.chapter) is int and type(q.verse) is int
