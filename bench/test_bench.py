"""Tests of the benchmark's own parts: the corpus generator, the rank
recomputation, the tracer's self-time arithmetic and the speed sampler.

    PYTHONPATH=src python -m pytest bench -q
"""

import statistics

import pytest

import corpus as corpus_module
from corpus import TRANSLATIONS, generate
from speed import SpeedSampler, reference_kernel
from tracing import Tracer, layer_metrics
from verseqa import data, embeddings
from workloads import expected_rank

N_CHAPTERS = 30


def _generate(seed):
    return generate(seed, vocab_size=2000, n_chapters=N_CHAPTERS)


@pytest.fixture(scope="module")
def corpus():
    return _generate(3)


@pytest.fixture(scope="module")
def bible(corpus):
    return data.parse_bible(corpus.bible_lines)


def test_same_seed_gives_identical_bytes(corpus):
    again = _generate(3)
    for field in ("bible_lines", "trivia_lines", "vector_lines"):
        assert "\n".join(getattr(again, field)).encode() == \
            "\n".join(getattr(corpus, field)).encode()
    assert _generate(4).bible_lines != corpus.bible_lines


@pytest.mark.parametrize("mode", ["window-3", "window-10", "chapter"])
def test_every_group_has_exactly_one_positive(corpus, bible, mode):
    questions = data.parse_trivia(corpus.trivia_lines, bible)
    groups = data.build_bibleqa(bible, questions, data.DatasetSpec(context_mode=mode))
    assert len(groups) == N_CHAPTERS * len(TRANSLATIONS)
    assert all(sum(c.label for c in g.candidates) == 1 for g in groups)


def test_length_statistics_hit_targets(corpus, bible):
    verse_lens = [len(data.tokenize(line.split("\t")[4])) for line in corpus.bible_lines]
    chapter_lens = [len(verses) for books in bible.chapters.values()
                    for chapters in books.values() for verses in chapters.values()]
    question_lens = [len(data.tokenize(line.split("\t")[0])) for line in corpus.trivia_lines]
    assert abs(statistics.fmean(verse_lens) - corpus_module.VERSE_TOKENS) < 2.5
    assert statistics.pstdev(verse_lens) > 5
    assert abs(statistics.fmean(chapter_lens) - corpus_module.CHAPTER_VERSES) < 3.0
    assert statistics.pstdev(chapter_lens) > 4
    assert abs(statistics.fmean(question_lens) - corpus_module.QUESTION_TOKENS) < 1.5


def test_translations_share_most_tokens(bible):
    base, other = bible.chapters["KJV"], bible.chapters["WEB"]
    same = total = 0
    for book, chapters in base.items():
        for ch, verses in chapters.items():
            for a, b in zip(verses, other[book][ch]):
                ta, tb = data.tokenize(a), data.tokenize(b)
                same += sum(x == y for x, y in zip(ta, tb))
                total += len(ta)
    assert 0.8 < same / total < 0.95


def test_question_and_only_the_gold_verse_share_the_key(corpus, bible):
    for line, key in zip(corpus.trivia_lines, corpus.key_tokens):
        question, _answer, book, chapter, verse = line.split("\t")
        assert key in data.tokenize(question)
        for translation in TRANSLATIONS:
            verses = bible.chapter(translation, book, int(chapter))
            holders = [v for v, text in enumerate(verses, 1) if key in data.tokenize(text)]
            assert holders == [int(verse)]


def test_vectors_load_and_some_tokens_are_unknown(corpus):
    emb = embeddings.load_pretrained(corpus.vector_lines, corpus_module.DIM)
    tokens = [t for line in corpus.bible_lines for t in data.tokenize(line.split("\t")[4])]
    unknown = sum(emb.vocab.index(t) == embeddings.UNK_INDEX for t in tokens)
    assert 0 < unknown / len(tokens) < 0.05
    assert all(t in emb.vocab for t in corpus.key_tokens)


def test_expected_rank_is_stable_descending():
    assert expected_rank([0.2, 0.9, 0.5], 2) == 2
    assert expected_rank([0.5, 0.5, 0.5], 0) == 1   # ties: lowest index first
    assert expected_rank([0.5, 0.5, 0.5], 2) == 3


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [  # [name, layer, start, end, parent, op, error]
        ["op.x", "harness", 0.0, 10.0, -1, 1, False],
        ["cli.main", "cli", 1.0, 9.0, 0, 1, False],
        ["data.parse_bible", "data", 2.0, 5.0, 1, 1, False],
        ["data.read_groups", "data", 6.0, 7.0, 1, 1, True],
    ]
    m = layer_metrics(tr, cycles=2)
    assert m["cli.self_s"] == pytest.approx((8.0 - 4.0) / 2)
    assert m["data.self_s"] == pytest.approx(4.0 / 2)
    assert m["harness.self_s"] == pytest.approx(2.0 / 2)
    assert m["data.parse_bible_s"] == pytest.approx(3.0 / 2)
    assert m["data.errors"] == 1.0


def test_speed_sampler_subtracts_its_own_kernel_runs():
    sampler = SpeedSampler()
    with sampler.measure() as timing:
        for _ in range(400):
            reference_kernel()
    assert len(sampler.samples) >= 3
    assert 0.0 < timing.seconds < 400 * max(sampler.samples)
    assert timing.norm_seconds > 0.0
    with sampler.measure(sample=False) as plain:
        reference_kernel()
    assert plain.norm_seconds == plain.seconds > 0.0
