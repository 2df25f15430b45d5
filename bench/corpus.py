"""Deterministic synthetic Bible and trivia corpus for the benchmark.

No Bible or trivia data ships with the repository, so every benchmark input
is drawn from the workload seed. The corpus is shaped like the real one:

* a Zipfian vocabulary of pseudo-words (Zipf-Mandelbrot, exponent 1);
* verses of about 25 tokens and chapters of about 30 verses, both spread
  out by gamma distributions;
* 4 translations that share most of their tokens: each one re-draws a
  small share of the base translation's tokens;
* one trivia question per chapter whose question shares a planted key
  token (a name never drawn from the Zipf vocabulary) with the gold verse,
  so a trained model can learn the task and a held-out loss measures
  learning rather than noise;
* a few vocabulary types left out of the vector file, so the UNK path runs;
* optionally, random word vectors in the text format
  ``verseqa.embeddings.load_pretrained`` reads. Key tokens share one
  direction, which makes "contains a key token" linearly detectable.

The multisets of lengths (verses per chapter, tokens per verse and per
question) are drawn once from a fixed stream; the seed only permutes them.
Every seed then carries the same amount of text, so run-to-run differences
in throughput come from the program and the machine, not from corpus size.
The same arguments give byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TRANSLATIONS = ("KJV", "ASV", "YLT", "WEB")
_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "ch", "dr", "gl", "sh", "th")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_QUESTION_WORDS = ("who", "what", "where", "which", "whom")
_SHAPE_SEED = 1810  # stream of the length multisets, shared by all seeds


VOCAB_SIZE = 4000         # Zipfian word types
N_CHAPTERS = 40           # one trivia question per chapter
CHAPTERS_PER_BOOK = 10
VERSE_TOKENS = 25.0       # mean verse length
CHAPTER_VERSES = 30.0     # mean chapter length
QUESTION_TOKENS = 10.0    # mean question length
TRANSLATION_DRIFT = 0.12  # share of tokens a translation re-draws
OOV_EVERY = 50            # every n-th type (past the top 20) gets no vector
DIM = 200                 # word-vector dimension


@dataclass
class Corpus:
    bible_lines: list[str]    # translation TAB book TAB chapter TAB verse TAB text
    trivia_lines: list[str]   # question TAB answer TAB book TAB chapter TAB verse
    vector_lines: list[str]   # token v1 .. vd (empty without vectors)
    key_tokens: list[str]


def _words(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct pseudo-words; syllable tables are shuffled by the seed."""
    syllables = [o + v for o in _ONSETS for v in _NUCLEI]
    order = rng.permutation(len(syllables))
    syllables = [syllables[i] for i in order]
    base = len(syllables)
    out = []
    for r in range(n):
        digits = [r % base, (r // base) % base]
        r //= base * base
        while r:
            digits.append(r % base)
            r //= base
        out.append("".join(syllables[d] for d in digits))
    return out


def _lengths(rng: np.random.Generator, n: int, mean: float, shape: float,
             lo: int, hi: int) -> np.ndarray:
    return np.clip(np.rint(rng.gamma(shape, mean / shape, size=n)), lo, hi).astype(int)


def generate(seed: int, vocab_size: int = VOCAB_SIZE, n_chapters: int = N_CHAPTERS,
             with_vectors: bool = True) -> Corpus:
    rng = np.random.default_rng(seed)
    words = _words(rng, vocab_size + n_chapters)
    vocab, keys = words[:vocab_size], words[vocab_size:]
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    cdf = np.cumsum(1.0 / (ranks + 2.7))
    cdf /= cdf[-1]

    def draw(k: int) -> list[str]:
        idx = np.searchsorted(cdf, rng.random(k), side="right")
        return [vocab[i] for i in np.minimum(idx, vocab_size - 1)]

    shape = np.random.default_rng(_SHAPE_SEED)
    n_verses = rng.permutation(
        _lengths(shape, n_chapters, CHAPTER_VERSES, 12.0, 10, 60))
    verse_lens = iter(rng.permutation(
        _lengths(shape, int(n_verses.sum()), VERSE_TOKENS, 6.0, 4, 60)).tolist())
    q_lens = rng.permutation(
        _lengths(shape, n_chapters, QUESTION_TOKENS, 16.0, 5, 20))
    base: list[list[list[str]]] = []   # chapter -> verse -> tokens
    golds = []
    for c in range(n_chapters):
        verses = [draw(next(verse_lens)) for _ in range(int(n_verses[c]))]
        gold = int(rng.integers(len(verses)))
        pos = int(rng.integers(len(verses[gold])))
        verses[gold][pos] = keys[c]
        base.append(verses)
        golds.append(gold)

    bible = []
    for t, translation in enumerate(TRANSLATIONS):
        for c, verses in enumerate(base):
            book = f"Book{c // CHAPTERS_PER_BOOK + 1}"
            chapter = c % CHAPTERS_PER_BOOK + 1
            for v, toks in enumerate(verses, start=1):
                if t:
                    swap = rng.random(len(toks)) < TRANSLATION_DRIFT
                    fresh = iter(draw(int(swap.sum())))
                    toks = [next(fresh) if s and tok != keys[c] else tok
                            for tok, s in zip(toks, swap)]
                text = " ".join(toks)
                bible.append(f"{translation}\t{book}\t{chapter}\t{v}\t"
                             f"{text[0].upper()}{text[1:]}.")

    trivia = []
    for c, verses in enumerate(base):
        gold_toks = verses[golds[c]]
        shared = [gold_toks[i] for i in rng.integers(len(gold_toks), size=2)]
        filler = draw(int(q_lens[c]) - 4)
        wh = _QUESTION_WORDS[int(rng.integers(len(_QUESTION_WORDS)))]
        body = filler[:len(filler) // 2] + [keys[c]] + shared + filler[len(filler) // 2:]
        question = f"{wh.capitalize()} {' '.join(body)}?"
        book = f"Book{c // CHAPTERS_PER_BOOK + 1}"
        trivia.append(f"{question}\t{keys[c]}\t{book}\t"
                      f"{c % CHAPTERS_PER_BOOK + 1}\t{golds[c] + 1}")

    vectors = []
    if with_vectors:
        skip = set(vocab[20::OOV_EVERY])
        known = [w for w in vocab if w not in skip]
        table = 0.5 * rng.standard_normal((len(known) + len(keys), DIM))
        direction = rng.standard_normal(DIM)
        direction /= np.linalg.norm(direction)
        table[len(known):] = 1.5 * direction + 0.3 * table[len(known):]
        for word, row in zip(known + keys, table.round(5).tolist()):
            vectors.append(word + " " + " ".join(map(repr, row)))
    return Corpus(bible_lines=bible, trivia_lines=trivia, vector_lines=vectors,
                  key_tokens=keys)
