import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cbow_reference, load_pretrained_reference
from verseqa.embeddings import (CbowConfig, EmbeddingError, EmbeddingMatrix,
                                PAD_INDEX, UNK_INDEX, Vocabulary,
                                concat_embeddings, cosine, embed_sequence,
                                load_pretrained, nearest_neighbors,
                                save_embedding, train_cbow)
from verseqa.tensor import logistic


class TestLoadPretrained:
    def test_direct_parse(self):
        m = load_pretrained(["cat 0.1 0.2", "dog 0.3 0.4"], expected_dim=2)
        np.testing.assert_allclose(m.table[m.vocab.index("cat")], [0.1, 0.2])
        np.testing.assert_allclose(m.table[UNK_INDEX], [0.2, 0.3])  # mean row
        np.testing.assert_array_equal(m.table[PAD_INDEX], [0.0, 0.0])

    def test_overflowing_unk_mean_is_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingError, match="UNK"):
                load_pretrained(["a 1e308", "b 1e308"], 1)
            m = load_pretrained(["a 1e308", "b -1e308"], 1)
        assert m.table[UNK_INDEX, 0] == 0.0

    def test_empty_stream(self):
        m = load_pretrained([], expected_dim=3)
        assert len(m.vocab) == 2
        assert m.table.shape == (2, 3)

    def test_wrong_component_count(self):
        with pytest.raises(EmbeddingError, match="line 2"):
            load_pretrained(["a 1 2", "b 1 2 3"], expected_dim=2)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_component_names_line(self, bad):
        with pytest.raises(EmbeddingError, match="line 3"):
            load_pretrained(["a 1 2", "", f"b 1 {bad}"], expected_dim=2)

    def test_duplicate_keeps_first(self, caplog):
        m = load_pretrained(["cat 1 1", "cat 9 9"], expected_dim=2)
        np.testing.assert_array_equal(m.table[m.vocab.index("cat")], [1.0, 1.0])

    def test_round_trip_through_save(self):
        m = load_pretrained(["cat 0.125 -1.5", "dog 2.0 0.25"], expected_dim=2)
        again = load_pretrained(save_embedding(m), expected_dim=2)
        np.testing.assert_array_equal(again.table, m.table)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_below_one(self, dim):
        with pytest.raises(EmbeddingError, match="dimension"):
            load_pretrained([], expected_dim=dim)


def _per_component_lines(m: EmbeddingMatrix) -> list[str]:
    return [m.vocab.token(i) + " " + " ".join(repr(float(v)) for v in m.table[i])
            for i in range(2, len(m.vocab))]


def _rows_matrix(rows: list[list[float]]) -> EmbeddingMatrix:
    dim = len(rows[0])
    table = np.vstack([np.zeros((2, dim)), np.array(rows, dtype=np.float64)])
    return EmbeddingMatrix(vocab=Vocabulary(f"w{i}" for i in range(len(rows))),
                           dim=dim, table=table)


def test_save_embedding_renders_each_component_repr():
    m = _rows_matrix([[-0.0, 5e-324, 1e-300], [1e308, 0.1, 1 / 3], [-1e308, -5e-324, 2.0]])
    assert list(save_embedding(m)) == _per_component_lines(m)
    assert list(save_embedding(m))[0] == "w0 -0.0 5e-324 1e-300"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda dim: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim),
    min_size=1, max_size=4)))
def test_save_embedding_matches_per_component_repr(rows):
    m = _rows_matrix(rows)
    assert list(save_embedding(m)) == _per_component_lines(m)


_VECTOR_LINE = (st.lists(st.text(max_size=4) | st.floats(width=32).map(repr)
                         | st.integers(-5, 5).map(str), max_size=4).map(" ".join)
                | st.text(max_size=12))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_VECTOR_LINE, max_size=5), dim=st.integers(-2, 3))
def test_load_pretrained_raises_only_embedding_error(lines, dim):
    try:
        m = load_pretrained(lines, expected_dim=dim)
    except EmbeddingError:
        return
    assert m.table.shape == (len(m.vocab), dim)


# vector-file components: mostly finite, plus the values each check catches
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-9, 9).map(str)
_COMPONENT = _FINITE | _FINITE | st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "-1e308", "1.7976931348623157e308", "x", "", "1,5"])
_HUGE = st.sampled_from(["1e308", "-1e308", "1.7976931348623157e308", "0.5"])


@st.composite
def _vector_file(draw):
    """A dimension and lines of a vector file of that dimension: tokens from
    a small set, so some repeat; some lines empty or one component short or
    long; some components not numbers, non-finite, or large enough that the
    mean of two overflows."""
    dim = draw(st.integers(1, 4))
    component = draw(st.sampled_from([_COMPONENT, _HUGE]))
    line = st.builds(
        lambda tok, comps, end: " ".join([tok] + comps) + end,
        st.sampled_from(["a", "b", "c", "<unk>", ""]),
        st.lists(component, min_size=dim, max_size=dim)
        | st.lists(component, min_size=dim - 1, max_size=dim + 1),
        st.sampled_from(["", "\n"]))
    return dim, draw(st.lists(line | st.sampled_from(["", "\n", " "]), max_size=8))


def _outcome(load, lines, dim):
    try:
        m = load(lines, dim)
    except EmbeddingError as exc:
        return type(exc), str(exc)
    return m.vocab.tokens(), m.table.shape, m.table.tobytes()


@settings(max_examples=300, deadline=None)
@given(_vector_file())
def test_load_pretrained_matches_row_at_a_time_reference(case):
    # same vocabulary and table bytes, or the same error and message
    dim, lines = case
    assert _outcome(load_pretrained, iter(lines), dim) == \
        _outcome(load_pretrained_reference, lines, dim)


def test_vector_round_trip_holds_about_one_table():
    # streaming: the lines are never all held, and the rows are parsed into
    # one buffer that becomes the table; the row-at-a-time parse of a list
    # of lines peaked near 6 tables
    rng = np.random.default_rng(0)
    m = EmbeddingMatrix(vocab=Vocabulary(f"w{i}" for i in range(5000)), dim=200,
                        table=np.vstack([np.zeros((2, 200)), rng.normal(size=(5000, 200))]))
    tracemalloc.start()
    try:
        loaded = load_pretrained(save_embedding(m), 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.vocab.tokens() == m.vocab.tokens()
    np.testing.assert_array_equal(loaded.table[2:], m.table[2:])
    assert peak <= 1.5 * m.table.nbytes, (peak, m.table.nbytes)


def _two_cluster_corpus(n_sentences=300, seed=0):
    # tokens co-occur only within their own cluster
    rng = np.random.default_rng(seed)
    a = [f"a{i}" for i in range(8)]
    b = [f"b{i}" for i in range(8)]
    corpus = []
    for s in range(n_sentences):
        cluster = a if s % 2 == 0 else b
        corpus.append([cluster[i] for i in rng.integers(8, size=6)])
    return corpus, a, b


class TestTrainCbow:
    def test_loss_decreases(self):
        corpus, _, _ = _two_cluster_corpus()
        history = []
        train_cbow(corpus, CbowConfig(window=2, dim=10, epochs=4, seed=3),
                   loss_history=history)
        assert history[-1] < history[0]

    def test_two_clusters_separate(self):
        corpus, a, b = _two_cluster_corpus()
        m = train_cbow(corpus, CbowConfig(window=2, dim=10, epochs=8, seed=3))
        within, across = [], []
        for i, u in enumerate(a):
            for v in a[i + 1:]:
                within.append(cosine(m.table[m.vocab.index(u)], m.table[m.vocab.index(v)]))
            for v in b:
                across.append(cosine(m.table[m.vocab.index(u)], m.table[m.vocab.index(v)]))
        assert np.mean(within) - np.mean(across) >= 0.2

    def test_deterministic_per_seed(self):
        corpus, _, _ = _two_cluster_corpus()
        cfg = CbowConfig(window=2, dim=6, epochs=2, seed=11)
        m1 = train_cbow(corpus, cfg)
        m2 = train_cbow(corpus, cfg)
        np.testing.assert_array_equal(m1.table, m2.table)

    def test_pad_row_stays_zero(self):
        corpus, _, _ = _two_cluster_corpus()
        m = train_cbow(corpus, CbowConfig(window=2, dim=6, epochs=2, seed=0))
        np.testing.assert_array_equal(m.table[PAD_INDEX], np.zeros(6))

    def test_insufficient_corpus(self):
        with pytest.raises(EmbeddingError):
            train_cbow([["one", "two"]], CbowConfig(window=5, dim=4))

    def test_corpus_without_any_context_is_error(self):
        # enough tokens, but every sentence is one token long
        corpus = [["a"], ["b"], [], ["a"], ["c"]]
        with pytest.raises(EmbeddingError, match="context"):
            train_cbow(corpus, CbowConfig(window=2, dim=4))

    @pytest.mark.parametrize("field,value", [
        ("epochs", 0), ("epochs", -1), ("learning_rate", 0.0), ("learning_rate", -0.1),
        ("learning_rate", float("nan")), ("learning_rate", float("inf"))])
    def test_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            CbowConfig(**{field: value})

    def test_sigmoid_saturates_without_overflow_warning(self):
        # train_cbow scores its negative samples with tensor.logistic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = logistic(np.array([-800.0, 0.0, 800.0]))
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])


@st.composite
def _cbow_corpus(draw):
    """Sentences of 0 to 30 tokens, one-token sentences included, drawn from
    up to 2,000 types: half the tokens uniformly, so the vocabulary grows
    with the corpus, and half from a Zipf head, so tokens repeat within a
    sentence and a window."""
    n_types = draw(st.integers(1, 2000))
    lengths = draw(st.lists(st.integers(0, 30), min_size=1, max_size=50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(lengths)
    ranks = np.where(rng.random(n) < 0.5, np.minimum(rng.zipf(1.3, size=n), n_types),
                     rng.integers(1, n_types + 1, size=n))
    tokens = iter(f"t{r}" for r in ranks)
    return [[next(tokens) for _ in range(k)] for k in lengths]


@settings(max_examples=60, deadline=None)
@given(corpus=_cbow_corpus(), window=st.integers(1, 6), epochs=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
def test_train_cbow_equals_per_token_choice_reference(corpus, window, epochs, seed, dim):
    # one block of negatives per sentence, searched in a CDF built once per
    # call, gives the bits of one rng.choice(nv, p=noise) call per token
    cfg = CbowConfig(window=window, dim=dim, epochs=epochs, seed=seed)
    if sum(map(len, corpus)) < window + 1:
        with pytest.raises(EmbeddingError, match="window"):
            train_cbow(corpus, cfg)
        return
    if all(len(s) < 2 for s in corpus):
        with pytest.raises(EmbeddingError, match="context"):
            train_cbow(corpus, cfg)
        return
    history: list[float] = []
    m = train_cbow(corpus, cfg, loss_history=history)
    table, ref_history = cbow_reference(corpus, cfg)
    assert m.table.tobytes() == table.tobytes()
    assert [h.hex() for h in history] == [h.hex() for h in ref_history]


def test_train_cbow_with_reserved_tokens_equals_reference():
    # a sentence may hold the tokens PAD and UNK map to: they are still
    # never drawn as negatives, and the PAD row still ends at zero
    corpus = [["<pad>", "a", "b", "<unk>", "c", "a"], ["b", "<pad>", "c", "a", "d"]] * 20
    cfg = CbowConfig(window=2, dim=4, epochs=2, seed=0)
    history: list[float] = []
    m = train_cbow(corpus, cfg, loss_history=history)
    table, ref_history = cbow_reference(corpus, cfg)
    assert m.table.tobytes() == table.tobytes()
    assert [h.hex() for h in history] == [h.hex() for h in ref_history]
    np.testing.assert_array_equal(m.table[PAD_INDEX], np.zeros(4))


def _concat_reference(a: EmbeddingMatrix, b: EmbeddingMatrix) -> tuple[list[str], np.ndarray]:
    """concat_embeddings as a per-token loop over the union vocabulary:
    (its tokens, its table)."""
    vocab = Vocabulary()
    for tok in a.vocab.tokens()[2:]:
        vocab.add(tok)
    for tok in b.vocab.tokens()[2:]:
        vocab.add(tok)
    table = np.zeros((len(vocab), a.dim + b.dim))
    for idx in range(1, len(vocab)):  # include UNK, skip PAD
        tok = vocab.token(idx)
        if tok in a.vocab:
            table[idx, :a.dim] = a.table[a.vocab.index(tok)]
        if tok in b.vocab:
            table[idx, a.dim:] = b.table[b.vocab.index(tok)]
    return vocab.tokens(), table


@st.composite
def _embedding_source(draw):
    """Up to 8 of 12 shared token names, in any order, with a table whose
    every row, PAD and UNK included, is nonzero noise."""
    tokens = draw(st.lists(st.sampled_from([f"w{i}" for i in range(12)]),
                           unique=True, max_size=8))
    vocab = Vocabulary(tokens)
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return EmbeddingMatrix(vocab=vocab, dim=dim, table=rng.uniform(0.5, 1.5, (len(vocab), dim)))


@settings(max_examples=100, deadline=None)
@given(a=_embedding_source(), b=_embedding_source())
def test_concat_embeddings_equals_per_token_reference(a, b):
    m = concat_embeddings(a, b)
    tokens, table = _concat_reference(a, b)
    assert m.vocab.tokens() == tokens and m.dim == a.dim + b.dim
    assert m.table.tobytes() == table.tobytes()
    np.testing.assert_array_equal(m.table[PAD_INDEX], np.zeros(m.dim))
    np.testing.assert_array_equal(m.table[UNK_INDEX],
                                  np.concatenate([a.table[UNK_INDEX], b.table[UNK_INDEX]]))
    for tok in tokens[2:]:  # shared, a-only and b-only tokens; a's keep their index
        if tok in a.vocab:
            assert m.vocab.index(tok) == a.vocab.index(tok)
        row = m.table[m.vocab.index(tok)]
        assert (row[:a.dim] != 0.0).all() == (tok in a.vocab)
        assert (row[a.dim:] != 0.0).all() == (tok in b.vocab)


class TestConcatEmbeddings:
    def _matrix(self, entries, dim):
        vocab = Vocabulary(tok for tok, _ in entries)
        table = np.zeros((len(vocab), dim))
        for tok, vec in entries:
            table[vocab.index(tok)] = vec
        return EmbeddingMatrix(vocab=vocab, dim=dim, table=table)

    def test_token_in_both_concatenates(self):
        a = self._matrix([("cat", np.arange(100))], 100)
        b = self._matrix([("cat", np.arange(200) + 1000)], 200)
        m = concat_embeddings(a, b)
        assert m.dim == 300
        row = m.table[m.vocab.index("cat")]
        np.testing.assert_array_equal(row[:100], np.arange(100))
        np.testing.assert_array_equal(row[100:], np.arange(200) + 1000)

    def test_token_only_in_first_zero_fills(self):
        a = self._matrix([("cat", [1.0, 2.0])], 2)
        b = self._matrix([("dog", [5.0, 6.0, 7.0])], 3)
        m = concat_embeddings(a, b)
        np.testing.assert_array_equal(m.table[m.vocab.index("cat")],
                                      [1.0, 2.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(m.table[m.vocab.index("dog")],
                                      [0.0, 0.0, 5.0, 6.0, 7.0])

    def test_disjoint_union_size(self):
        a = self._matrix([(f"a{i}", [float(i)]) for i in range(4)], 1)
        b = self._matrix([(f"b{i}", [float(i)]) for i in range(6)], 1)
        m = concat_embeddings(a, b)
        assert len(m.vocab) == 4 + 6 + 2

    def test_dim_additivity_and_pad(self):
        a = self._matrix([("x", [1.0])], 1)
        b = self._matrix([("x", [2.0, 3.0])], 2)
        m = concat_embeddings(a, b)
        assert m.dim == a.dim + b.dim
        np.testing.assert_array_equal(m.table[PAD_INDEX], np.zeros(3))


class TestEmbedSequence:
    def _matrix(self):
        vocab = Vocabulary(["cat", "dog"])
        table = np.zeros((4, 2))
        table[UNK_INDEX] = [9.0, 9.0]
        table[2] = [1.0, 0.0]
        table[3] = [0.0, 1.0]
        return EmbeddingMatrix(vocab=vocab, dim=2, table=table)

    def test_pad_fill(self):
        # one row per token: a short input is not padded up to max_len
        out = embed_sequence(["cat", "dog"], self._matrix(), max_len=4)
        np.testing.assert_array_equal(out.data, [[1, 0], [0, 1]])

    def test_unknown_token(self):
        out = embed_sequence(["bird"], self._matrix(), max_len=2)
        np.testing.assert_array_equal(out.data[0], [9.0, 9.0])

    def test_truncation(self):
        out = embed_sequence(["cat"] * 10, self._matrix(), max_len=4)
        assert out.shape == (4, 2)
        assert np.all(out.data[:, 0] == 1.0)

    def test_empty_list_is_padding(self):
        out = embed_sequence([], self._matrix(), max_len=3)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))


class TestNearestNeighbors:
    def _matrix(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        table = np.zeros((6, 2))
        table[vocab.index("a")] = [1.0, 0.0]
        table[vocab.index("b")] = [2.0, 0.0]     # same direction as a
        table[vocab.index("c")] = [0.0, 1.0]     # orthogonal to a
        table[vocab.index("d")] = [1.0, 1.0]
        return EmbeddingMatrix(vocab=vocab, dim=2, table=table)

    def test_scaled_vector_ranks_first(self):
        got = nearest_neighbors("a", self._matrix(), k=3)
        assert got[0] == ("b", pytest.approx(1.0))

    def test_orthogonal_is_zero(self):
        got = dict(nearest_neighbors("a", self._matrix(), k=3))
        assert got["c"] == pytest.approx(0.0)

    def test_out_of_vocab(self):
        with pytest.raises(KeyError):
            nearest_neighbors("zzz", self._matrix(), k=2)

    def test_invariant_under_uniform_scaling(self):
        m = self._matrix()
        scaled = EmbeddingMatrix(vocab=m.vocab, dim=m.dim, table=m.table * 7.0)
        assert [t for t, _ in nearest_neighbors("a", m, 3)] == \
               [t for t, _ in nearest_neighbors("a", scaled, 3)]

    def test_cosine_properties(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=5)
        u = rng.normal(size=5)
        assert cosine(v, 3.5 * v) == pytest.approx(1.0)
        assert cosine(u, v) == pytest.approx(cosine(v, u))
