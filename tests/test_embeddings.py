import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_sigmoid_saturates_without_overflow_warning(self):
        # train_cbow scores its negative samples with tensor.logistic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = logistic(np.array([-800.0, 0.0, 800.0]))
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])


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
