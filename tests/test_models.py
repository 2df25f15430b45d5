import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseqa.embeddings import EmbeddingMatrix, Vocabulary, embed_sequence
from verseqa.models import (BidafModel, CnnPairModel, LstmCell, RnnPairModel,
                            bidaf_attention, build_model, init_params, param_shapes,
                            readout)
from conftest import (bidaf_reference, directional_check, gather, grad_check,
                      lstm_bptt_reference, lstm_reference, make_separable_groups,
                      pool_reference, stack, total, whole)
from verseqa import training
from verseqa.tensor import ParameterSet, ShapeError, Tensor, logistic
from verseqa.training import (TrainConfig, _batch_gradients, bce_loss, load_checkpoint,
                              model_from_checkpoint, save_checkpoint)


def encode(cell, *xs):
    """The states of each of the tensors ``xs``, from one ``encode_states``
    call, as arrays."""
    return [node.data[rows] for node, rows in cell.encode_states([whole(x) for x in xs])]


def pool(model, x):
    """cnn's pooled vector [1, n_filters] of the tensor ``x``, as an array."""
    ((node, rows),) = model._pool([whole(x)])
    return node.data[rows]


def attend(q, a, w):
    """The attention node of one pair of encodings, whose rows are the
    pair's combined rows."""
    return bidaf_attention([whole(q)], [0], [whole(a)], w)[0][0]


def zero_cell(d_in, d_h):
    cell = LstmCell(init_params(ParameterSet(), LstmCell.shapes("cell", d_in, d_h),
                                np.random.default_rng(0)), "cell")
    for w in cell.W.values():
        w.data[:] = 0.0
    return cell


class TestLstmStep:
    """The recurrence step, seen through ``encode_states``."""

    def test_zero_fixed_point(self):
        cell = zero_cell(3, 2)
        cell.b["f"].data[:] = 0.0  # remove the forget-bias-1 init
        (h,) = encode(cell, Tensor([[5.0, -1.0, 2.0], [-3.0, 0.5, 1.0]]))
        np.testing.assert_array_equal(h, np.zeros((2, 2)))

    def test_hand_computed_carry(self):
        # all weights and gate biases zero: every gate is 0.5; the candidate
        # bias makes the candidate 2/3, so c_1 = 1/3 and c_2 = c_1/2 + 1/3
        cell = zero_cell(1, 1)
        cell.b["f"].data[:] = 0.0
        cell.b["c"].data[:] = np.arctanh(2.0 / 3.0)
        (h,) = encode(cell, Tensor([[0.7], [-0.4]]))
        assert h[0, 0] == pytest.approx(0.5 * np.tanh(1.0 / 3.0))
        assert h[1, 0] == pytest.approx(0.5 * np.tanh(0.5))
        assert h[1, 0] == pytest.approx(0.23106, abs=1e-4)

    def test_forget_bias_initialized_to_one(self):
        cell = zero_cell(2, 3)
        np.testing.assert_array_equal(cell.b["f"].data, np.ones((1, 3)))

    def test_shape_mismatch(self):
        cell = zero_cell(3, 2)
        with pytest.raises(ShapeError):
            encode(cell, Tensor([[1.0, 2.0]]))

    def test_step_gradient(self):
        rng = np.random.default_rng(0)
        params = ParameterSet()
        cell = LstmCell(init_params(params, LstmCell.shapes("cell", 3, 2), rng), "cell")
        x = Tensor(rng.normal(size=(2, 3)))
        assert grad_check(lambda p: total(gather(cell.encode_states([whole(x)]))), params) < 1e-6


class TestEncodeLstm:
    def _cell(self, seed=1):
        return LstmCell(init_params(ParameterSet(), LstmCell.shapes("cell", 3, 2),
                                    np.random.default_rng(seed)), "cell")

    def test_length_one_equals_single_step(self):
        cell = self._cell()
        x = np.array([[0.3, -0.2, 0.9]])
        np.testing.assert_array_equal(encode(cell, Tensor(x))[0], lstm_reference(cell, x))

    def test_trailing_zero_rows_encoded(self):
        # every row is a token: trailing all-zero rows still step the cell
        cell = self._cell()
        rng = np.random.default_rng(2)
        seq = rng.normal(size=(3, 3))
        padded = np.vstack([seq, np.zeros((4, 3))])
        assert not np.array_equal(encode(cell, Tensor(seq))[0][-1],
                                  encode(cell, Tensor(padded))[0][-1])
        assert encode(cell, Tensor(padded))[0].shape == (7, 2)

    def test_order_sensitivity(self):
        cell = self._cell()
        rng = np.random.default_rng(3)
        seq = rng.normal(size=(4, 3))
        fwd = encode(cell, Tensor(seq))[0][-1]
        rev = encode(cell, Tensor(seq[::-1].copy()))[0][-1]
        assert not np.allclose(fwd, rev)

    def test_all_pad_gives_zero_vector(self):
        cell = self._cell()
        (out,) = encode(cell, Tensor(np.zeros((3, 3))))
        np.testing.assert_array_equal(out[-1], np.zeros(2))


def _random_pair(rng, d_in, tq=3, ta=4, pad=0):
    q = np.zeros((tq + pad, d_in))
    a = np.zeros((ta + pad, d_in))
    q[:tq] = rng.normal(size=(tq, d_in))
    a[:ta] = rng.normal(size=(ta, d_in))
    return Tensor(q), Tensor(a)


ALL_MODELS = [
    lambda seed=0: RnnPairModel(4, d_h=3, seed=seed),
    lambda seed=0: CnnPairModel(4, n_filters=3, window=2, dropout=0.0, seed=seed),
    lambda seed=0: BidafModel(4, d_h=3, seed=seed),
]


@pytest.mark.parametrize("factory", ALL_MODELS)
class TestSharedModelContracts:
    def test_zero_params_give_half(self, factory):
        model = factory()
        model.params.load_values({n: np.zeros_like(t.data) for n, t in model.params.items()})
        q, a = _random_pair(np.random.default_rng(0), 4)
        assert model.forward(q, a).item() == 0.5

    def test_output_strictly_inside_unit_interval(self, factory):
        model = factory(seed=3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            q, a = _random_pair(rng, 4)
            p = model.forward(q, a).item()
            assert 0.0 < p < 1.0

    @pytest.mark.parametrize("side", ["question", "candidate"])
    def test_input_width_unlike_d_in_is_shape_error(self, factory, side):
        model = factory()
        q, a = _random_pair(np.random.default_rng(0), 4)
        wide = Tensor(np.ones((3, 6)))
        with pytest.raises(ShapeError, match=r"expected input shape \(rows, 4\)"):
            model.forward(*((wide, a) if side == "question" else (q, wide)))

    def test_full_model_gradient(self, factory):
        # near-zero-gradient coordinates make the relative error noisy;
        # this seed pair keeps a two-decades margin for all three models
        model = factory(seed=4)
        q, a = _random_pair(np.random.default_rng(1), 4)
        err = grad_check(lambda p: model.forward(q, a), model.params)
        assert err < 1e-4

    def test_deterministic_forward(self, factory):
        model = factory(seed=6)
        q, a = _random_pair(np.random.default_rng(4), 4)
        assert model.forward(q, a).item() == model.forward(q, a).item()


@pytest.mark.parametrize("factory", [ALL_MODELS[0], ALL_MODELS[2]],
                         ids=["rnn", "bidaf"])
def test_trailing_zero_vector_token_is_encoded(factory):
    # "nil" is a real token whose vector is all zero; it must not be mistaken
    # for padding and dropped
    vocab = Vocabulary(["q1", "q2", "a1", "a2", "nil"])
    table = np.random.default_rng(0).normal(size=(len(vocab), 4))
    table[0] = 0.0
    table[vocab.index("nil")] = 0.0
    emb = EmbeddingMatrix(vocab=vocab, dim=4, table=table)
    model = factory(seed=4)
    q = embed_sequence(["q1", "q2"], emb, max_len=6)
    short = embed_sequence(["a1", "a2"], emb, max_len=6)
    longer = embed_sequence(["a1", "a2", "nil"], emb, max_len=6)
    assert longer.shape == (3, 4)
    assert model.forward(q, short).item() != model.forward(q, longer).item()


class TestCnnSpecifics:
    def test_pooled_value_position_invariant(self):
        model = CnnPairModel(2, n_filters=2, window=2, dropout=0.0, seed=7)
        ngram = np.array([[1.0, -0.5], [0.8, 0.2]])
        base = np.zeros((8, 2)) + 0.01
        early, late = base.copy(), base.copy()
        early[2:4] = ngram
        late[5:7] = ngram
        pe = pool(model, Tensor(early))
        pl = pool(model, Tensor(late))
        np.testing.assert_allclose(np.maximum(pe, pl).max(axis=1),
                                   pe.max(axis=1))
        # the strongest window dominates the pool wherever it sits
        strongest = pool(model, Tensor(np.vstack([ngram, base[:1]])))
        np.testing.assert_allclose(pe.max(), pl.max())

    def test_sequence_shorter_than_window_padded(self):
        model = CnnPairModel(2, n_filters=2, window=3, dropout=0.0, seed=8)
        out = pool(model, Tensor(np.array([[1.0, 2.0]])))
        assert out.shape == (1, 2)

    def test_inference_repeatable_and_training_mask_seeded(self):
        model = CnnPairModel(3, n_filters=4, window=2, dropout=0.5, seed=9)
        q, a = _random_pair(np.random.default_rng(5), 3)
        assert model.forward(q, a).item() == model.forward(q, a).item()
        p1 = model.forward(q, a, training=True, rng=np.random.default_rng(1)).item()
        p2 = model.forward(q, a, training=True, rng=np.random.default_rng(1)).item()
        assert p1 == p2

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), tq=st.integers(1, 5), ta=st.integers(1, 5))
    def test_training_dropout_masks_drawn_question_first(self, seed, tq, ta):
        # one mask per side from the seeded rng, the question's first
        model = CnnPairModel(3, n_filters=4, window=3, dropout=0.5, seed=9)
        q, a = _random_pair(np.random.default_rng(seed), 3, tq, ta)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        p = model.forward(q, a, training=True, rng=rng).data
        q_mask, a_mask = ((ref_rng.random((1, 4)) < 0.5) / 0.5 for _ in range(2))
        m = np.concatenate([pool_reference(model, q.data) * q_mask,
                            pool_reference(model, a.data) * a_mask], axis=1)
        np.testing.assert_array_equal(p, logistic(m @ model.w_out.data + model.b_out.data))
        assert rng.random() == ref_rng.random()  # no further draws

    def test_training_requires_rng(self):
        model = CnnPairModel(3, n_filters=4, window=2, dropout=0.5, seed=9)
        q, a = _random_pair(np.random.default_rng(5), 3)
        with pytest.raises(ValueError):
            model.forward(q, a, training=True)


class TestSequenceNodesExact:
    """The one-node LSTM and conv-pool layers against plain numpy references
    of the per-step and per-window computations in zero-filled row blocks:
    forward, and the LSTM's backprop through time, bit for bit, and
    gradients, including the one into the input rows, by finite
    differences."""

    @pytest.mark.parametrize("d_in,d_h", [(200, 100), (400, 100), (16, 16), (3, 2), (7, 50)])
    def test_encode_states_bitwise(self, d_in, d_h):
        rng = np.random.default_rng(d_in + d_h)
        cell = LstmCell(init_params(ParameterSet(), LstmCell.shapes("cell", d_in, d_h), rng),
                        "cell")
        for rows in (1, 39, *rng.integers(2, 39, size=4)):
            seq = rng.normal(size=(rows, d_in))
            np.testing.assert_array_equal(encode(cell, Tensor(seq))[0], lstm_reference(cell, seq))

    @pytest.mark.parametrize("d_in,d_h", [(3, 2), (7, 50), (16, 16), (200, 100), (400, 100)])
    def test_encode_states_backward_bitwise(self, d_in, d_h):
        # the weight, bias and input gradients of ragged batches against the
        # BPTT written out over the same row layout and blocked products; in
        # the mixed batches every second sequence, the first included, is a
        # constant (as embedded inputs are), which takes no gradient and
        # leaves the others' bits alone; [1] is then all constants
        rng = np.random.default_rng(d_in * d_h)
        cell = LstmCell(init_params(ParameterSet(), LstmCell.shapes("cell", d_in, d_h), rng),
                        "cell")
        # the last batch lays out 280 rows, more than one weight-gradient chunk
        for lens in ([1], [5, 1, 9, 9, 2], [3, 8, 1, 6, 4, 7, 2, 5, 5], [4, 4, 4, 4],
                     [70, 3, 66, 70]):
            for mixed in (False, True):
                seqs = [Tensor(rng.normal(size=(n, d_in)),
                               requires_grad=not (mixed and k % 2 == 0))
                        for k, n in enumerate(lens)]
                grads = [rng.normal(size=(n, d_h)) for n in lens]
                total(gather(cell.encode_states([whole(s) for s in seqs])),
                      np.concatenate(grads)).backward()
                d_w, d_b, d_x = lstm_bptt_reference(cell, [s.data for s in seqs], grads)
                for gate in cell.GATES:
                    np.testing.assert_array_equal(cell.W[gate].grad, d_w[gate])
                    np.testing.assert_array_equal(cell.b[gate].grad, d_b[gate])
                for seq, want in zip(seqs, d_x):
                    if seq.requires_grad:
                        np.testing.assert_array_equal(seq.grad, want)
                    else:
                        assert seq.grad is None

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 11])
    def test_pool_bitwise(self, rows):
        model = CnnPairModel(5, n_filters=4, window=3, dropout=0.0, seed=rows)
        seq = np.random.default_rng(rows).normal(size=(rows, 5))
        np.testing.assert_array_equal(pool(model, Tensor(seq)), pool_reference(model, seq))

    def test_all_negative_preactivations_pool_to_zero(self):
        model = CnnPairModel(5, n_filters=4, window=2, dropout=0.0, seed=1)
        model.b_conv.data[:] = -100.0
        seq = Tensor(np.random.default_rng(2).normal(size=(6, 5)))
        out = gather(model._pool([whole(seq)]))
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))
        np.testing.assert_array_equal(out.data, pool_reference(model, seq.data))
        total(out).backward()
        assert not seq.grad.any() and not model.w_conv.grad.any()

    def test_tied_maxima_send_gradient_to_first_window(self):
        model = CnnPairModel(3, n_filters=4, window=2, dropout=0.0, seed=3)
        model.b_conv.data[:] = 1.0  # every filter positive on every window
        seq = Tensor(np.tile(np.random.default_rng(4).normal(size=(1, 3)), (5, 1)))
        out = gather(model._pool([whole(seq)]))
        np.testing.assert_array_equal(out.data, pool_reference(model, seq.data))
        total(out).backward()
        assert seq.grad[:2].all() and not seq.grad[2:].any()

    def test_lstm_gradient_with_input(self):
        rng = np.random.default_rng(5)
        params = ParameterSet()
        cell = LstmCell(init_params(params, LstmCell.shapes("cell", 4, 3), rng), "cell")
        params.add("x", Tensor(rng.normal(size=(6, 4))))
        weights = rng.normal(size=(6, 3))
        assert grad_check(lambda p: total(gather(cell.encode_states([whole(p["x"])])), weights),
                          params) < 1e-6

    def test_pool_gradient_with_input(self):
        rng = np.random.default_rng(6)
        model = CnnPairModel(4, n_filters=3, window=2, dropout=0.0, seed=6)
        params = ParameterSet(dict(model.params.items()))
        params.add("x", Tensor(rng.normal(size=(7, 4))))
        weights = rng.normal(size=(1, 3))
        assert grad_check(lambda p: total(gather(model._pool([whole(p["x"])])), weights),
                          params) < 1e-6
        # a batch in which every second sequence is a constant (as embedded
        # inputs are): the constants take no gradient, and the other
        # sequences' and the weights' gradients are an all-ordinary batch's,
        # bit for bit
        xs = [rng.normal(size=(n, 4)) for n in (3, 1, 5, 2, 7)]
        weights = rng.normal(size=(len(xs), 3))

        def backward(constant):
            seqs = [Tensor(x, requires_grad=not constant(k)) for k, x in enumerate(xs)]
            total(gather(model._pool([whole(s) for s in seqs])), weights).backward()
            return [s.grad for s in seqs], [model.w_conv.grad, model.b_conv.grad]

        want, want_w = backward(lambda k: False)
        got, got_w = backward(lambda k: k % 2 == 0)
        for k, (g, w) in enumerate(zip(got, want)):
            if k % 2 == 0:
                assert g is None
            else:
                np.testing.assert_array_equal(g, w)
        for g, w in zip(got_w, want_w):
            np.testing.assert_array_equal(g, w)


class TestBidafAttention:
    """The one-node attention against ``bidaf_reference``, the composed graph
    spelled out in numpy: forward bit for bit, gradients by finite
    differences."""

    def _inputs(self, t_q=5, t_a=3, d_h=4, seed=0):
        """Encodings are LSTM hidden states, inside (-1, 1)."""
        rng = np.random.default_rng(seed)
        return (Tensor(rng.uniform(-1.0, 1.0, size=(t_q, d_h))),
                Tensor(rng.uniform(-1.0, 1.0, size=(t_a, d_h))),
                Tensor(rng.normal(size=(3 * d_h, 1))))

    def test_shapes(self):
        q, a, w = self._inputs()
        combined = attend(q, a, w)
        assert combined.shape == (3, 16)
        assert combined._parents == (q, a, w)

    @pytest.mark.parametrize("d_h", [1, 2, 4, 7, 100])
    def test_combined_bitwise(self, d_h):
        rng = np.random.default_rng(d_h)
        for t_q, t_a in ((1, 1), (1, 6), (5, 1), *rng.integers(2, 30, size=(4, 2))):
            q, a, w = self._inputs(t_q, t_a, d_h, seed=int(t_q * 31 + t_a))
            np.testing.assert_array_equal(attend(q, a, w).data,
                                          bidaf_reference(q.data, a.data, w.data))

    def test_attention_rows_sum_to_one(self):
        # every question row the same vector v: each attention row averages
        # copies of v, so the att_q block is v exactly when its weights sum to 1
        q, a, w = self._inputs()
        v = q.data[:1]
        q = Tensor(np.repeat(v, 5, axis=0))
        att_q = attend(q, a, w).data[:, 4:8]
        np.testing.assert_allclose(att_q, np.repeat(v, 3, axis=0), atol=1e-12)

    def test_zero_similarity_weights_average_question(self):
        q, a, _ = self._inputs()
        w = Tensor(np.zeros((12, 1)))
        att_q = attend(q, a, w).data[:, 4:8]
        mean_q = q.data.mean(axis=0)
        for j in range(3):
            np.testing.assert_allclose(att_q[j], mean_q, atol=1e-12)

    def test_dim_mismatch(self):
        q, a, w = self._inputs()
        with pytest.raises(ShapeError):
            attend(q, Tensor(np.ones((3, 5))), w)
        with pytest.raises(ShapeError):
            attend(q, a, Tensor(np.ones((8, 1))))

    @pytest.mark.parametrize("t_q,t_a", [(5, 3), (1, 4), (4, 1), (1, 1)])
    def test_gradient(self, t_q, t_a):
        # S reaches both softmaxes only up to a shift by a_j . w1 per row and
        # by q_k . w2 per column: with one row (t_a = 1) w1 has no effect, with
        # one column (t_q = 1) w2 has none, with both w3 has none either. Such a
        # block's gradient is rounding noise that finite differences cannot
        # check, so it is held fixed and checked to be ~0.
        q, a, w = self._inputs(t_q, t_a, d_h=3, seed=t_q + 10 * t_a)
        blocks = {f"w{k + 1}": Tensor(w.data[3 * k:3 * k + 3]) for k in range(3)}
        live = {"w1": t_a > 1, "w2": t_q > 1, "w3": t_a > 1 or t_q > 1}
        params = ParameterSet({"q": q, "a": a,
                               **{n: t for n, t in blocks.items() if live[n]}})

        def f(p):
            return total(attend(p["q"], p["a"], stack(blocks.values())))

        assert grad_check(f, params) < 1e-6
        for n, t in blocks.items():
            assert live[n] or np.abs(t.grad).max() < 1e-12

    def test_tied_row_max_sends_gradient_to_first_column(self):
        # q rows 0 and 1 equal: every row of S ties at columns 0 and 1, and
        # column 2 is lower; a and w are positive, so raising (lowering) every
        # entry of q row 0 makes column 0 (1) win every row
        q, a, w = self._inputs(t_q=3, t_a=2, d_h=2)
        a.data[:] = np.abs(a.data)
        w.data[:] = np.abs(w.data)
        q.data[1] = q.data[0]
        q.data[2] = q.data[0] - 1.0
        weights = np.random.default_rng(1).normal(size=(2, 8))

        def q_grad(shift):
            q_s = Tensor(q.data.copy())
            q_s.data[0] += shift
            total(attend(q_s, a, w), weights).backward()
            return q_s.grad

        at_tie = q_grad(0.0)
        np.testing.assert_allclose(at_tie, q_grad(1e-9), rtol=1e-6)
        assert not np.allclose(at_tie, q_grad(-1e-9), rtol=1e-3)
        # a and w move both tied columns alike: finite differences stay smooth
        params = ParameterSet({"a": a, "w": w})
        assert grad_check(lambda p: total(attend(q, p["a"], p["w"]), weights),
                          params) < 1e-6


def readout_reference(blocks, w, b, masks=None):
    """The head the models composed from generic ops before the readout
    node: each block's last row as a fresh copy, masked block by block,
    joined, times ``w`` plus ``b``, through the logistic."""
    last = [f[len(f) - 1:len(f)].copy() for f in blocks]
    if masks is not None:
        last = [row * m for row, m in zip(last, masks)]
    return logistic(np.concatenate(last, axis=1) @ w + b)


BLOCK_ROWS = [(1,), (4,), (1, 1), (3, 5)]


class TestReadout:
    """The one-node logistic readout against ``readout_reference``: forward
    bit for bit, gradients by finite differences."""

    @pytest.mark.parametrize("masked", [False, True], ids=["plain", "masked"])
    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_bitwise(self, rows, masked):
        rng = np.random.default_rng(sum(rows) + 10 * masked)
        for width in (1, 3, 100):
            blocks = [rng.normal(size=(n, width)) for n in rows]
            w, b = rng.normal(size=(width * len(rows), 1)), rng.normal(size=(1, 1))
            masks = [(rng.random((1, width)) < 0.5) / 0.5 for _ in rows] if masked else None
            keep = np.concatenate(masks, axis=1) if masked else None
            out = readout([[whole(Tensor(f))] for f in blocks], Tensor(w), Tensor(b), keep)
            np.testing.assert_array_equal(out.data, readout_reference(blocks, w, b, masks))

    @pytest.mark.parametrize("masked", [False, True], ids=["plain", "masked"])
    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_gradient(self, rows, masked):
        rng = np.random.default_rng(sum(rows) + 10 * masked)
        params = ParameterSet({f"f{k}": Tensor(rng.uniform(-1.0, 1.0, size=(n, 3)))
                               for k, n in enumerate(rows)})
        params.add("w", Tensor(rng.normal(size=(3 * len(rows), 1))))
        params.add("b", Tensor(rng.normal(size=(1, 1))))
        keep = (rng.random((1, 3 * len(rows))) < 0.5) / 0.5 if masked else None

        def f(p):
            return readout([[whole(p[f"f{k}"])] for k in range(len(rows))], p["w"], p["b"], keep)

        assert grad_check(f, params) < 1e-6
        for seed in range(3):
            assert directional_check(f, params, seed=seed) < 1e-6

    def test_batch_equals_pairs_alone_and_shared_rows_sum_gradients(self):
        # pairs 0 and 2 share q, and pair 1 reads a twice: a last row read by
        # two pairs, or by two blocks, takes the sum of their gradients
        rng = np.random.default_rng(5)
        params = ParameterSet({"q": Tensor(rng.uniform(-1.0, 1.0, size=(3, 2))),
                               "a": Tensor(rng.uniform(-1.0, 1.0, size=(4, 2))),
                               "w": Tensor(rng.normal(size=(4, 1))),
                               "b": Tensor(rng.normal(size=(1, 1)))})
        keep = (rng.random((3, 4)) < 0.5) / 0.5

        def pairs(p):
            q, a = whole(p["q"]), whole(p["a"])
            return [q, a, q], [a, (p["a"], np.arange(2)), (p["q"], np.arange(1))]

        def f(p):
            probs = readout(pairs(p), p["w"], p["b"], keep)
            return total(probs, np.array([[1.0], [-0.5], [2.0]]))

        probs = readout(pairs(params), params["w"], params["b"], keep)
        for k, (first, second) in enumerate(zip(*pairs(params))):
            alone = readout([[first], [second]], params["w"], params["b"], keep[k:k + 1])
            np.testing.assert_array_equal(probs.data[k], alone.data[0])
        assert grad_check(f, params) < 1e-6

    def test_gradient_reaches_only_last_rows(self):
        rng = np.random.default_rng(4)
        blocks = [Tensor(rng.normal(size=(n, 2))) for n in (3, 1, 4)]
        w, b = Tensor(rng.normal(size=(6, 1))), Tensor([[0.0]])
        out = readout([[whole(f)] for f in blocks], w, b)
        assert out._parents == (*blocks, w, b)
        out.backward()
        for f in blocks:
            assert not f.grad[:-1].any() and f.grad[-1].all()


# every model at the smallest sizes and lengths: one-row questions and
# candidates, cnn sequences shorter than its window of 3, one hidden unit
# and one filter
EDGE_MODELS = {
    "rnn-d_h1": lambda: RnnPairModel(4, d_h=1, seed=2),
    "rnn": lambda: RnnPairModel(4, d_h=3, seed=2),
    "cnn-filters1": lambda: CnnPairModel(4, n_filters=1, window=3, dropout=0.0, seed=2),
    "cnn": lambda: CnnPairModel(4, n_filters=3, window=3, dropout=0.0, seed=2),
    "cnn-dropout": lambda: CnnPairModel(4, n_filters=3, window=3, dropout=0.5, seed=2),
    "bidaf-d_h1": lambda: BidafModel(4, d_h=1, seed=2),
    "bidaf": lambda: BidafModel(4, d_h=3, seed=2),
}


@pytest.mark.parametrize("t_q,t_a", [(1, 1), (1, 4), (4, 1), (2, 2), (5, 6)])
@pytest.mark.parametrize("name", sorted(EDGE_MODELS))
def test_forward_directional_gradient_at_edge_shapes(name, t_q, t_a):
    model = EDGE_MODELS[name]()
    rng = np.random.default_rng(t_q + 10 * t_a)
    params = ParameterSet(dict(model.params.items()))
    params.add("q", Tensor(rng.normal(size=(t_q, 4))))
    params.add("a", Tensor(rng.normal(size=(t_a, 4))))

    def f(p):  # a fresh rng per call: every call draws the same dropout masks
        return model.forward(p["q"], p["a"], training=True, rng=np.random.default_rng(3))

    for seed in range(3):
        assert directional_check(f, params, seed=seed) < 1e-4


class TestBidafModel:
    def test_maxpool_readout_rejected(self):
        with pytest.raises(ValueError, match="maxpool"):
            BidafModel(4, d_h=3, seed=10, readout="maxpool")
        assert BidafModel(4, d_h=3, seed=10).config()["readout"] == "final"

    def test_alpha_dimension_enforced(self):
        model = BidafModel(4, d_h=3, seed=0)
        assert model.w_alpha.shape == (9, 1)


@settings(max_examples=40, deadline=None)
@given(which=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1),
       tq=st.integers(1, 6), ta=st.lists(st.integers(1, 6), min_size=1, max_size=6))
def test_forward_is_score_of_encoded_question(which, seed, tq, ta):
    # one question encoding serves every candidate of one score call, bit for
    # bit; lengths start at 1 row, below cnn's window of 2
    model = ALL_MODELS[which](seed=1)
    rng = np.random.default_rng(seed)
    q = Tensor(rng.normal(size=(tq, 4)))
    a_embs = [Tensor(rng.normal(size=(rows, 4))) for rows in ta]
    scores = model.score([q], [0] * len(ta), a_embs)
    assert scores.shape == (len(ta), 1)
    for p, a in zip(scores.data, a_embs):
        np.testing.assert_array_equal(p, model.forward(q, a).data[0])


# (d_in, d_h) from the smallest to past paper size; cnn takes d_h filters
SIZES = [(3, 2), (4, 1), (7, 5), (16, 16), (50, 20), (200, 100), (400, 100)]


def _batch_and_subset(data):
    """A batch of 1 to 11 sequence lengths from 1 to 9, and a random subset of
    its positions in random order."""
    lens = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=11), label="lens")
    subset = data.draw(st.permutations(range(len(lens))), label="order")
    return lens, subset[:data.draw(st.integers(1, len(lens)), label="size")]


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from(SIZES), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_encode_states_batch_invariant(size, seed, data):
    # a sequence's states alone equal, bit for bit, its states inside the
    # whole batch and inside any subset of it in any order
    d_in, d_h = size
    rng = np.random.default_rng(seed)
    cell = LstmCell(init_params(ParameterSet(), LstmCell.shapes("cell", d_in, d_h), rng), "cell")
    lens, subset = _batch_and_subset(data)
    seqs = [Tensor(rng.normal(size=(n, d_in))) for n in lens]
    alone = [encode(cell, s)[0] for s in seqs]
    for h, want in zip(encode(cell, *seqs), alone):
        np.testing.assert_array_equal(h, want)
    for k, h in zip(subset, encode(cell, *[seqs[k] for k in subset])):
        np.testing.assert_array_equal(h, alone[k])


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from(SIZES), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_encode_states_backward_batch_invariant(size, seed, data):
    # a sequence's input-row gradient alone equals, bit for bit, its gradient
    # inside the whole batch and inside any subset of it in any order; a
    # batch's weight gradient is the sum of its sequences' alone, up to
    # rounding
    d_in, d_h = size
    rng = np.random.default_rng(seed)
    params = ParameterSet()
    cell = LstmCell(init_params(params, LstmCell.shapes("cell", d_in, d_h), rng), "cell")
    lens, subset = _batch_and_subset(data)
    seqs = [rng.normal(size=(n, d_in)) for n in lens]
    grads = [rng.normal(size=(n, d_h)) for n in lens]

    def backward(ks):
        xs = [Tensor(seqs[k]) for k in ks]
        total(gather(cell.encode_states([whole(x) for x in xs])),
              np.concatenate([grads[k] for k in ks])).backward()
        return [x.grad for x in xs], {name: p.grad.copy() for name, p in params.items()}

    alone = [backward([k]) for k in range(len(lens))]
    for ks in (range(len(lens)), subset):
        d_xs, d_params = backward(ks)
        for k, d_x in zip(ks, d_xs):
            np.testing.assert_array_equal(d_x, alone[k][0][0])
        # one norm over all weights: a single bias entry's sum can cancel
        # to far below its terms, and its relative rounding grows as it does
        want = {name: sum(alone[k][1][name] for k in ks) for name in d_params}
        err = sum(np.sum((d_params[name] - w) ** 2) for name, w in want.items())
        assert np.sqrt(err) <= 1e-12 * np.sqrt(sum(np.sum(w * w) for w in want.values()))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["rnn", "cnn", "bidaf"]), size=st.sampled_from(SIZES),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_pair_score_batch_invariant(kind, size, seed, data):
    # a pair's score alone (forward) equals, bit for bit, its score inside a
    # batch of pairs and inside any subset of that batch in any order
    d_in, d_h = size
    config = dict(n_filters=d_h, window=3) if kind == "cnn" else dict(d_h=d_h)
    model = build_model(kind, seed=seed % 1000, d_in=d_in, **config)
    rng = np.random.default_rng(seed)
    lens, subset = _batch_and_subset(data)
    qs = [Tensor(rng.normal(size=(int(rng.integers(1, 7)), d_in))) for _ in lens]
    a_embs = [Tensor(rng.normal(size=(n, d_in))) for n in lens]
    alone = [model.forward(q, a).item() for q, a in zip(qs, a_embs)]
    assert model.score(qs, range(len(qs)), a_embs).data[:, 0].tolist() == alone
    batch = model.score([qs[k] for k in subset], range(len(subset)),
                        [a_embs[k] for k in subset])
    assert batch.data[:, 0].tolist() == [alone[k] for k in subset]


# scores of seed-7 models (d_in=50, hidden or filters 20) on five pairs, as the
# former implementation computed them with one product per row: weights saved
# before the row blocks still score within rounding of their old scores
ROW_BY_ROW_SCORES = {
    "rnn": ["0x1.c96c360aec76dp-2", "0x1.351f15ee51084p-1", "0x1.fb995c47812b4p-2",
            "0x1.e96998d39b300p-2", "0x1.cfeafcfed9583p-2"],
    "cnn": ["0x1.9f1012f17b79cp-3", "0x1.704d97722505ep-2", "0x1.ab07b30125102p-1",
            "0x1.4b9e5909f6fd0p-4", "0x1.39a9ac5a8efcdp-1"],
    "bidaf": ["0x1.dd319477166e8p-2", "0x1.f9473b02f7accp-2", "0x1.f937a7519dd61p-2",
              "0x1.c6198b83bd650p-2", "0x1.16eeefe39f4f4p-1"],
}


@pytest.mark.parametrize("kind", sorted(ROW_BY_ROW_SCORES))
def test_scores_within_rounding_of_row_by_row_products(kind):
    rng = np.random.default_rng(0)
    pairs = [(Tensor(rng.normal(size=(t_q, 50))), Tensor(rng.normal(size=(t_a, 50))))
             for t_q, t_a in [(1, 1), (3, 7), (6, 2), (2, 9), (5, 5)]]
    config = dict(n_filters=20, window=3) if kind == "cnn" else dict(d_h=20)
    blob = save_checkpoint(build_model(kind, seed=7, d_in=50, **config))
    model = model_from_checkpoint(load_checkpoint(blob))
    scores = model.score([q for q, _ in pairs], range(len(pairs)), [a for _, a in pairs])
    for p, old in zip(scores.data[:, 0], ROW_BY_ROW_SCORES[kind]):
        assert p == pytest.approx(float.fromhex(old), rel=1e-13)


@pytest.mark.parametrize("call", [
    *(lambda qs, which, a_embs, factory=factory: factory().score(qs, which, a_embs)
      for factory in ALL_MODELS),
    lambda qs, which, a_embs: bidaf_attention([whole(q) for q in qs], which,
                                              [whole(a) for a in a_embs],
                                              Tensor(np.ones((12, 1))))],
    ids=["rnn", "cnn", "bidaf", "bidaf_attention"])
def test_score_rejects_bad_question_indices(call):
    # two questions, two candidates: fewer indices than candidates, an index
    # equal to the number of questions, and a negative index
    rng = np.random.default_rng(0)
    pairs = [_random_pair(rng, 4) for _ in range(2)]
    qs, a_embs = [q for q, _ in pairs], [a for _, a in pairs]
    for which in ([0], [0, 2], [0, -1]):
        with pytest.raises(ShapeError, match="question indices"):
            call(qs, which, a_embs)


# a minibatch mixing question and candidate lengths of 1, 2 and more than
# ROW_BLOCK rows, with labels of both kinds
BATCH_LENGTHS = [(1, 6), (2, 1), (6, 2), (1, 1), (5, 7), (2, 2)]
# the same candidates over the first 4 questions, questions 0 and 1 read twice:
# two pairs' gradients meet in one question's rows (rnn: its last LSTM state;
# cnn: its pooled row; bidaf: its encoding, through two attention pairs)
SHARED_QUESTIONS = [0, 0, 1, 2, 1, 3]


def _minibatch_loss(model, which=None, rng_seed=3):
    """The loss ``train`` builds for one minibatch, over the model's
    parameters and every input row; pair k is scored against question
    ``which[k]``, by default its own."""
    which = range(len(BATCH_LENGTHS)) if which is None else which
    n_q = max(which) + 1
    rng = np.random.default_rng(11)
    params = ParameterSet(dict(model.params.items()))
    for k, (t_q, t_a) in enumerate(BATCH_LENGTHS):
        if k < n_q:
            params.add(f"q{k}", Tensor(rng.normal(size=(t_q, 4))))
        params.add(f"a{k}", Tensor(rng.normal(size=(t_a, 4))))
    labels = [k % 2 for k in range(len(BATCH_LENGTHS))]

    def f(p):  # a fresh rng per call: every call draws the same dropout masks
        probs = model.score([p[f"q{j}"] for j in range(n_q)], which,
                            [p[f"a{k}"] for k in range(len(BATCH_LENGTHS))], training=True,
                            rng=np.random.default_rng(rng_seed))
        return bce_loss(probs, labels)

    return f, params


def _with_shared_questions(cases: dict) -> dict:
    """Each case with its own questions, then each with ``SHARED_QUESTIONS``."""
    return {**{name: (case, None) for name, case in cases.items()},
            **{f"{name}-shared": (case, SHARED_QUESTIONS) for name, case in cases.items()}}


MINIBATCH_EDGE_CASES = _with_shared_questions(dict(sorted(EDGE_MODELS.items())))
MINIBATCH_CASES = _with_shared_questions(
    dict(zip(["rnn", "cnn", "bidaf", "cnn-dropout"], ALL_MODELS + [EDGE_MODELS["cnn-dropout"]])))


@pytest.mark.parametrize("factory,which", list(MINIBATCH_EDGE_CASES.values()),
                         ids=list(MINIBATCH_EDGE_CASES))
def test_minibatch_directional_gradient(factory, which):
    f, params = _minibatch_loss(factory(), which)
    for seed in range(3):
        assert directional_check(f, params, seed=seed) < 1e-4


@pytest.mark.parametrize("factory,which", list(MINIBATCH_CASES.values()),
                         ids=list(MINIBATCH_CASES))
def test_minibatch_gradient(factory, which):
    f, params = _minibatch_loss(factory(), which)
    assert grad_check(f, params) < 1e-4


def _inner_nodes(root: Tensor) -> int:
    """The nodes with parents reachable from ``root``, itself included."""
    seen, todo = {id(root): root}, [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                todo.append(parent)
    return sum(1 for node in seen.values() if node._parents)


@pytest.mark.parametrize("kind,nodes", [("rnn", 4), ("cnn", 3), ("bidaf", 6)])
def test_minibatch_graph_has_one_node_per_stage(kind, nodes, monkeypatch, tiny_embedding):
    # rnn: two LSTM passes; cnn: one conv-pool; bidaf: two encoder passes,
    # the attention and the modeling pass; then the readout and the loss,
    # whatever the batch size
    roots = []
    backward = Tensor.backward
    monkeypatch.setattr(Tensor, "backward", lambda self: (roots.append(self), backward(self)))
    config = dict(n_filters=5, window=3) if kind == "cnn" else dict(d_h=5)
    model = build_model(kind, seed=0, d_in=16, **config)
    pairs = [(g.question_tokens, c.tokens, float(c.label))
             for g in make_separable_groups(11, seed=0) for c in g.candidates]
    for size in (1, 5, 32):
        _batch_gradients(model, pairs[:size], tiny_embedding, TrainConfig(),
                         np.random.default_rng(0))
        assert _inner_nodes(roots[-1]) == nodes, size


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["rnn", "cnn", "bidaf"]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_batch_gradients_of_constant_inputs_equal_ordinary_inputs(kind, seed, data,
                                                                  tiny_embedding):
    # embed_sequence's tensors are constants: a minibatch built from them
    # leaves every one with no grad, and gives every parameter the gradient,
    # bit for bit, and the loss that the same batch of ordinary input tensors
    # gives; questions and candidates are empty, short and truncated, and
    # each distinct question is embedded once
    config = dict(n_filters=5, window=3) if kind == "cnn" else dict(d_h=5)
    model = build_model(kind, seed=seed % 1000, d_in=16, **config)
    words = st.lists(st.sampled_from(tiny_embedding.vocab.tokens()), max_size=10)
    batch = data.draw(st.lists(st.tuples(words, words, st.sampled_from([0.0, 1.0])),
                               min_size=1, max_size=8), label="batch")
    cfg = TrainConfig(max_question_tokens=8, max_answer_tokens=8)
    constants, ordinary = [], []

    def as_constant(tokens, m, max_len):
        constants.append(embed_sequence(tokens, m, max_len))
        return constants[-1]

    def as_ordinary(tokens, m, max_len):
        ordinary.append(Tensor(embed_sequence(tokens, m, max_len).data))
        return ordinary[-1]

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for embed in (as_constant, as_ordinary):
            mp.setattr(training, "embed_sequence", embed)
            loss, grads = _batch_gradients(model, batch, tiny_embedding, cfg,
                                           np.random.default_rng(seed))
            runs.append((loss, {name: g.copy() for name, g in grads.items()}))
    assert len(constants) == len(ordinary) == len(batch) + len({tuple(q) for q, _, _ in batch})
    assert all(t.grad is None for t in constants)
    assert all(t.grad is not None for t in ordinary)
    assert runs[0][0] == runs[1][0]
    for name, want in runs[1][1].items():
        np.testing.assert_array_equal(runs[0][1][name], want, err_msg=name)


class TestBuildModel:
    def test_kinds(self):
        assert build_model("rnn", d_in=4, d_h=2).kind == "rnn"
        assert build_model("cnn", d_in=4, n_filters=2, window=2).kind == "cnn"
        assert build_model("bidaf", d_in=4, d_h=2).kind == "bidaf"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_model("transformer", d_in=4)

    @pytest.mark.parametrize("kind,config", [
        ("rnn", dict(d_in=4, d_h=3)), ("rnn", dict(d_in=4)),
        ("cnn", dict(d_in=4, n_filters=2, window=2, dropout=0.0)), ("cnn", dict(d_in=4)),
        ("bidaf", dict(d_in=4, d_h=3)), ("bidaf", dict(d_in=4, readout="final")),
    ])
    def test_param_shapes_match_built_model(self, kind, config):
        built = {name: t.data.shape for name, t in build_model(kind, **config).params.items()}
        assert param_shapes(kind, **config) == built

    @pytest.mark.parametrize("config", [dict(d_in=4, d_h="3"), dict(d_in=4.0),
                                        dict(d_in=4, d_x=3)])
    def test_param_shapes_reject_bad_config(self, config):
        with pytest.raises(TypeError):
            param_shapes("rnn", **config)

    def test_same_seed_same_init(self):
        m1 = build_model("rnn", d_in=4, d_h=3, seed=42)
        m2 = build_model("rnn", d_in=4, d_h=3, seed=42)
        for (n1, t1), (n2, t2) in zip(m1.params.items(), m2.params.items()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)
