import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import directional_check, grad_check, total, whole
from verseqa import models
from verseqa.models import LstmCell, build_model, init_params, readout
from verseqa.tensor import GraphError, ParameterSet, ShapeError, Tensor, logistic


def square(x: np.ndarray):
    """x * x entrywise as a stage: its output and its backward."""
    return x * x, lambda g: [2.0 * x * g]


class TestUnaryOps:
    def test_sigmoid_at_zero(self):
        assert logistic(np.zeros((1, 1)))[0, 0] == 0.5
        p, _ = readout([[whole(np.array([[3.0]]))]], Tensor([[0.0]]), Tensor([[0.0]]))
        assert p[0, 0] == 0.5

    def test_sigmoid_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(logistic(np.array([[-800.0, 800.0]])), [[0.0, 1.0]])
            w = Tensor([[1.0], [0.0]])
            p, backward = readout([[whole(np.array([[-800.0, 800.0]]))]], w, Tensor([[0.0]]))
            (d_x,) = backward(np.ones((1, 1)))
        assert p[0, 0] == 0.0
        np.testing.assert_array_equal(d_x, [[0.0, 0.0]])
        np.testing.assert_array_equal(w.grad, [[0.0], [0.0]])

    def test_empty_tensor_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))


class TestNoBroadcasting:
    """The readout is where the models multiply and add; like every stage
    it broadcasts nothing."""

    def test_float_operand_is_shape_error(self):
        x, w, b = np.array([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([[0.0]])
        with pytest.raises(ShapeError):
            readout([[whole(x)]], w, b, keep=2.0)
        with pytest.raises(ShapeError):
            readout([[whole(x)]], w, Tensor(0.0))

    def test_size_one_operand_is_shape_error(self):
        x, w, b = np.array([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([[0.0]])
        with pytest.raises(ShapeError, match=r"\(1, 1\)"):
            readout([[whole(x)]], w, b, keep=np.ones((1, 1)))
        with pytest.raises(ShapeError, match=r"\(1, 1\)"):
            readout([[whole(x)]], Tensor([[1.0]]), b)


class TestBackward:
    def test_square(self):
        x = Tensor([[3.0]])
        total(square(x.data), ParameterSet(), inputs=[x]).backward()
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_sigmoid_chain(self):
        w = Tensor([[0.0]])
        _, backward = readout([[whole(np.array([[1.0]]))]], w, Tensor([[0.0]]))
        backward(np.ones((1, 1)))
        np.testing.assert_allclose(w.grad, [[0.25]])

    def test_grad_of_loss_wrt_itself_is_one(self):
        seen = []
        Tensor([[2.0]], seen.append).backward()
        np.testing.assert_array_equal(seen, [[[1.0]]])

    def test_node_shared_twice_sums_both_paths(self):
        # an array that two blocks of the readout read takes the sum of both
        # blocks' gradients, as if each had read a copy of its own
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3))
        w, b = Tensor(rng.normal(size=(6, 1))), Tensor([[0.3]])
        (d_x,) = readout([[whole(x)], [whole(x)]], w, b)[1](np.ones((1, 1)))
        d_1, d_2 = readout([[whole(x)], [whole(x.copy())]], w, b)[1](np.ones((1, 1)))
        np.testing.assert_array_equal(d_x, d_1 + d_2)
        params = ParameterSet({"x": Tensor(rng.normal(size=(2, 3))),
                               "w": Tensor(rng.normal(size=(6, 1))), "b": Tensor([[0.3]])})

        def f(p):
            x = p["x"].data
            return total(readout([[whole(x)], [whole(x)]], p["w"], p["b"]), p, inputs=[p["x"]])

        assert grad_check(f, params) < 1e-6

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(GraphError):
            Tensor([1.0, 2.0]).backward()

    def test_backward_runs_once_and_drops_each_closure(self):
        calls = []
        y = Tensor([[9.0]], calls.append)
        y.backward()
        assert y._backward is None and len(calls) == 1
        with pytest.raises(GraphError, match="already ran"):
            y.backward()
        with pytest.raises(GraphError, match="already ran"):
            y.backward_from(np.ones((1, 1)))
        assert len(calls) == 1

    def test_grad_is_made_when_its_first_consumer_runs(self, monkeypatch):
        # a model's backward clears every parameter's grad, stale ones from
        # an earlier backward included, and a grad is made, as zeros, when
        # the first stage that adds into it runs: none exists yet when the
        # readout, the last stage, starts
        model = build_model("rnn", seed=0, d_in=2, d_h=2)
        for _, t in model.params.items():
            t.grad = np.full(t.data.shape, 7.0)
        seen = []

        def spied(*args):
            p, backward = readout(*args)

            def spy(g):
                seen.append([t.grad for _, t in model.params.items()])
                return backward(g)

            return p, spy

        monkeypatch.setattr(models, "readout", spied)
        model.forward(np.ones((1, 2)), np.ones((2, 2))).backward()
        assert seen == [[None] * len(seen[0])]
        assert all(t.grad is not None and not (t.grad == 7.0).all()
                   for _, t in model.params.items())

    def test_random_chain_matches_finite_differences(self):
        # x -> [x; x^2] -> LSTM -> readout of the last state twice -> -p^2,
        # chained by hand as a model's score chains its stages
        rng = np.random.default_rng(7)
        params = ParameterSet({
            "x": Tensor(rng.normal(size=(3, 3))),
            "w": Tensor(rng.normal(size=(4, 1))),
            "b": Tensor(rng.normal(size=(1, 1))),
        })
        cell = LstmCell(init_params(params, LstmCell.shapes("cell", 3, 2), rng), "cell")

        def f(p):
            x = p["x"].data
            (h,), lstm_back = cell.encode_states([whole(np.concatenate([x, x * x]))],
                                                 input_grads=True)
            prob, out_back = readout([[h], [h]], p["w"], p["b"])

            def backward(g):
                for _, t in p.items():
                    t.grad = None
                (d_h,) = out_back(-2.0 * prob * g)
                (d_xx,) = lstm_back(d_h)
                p["x"].add_grad(d_xx[:len(x)] + 2.0 * x * d_xx[len(x):])

            return Tensor(-prob * prob, backward)

        assert grad_check(f, params) < 1e-6


class TestGradCheck:
    def test_quadratic_bowl_nearly_exact(self):
        params = ParameterSet({"w": Tensor([[1.0, -2.0], [0.5, 3.0]])})

        def f(p):
            return total(square(p["w"].data), p, inputs=[p["w"]])

        assert grad_check(f, params) < 1e-9
        assert directional_check(f, params) < 1e-9

    def test_non_scalar_f_rejected(self):
        params = ParameterSet({"w": Tensor([1.0, 2.0])})
        with pytest.raises(GraphError):
            grad_check(lambda p: Tensor(*square(p["w"].data)), params)
        with pytest.raises(GraphError):
            directional_check(lambda p: Tensor(*square(p["w"].data)), params)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8),
       seed=st.integers(0, 10_000))
@example(rows=7, cols=6, seed=1500)  # an unshifted x[-1, 0] of 3e-5
def test_ops_match_finite_differences_on_random_shapes(rows, cols, seed):
    # inputs of magnitude 0.1 to 1.1 and weights scaled to the width keep the
    # logistic away from saturation, and each weight's gradient (a multiple of
    # x or x^2) away from zero, where gradients vanish into rounding noise
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(rows, cols))
    params = ParameterSet({"x": Tensor(x + 0.1 * np.sign(x)),
                           "w": Tensor(rng.normal(size=(3 * cols, 1)) / np.sqrt(3 * cols)),
                           "b": Tensor(rng.normal(size=(1, 1)))})
    keep = (rng.random((1, 3 * cols)) < 0.5) / 0.5

    def f(p):
        x = p["x"].data
        sq = x * x
        joined = np.concatenate([x, sq])  # last row comes from the second part
        p_1, back_1 = readout([[whole(x)], [whole(joined)], [whole(sq)]], p["w"], p["b"], keep)
        p_2, back_2 = readout([[whole(joined)], [whole(x)], [whole(x)]], p["w"], p["b"])

        def backward(g):
            for _, t in p.items():
                t.grad = None
            d_x, d_joined, d_sq = back_1(g)
            d_joined_2, d_x_2 = back_2(0.5 * g)  # in order of first use: joined, x
            d_joined = d_joined + d_joined_2
            p["x"].add_grad(d_x + d_x_2 + d_joined[:rows] + 2.0 * x * (d_joined[rows:] + d_sq))

        return Tensor(p_1 + 0.5 * p_2, backward)

    assert grad_check(f, params) < 1e-4


def test_forward_bitwise_deterministic():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(8, 1))
    cell = LstmCell(init_params(ParameterSet(), LstmCell.shapes("cell", 4, 4), rng), "cell")

    def run():
        (h,), _ = cell.encode_states([whole(np.concatenate([a, a * a]))])
        return readout([[h], [whole(a * a)]], Tensor(b), Tensor([[0.1]]))[0][0, 0]

    assert run() == run()


class TestParameterSet:
    def test_load_values_copies(self):
        ps = ParameterSet({"w": Tensor([[1.0, 2.0]]), "b": Tensor([[0.0]])})
        values = {"w": np.array([[3.0, 4.0]]), "b": np.array([[5]], dtype=np.int64)}
        ps.load_values(values)
        values["w"][0, 0] = -1.0
        values["b"][0, 0] = -1
        np.testing.assert_array_equal(ps["w"].data, [[3.0, 4.0]])
        assert ps["b"].data.dtype == np.float64 and ps["b"].data[0, 0] == 5.0
        own = {name: t.data for name, t in ps.items()}
        ps.load_values(own)  # its own arrays: still copies
        assert not any(np.shares_memory(own[name], t.data) for name, t in ps.items())

    def test_lexicographic_iteration(self):
        ps = ParameterSet({"b": Tensor([1.0]), "a": Tensor([2.0]), "c": Tensor([3.0])})
        assert [n for n, _ in ps.items()] == ["a", "b", "c"]

    def test_rejects_bad_names(self):
        ps = ParameterSet()
        with pytest.raises(ValueError):
            ps.add("", Tensor([1.0]))
        with pytest.raises(ValueError):
            ps.add("ключ", Tensor([1.0]))
        ps.add("x", Tensor([1.0]))
        with pytest.raises(ValueError):
            ps.add("x", Tensor([2.0]))
