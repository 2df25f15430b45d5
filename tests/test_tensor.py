import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import directional_check, grad_check, stack, total, whole
from verseqa.models import LstmCell, init_params, readout
from verseqa.tensor import GraphError, ParameterSet, ShapeError, Tensor, logistic


def square(x: Tensor) -> Tensor:
    """x * x entrywise, as a one-parent node for the graph-walk tests."""
    out = Tensor(x.data * x.data, (x,))

    def backward(g: np.ndarray) -> None:
        x.grad += 2.0 * x.data * g

    out._backward = backward
    return out


class TestUnaryOps:
    def test_sigmoid_at_zero(self):
        assert logistic(np.zeros((1, 1)))[0, 0] == 0.5
        assert readout([[whole(Tensor([[3.0]]))]], Tensor([[0.0]]), Tensor([[0.0]])).item() == 0.5

    def test_sigmoid_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(logistic(np.array([[-800.0, 800.0]])), [[0.0, 1.0]])
            x = Tensor([[-800.0, 800.0]])
            w = Tensor([[1.0], [0.0]])
            out = readout([[whole(x)]], w, Tensor([[0.0]]))
            out.backward()
        assert out.item() == 0.0
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])
        np.testing.assert_array_equal(w.grad, [[0.0], [0.0]])

    def test_empty_tensor_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))


class TestNoBroadcasting:
    """The readout node is where the models multiply and add; like every
    node it broadcasts nothing."""

    def test_float_operand_is_shape_error(self):
        x, w, b = Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([[0.0]])
        with pytest.raises(ShapeError):
            readout([[whole(x)]], w, b, keep=2.0)
        with pytest.raises(ShapeError):
            readout([[whole(x)]], w, Tensor(0.0))

    def test_size_one_operand_is_shape_error(self):
        x, w, b = Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([[0.0]])
        with pytest.raises(ShapeError, match=r"\(1, 1\)"):
            readout([[whole(x)]], w, b, keep=np.ones((1, 1)))
        with pytest.raises(ShapeError, match=r"\(1, 1\)"):
            readout([[whole(x)]], Tensor([[1.0]]), b)


class TestBackward:
    def test_square(self):
        x = Tensor([[3.0]])
        total(square(x)).backward()
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_sigmoid_chain(self):
        w = Tensor([[0.0]])
        x = Tensor([[1.0]])
        readout([[whole(x)]], w, Tensor([[0.0]])).backward()
        np.testing.assert_allclose(w.grad, [[0.25]])

    def test_grad_of_loss_wrt_itself_is_one(self):
        x = Tensor([[2.0]])
        y = total(square(x))
        y.backward()
        assert y.grad == 1.0

    def test_node_shared_twice_sums_both_paths(self):
        # x reaches the output through both parts of the stack and through
        # the readout: three paths, one walk, each visited once
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3)))
        w = rng.normal(size=(4, 3))
        y = total(stack([x, x]), w)
        y.backward()
        np.testing.assert_array_equal(x.grad, w[:2] + w[2:])
        params = ParameterSet({"x": Tensor(rng.normal(size=(2, 3))),
                               "w": Tensor(rng.normal(size=(6, 1))), "b": Tensor([[0.3]])})

        def f(p):
            return readout([[whole(p["x"])], [whole(stack([p["x"], p["x"]]))]], p["w"], p["b"])

        assert grad_check(f, params) < 1e-6

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(GraphError):
            Tensor([1.0, 2.0]).backward()

    def test_backward_runs_once_and_drops_each_closure(self):
        x = Tensor([[3.0]])
        inner = square(x)
        y = total(inner)
        y.backward()
        assert inner._backward is None and y._backward is None
        np.testing.assert_array_equal(x.grad, [[6.0]])
        with pytest.raises(GraphError, match="already ran"):
            y.backward()
        # a new graph over the spent part cannot reach x either
        with pytest.raises(GraphError, match="already ran"):
            total(inner).backward()
        np.testing.assert_array_equal(x.grad, [[6.0]])

    def test_grad_is_made_when_its_first_consumer_runs(self):
        # a node has no grad of this walk until the closure of its first
        # consumer runs: the readout's input has none while the loss runs
        x = Tensor([[1.0, 2.0]])
        x.grad = np.full((1, 2), 7.0)  # stale, from an earlier walk
        p = readout([[whole(x)]], Tensor([[1.0], [-1.0]]), Tensor([[0.0]]))
        seen = []

        def spy(g: np.ndarray) -> None:
            seen.append((p.grad is None, x.grad.copy()))
            p.grad += g

        out = Tensor(p.data.copy(), (p,))
        out._backward = spy
        out.backward()
        ((p_unmade, x_stale),) = seen
        assert p_unmade is False  # made just before spy ran
        np.testing.assert_array_equal(x_stale, [[7.0, 7.0]])  # readout has not run yet
        slope = p.item() * (1.0 - p.item())
        np.testing.assert_array_equal(x.grad, [[slope, -slope]])  # zeroed, then added into

    def test_random_chain_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = ParameterSet({
            "x": Tensor(rng.normal(size=(3, 3))),
            "w": Tensor(rng.normal(size=(4, 1))),
            "b": Tensor(rng.normal(size=(1, 1))),
        })
        cell = LstmCell(init_params(params, LstmCell.shapes("cell", 3, 2), rng), "cell")

        def f(p):
            h = cell.encode_states([whole(stack([p["x"], square(p["x"])]))])[0]
            return total(square(readout([[h], [h]], p["w"], p["b"])), np.array([[-1.0]]))

        assert grad_check(f, params) < 1e-6


class TestGradCheck:
    def test_quadratic_bowl_nearly_exact(self):
        params = ParameterSet({"w": Tensor([[1.0, -2.0], [0.5, 3.0]])})
        assert grad_check(lambda p: total(square(p["w"])), params) < 1e-9
        assert directional_check(lambda p: total(square(p["w"])), params) < 1e-9

    def test_non_scalar_f_rejected(self):
        params = ParameterSet({"w": Tensor([1.0, 2.0])})
        with pytest.raises(GraphError):
            grad_check(lambda p: square(p["w"]), params)
        with pytest.raises(GraphError):
            directional_check(lambda p: square(p["w"]), params)


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
        x = p["x"]
        joined = stack([x, square(x)])  # last row comes from the second part
        p_1 = readout([[whole(x)], [whole(joined)], [whole(square(x))]], p["w"], p["b"], keep)
        p_2 = readout([[whole(joined)], [whole(x)], [whole(x)]], p["w"], p["b"])
        return total(stack([p_1, p_2]), np.array([[1.0], [0.5]]))

    assert grad_check(f, params) < 1e-4


def test_forward_bitwise_deterministic():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(8, 1))
    cell = LstmCell(init_params(ParameterSet(), LstmCell.shapes("cell", 4, 4), rng), "cell")

    def run():
        ta = Tensor(a)
        h = cell.encode_states([whole(stack([ta, square(ta)]))])[0]
        return readout([[h], [whole(square(ta))]], Tensor(b), Tensor([[0.1]])).item()

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
