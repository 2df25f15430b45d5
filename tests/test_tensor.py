import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import directional_check, grad_check, total
from verseqa.models import LstmCell, readout
from verseqa.tensor import (GraphError, ParameterSet, ShapeError, Tensor, concat,
                            logistic)


def square(x: Tensor) -> Tensor:
    """x * x entrywise, as a one-parent node for the graph-walk tests."""
    out = Tensor(x.data * x.data, (x,))
    out._backward = lambda g: x._accumulate(2.0 * x.data * g)
    return out


class TestUnaryOps:
    def test_sigmoid_at_zero(self):
        assert logistic(np.zeros((1, 1)))[0, 0] == 0.5
        assert readout([Tensor([[3.0]])], Tensor([[0.0]]), Tensor([[0.0]])).item() == 0.5

    def test_sigmoid_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(logistic(np.array([[-800.0, 800.0]])), [[0.0, 1.0]])
            x = Tensor([[-800.0, 800.0]])
            w = Tensor([[1.0], [0.0]])
            out = readout([x], w, Tensor([[0.0]]))
            out.backward()
        assert out.item() == 0.0
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])
        np.testing.assert_array_equal(w.grad, [[0.0], [0.0]])

    def test_empty_tensor_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))


class TestConcat:
    def test_basic(self):
        out = concat([Tensor([1.0]), Tensor([2.0])])
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_extent_addition(self):
        out = concat([Tensor(np.ones((2, 3))), Tensor(np.ones((5, 3)))])
        assert out.shape == (7, 3)

    def test_other_axis_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))])

    def test_rank_mismatch_and_no_parts(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones(3))])
        with pytest.raises(ShapeError):
            concat([])
        with pytest.raises(ShapeError):
            concat([Tensor(1.0), Tensor(2.0)])

    def test_concat_split_identity_values_and_grads(self):
        # the stacked rows split back into the parts, and so does the gradient
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=(5, 2)))
        joined = concat([a, b])
        np.testing.assert_array_equal(joined.data[:3], a.data)
        np.testing.assert_array_equal(joined.data[3:], b.data)
        w = rng.normal(size=(8, 2))
        total(joined, w).backward()
        np.testing.assert_array_equal(a.grad, w[:3])
        np.testing.assert_array_equal(b.grad, w[3:])

    def test_many_parts_one_node(self):
        rng = np.random.default_rng(2)
        parts = [Tensor(rng.normal(size=(k, 2))) for k in (1, 3, 2)]
        out = concat(parts)
        assert out._parents == tuple(parts)
        np.testing.assert_array_equal(out.data, np.concatenate([p.data for p in parts]))
        w = rng.normal(size=(6, 2))
        total(out, w).backward()
        for p, g in zip(parts, np.split(w, [1, 4])):
            np.testing.assert_array_equal(p.grad, g)


class TestNoBroadcasting:
    """The readout node is where the models multiply and add; like every
    node it broadcasts nothing."""

    def test_float_operand_is_shape_error(self):
        x, w, b = Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([[0.0]])
        with pytest.raises(ShapeError):
            readout([x], w, b, keep=2.0)
        with pytest.raises(ShapeError):
            readout([x], w, Tensor(0.0))

    def test_size_one_operand_is_shape_error(self):
        x, w, b = Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([[0.0]])
        with pytest.raises(ShapeError, match=r"\(1, 1\)"):
            readout([x], w, b, keep=np.ones((1, 1)))
        with pytest.raises(ShapeError, match=r"\(1, 1\)"):
            readout([x], Tensor([[1.0]]), b)


class TestBackward:
    def test_square(self):
        x = Tensor([[3.0]])
        total(square(x)).backward()
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_sigmoid_chain(self):
        w = Tensor([[0.0]])
        x = Tensor([[1.0]])
        readout([x], w, Tensor([[0.0]])).backward()
        np.testing.assert_allclose(w.grad, [[0.25]])

    def test_grad_of_loss_wrt_itself_is_one(self):
        x = Tensor([[2.0]])
        y = total(square(x))
        y.backward()
        assert y.grad == 1.0

    def test_node_shared_twice_sums_both_paths(self):
        # x reaches the output through both parts of the concat and through
        # the readout: three paths, one walk, each visited once
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3)))
        w = rng.normal(size=(4, 3))
        y = total(concat([x, x]), w)
        y.backward()
        np.testing.assert_array_equal(x.grad, w[:2] + w[2:])
        params = ParameterSet({"x": Tensor(rng.normal(size=(2, 3))),
                               "w": Tensor(rng.normal(size=(6, 1))), "b": Tensor([[0.3]])})

        def f(p):
            return readout([p["x"], concat([p["x"], p["x"]])], p["w"], p["b"])

        assert grad_check(f, params) < 1e-6

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(GraphError):
            Tensor([1.0, 2.0]).backward()

    def test_random_chain_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = ParameterSet({
            "x": Tensor(rng.normal(size=(3, 3))),
            "w": Tensor(rng.normal(size=(4, 1))),
            "b": Tensor(rng.normal(size=(1, 1))),
        })
        cell = LstmCell(3, 2, params, "cell", rng)

        def f(p):
            h = cell.encode_states([concat([p["x"], square(p["x"])])])[0]
            return total(square(readout([h, h], p["w"], p["b"])), np.array([[-1.0]]))

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
def test_ops_match_finite_differences_on_random_shapes(rows, cols, seed):
    # inputs in (-1, 1) and weights scaled to the width keep the logistic
    # away from saturation, where gradients vanish into rounding noise
    rng = np.random.default_rng(seed)
    params = ParameterSet({"x": Tensor(rng.uniform(-1.0, 1.0, size=(rows, cols))),
                           "w": Tensor(rng.normal(size=(3 * cols, 1)) / np.sqrt(3 * cols)),
                           "b": Tensor(rng.normal(size=(1, 1)))})
    keep = (rng.random((1, 3 * cols)) < 0.5) / 0.5

    def f(p):
        x = p["x"]
        joined = concat([x, square(x)])  # last row comes from the second part
        p_1 = readout([x, joined, square(x)], p["w"], p["b"], keep)
        p_2 = readout([joined, x, x], p["w"], p["b"])
        return total(concat([p_1, p_2]), np.array([[1.0], [0.5]]))

    assert grad_check(f, params) < 1e-4


def test_forward_bitwise_deterministic():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(8, 1))
    cell = LstmCell(4, 4, ParameterSet(), "cell", rng)

    def run():
        ta = Tensor(a)
        h = cell.encode_states([concat([ta, square(ta)])])[0]
        return readout([h, square(ta)], Tensor(b), Tensor([[0.1]])).item()

    assert run() == run()


class TestParameterSet:
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
