import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grad_check, total
from verseqa.tensor import (GraphError, InvalidAxisError, ParameterSet,
                            ShapeError, Tensor, concat, matmul)


class TestUnaryOps:
    def test_sigmoid_at_zero(self):
        assert Tensor([0.0]).sigmoid().item() == 0.5

    def test_sigmoid_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = Tensor([-800.0, 800.0])
            out = t.sigmoid()
            total(out).backward()
        np.testing.assert_array_equal(out.data, [0.0, 1.0])
        np.testing.assert_array_equal(t.grad, [0.0, 0.0])

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(Tensor([0.0, 0.0]).softmax().data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        t = Tensor(rng.normal(size=(5, 7)) * 10)
        rows = t.softmax().data
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(rows > 0)

    def test_empty_tensor_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_inner_dim_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


class TestReduce:
    def test_max(self):
        assert Tensor([1.0, 5.0, 3.0]).max(axis=0).item() == 5.0

    def test_axis_out_of_range(self):
        with pytest.raises(InvalidAxisError):
            Tensor([1.0, 2.0]).max(axis=1)

    def test_max_tie_gradient_goes_to_lowest_index(self):
        t = Tensor([3.0, 3.0, 1.0])
        t.max(axis=0).backward()
        np.testing.assert_array_equal(t.grad, [1.0, 0.0, 0.0])


class TestConcat:
    def test_basic(self):
        out = concat([Tensor([1.0]), Tensor([2.0])], axis=0)
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_extent_addition(self):
        out = concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 5)))], axis=1)
        assert out.shape == (2, 8)

    def test_other_axis_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)

    def test_rank_mismatch_and_no_parts(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones(3))], axis=0)
        with pytest.raises(ShapeError):
            concat([], axis=0)
        with pytest.raises(InvalidAxisError):
            concat([Tensor(np.ones((2, 3)))], axis=2)

    def test_concat_split_identity_values_and_grads(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 2)))
        b = Tensor(rng.normal(size=(5, 2)))
        joined = concat([a, b], axis=0)
        pa, pb = joined.rows(0, 3), joined.rows(3, 8)
        np.testing.assert_array_equal(pa.data, a.data)
        np.testing.assert_array_equal(pb.data, b.data)
        w = Tensor(rng.normal(size=(8, 2)))
        total(concat([pa, pb], axis=0) * w).backward()
        a2, b2 = Tensor(a.data), Tensor(b.data)
        total(concat([a2, b2], axis=0) * w).backward()
        np.testing.assert_array_equal(a.grad, a2.grad)
        np.testing.assert_array_equal(b.grad, b2.grad)

    def test_many_parts_one_node(self):
        rng = np.random.default_rng(2)
        parts = [Tensor(rng.normal(size=(2, k))) for k in (1, 3, 2)]
        out = concat(parts, axis=1)
        assert out._parents == tuple(parts)
        np.testing.assert_array_equal(
            out.data, np.concatenate([p.data for p in parts], axis=1))
        w = rng.normal(size=(2, 6))
        total(out * Tensor(w)).backward()
        for p, g in zip(parts, np.split(w, [1, 4], axis=1)):
            np.testing.assert_array_equal(p.grad, g)


class TestNoBroadcasting:
    def test_float_operand_is_shape_error(self):
        with pytest.raises(ShapeError):
            Tensor([[1.0]]) + 1.0
        with pytest.raises(ShapeError):
            Tensor([[1.0]]) * 2.0

    def test_size_one_operand_is_shape_error(self):
        with pytest.raises(ShapeError, match=r"\(2, 1\).*\(1, 1\)"):
            Tensor(np.ones((2, 1))) + Tensor([[1.0]])
        with pytest.raises(ShapeError):
            Tensor([[1.0]]) * Tensor(np.ones((2, 1)))


class TestBackward:
    def test_square(self):
        x = Tensor([3.0])
        total(x * x).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_sigmoid_chain(self):
        w = Tensor([[0.0]])
        x = Tensor([[1.0]])
        total((w @ x).sigmoid()).backward()
        np.testing.assert_allclose(w.grad, [[0.25]])

    def test_grad_of_loss_wrt_itself_is_one(self):
        x = Tensor([2.0])
        y = total(x * x)
        y.backward()
        assert y.grad == 1.0

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(GraphError):
            Tensor([1.0, 2.0]).backward()

    def test_random_chain_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = ParameterSet({
            "w1": Tensor(rng.normal(size=(3, 4))),
            "w2": Tensor(rng.normal(size=(4, 2))),
            "b": Tensor(rng.normal(size=(1, 2))),
        })
        x = Tensor(rng.normal(size=(1, 3)))
        y = Tensor(rng.normal(size=(1, 2)))

        def f(p):
            h = (x @ p["w1"]).sigmoid() @ p["w2"] + p["b"]
            return total(h.sigmoid().softmax() * y) * Tensor([[-1.0]])

        assert grad_check(f, params) < 1e-6


class TestGradCheck:
    def test_quadratic_bowl_nearly_exact(self):
        params = ParameterSet({"w": Tensor([[1.0, -2.0], [0.5, 3.0]])})
        assert grad_check(lambda p: total(p["w"] * p["w"]), params) < 1e-9

    def test_non_scalar_f_rejected(self):
        params = ParameterSet({"w": Tensor([1.0, 2.0])})
        with pytest.raises(GraphError):
            grad_check(lambda p: p["w"] * Tensor([2.0, 2.0]), params)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8),
       seed=st.integers(0, 10_000))
def test_ops_match_finite_differences_on_random_shapes(rows, cols, seed):
    rng = np.random.default_rng(seed)
    params = ParameterSet({"w": Tensor(rng.normal(size=(rows, cols)))})
    v = Tensor(rng.normal(size=(cols, 1)))

    def f(p):
        w = p["w"]
        return total((w @ v).sigmoid().sigmoid() + ((w * w) @ v) * Tensor(np.full((rows, 1), 0.1))) \
            + total(w.softmax().max(axis=1)) * Tensor([[0.5]])

    assert grad_check(f, params) < 1e-4


def test_forward_bitwise_deterministic():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    r1 = total(matmul(Tensor(a), Tensor(b)).softmax()).item()
    r2 = total(matmul(Tensor(a), Tensor(b)).softmax()).item()
    assert r1 == r2


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
