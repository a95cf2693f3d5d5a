"""Unit tests for the tensor-expression language."""

import numpy as np
import pytest

from repro.tensorir import expr as E


class TestConst:
    def test_int_immediate(self):
        c = E.const(3)
        assert isinstance(c, E.IntImm) and c.value == 3

    def test_float_immediate(self):
        c = E.const(2.5)
        assert isinstance(c, E.FloatImm) and c.value == 2.5

    def test_passthrough_expr(self):
        v = E.Var("x")
        assert E.const(v) is v

    def test_explicit_dtype(self):
        c = E.const(3, dtype="float64")
        assert isinstance(c, E.FloatImm) and c.dtype == "float64"


class TestArithmetic:
    def test_add_builds_binop(self):
        a, b = E.Var("a", "float32"), E.Var("b", "float32")
        node = a + b
        assert isinstance(node, E.BinOp) and node.op == "+"

    def test_radd_with_scalar(self):
        a = E.Var("a", "float32")
        node = 1.0 + a
        assert isinstance(node, E.BinOp)
        assert isinstance(node.a, E.FloatImm)

    def test_sub_mul_div(self):
        a, b = E.Var("a"), E.Var("b")
        assert (a - b).op == "-"
        assert (a * b).op == "*"
        assert (a / b).op == "/"

    def test_floordiv_mod(self):
        a = E.Var("a")
        assert (a // 4).op == "//"
        assert (a % 4).op == "%"

    def test_neg(self):
        a = E.Var("a", "float32")
        node = -a
        assert isinstance(node, E.BinOp) and node.op == "-"

    def test_comparison_dtype_is_bool(self):
        a = E.Var("a")
        assert (a < 3).dtype == "bool"
        assert (a >= 3).dtype == "bool"

    def test_unknown_binop_rejected(self):
        with pytest.raises(ValueError):
            E.BinOp("^", E.const(1), E.const(2))

    def test_children(self):
        a, b = E.Var("a"), E.Var("b")
        node = a + b
        assert node.children() == (a, b)


class TestIntrinsics:
    def test_known_intrinsics(self):
        x = E.Var("x", "float32")
        for fn in (E.exp, E.log, E.sqrt, E.tanh, E.sigmoid):
            node = fn(x)
            assert isinstance(node, E.Call)

    def test_unknown_intrinsic_rejected(self):
        with pytest.raises(ValueError):
            E.Call("fancy", (E.const(1.0),))

    def test_relu_is_max_with_zero(self):
        x = E.Var("x", "float32")
        node = E.relu(x)
        assert isinstance(node, E.BinOp) and node.op == "max"

    def test_maximum_minimum(self):
        a, b = E.Var("a", "float32"), E.Var("b", "float32")
        assert E.maximum(a, b).op == "max"
        assert E.minimum(a, b).op == "min"

    def test_select(self):
        x = E.Var("x", "float32")
        node = E.select(x > 0, x, 0.0)
        assert isinstance(node, E.Select)


class TestIterVar:
    def test_domain_and_extent(self):
        iv = E.IterVar((2, 10), "i")
        assert iv.extent == 8

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            E.IterVar((5, 2))

    def test_reduce_axis_kind(self):
        k = E.reduce_axis((0, 4), "k")
        assert k.kind == E.IterVar.REDUCE


class TestReduce:
    def test_sum_over_axis(self):
        k = E.reduce_axis((0, 4))
        node = E.sum(E.const(1.0), axis=k)
        assert node.combiner == "sum" and node.axes == (k,)

    def test_reduce_requires_reduce_axis(self):
        data_axis = E.IterVar((0, 4), kind=E.IterVar.DATA)
        with pytest.raises(ValueError):
            E.Reduce("sum", E.const(1.0), [data_axis])

    def test_reduce_requires_axis_list(self):
        with pytest.raises(ValueError):
            E.Reduce("sum", E.const(1.0), [])

    def test_unknown_combiner(self):
        k = E.reduce_axis((0, 4))
        with pytest.raises(ValueError):
            E.Reduce("xor", E.const(1.0), [k])

    def test_identity_values(self):
        k = E.reduce_axis((0, 4))
        assert E.Reduce("sum", E.const(1.0), [k]).identity == 0.0
        assert E.Reduce("max", E.const(1.0), [k]).identity == float("-inf")
        assert E.Reduce("prod", E.const(1.0), [k]).identity == 1.0

    def test_max_without_axis_is_error(self):
        with pytest.raises(TypeError):
            E.max(E.const(1.0))


class TestTensor:
    def test_placeholder(self):
        t = E.placeholder((3, 4), name="X")
        assert t.shape == (3, 4) and t.name == "X"
        assert isinstance(t.op, E.PlaceholderOp)

    def test_indexing_produces_elem(self):
        t = E.placeholder((3, 4), name="X")
        elem = t[1, 2]
        assert isinstance(elem, E.TensorElem)

    def test_wrong_rank_index_rejected(self):
        t = E.placeholder((3, 4))
        with pytest.raises(ValueError):
            t[1]

    def test_placeholder_has_no_axes(self):
        t = E.placeholder((3,))
        with pytest.raises(TypeError):
            _ = t.axis


class TestComputeOp:
    def test_shape_and_axes(self):
        t = E.compute((3, 5), lambda i, j: i + j, name="c")
        assert t.shape == (3, 5)
        assert len(t.op.axis) == 2

    def test_reduce_axis_discovery(self):
        X = E.placeholder((4, 4), name="X")
        k = E.reduce_axis((0, 4), "k")
        t = E.compute((4,), lambda i: E.sum(X[i, k], axis=k))
        assert t.op.reduce_axis == (k,)

    def test_input_tensor_discovery(self):
        X = E.placeholder((4,), name="Xi")
        Y = E.placeholder((4,), name="Yi")
        t = E.compute((4,), lambda i: X[i] * Y[i] + X[i])
        names = {p.name for p in t.op.input_tensors()}
        assert names == {"Xi", "Yi"}

    def test_free_var_discovery(self):
        X = E.placeholder((4, 4), name="X")
        src = E.Var("src")
        t = E.compute((4,), lambda i: X[src, i])
        assert [v.name for v in t.op.free_vars()] == ["src"]

    def test_axes_not_reported_as_free(self):
        t = E.compute((4,), lambda i: i + 0)
        assert t.op.free_vars() == ()

    def test_preorder_visits_parents_first_left_to_right(self):
        X = E.placeholder((4, 4), name="X")
        src = E.Var("src")
        k = E.reduce_axis((0, 4), "k")
        t = E.compute((4,), lambda i: E.exp(X[src, k]) + E.sum(X[i, k] * 2.0,
                                                              axis=k))
        kinds = [type(e).__name__ for e in E.preorder(t.op.body)]
        assert kinds == ["BinOp", "Call", "TensorElem", "Var", "IterVar",
                         "Reduce", "BinOp", "TensorElem", "IterVar",
                         "IterVar", "FloatImm"]
        assert t.op.reduce_axis == (k,)
        assert [v.name for v in t.op.free_vars()] == ["src"]

    def test_walkers_leave_nothing_for_the_collector(self):
        """A nested recursive ``walk`` closure is a reference cycle per
        call; these run on every kernel invocation."""
        import gc

        X = E.placeholder((4, 4), name="X")
        k = E.reduce_axis((0, 4), "k")
        t = E.compute((4,), lambda i: E.sum(X[E.Var("src"), k] * X[i, k],
                                            axis=k))
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                t.op.reduce_axis, t.op.input_tensors(), t.op.free_vars()
            assert gc.collect() == 0
        finally:
            gc.enable()
