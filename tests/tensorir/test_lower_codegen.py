"""Lowering: the loop-nest IR a scheduled compute lowers to."""

import pytest

from repro import tensorir as T
from repro.tensorir.ir import For, IfThenElse, SeqStmt, Store, stmt_to_str, walk
from repro.tensorir.lower import inline_computes, lower, substitute


class TestLowerStructure:
    def test_elementwise_single_loop_nest(self):
        X = T.placeholder((6,), name="X")
        t = T.compute((6,), lambda i: X[i] * 2.0, name="t")
        stmt = lower(T.create_schedule(t))
        fors = [s for s in walk(stmt) if isinstance(s, For)]
        assert len(fors) == 1 and fors[0].extent == 6

    def test_reduction_produces_init_acc(self):
        X = T.placeholder((4, 5), name="X")
        k = T.reduce_axis((0, 5), "k")
        t = T.compute((4,), lambda i: T.sum_reduce(X[i, k], axis=k), name="t")
        stmt = lower(T.create_schedule(t))
        stores = [s for s in walk(stmt) if isinstance(s, Store)]
        assert any(s.combiner == "sum" for s in stores)
        assert any(s.combiner is None for s in stores)

    def test_relu_of_sum_adds_epilogue(self):
        X = T.placeholder((4, 5), name="X")
        k = T.reduce_axis((0, 5), "k")
        t = T.compute((4,), lambda i: T.maximum(
            T.sum_reduce(X[i, k], axis=k), 0.0), name="t")
        stmt = lower(T.create_schedule(t))
        assert isinstance(stmt, SeqStmt) and len(stmt.stmts) == 3

    def test_imperfect_split_adds_guard(self):
        X = T.placeholder((10,), name="X")
        t = T.compute((10,), lambda i: X[i], name="t")
        s = T.create_schedule(t)
        s[t].split(t.op.axis[0], factor=4)
        stmt = lower(s)
        assert any(isinstance(n, IfThenElse) for n in walk(stmt))

    def test_perfect_split_has_no_guard(self):
        X = T.placeholder((8,), name="X")
        t = T.compute((8,), lambda i: X[i], name="t")
        s = T.create_schedule(t)
        s[t].split(t.op.axis[0], factor=4)
        stmt = lower(s)
        assert not any(isinstance(n, IfThenElse) for n in walk(stmt))

    def test_split_reconstructs_index(self):
        X = T.placeholder((10,), name="X")
        t = T.compute((10,), lambda i: X[i], name="t")
        s = T.create_schedule(t)
        s[t].split(t.op.axis[0], factor=4)
        (store,) = [n for n in walk(lower(s)) if isinstance(n, Store)]
        (idx,) = store.indices  # outer * 4 + inner
        assert (idx.op, idx.a.op) == ("+", "*")
        assert (idx.a.a.name, idx.a.b.value, idx.b.name) == (
            "t_i0.outer", 4, "t_i0.inner")

    def test_fuse_reconstructs_indices(self):
        X = T.placeholder((4, 6), name="X")
        t = T.compute((4, 6), lambda i, j: X[i, j] + 1.0, name="t")
        s = T.create_schedule(t)
        s[t].fuse(t.op.axis[0], t.op.axis[1])
        stmt = lower(s)
        fors = [n for n in walk(stmt) if isinstance(n, For)]
        (store,) = [n for n in walk(stmt) if isinstance(n, Store)]
        assert [f.extent for f in fors] == [24]
        assert [(i.op, i.a.name, i.b.value) for i in store.indices] == [
            ("//", "t_i0.t_i1.fused", 6), ("%", "t_i0.t_i1.fused", 6)]

    def test_upstream_compute_inlined(self):
        X = T.placeholder((5,), name="X")
        mid = T.compute((5,), lambda i: X[i] * 3.0, name="midk")
        t = T.compute((5,), lambda i: mid[i] + 1.0, name="outk")
        (store,) = [n for n in walk(lower(T.create_schedule(t)))
                    if isinstance(n, Store)]
        value = store.value  # (X[i] * 3.0) + 1.0: no read of midk left
        assert (value.op, value.a.op, value.b.value) == ("+", "*", 1.0)
        assert (value.a.a.tensor.name, value.a.b.value) == ("X", 3.0)

    def test_partial_binding_leaves_serial_loop(self):
        A = T.placeholder((6, 8), name="A")
        t = T.compute((6, 8), lambda i, j: A[i, j] + 1.0, name="t")
        s = T.create_schedule(t)
        s[t].bind(t.op.axis[0], "block.x")
        fors = [n for n in walk(lower(s)) if isinstance(n, For)]
        assert [(f.kind, f.extent) for f in fors] == [
            ("block.x", 6), (For.SERIAL, 8)]

    def test_pretty_printer_runs(self):
        X = T.placeholder((4,), name="X")
        t = T.compute((4,), lambda i: X[i], name="t")
        text = stmt_to_str(lower(T.create_schedule(t)))
        assert "for" in text and "t[" in text

    def test_two_reductions_rejected(self):
        X = T.placeholder((4, 5), name="X")
        k1 = T.reduce_axis((0, 5), "k1")
        k2 = T.reduce_axis((0, 5), "k2")
        t = T.compute((4,), lambda i: T.sum_reduce(X[i, k1], axis=k1)
                      + T.sum_reduce(X[i, k2], axis=k2), name="t")
        with pytest.raises(NotImplementedError):
            lower(T.create_schedule(t))


class TestSubstitute:
    def test_var_replacement(self):
        x = T.Var("x")
        node = x + 1
        out = substitute(node, {"x": T.const(5)})
        assert isinstance(out.a, T.IntImm) and out.a.value == 5

    def test_reduce_axis_protected(self):
        X = T.placeholder((4,), name="X")
        k = T.reduce_axis((0, 4), "k")
        node = T.sum_reduce(X[k], axis=k)
        out = substitute(node, {"k": T.const(0)})
        # the reduce axis must not be substituted away
        assert isinstance(out.source.indices[0], T.IterVar)

    def test_inline_computes(self):
        X = T.placeholder((4,), name="X")
        mid = T.compute((4,), lambda i: X[i] * 2.0, name="mid")
        out = T.compute((4,), lambda i: mid[i] + 1.0, name="out2")
        inlined = inline_computes(out.op.body)
        # after inlining no reference to `mid` remains
        names = set()

        def visit(e):
            if isinstance(e, T.TensorElem):
                names.add(e.tensor.name)
            for c in e.children():
                visit(c)

        visit(inlined)
        assert names == {"X"}

    def test_inline_reduction_rejected(self):
        X = T.placeholder((4, 4), name="X")
        k = T.reduce_axis((0, 4), "k")
        mid = T.compute((4,), lambda i: T.sum_reduce(X[i, k], axis=k), name="mid")
        out = T.compute((4,), lambda i: mid[i] + 1.0, name="out3")
        with pytest.raises(NotImplementedError):
            inline_computes(out.op.body)
