"""Autograd engine tests: every op gets a numeric gradient check."""

import gc
import weakref

import numpy as np
import pytest

from repro.minidgl.autograd import Tensor, no_grad


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar fn at x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = x[ix]
        x[ix] = orig + eps
        fp = fn()
        x[ix] = orig - eps
        fm = fn()
        x[ix] = orig
        g[ix] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def check_op(op, *shapes, seed=0, atol=2e-2):
    """Build tensors, apply op, compare autograd vs numeric grads."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.standard_normal(s).astype(np.float32) + 0.5,
                      requires_grad=True) for s in shapes]
    out = op(*tensors)
    loss = out.sum() if out.data.size > 1 else out
    loss.backward()
    for t in tensors:
        def f(t=t):
            with no_grad():
                o = op(*tensors)
                return float(o.data.sum())
        num = numeric_grad(f, t.data)
        assert t.grad is not None
        assert np.allclose(t.grad, num, atol=atol), (
            np.abs(t.grad - num).max())


class TestBasicOps:
    def test_add(self):
        check_op(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        check_op(lambda a, b: a + b, (3, 4), (4,))

    def test_sub(self):
        check_op(lambda a, b: a - b, (3, 4), (3, 4))

    def test_mul(self):
        check_op(lambda a, b: a * b, (3, 4), (3, 4))

    def test_mul_broadcast_heads(self):
        check_op(lambda a, b: a * b, (5, 2, 3), (2, 3))

    def test_div(self):
        # divide by a strictly positive, well-conditioned denominator so the
        # central-difference reference stays stable
        check_op(lambda a, b: a / (b * b + 1.0), (3, 4), (3, 4), seed=1)

    def test_matmul(self):
        check_op(lambda a, b: a @ b, (3, 4), (4, 5))

    def test_neg(self):
        check_op(lambda a: -a, (3, 4))

    def test_scalar_mixing(self):
        check_op(lambda a: a * 3.0 + 1.0, (2, 2))


class TestNonlinearities:
    def test_relu(self):
        check_op(lambda a: a.relu(), (4, 4), seed=2)

    def test_leaky_relu(self):
        check_op(lambda a: a.leaky_relu(0.2), (4, 4), seed=3)

    def test_elu(self):
        check_op(lambda a: a.elu(), (4, 4), seed=4)

    def test_exp(self):
        check_op(lambda a: a.exp(), (3, 3), seed=5)

    def test_log(self):
        # keep values positive
        rng = np.random.default_rng(6)
        a = Tensor(rng.random((3, 3)).astype(np.float32) + 1.0, requires_grad=True)
        (a.log().sum()).backward()
        assert np.allclose(a.grad, 1 / a.data, atol=1e-3)

    def test_log_softmax_rows_normalized(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((5, 4)).astype(np.float32),
                   requires_grad=True)
        out = a.log_softmax(axis=-1)
        assert np.allclose(np.exp(out.data).sum(axis=-1), 1, atol=1e-5)

    def test_log_softmax_grad(self):
        check_op(lambda a: a.log_softmax(axis=-1), (4, 5), seed=8)


class TestShapeOps:
    def test_reshape(self):
        check_op(lambda a: a.reshape(6, 2), (3, 4))

    def test_sum_all(self):
        check_op(lambda a: a.sum(), (3, 4))

    def test_sum_axis(self):
        check_op(lambda a: a.sum(axis=1), (3, 4))

    def test_mean(self):
        check_op(lambda a: a.mean(), (3, 4))

    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1])
        check_op(lambda a: a.gather_rows(idx), (4, 3), seed=9)

    def test_prefix_rows(self):
        check_op(lambda a: a.prefix_rows(3), (5, 2), seed=10)

    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_prefix_rows_is_gather_rows_of_arange(self, n):
        """Same values and the same gradient as the indexed form it
        replaces in SAGEConv, from a view forward and a block write
        backward."""
        r = np.random.default_rng(11)
        data = r.standard_normal((7, 2, 3)).astype(np.float32)
        coef = Tensor(r.standard_normal((n, 2, 3)).astype(np.float32))
        a = Tensor(data.copy(), requires_grad=True)
        b = Tensor(data.copy(), requires_grad=True)
        sliced, gathered = a.prefix_rows(n), b.gather_rows(np.arange(n))
        assert np.array_equal(sliced.data, gathered.data)
        assert np.shares_memory(sliced.data, a.data) or n == 0
        (sliced * coef).sum().backward()
        (gathered * coef).sum().backward()
        assert np.array_equal(a.grad, b.grad)
        assert np.all(a.grad[n:] == 0)

    def test_prefix_rows_rejects_a_prefix_longer_than_the_tensor(self):
        a = Tensor(np.ones((4, 2)))
        with pytest.raises(IndexError):
            a.prefix_rows(5)
        with pytest.raises(IndexError):
            a.prefix_rows(-1)


class TestEngine:
    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_on_constant_rejected(self):
        a = Tensor(np.ones(2))
        with pytest.raises(RuntimeError):
            a.backward()

    def test_grad_accumulates_over_reuse(self):
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = (a * 2 + a * 3).sum()
        out.backward()
        assert np.allclose(a.grad, 5)

    def test_no_grad_blocks_tape(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (a * 2).sum()
        assert not out.requires_grad

    def test_detach(self):
        a = Tensor(np.ones(3), requires_grad=True)
        assert not a.detach().requires_grad

    def test_zero_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a.sum()).backward()
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph_grads(self):
        """Shared subexpression must backprop through both paths."""
        a = Tensor(np.array([2.0], np.float32), requires_grad=True)
        b = a * 3
        out = (b * b).sum()  # (3a)^2 -> d/da = 18a = 36
        out.backward()
        assert np.allclose(a.grad, 36)


class TestTapeLifetime:
    """``backward`` must not leave the tape in a reference cycle: with the
    cyclic collector off, a step's intermediates die with its locals."""

    @pytest.fixture(autouse=True)
    def _collector_off(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    def test_intermediates_die_with_the_steps_locals(self):
        w = Tensor(np.ones((4, 4), np.float32), requires_grad=True)
        x = Tensor(np.ones((8, 4), np.float32))
        hidden = (x @ w).relu()
        loss = (hidden @ w).sum()
        refs = [weakref.ref(hidden.data), weakref.ref(loss.data)]
        loss.backward()
        assert hidden.grad is not None
        refs.append(weakref.ref(hidden.grad))
        del hidden, loss
        assert [r() for r in refs] == [None, None, None]
        assert w.grad is not None        # leaves keep their gradients

    def test_training_step_leaves_nothing_for_the_collector(self):
        from repro.core.fusion import use_fusion
        from repro.graph.datasets import planted_partition
        from repro.minidgl.backends import get_backend
        from repro.minidgl.graph import Graph
        from repro.minidgl.models import GAT, GCN
        from repro.minidgl.optim import Adam
        from repro.minidgl.train import cross_entropy

        ds = planted_partition(n=120, num_classes=4, feature_dim=8,
                               avg_degree=6, seed=0)
        graph, x = Graph(ds.adj), Tensor(ds.features)
        backend = get_backend("featgraph")
        for fuse, cls in ((False, GCN), (True, GCN), (False, GAT),
                          (True, GAT)):
            model = cls(8, 4, hidden=8)
            opt = Adam(model.parameters())

            def step():
                opt.zero_grad()
                logits = model(graph, x, backend)
                loss = cross_entropy(logits, ds.labels, ds.train_mask)
                probe = weakref.ref(logits.data)
                loss.backward()
                opt.step()
                return probe

            with use_fusion(fuse):
                step()                   # compiles; may allocate cycles
                gc.collect()
                probe = step()
                assert probe() is None, (cls.__name__, fuse)
                gc.set_debug(gc.DEBUG_SAVEALL)
                try:
                    gc.collect()
                    leaked = [o for o in gc.garbage if (
                        getattr(o, "__module__", None)
                        or type(o).__module__).startswith("repro.minidgl")]
                finally:
                    gc.set_debug(0)
                    gc.garbage.clear()
                assert not leaked, (cls.__name__, fuse, leaked[:5])

    def test_visit_order_matches_the_recursive_post_order(self):
        """Gradient accumulation order decides float bits; the iterative
        walk must run backward closures in the recursive walk's order."""
        order = []

        def tap(t, tag):
            inner = t._backward

            def bwd(g):
                order.append(tag)
                inner(g)

            t._backward = bwd
            return t

        a = Tensor(np.ones(2, np.float32), requires_grad=True)
        b = tap(a * 2, "b")
        c = tap(a * 3, "c")
        d = tap(b + c, "d")
        e = tap(d * b, "e")
        tap(e.sum(), "loss").backward()

        def recursive(root):
            topo, seen = [], set()

            def visit(t):
                if id(t) in seen or not t.requires_grad:
                    return
                seen.add(id(t))
                for p in t._parents:
                    visit(p)
                topo.append(t)

            visit(root)
            return topo

        names = {id(b): "b", id(c): "c", id(d): "d", id(e): "e"}
        want = [names[id(t)] for t in reversed(recursive(e))
                if id(t) in names]
        assert order == ["loss"] + want
