"""Reverse-mode automatic differentiation on numpy arrays.

A deliberately small tape-based engine in the style of the deep learning
systems DGL wraps: :class:`Tensor` records its parents and a backward
closure; :meth:`Tensor.backward` runs a topological sweep.  Broadcasting is
handled by summing gradients back to the parent shape.

Everything the paper's three GNN models need is here: matmul, element-wise
arithmetic, ReLU/LeakyReLU/ELU, exp/log, reshape, row gather/scatter and
row prefix, reductions, log-softmax and masked cross-entropy.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference mode)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # sum leading extra dims
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an autograd tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None,
                 name: str | None = None):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents = tuple(_parents) if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        g = np.asarray(g, dtype=np.float32)
        if self.grad is None:
            self.grad = g.copy() if g.base is not None else g
        else:
            self.grad = self.grad + g

    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        req = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not req:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    def backward(self, grad: np.ndarray | None = None):
        """Backpropagate from this tensor (scalar unless ``grad`` given)."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        # Post-order over the tape, parents in recording order.  Iterative
        # on purpose: a nested recursive ``visit`` refers to itself through
        # its own closure cell, and that cycle keeps ``topo`` -- every
        # intermediate tensor, its grad and whatever its backward closure
        # captured -- alive until the cyclic collector happens to run.
        topo: list[Tensor] = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen and p.requires_grad:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                topo.append(t)
                stack.pop()
        self._accumulate(grad)
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        def bwd(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._make(-self.data, (self,), bwd)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._make(out_data, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data

        def bwd(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data ** 2), other.shape))

        return Tensor._make(out_data, (self, other), bwd)

    def __matmul__(self, other):
        other = self._coerce(other)
        out_data = self.data @ other.data

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        return Tensor._make(out_data, (self, other), bwd)

    # ------------------------------------------------------------------
    # non-linearities and shape ops
    # ------------------------------------------------------------------
    def relu(self):
        mask = self.data > 0

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g * mask)

        return Tensor._make(self.data * mask, (self,), bwd)

    def leaky_relu(self, slope: float = 0.2):
        mask = self.data > 0
        out_data = np.where(mask, self.data, slope * self.data)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g * np.where(mask, 1.0, slope).astype(np.float32))

        return Tensor._make(out_data, (self,), bwd)

    def elu(self, alpha: float = 1.0):
        mask = self.data > 0
        ex = np.exp(np.minimum(self.data, 0.0))
        out_data = np.where(mask, self.data, alpha * (ex - 1.0)).astype(np.float32)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g * np.where(mask, 1.0, alpha * ex).astype(np.float32))

        return Tensor._make(out_data, (self,), bwd)

    def exp(self):
        out_data = np.exp(self.data)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), bwd)

    def log(self):
        def bwd(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._make(np.log(self.data), (self,), bwd)

    def reshape(self, *shape):
        old = self.shape

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g.reshape(old))

        return Tensor._make(self.data.reshape(*shape), (self,), bwd)

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if not self.requires_grad:
                return
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            self._accumulate(np.broadcast_to(gg, self.shape))

        return Tensor._make(out_data, (self,), bwd)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def gather_rows(self, idx: np.ndarray) -> "Tensor":
        """Select rows (autograd scatter-add on backward)."""
        idx = np.asarray(idx)
        out_data = self.data[idx]

        def bwd(g):
            if self.requires_grad:
                acc = np.zeros_like(self.data)
                np.add.at(acc, idx, g)
                self._accumulate(acc)

        return Tensor._make(out_data, (self,), bwd)

    def prefix_rows(self, n: int) -> "Tensor":
        """The first ``n`` rows -- ``gather_rows(arange(n))`` as a slice: a
        view forward, a block write into zeros backward (no index copy, no
        ``np.add.at``)."""
        if not 0 <= n <= len(self.data):
            raise IndexError(f"prefix of {n} rows from {len(self.data)}")

        def bwd(g):
            if self.requires_grad:
                acc = np.zeros_like(self.data)
                acc[:n] = g
                self._accumulate(acc)

        return Tensor._make(self.data[:n], (self,), bwd)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        x = self.data
        mx = x.max(axis=axis, keepdims=True)
        shifted = x - mx
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - lse
        soft = np.exp(out_data)

        def bwd(g):
            if self.requires_grad:
                self._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

        return Tensor._make(out_data, (self,), bwd)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"
