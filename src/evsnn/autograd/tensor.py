"""Dense tensor with taped reverse-mode differentiation.

Every op records its parents and a backward closure on the output tensor.
Calling ``backward()`` on a scalar walks the tape in reverse topological
order, accumulating gradients into ``.grad`` numpy arrays. The walk
consumes the tape: each entry is dropped once used, so the saved
activations are freed during the walk and a graph is walked only once.

Compute dtype follows the data: float32 is the default everywhere, float64
is used by the gradient-check tests only.
"""

from __future__ import annotations

import contextlib

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled():
    return _grad_enabled


def _as_array(data, dtype=None):
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype not in (np.float32, np.float64):
        return arr.astype(np.float32)
    return arr


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, dtype=None, name=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self.name = name

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_op(data, parents, backward):
        """Result tensor of an op; records the tape entry when grad is on."""
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        if self.grad is None:
            # a copy, so no two tensors share a gradient array
            self.grad = np.broadcast_to(g, self.data.shape).astype(self.data.dtype)
        else:
            self.grad += g

    # -- autodiff -------------------------------------------------------------

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.accumulate_grad(np.asarray(grad, dtype=self.data.dtype))
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            # freeing saved activations during the walk, not when the caller
            # drops the loss, keeps a training step's peak memory to about one
            # graph and its lifetime independent of the caller
            node._parents, node._backward = (), None

    # -- elementwise arithmetic ----------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _wrap(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    b = _wrap(b, a.dtype)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


def sub(a, b):
    b = _wrap(b, a.dtype)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


def mul(a, b):
    b = _wrap(b, a.dtype)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


def tensor_sum(a, axis=None, keepdims=False):
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        # accumulate_grad broadcasts g back over the summed axes
        a.accumulate_grad(g if axis is None or keepdims else np.expand_dims(g, axis))

    return Tensor.from_op(np.asarray(out_data), (a,), backward)


def reshape(a, shape):
    out_data = a.data.reshape(shape)

    def backward(g):
        a.accumulate_grad(g.reshape(a.data.shape))

    return Tensor.from_op(out_data, (a,), backward)


def transpose(a, axes):
    axes = tuple(axes)
    out_data = a.data.transpose(axes)
    inv = np.argsort(axes)

    def backward(g):
        a.accumulate_grad(g.transpose(inv))

    return Tensor.from_op(out_data, (a,), backward)


def sigmoid(a):
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a.accumulate_grad(g * out_data * (1.0 - out_data))

    return Tensor.from_op(out_data, (a,), backward)
