"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what the forecasting models in this package need;
anything else is deliberately unrepresentable.  Each op records a backward
closure on its output when some input requires gradients.  ``backward``
replays the closures in reverse creation order, which is a valid
topological order because operands always exist before the op that
consumes them.  Only leaves (tensors no op produced, such as parameters)
receive a ``.grad``; an intermediate's gradient lives only until its own
backward closure has consumed it.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

LAYER_NORM_EPS = 1e-5

_COUNTER = itertools.count()
_GRAD_ENABLED = True


class ShapeError(ValueError):
    """Operand shapes incompatible for the attempted op."""


class Tensor:
    """A dense float64 array, optionally tracked by the autodiff graph."""

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._bwd = None
        self._id = next(_COUNTER)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar over the closed op set
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


@contextmanager
def no_grad():
    """Suspend graph recording (evaluation passes)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _record(data, parents, bwd):
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bwd = bwd
    return out


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def bwd(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bwd)


def sub(a, b):
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None

    def bwd(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bwd)


def mul(a, b):
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def bwd(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bwd)


def scale(a, c):
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _record(a.data * c, (a,), bwd)


def matmul(a, b):
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ for {a.shape} @ {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: batch dims of {a.shape} and {b.shape} do not broadcast") from None

    def bwd(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
        return ga, gb

    return _record(out, (a, b), bwd)


def transpose_last_two(a):
    if a.data.ndim < 2:
        raise ShapeError(f"transpose_last_two: needs at least 2-D, got {a.shape}")

    def bwd(g):
        return (g.swapaxes(-1, -2),)

    return _record(a.data.swapaxes(-1, -2).copy(), (a,), bwd)


def reshape(a, shape):
    try:
        out = a.data.reshape(shape).copy()
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return _record(out, (a,), bwd)


def concat_last_dim(parts):
    parts = list(parts)
    if not parts:
        raise ValueError("concat_last_dim: empty input")
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last_dim: leading dims differ, {parts[0].shape} vs {p.shape}")
    out = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.shape[-1] for p in parts]

    def bwd(g):
        grads = []
        lo = 0
        for p, w in zip(parts, widths):
            grads.append(g[..., lo:lo + w] if p.requires_grad else None)
            lo += w
        return tuple(grads)

    return _record(out, tuple(parts), bwd)


def narrow(a, axis, start, stop):
    """Slice ``a`` along one axis; the backward scatters into zeros, or
    passes ``g`` through (in C order) when the slice spans the whole axis."""
    dim = a.shape[axis]
    if not (0 <= start < stop <= dim):
        raise ShapeError(f"narrow: [{start}:{stop}] out of range for axis {axis} of {a.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    whole = stop - start == dim

    def bwd(g):
        if whole:
            # numpy's matmul rounds differently on a strided operand, so
            # keep the C layout the scatter below would have given
            return (np.ascontiguousarray(g),)
        z = np.zeros_like(a.data)
        z[idx] = g
        return (z,)

    return _record(a.data[idx].copy(), (a,), bwd)


def sum_axis(a, axis=None):
    if axis is None:
        out = a.data.sum()

        def bwd(g):
            return (np.broadcast_to(g, a.data.shape),)
    else:
        out = a.data.sum(axis=axis)

        def bwd(g):
            return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape),)

    return _record(out, (a,), bwd)


def mean_axis(a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]
    if n == 0:
        raise ShapeError("mean_axis: empty reduction")
    if axis is None:
        out = a.data.mean()

        def bwd(g):
            return (np.broadcast_to(g / n, a.data.shape),)
    else:
        out = a.data.mean(axis=axis)

        def bwd(g):
            return (np.broadcast_to(np.expand_dims(g, axis) / n, a.data.shape),)

    return _record(out, (a,), bwd)


def softmax_last_dim(a):
    m = a.data.max(axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _record(s, (a,), bwd)


def layer_norm_last_dim(a, eps=LAYER_NORM_EPS):
    """Normalize the last dim to zero mean / unit variance; no gain or bias."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = (x - mu) * inv

    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - y * gym),)

    return _record(y, (a,), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a):
    """tanh-approximation gelu: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    x = a.data
    u = _GELU_C * (x + 0.044715 * x ** 3)
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)

    def bwd(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du),)

    return _record(out, (a,), bwd)


def relu(a):
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (a.data > 0.0),)

    return _record(out, (a,), bwd)


def tanh(a):
    t = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - t ** 2),)

    return _record(t, (a,), bwd)


def square(a):
    def bwd(g):
        return (g * 2.0 * a.data,)

    return _record(a.data ** 2, (a,), bwd)


def sqrt(a):
    r = np.sqrt(a.data)

    def bwd(g):
        return (g / (2.0 * r),)

    return _record(r, (a,), bwd)


def backward(root):
    """Accumulate d(root)/d(leaf) into ``grad`` of every requires_grad leaf
    reachable from ``root``.

    A leaf is a tensor no op produced (it has no backward closure).
    Intermediates never get a ``grad``: each one's gradient is dropped as
    soon as its closure has consumed it.  Gradients accumulate additively,
    both across fan-out within one call and across repeated calls; use
    ``zero_grads`` between steps.  The graph itself is left intact, so a
    second call on the same root adds the same gradients again.
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ValueError("backward: root does not participate in a differentiation graph")

    nodes = [root]
    seen = {id(root)}
    i = 0
    while i < len(nodes):
        for p in nodes[i]._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
        i += 1
    nodes.sort(key=lambda t: t._id, reverse=True)

    # Every consumer of a tensor was created after it, so by the time a
    # tensor comes up in this order its flow is complete.
    flow = {id(root): np.ones_like(root.data)}
    for t in nodes:
        g = flow.pop(id(t), None)
        if g is None:
            continue
        if t._bwd is None:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g
            continue
        for p, pg in zip(t._parents, t._bwd(g)):
            if pg is None or not p.requires_grad:
                continue
            held = flow.get(id(p))
            flow[id(p)] = pg if held is None else held + pg


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def grad_check(f, x, step=1e-5):
    """Max relative error between backward() and central finite differences.

    ``f`` must map ``x`` to a scalar Tensor and rebuild its graph on each
    call; ``x.data`` is perturbed in place one coordinate at a time.
    """
    if not (0.0 < step <= 1e-3):
        raise ValueError(f"grad_check: step must be in (0, 1e-3], got {step}")
    if not x.requires_grad:
        raise ValueError("grad_check: x must require gradients")

    y = f(x)
    if y.data.size != 1:
        raise ValueError(f"grad_check: f must be scalar-valued, got shape {y.shape}")
    if not np.isfinite(y.data).all():
        raise ValueError("grad_check: f(x) is not finite")
    x.grad = None
    backward(y)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None

    fd = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    fd_flat = fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x).item()
        flat[i] = orig - step
        lo = f(x).item()
        flat[i] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError(f"grad_check: f not finite near coordinate {i}")
        fd_flat[i] = (hi - lo) / (2.0 * step)

    rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
    return float(rel.max())
