"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what the forecasting models in this package need;
anything else is deliberately unrepresentable.  When some input of an op
requires gradients, its output gets a ``_Node``: the graph bookkeeping,
kept apart from the data.  A node holds its backward closure and one
entry per input: the input's own node, the input tensor itself when it
is a leaf that requires gradients (a tensor no op produced, such as a
parameter), or ``None`` when the input needs no gradient.  Nodes never
hold an output's array, and each closure saves only what it reads:

* ``add``, ``sub``: the input shapes that need a gradient;
* ``mul``, ``matmul``: the operand arrays (each grad reads the other one);
* ``relu``: the mask ``x > 0``; ``square``: the input array;
* ``reshape``, ``narrow``, ``sum_axis``, ``mean_axis``: the input shape;
  ``concat_last_dim``: the widths and which parts need a gradient;
  ``split_heads``: the inverse axis permutation and the input shape;
  ``merge_heads``: the split shape;
* ``softmax_last_dim``: its output; ``layer_norm_last_dim``: its output
  and the inverse deviations; ``gelu``: its input and inner ``tanh``;
* ``scale``: its factor; ``transpose_last_two``: nothing.

So an intermediate array that no closure saved is freed as soon as the
model code drops its tensor, not when the step's graph goes.  ``backward``
replays the closures in reverse creation order, which is a valid
topological order because operands always exist before the op that
consumes them.  Only leaves receive a ``.grad``; an intermediate's
gradient lives only until its own backward closure has consumed it.
"""

from __future__ import annotations

import itertools
import math
import sys
from contextlib import contextmanager

import numpy as np

LAYER_NORM_EPS = 1e-5

_COUNTER = itertools.count()
_GRAD_ENABLED = True


class ShapeError(ValueError):
    """Operand shapes incompatible for the attempted op."""


class _Node:
    """What ``backward`` needs of one op output: no array of the output.

    ``parents`` has one entry per op input: its node, the input itself
    for a leaf that requires gradients, or ``None``.  ``_id`` is the
    output tensor's creation index.
    """

    __slots__ = ("parents", "bwd", "_id")

    def __init__(self, parents, bwd, id_):
        self.parents = parents
        self.bwd = bwd
        self._id = id_


class Tensor:
    """A dense float64 array, optionally tracked by the autodiff graph."""

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._node = None
        self._id = next(_COUNTER)

    @property
    def _parents(self):
        return () if self._node is None else self._node.parents

    @property
    def _bwd(self):
        return None if self._node is None else self._node.bwd

    @_bwd.setter
    def _bwd(self, bwd):
        # lets a caller wrap an op's backward closure, e.g. to time it
        self._node.bwd = bwd

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
        out._node = _Node(tuple((p._node or p) if p.requires_grad else None
                                for p in parents), bwd, out._id)
    return out


def _shape_if_grad(t):
    """``t``'s shape when ``t`` needs a gradient, else ``None``."""
    return t.shape if t.requires_grad else None


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
    sa, sb = _shape_if_grad(a), _shape_if_grad(b)

    def bwd(g):
        ga = None if sa is None else _unbroadcast(g, sa)
        gb = None if sb is None else _unbroadcast(g, sb)
        return ga, gb

    return _record(out, (a, b), bwd)


def sub(a, b):
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None
    sa, sb = _shape_if_grad(a), _shape_if_grad(b)

    def bwd(g):
        ga = None if sa is None else _unbroadcast(g, sa)
        gb = None if sb is None else _unbroadcast(-g, sb)
        return ga, gb

    return _record(out, (a, b), bwd)


def mul(a, b):
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    sa, sb = a.shape, b.shape
    # each operand's grad reads the other operand's array
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None

    def bwd(g):
        ga = None if bd is None else _unbroadcast(g * bd, sa)
        gb = None if ad is None else _unbroadcast(g * ad, sb)
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
    sa, sb = a.shape, b.shape
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None

    def bwd(g):
        ga = None if bd is None else _unbroadcast(g @ bd.swapaxes(-1, -2), sa)
        gb = None if ad is None else _unbroadcast(ad.swapaxes(-1, -2) @ g, sb)
        return ga, gb

    return _record(out, (a, b), bwd)


def transpose_last_two(a):
    """Swap the last two axes, as a copy.  The models no longer call it
    (``split_heads`` transposes k); the benchmark's tracer wraps it by name."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose_last_two: needs at least 2-D, got {a.shape}")

    def bwd(g):
        return (g.swapaxes(-1, -2),)

    return _record(a.data.swapaxes(-1, -2).copy(), (a,), bwd)


def split_heads(a, n_heads, transpose=False):
    """(..., n, h*dh) -> a C-order copy laid out (..., h, n, dh), one
    (n, dh) matrix per head; with ``transpose``, (..., h, dh, n), each
    head's matrix transposed.  The backward gives a C-order (..., n, d)."""
    if a.data.ndim < 2 or n_heads < 1 or a.shape[-1] % n_heads:
        raise ShapeError(f"split_heads: shape {a.shape} does not split into {n_heads} heads")
    *lead, n, d = a.shape
    k = len(lead)
    # axes of the (..., n, h, dh) view, in output order
    perm = (*range(k), k + 1, k + 2, k) if transpose else (*range(k), k + 1, k, k + 2)
    inverse = tuple(perm.index(i) for i in range(k + 3))
    in_shape = a.shape

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inverse).reshape(in_shape)),)

    return _record(a.data.reshape(*lead, n, n_heads, d // n_heads).transpose(perm).copy(),
                   (a,), bwd)


def merge_heads(a):
    """(..., h, n, dh) -> (..., n, h*dh): the heads side by side, in order
    (a copy, or with one head a view of ``a``'s array)."""
    if a.data.ndim < 3:
        raise ShapeError(f"merge_heads: needs at least 3-D, got {a.shape}")
    *lead, h, n, dh = a.shape
    split_shape = (*lead, n, h, dh)

    def bwd(g):
        # a strided view: each head's (n, dh) matrix has the strides of the
        # column slice g[..., lo:hi], which numpy's matmul rounds as such
        return (g.reshape(split_shape).swapaxes(-3, -2),)

    return _record(a.data.swapaxes(-3, -2).reshape(*lead, n, h * dh), (a,), bwd)


def reshape(a, shape):
    # copy first, then view: one C-order copy even when ``a`` is strided,
    # where reshape-then-copy copies twice
    try:
        out = a.data.copy().reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None
    in_shape = a.shape

    def bwd(g):
        return (g.reshape(in_shape),)

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
    widths = [(p.shape[-1], p.requires_grad) for p in parts]

    def bwd(g):
        grads = []
        lo = 0
        for w, needs_grad in widths:
            grads.append(g[..., lo:lo + w] if needs_grad else None)
            lo += w
        return tuple(grads)

    return _record(out, tuple(parts), bwd)


def narrow(a, axis, start, stop):
    """Slice ``a`` along one axis; the backward scatters into C-order zeros,
    or passes ``g`` through (in C order) when the slice spans the whole axis."""
    dim = a.shape[axis]
    if not (0 <= start < stop <= dim):
        raise ShapeError(f"narrow: [{start}:{stop}] out of range for axis {axis} of {a.shape}")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    whole = stop - start == dim
    in_shape = a.shape

    def bwd(g):
        if whole:
            # numpy's matmul rounds differently on a strided operand, so
            # keep the C layout the scatter below would have given
            return (np.ascontiguousarray(g),)
        z = np.zeros(in_shape)
        z[idx] = g
        return (z,)

    return _record(a.data[idx].copy(), (a,), bwd)


def sum_axis(a, axis=None):
    in_shape = a.shape
    if axis is None:
        out = a.data.sum()

        def bwd(g):
            return (np.broadcast_to(g, in_shape),)
    else:
        out = a.data.sum(axis=axis)

        def bwd(g):
            return (np.broadcast_to(np.expand_dims(g, axis), in_shape),)

    return _record(out, (a,), bwd)


def mean_axis(a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]
    if n == 0:
        raise ShapeError("mean_axis: empty reduction")
    in_shape = a.shape
    if axis is None:
        out = a.data.mean()

        def bwd(g):
            return (np.broadcast_to(g / n, in_shape),)
    else:
        out = a.data.mean(axis=axis)

        def bwd(g):
            return (np.broadcast_to(np.expand_dims(g, axis) / n, in_shape),)

    return _record(out, (a,), bwd)


def softmax_last_dim(a):
    m = a.data.max(axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _record(s, (a,), bwd)


def layer_norm_last_dim(a):
    """Normalize the last dim to zero mean / unit variance; no gain or bias."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y = (x - mu) * inv

    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - y * gym),)

    return _record(y, (a,), bwd)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a):
    """tanh-approximation gelu: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))).

    The forward runs the formula's operations in the formula's order over
    the whole array, in place where it can.  Do not reassociate:
    ``((1 + t) * x) * 0.5`` overflows at x = 1e308.
    """
    # contiguous, because the rounding of power and tanh can depend on layout
    x = np.ascontiguousarray(a.data)
    t = np.power(x, 3)
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = x * 0.5
    out *= t + 1.0

    def bwd(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du),)

    return _record(out, (a,), bwd)


def relu(a):
    x = a.data
    # the backward reads only where x > 0: a bool mask, an eighth of x
    mask = x > 0.0 if a.requires_grad else None

    def bwd(g):
        return (g * mask,)

    return _record(np.maximum(x, 0.0), (a,), bwd)


def square(a):
    x = a.data

    def bwd(g):
        return (g * 2.0 * x,)

    return _record(x ** 2, (a,), bwd)


def backward(root):
    """Accumulate d(root)/d(leaf) into ``grad`` of every requires_grad leaf
    reachable from ``root``.

    The walk goes over nodes (``_Node``), not tensors: from the root's
    node through each node's ``parents`` to the leaf tensors, which are
    the only tensors the graph holds.  Intermediates never get a
    ``grad``: each node's gradient is dropped as soon as its closure has
    consumed it.  Gradients accumulate additively, both across fan-out
    within one call and across repeated calls; use ``zero_grads`` between
    steps.  The graph itself is left intact, so a second call on the same
    root adds the same gradients again.

    A leaf without a ``grad`` takes an incoming writable C-order float64
    array of its shape that only the walk refers to, and adds 0.0 to it:
    ``zeros_like + g``'s bits.  Views and shared arrays go into zeros.
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ValueError("backward: root does not participate in a differentiation graph")

    start = root._node or root
    nodes = [start]
    seen = {id(start)}
    i = 0
    while i < len(nodes):
        n = nodes[i]
        i += 1
        if isinstance(n, Tensor):  # a leaf
            continue
        for p in n.parents:
            if p is not None and id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
    nodes.sort(key=lambda n: n._id, reverse=True)

    # Every consumer of a node was created after it, so by the time a
    # node comes up in this order its flow is complete.
    flow = {id(start): np.ones_like(root.data)}
    lone = np.empty(0)  # what getrefcount says of an array one local holds
    lone_refs = sys.getrefcount(lone)
    for n in nodes:
        g = flow.pop(id(n), None)
        if g is None:
            continue
        if isinstance(n, Tensor):  # a leaf
            if n.grad is None:
                if (sys.getrefcount(g) == lone_refs and type(g) is np.ndarray and g.flags.owndata
                        and g.flags.carray and g.dtype == np.float64 and g.shape == n.data.shape):
                    n.grad, g = g, 0.0  # so the += below gives zeros_like + g's bits
                else:
                    n.grad = np.zeros_like(n.data)
            n.grad += g
            continue
        for p, pg in zip(n.parents, n.bwd(g)):
            if pg is None or p is None:
                continue
            held = flow.get(id(p))
            flow[id(p)] = pg if held is None else held + pg
        held = pg = None  # so that ``flow`` alone refers to each gradient


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
