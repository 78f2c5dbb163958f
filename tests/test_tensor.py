import inspect
import math
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from cgpt import tensor as T
from cgpt.tensor import (
    ShapeError,
    Tensor,
    backward,
    concat_last_dim,
    grad_check,
    layer_norm_last_dim,
    matmul,
    mean_axis,
    merge_heads,
    narrow,
    no_grad,
    reshape,
    softmax_last_dim,
    split_heads,
    sum_axis,
    transpose_last_two,
    zero_grads,
)

from conftest import traced_peak

SEEDS = list(range(10))


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------- forward

def test_matmul_identity_is_exact():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(a), Tensor(np.eye(2)))
    assert np.array_equal(out.data, a)


def test_matmul_2x3_times_3x1():
    a = np.arange(6.0).reshape(2, 3)
    b = np.array([[1.0], [2.0], [3.0]])
    out = matmul(Tensor(a), Tensor(b))
    assert np.array_equal(out.data, a @ b)


def test_softmax_of_equal_logits_is_uniform():
    out = softmax_last_dim(Tensor([0.0, 0.0]))
    assert np.array_equal(out.data, np.array([0.5, 0.5]))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    out = softmax_last_dim(Tensor(rng.standard_normal((4, 7))))
    assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_shift_invariance_and_saturation():
    x = np.array([3.0, -1.0, 0.5])
    a = softmax_last_dim(Tensor(x)).data
    b = softmax_last_dim(Tensor(x + 1000.0)).data
    assert np.abs(a - b).max() < 1e-12
    c = softmax_last_dim(Tensor([1000.0, 0.0, -1000.0])).data
    assert np.isfinite(c).all() and abs(c.sum() - 1.0) < 1e-12


def test_layer_norm_matches_direct_formula():
    x = np.array([1.0, 3.0])
    out = layer_norm_last_dim(Tensor(x)).data
    want = (x - 2.0) / math.sqrt(1.0 + 1e-5)
    assert np.abs(out - want).max() < 1e-15
    assert abs(out.mean()) < 1e-15


def test_gelu_known_values():
    assert T.gelu(Tensor([0.0])).data[0] == 0.0
    # 0.5 * 1 * (1 + tanh(sqrt(2/pi) * 1.044715))
    want = 0.5 * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * 1.044715))
    got = T.gelu(Tensor([1.0])).data[0]
    assert abs(got - want) < 1e-15
    # large negative input decays to ~0, no overflow
    assert abs(T.gelu(Tensor([-30.0])).data[0]) < 1e-12


# ------------------------------------------------------ gelu's bits

# Overflow, subnormal and signed-zero inputs, placed at both ends.
EXTREMES = [1e308, -1e308, 1e200, -1e200, 1e-310, -1e-310, 5e-324, 0.0, -0.0]


def serial_gelu(x):
    """gelu's forward and the gradient of its sum, as single expressions."""
    u = T._GELU_C * (x + 0.044715 * x ** 3)
    t = np.tanh(u)
    du = T._GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du


def mixed_sign(n, seed=0):
    x = np.random.default_rng(seed).standard_normal(n) * 3.0
    k = min(len(EXTREMES), n)
    x[:k] = EXTREMES[:k]
    x[n - k:] = EXTREMES[:k]
    return x


@pytest.mark.parametrize("n_chunks", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 4095, 8191, 8192, 8193, 98307])
def test_chunked_gelu_has_the_serial_bits(n_chunks, n):
    # gelu is elementwise: run over contiguous chunks of its input, at any
    # offset and length, it gives every element the formula's bits;
    # n_chunks = 1 is the whole array
    x = mixed_sign(n)
    edges = [n * i // n_chunks for i in range(n_chunks + 1)]
    outs, grads = [], []
    with np.errstate(all="ignore"):
        want_out, want_grad = serial_gelu(x)
        for lo, hi in zip(edges, edges[1:]):
            t = Tensor(x[lo:hi], requires_grad=True)
            y = T.gelu(t)
            backward(sum_axis(y))
            assert y.shape == (hi - lo,)
            outs.append(y.data)
            grads.append(t.grad)
    assert np.concatenate(outs).tobytes() == want_out.tobytes()
    assert np.concatenate(grads).tobytes() == want_grad.tobytes()


def test_gelu_keeps_the_callers_error_state():
    x = mixed_sign(98307)
    x[:len(EXTREMES)] = 1.0
    x[-len(EXTREMES):] = 1.0
    x[-1] = 1e200  # x**3 overflows in the last element only
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        T.gelu(Tensor(x))
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert T.gelu(Tensor(x)).data[-1] == 1e200


GELU_N = 1 << 16  # 512 KiB of float64s


def test_recorded_gelu_saves_one_array_for_its_backward():
    # the graph holds gelu's output and its derivative, not its input or
    # its inner tanh: the input is an intermediate the caller drops
    x = np.random.default_rng(0).standard_normal(GELU_N) * 3.0
    leaf = Tensor(np.zeros(1), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        a = T.add(Tensor(x), leaf)  # add saves shapes only
        y = T.gelu(a)
        del a
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 2 * GELU_N * 8 + 64 * 1024, f"{held / 2 ** 20:.2f} MiB"
    backward(sum_axis(y))
    assert leaf.grad.tobytes() == serial_gelu(x)[1].sum(keepdims=True).tobytes()


@pytest.mark.parametrize("recorded", [False, True])
def test_gelu_forward_peaks_at_three_arrays(recorded):
    # the unrecorded forward (evaluation) makes t, out and t + 1; the
    # recorded one computes its derivative in those three arrays' space
    x = Tensor(mixed_sign(GELU_N), requires_grad=True)

    def forward():
        with np.errstate(all="ignore"):
            if recorded:
                return T.gelu(x)
            with no_grad():
                return T.gelu(x)

    y, peak = traced_peak(forward)
    assert y.requires_grad is recorded
    assert peak <= 3 * GELU_N * 8 + 4 * 1024, f"{peak / 2 ** 20:.2f} MiB"


def test_importing_the_cli_starts_no_thread_and_no_executor():
    # a fresh `import cgpt.cli` is most of the benchmark's set-up time
    # (`setup_s`), so no module-level import may pull in a pool's modules;
    # a gelu large enough to need a thread pool must start none either
    src = str(Path(T.__file__).resolve().parents[1])
    probe = (f"import sys, threading; sys.path.insert(0, {src!r}); import cgpt.cli; "
             "import numpy as np; from cgpt.tensor import Tensor, gelu; "
             "gelu(Tensor(np.linspace(-3.0, 3.0, 98304))); "
             "loaded = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]; "
             "assert not loaded, f'{loaded} imported'; "
             "assert threading.active_count() == 1, threading.enumerate()")
    done = subprocess.run([sys.executable, "-I", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_elementwise_unary_values():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(T.relu(Tensor(x)).data, [0.0, 0.0, 3.0])
    assert np.array_equal(T.square(Tensor(x)).data, [4.0, 0.0, 9.0])


def test_relu_gradient_bits_on_signed_zero_nan_and_inf():
    """relu saves the bool mask x > 0, not x, and its backward has the bits
    of g * (x > 0): -0.0 for a negative g where the mask is 0, NaN kept."""
    x = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 2.0, -2.0])
    out = T.relu(Tensor(x, requires_grad=True))
    saved = [c.cell_contents for c in out._bwd.__closure__]
    assert [(a.dtype, a.shape) for a in saved] == [(np.bool_, x.shape)]
    cases = [
        (np.full(7, -3.0), [-0.0, -0.0, -0.0, -3.0, -0.0, -3.0, -0.0]),
        (np.array([np.nan, 1.0, -0.0, np.nan, np.inf, -0.0, 5.0]),
         [np.nan, 0.0, -0.0, np.nan, np.nan, -0.0, 0.0]),
    ]
    for g, expected in cases:
        with np.errstate(invalid="ignore"):  # inf * 0
            (gx,) = out._bwd(g)
            assert gx.tobytes() == (g * (x > 0.0)).tobytes()
        expected = np.array(expected)
        assert np.array_equal(gx, expected, equal_nan=True)
        assert np.array_equal(np.signbit(gx[~np.isnan(gx)]), np.signbit(expected[~np.isnan(gx)]))
    assert T.relu(Tensor(x))._node is None  # no gradient needed: no mask kept


def test_reductions_values():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert sum_axis(x).data == 15.0
    assert np.array_equal(sum_axis(x, axis=0).data, [3.0, 5.0, 7.0])
    assert mean_axis(x).data == 2.5
    assert np.array_equal(mean_axis(x, axis=-1).data, [1.0, 4.0])


def test_concat_and_narrow_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 5))
    parts = [narrow(Tensor(x), -1, 0, 2), narrow(Tensor(x), -1, 2, 5)]
    back = concat_last_dim(parts)
    assert np.array_equal(back.data, x)


def test_transpose_and_reshape_copy():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    t = transpose_last_two(x)
    r = reshape(x, (3, 2))
    t.data[0, 0] = 99.0
    r.data[0, 0] = 99.0
    assert x.data[0, 0] == 0.0  # outputs own their storage


def test_reshape_of_a_strided_view_makes_one_copy():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((64, 4, 96))
    x = Tensor(base.transpose(0, 2, 1), requires_grad=True)  # not C-contiguous
    out, peak = traced_peak(lambda: reshape(x, (64, 384)))
    assert base.nbytes <= peak < base.nbytes + 4096
    assert out.data.flags.c_contiguous
    assert np.array_equal(out.data, base.transpose(0, 2, 1).reshape(64, 384))
    g = rng.standard_normal((64, 384))
    backward(sum_axis(out * Tensor(g)))
    assert x.grad.tobytes() == g.reshape(64, 96, 4).tobytes()


def test_split_and_merge_heads_values():
    x = np.arange(2 * 3 * 6.0).reshape(2, 3, 6)
    heads = np.stack([x[..., 0:2], x[..., 2:4], x[..., 4:6]], axis=-3)  # (2, 3 heads, 3, 2)
    split = split_heads(Tensor(x), 3)
    split_t = split_heads(Tensor(x), 3, transpose=True)
    assert np.array_equal(split.data, heads) and split.data.flags.c_contiguous
    assert np.array_equal(split_t.data, heads.swapaxes(-1, -2)) and split_t.data.flags.c_contiguous
    assert np.array_equal(merge_heads(split).data, x)
    split.data[0, 0, 0, 0] = 99.0
    assert x[0, 0, 0] == 0.0  # the split owns its storage


def test_split_heads_rejects_a_width_the_heads_do_not_divide():
    with pytest.raises(ShapeError, match=r"\(2, 5\).*3 heads"):
        split_heads(Tensor(np.zeros((2, 5))), 3)
    with pytest.raises(ShapeError):
        split_heads(Tensor(np.zeros(6)), 2)
    with pytest.raises(ShapeError):
        merge_heads(Tensor(np.zeros((2, 3))))


def test_head_gradient_layouts():
    # matmul rounds by operand layout, so these layouts are fixed: the
    # split's gradient is C order, like narrow's scatter; the merge's is a
    # view whose per-head matrices have the strides of g[..., lo:hi]
    x = Tensor(np.zeros((4, 3, 6)), requires_grad=True)
    for transpose in (False, True):
        out = split_heads(x, 3, transpose=transpose)
        (gx,) = out._bwd(np.ones(out.shape))
        assert gx.shape == x.shape and gx.flags.c_contiguous
    g = np.arange(4 * 3 * 6.0).reshape(4, 3, 6)
    (gh,) = merge_heads(Tensor(np.zeros((4, 3, 3, 2)), requires_grad=True))._bwd(g)
    assert np.shares_memory(gh, g)
    for i in range(3):
        assert np.array_equal(gh[:, i], g[..., 2 * i:2 * i + 2])
        assert gh[:, i].strides == g[..., 2 * i:2 * i + 2].strides


# ---------------------------------------------------------------- backward, hand oracles

def test_grad_of_sum_of_squares_is_2x():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    backward(sum_axis(T.square(x)))
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_fanout_accumulates():
    a = Tensor([3.0], requires_grad=True)
    backward(sum_axis(T.mul(a, a)))
    assert np.array_equal(a.grad, [6.0])  # d/da (a*a) = 2a
    b = Tensor([1.0, 2.0], requires_grad=True)
    backward(sum_axis(b + b))
    assert np.array_equal(b.grad, [2.0, 2.0])


def test_matmul_grad_hand_computed():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
    backward(sum_axis(matmul(a, b)))
    ones = np.ones((2, 2))
    assert np.array_equal(a.grad, ones @ b.data.T)
    assert np.array_equal(b.grad, a.data.T @ ones)


def test_broadcast_bias_grad_sums_leading_dims():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 3, 5)))
    bias = Tensor(rng.standard_normal(5), requires_grad=True)
    backward(sum_axis(x + bias))
    assert bias.grad.shape == (5,)
    assert np.abs(bias.grad - 12.0).max() < 1e-12


def test_narrow_grad_scatters_into_zeros():
    x = Tensor(np.arange(5.0), requires_grad=True)
    backward(sum_axis(narrow(x, -1, 1, 3)))
    assert np.array_equal(x.grad, [0.0, 1.0, 1.0, 0.0, 0.0])


def test_narrow_over_whole_axis_passes_gradient_through():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    whole = narrow(x, -1, 0, 3)
    g = np.arange(6.0).reshape(2, 3)
    assert whole._bwd(g)[0] is g
    # a strided view comes back as a C-contiguous copy, as the scatter
    # into zeros would give, so matmul backward sees the same layout
    strided = np.arange(6.0).reshape(3, 2).T
    (out,) = whole._bwd(strided)
    assert np.array_equal(out, strided) and out.flags.c_contiguous


def test_backward_writes_grad_on_leaves_only():
    x = Tensor([0.5, -1.0, 2.0], requires_grad=True)
    w = Tensor([1.5, 0.25, -3.0], requires_grad=True)
    b = Tensor([0.75], requires_grad=True)
    h = T.mul(x, w)
    y = h + b
    sq = T.square(y)
    backward(sum_axis(sq))
    assert h.grad is None and y.grad is None and sq.grad is None
    # the same arithmetic the closures perform: d sum(y^2) = 2y, then mul/add
    dy = 2.0 * y.data
    assert np.array_equal(x.grad, dy * w.data)
    assert np.array_equal(w.grad, dy * x.data)
    assert np.array_equal(b.grad, dy.sum(keepdims=True))


def test_narrow_scatter_gradient_is_c_contiguous():
    # matmul rounds by operand layout, so the scatter's layout is fixed
    g = np.ones((3, 2))
    c_in = Tensor(np.zeros((3, 4)), requires_grad=True)
    (z,) = narrow(c_in, -1, 1, 3)._bwd(g)
    assert z.flags.c_contiguous and np.array_equal(z[:, 1:3], g)


# ---------------------------------------------------------------- graph memory

def test_intermediate_no_backward_reads_is_freed_and_grads_keep_their_bits():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((5, 4)))
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    kept = []

    def loss_of(keep):
        """sum((x @ w + b)^2); the matmul output's tensor is dropped unless kept."""
        h = matmul(x, w)
        if keep:
            kept.append(h)
        return sum_axis(T.square(h + b)), weakref.ref(h.data)

    loss, h_data = loss_of(keep=False)
    # the bias add saves only shapes, so nothing holds the matmul output
    assert h_data() is None
    backward(loss)
    grads = w.grad.copy(), b.grad.copy()
    zero_grads([w, b])

    loss_kept, h_data = loss_of(keep=True)
    assert h_data() is not None
    backward(loss_kept)
    assert loss.data.tobytes() == loss_kept.data.tobytes()
    assert w.grad.tobytes() == grads[0].tobytes()
    assert b.grad.tobytes() == grads[1].tobytes()


def test_an_input_matmul_saved_stays_alive_until_the_graph_goes():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((5, 4)))
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    x_data = x.data.copy()
    ref = weakref.ref(x.data)
    loss = sum_axis(matmul(x, w))
    del x
    assert ref() is not None  # w's gradient reads it
    backward(loss)
    assert np.array_equal(w.grad, x_data.T @ np.ones((5, 3)))
    del loss
    assert ref() is None


def _op_calls(rng):
    """name -> (op call on grad-requiring inputs) for every autodiff op."""
    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    return {
        "add": lambda: T.add(t(2, 3), t(3)),
        "sub": lambda: T.sub(t(2, 3), t(3)),
        "mul": lambda: T.mul(t(2, 3), t(3)),
        "scale": lambda: T.scale(t(2, 3), 0.5),
        "matmul": lambda: matmul(t(2, 3), t(3, 4)),
        "transpose_last_two": lambda: transpose_last_two(t(2, 3)),
        "reshape": lambda: reshape(t(2, 3), (3, 2)),
        "concat_last_dim": lambda: concat_last_dim([t(2, 3), Tensor(np.ones((2, 1))), t(2, 2)]),
        "narrow": lambda: narrow(t(2, 3), -1, 1, 2),
        "split_heads": lambda: split_heads(t(2, 3, 4), 2, transpose=True),
        "merge_heads": lambda: merge_heads(t(2, 3, 2)),
        "sum_axis": lambda: sum_axis(t(2, 3), axis=0),
        "mean_axis": lambda: mean_axis(t(2, 3)),
        "softmax_last_dim": lambda: softmax_last_dim(t(2, 3)),
        "layer_norm_last_dim": lambda: layer_norm_last_dim(t(2, 3)),
        "gelu": lambda: T.gelu(t(2, 3)),
        "relu": lambda: T.relu(t(2, 3)),
        "square": lambda: T.square(t(2, 3)),
    }


def _holds_tensor(value):
    if isinstance(value, Tensor):
        return True
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_holds_tensor(v) for v in value)
    if isinstance(value, dict):
        return any(_holds_tensor(v) for v in value.values())
    return False


def test_no_backward_closure_holds_a_tensor():
    calls = _op_calls(np.random.default_rng(5))
    not_ops = {"backward", "zero_grads", "grad_check", "no_grad"}
    public = {name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and not name.startswith("_")}
    assert public - not_ops == set(calls), "a new op needs an entry in _op_calls"
    for name, call in calls.items():
        out = call()
        cells = [c.cell_contents for c in out._bwd.__closure__ or ()]
        assert not any(_holds_tensor(v) for v in cells), name
        # the node refers to leaves that need gradients, never to a no-grad input
        assert all(p.requires_grad for p in out._parents if isinstance(p, Tensor)), name


def test_concat_node_refers_to_no_grad_part_as_none():
    a = Tensor(np.ones((2, 1)), requires_grad=True)
    out = concat_last_dim([a, Tensor(np.ones((2, 1)))])
    assert out._parents == (a, None)
    assert transpose_last_two(out)._parents == (out._node,)


def test_concat_has_no_cross_talk():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    cat = concat_last_dim([a, b])
    backward(sum_axis(narrow(cat, -1, 2, 3)))  # only b's slice contributes
    assert np.array_equal(a.grad, [0.0, 0.0])
    assert np.array_equal(b.grad, [1.0])


def test_backward_twice_accumulates():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = sum_axis(T.square(x))
    backward(loss)
    backward(loss)
    assert np.array_equal(x.grad, 4.0 * x.data)


# gradients whose bits adding them into zeros changes or keeps: signed
# zeros, subnormals of both signs, the extremes and nan
EDGE_GRADS = np.array([-0.0, 0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308, 1.5,
                       1.7976931348623157e308, -np.inf, np.inf, np.nan])


def zeros_plus(g):
    """A leaf's first gradient as ``zeros_like`` then ``+=`` makes it."""
    out = np.zeros_like(g)
    out += g
    return out


def test_a_leaf_takes_its_gradient_with_the_bits_of_zeros_plus_g():
    x = Tensor(np.ones(EDGE_GRADS.size), requires_grad=True)
    with np.errstate(invalid="ignore"):  # the loss sums inf and -inf
        backward(sum_axis(T.mul(x, Tensor(EDGE_GRADS))))
    assert x.grad.tobytes() == zeros_plus(EDGE_GRADS).tobytes()
    assert x.grad[0] == 0.0 and math.copysign(1.0, x.grad[0]) == 1.0  # -0.0 became +0.0


@pytest.mark.parametrize("op", [T.add, T.sub])
def test_equal_shape_leaves_of_add_and_sub_get_distinct_grads(op):
    """add hands both parents one array, and sub hands the first its input
    gradient: each leaf still ends with its own array and zeros + g's bits."""
    x = Tensor(np.ones(EDGE_GRADS.size), requires_grad=True)
    y = Tensor(np.ones(EDGE_GRADS.size), requires_grad=True)
    with np.errstate(invalid="ignore", over="ignore"):  # x + y overflows at 1.8e308
        backward(sum_axis(T.mul(op(x, y), Tensor(EDGE_GRADS))))
    assert not np.shares_memory(x.grad, y.grad)
    assert x.grad.tobytes() == zeros_plus(EDGE_GRADS).tobytes()
    y_grad = EDGE_GRADS if op is T.add else -EDGE_GRADS
    assert y.grad.tobytes() == zeros_plus(y_grad).tobytes()


@pytest.mark.parametrize("op, grad", [
    (lambda x: x, 1.0),  # sum_axis's backward is a read-only broadcast
    (lambda x: reshape(x, (4, 3)), 1.0),
    (lambda x: narrow(x, 0, 0, 3), 1.0),
    (lambda x: T.add(x, x), 2.0),
], ids=["broadcast", "reshape", "narrow_whole_axis", "add_of_itself"])
def test_a_leaf_gets_a_writable_grad_of_its_own(op, grad):
    """AdamW computes its update in ``grad``, so a view never becomes one."""
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    backward(sum_axis(op(x)))
    assert x.grad.flags.owndata and x.grad.flags.writeable
    assert np.array_equal(x.grad, np.full((3, 4), grad))


def test_zero_grads_and_untouched_tensors():
    x = Tensor([1.0], requires_grad=True)
    other = Tensor([1.0], requires_grad=True)
    backward(sum_axis(T.square(x)))
    assert other.grad is None  # unreachable tensor untouched
    zero_grads([x])
    assert x.grad is None


def test_mean_backward_spreads_one_over_n():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    backward(mean_axis(x))
    assert np.abs(x.grad - 1.0 / 6.0).max() < 1e-15


# ---------------------------------------------------------------- errors

def test_non_scalar_root_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(x + x)


def test_root_outside_graph_rejected():
    with pytest.raises(ValueError):
        backward(Tensor([1.0]))


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"2, 3"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        transpose_last_two(Tensor([1.0]))
    with pytest.raises(ShapeError):
        reshape(Tensor(np.zeros(5)), (2, 3))
    with pytest.raises(ShapeError):
        narrow(Tensor(np.zeros(4)), -1, 2, 7)
    with pytest.raises(ShapeError):
        concat_last_dim([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2)))])


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = sum_axis(T.square(x))
    assert not y.requires_grad
    with pytest.raises(ValueError):
        backward(y)


# ---------------------------------------------------------------- finite differences

def test_grad_check_exact_for_linear():
    x = Tensor(np.arange(4.0), requires_grad=True)
    assert grad_check(lambda t: sum_axis(t), x) < 1e-10


def test_grad_check_softmax_sum_is_constant():
    # softmax rows always sum to 1, so every gradient is ~0 on both sides
    x = Tensor(np.array([0.3, -1.2, 0.9]), requires_grad=True)
    assert grad_check(lambda t: sum_axis(softmax_last_dim(t)), x) < 1e-9


def test_grad_check_rejects_bad_step():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda t: sum_axis(t), x, step=0.0)
    with pytest.raises(ValueError):
        grad_check(lambda t: sum_axis(t), x, step=0.01)


def test_grad_check_differences_without_a_graph():
    # only the analytic pass needs a graph; each f(x) of the finite
    # differences needs only its value
    seen = []

    def f(t):
        seen.append(T._GRAD_ENABLED)
        return sum_axis(T.gelu(t))

    x = Tensor(np.array([0.3, -1.2, 0.9]), requires_grad=True)
    assert grad_check(f, x) < 1e-6
    assert seen == [True] + [False] * 6
    assert T._GRAD_ENABLED


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_check_every_op(seed):
    """Finite-difference check over the whole op set, one random draw per seed."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.standard_normal((3, 4)))
    rand_fixed = Tensor(rng.standard_normal((2, 3)))

    cases = [
        lambda t: sum_axis(matmul(t, w)),
        lambda t: sum_axis(T.square(t + rand_fixed)),
        lambda t: sum_axis(T.square(t - rand_fixed)),
        lambda t: sum_axis(T.square(T.mul(t, rand_fixed))),
        lambda t: sum_axis(T.square(T.scale(t, -1.7))),
        lambda t: sum_axis(T.square(transpose_last_two(t))),
        lambda t: sum_axis(T.square(reshape(t, (3, 2)))),
        lambda t: sum_axis(T.square(concat_last_dim([t, t]))),
        lambda t: sum_axis(T.square(narrow(t, -1, 1, 3))),
        lambda t: sum_axis(T.square(sum_axis(t, axis=0))),
        lambda t: T.square(mean_axis(t)),
        lambda t: sum_axis(T.square(softmax_last_dim(t))),
        lambda t: sum_axis(T.square(layer_norm_last_dim(t))),
        lambda t: sum_axis(T.square(T.gelu(t))),
        lambda t: sum_axis(T.square(t)),
    ]
    for f in cases:
        x = Tensor(rng.standard_normal((2, 3)) * 0.7, requires_grad=True)
        assert grad_check(f, x) < 1e-4


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)], ids=["unbatched", "batched"])
@pytest.mark.parametrize("op", ["split", "split_transposed", "merge"])
def test_grad_check_head_ops(op, shape):
    """A weighted sum, not a sum of squares: a wrong axis order must show."""
    rng = np.random.default_rng(len(shape))
    if op == "merge":  # (..., h, n, dh) with h = 2, dh = 2
        shape = (*shape[:-2], 2, shape[-2], 2)

    def head_op(t):
        if op == "merge":
            return merge_heads(t)
        return split_heads(t, 2, transpose=op == "split_transposed")

    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    weight = Tensor(rng.standard_normal(head_op(x).shape))
    assert grad_check(lambda t: sum_axis(T.mul(head_op(t), weight)), x) < 1e-6
    x.grad = None
    backward(sum_axis(T.mul(head_op(x), weight)))
    # the gradient of a weighted sum is the weight, laid back out like x
    if op == "merge":
        back = split_heads(weight, 2).data
    else:
        w = weight.data.swapaxes(-1, -2) if op == "split_transposed" else weight.data
        back = merge_heads(Tensor(w)).data
    assert np.array_equal(x.grad, back)


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_grad_check_relu_away_from_kink(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((2, 5))
    data[np.abs(data) < 1e-2] = 0.5  # finite differences straddle the kink otherwise
    x = Tensor(data, requires_grad=True)
    assert grad_check(lambda t: sum_axis(T.square(T.relu(t))), x) < 1e-4


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_grad_check_random_composition(seed):
    rng = np.random.default_rng(100 + seed)
    w1 = Tensor(rng.standard_normal((4, 6)))
    w2 = Tensor(rng.standard_normal((6, 2)))

    def f(t):
        h = T.gelu(matmul(t, w1))
        h = layer_norm_last_dim(h)
        h = matmul(h, w2)
        h = softmax_last_dim(h)
        return mean_axis(T.square(h))

    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    assert grad_check(f, x) < 1e-4
