import math

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
    narrow,
    no_grad,
    reshape,
    softmax_last_dim,
    sum_axis,
    transpose_last_two,
    zero_grads,
)

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


def test_elementwise_unary_values():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.array_equal(T.relu(Tensor(x)).data, [0.0, 0.0, 3.0])
    assert np.array_equal(T.square(Tensor(x)).data, [4.0, 0.0, 9.0])
    assert np.array_equal(T.tanh(Tensor(x)).data, np.tanh(x))
    assert np.array_equal(T.sqrt(Tensor([4.0, 9.0])).data, [2.0, 3.0])


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
        lambda t: sum_axis(T.tanh(t)),
        lambda t: sum_axis(T.square(t)),
        lambda t: sum_axis(T.sqrt(T.square(t) + Tensor(np.full((2, 3), 2.0)))),
    ]
    for f in cases:
        x = Tensor(rng.standard_normal((2, 3)) * 0.7, requires_grad=True)
        assert grad_check(f, x) < 1e-4


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
