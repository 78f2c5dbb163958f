import numpy as np
import pytest

from cgpt.baselines import DLinearModel, MlpBaseline, moving_average_matrix
from cgpt.preprocessing import WindowBatch
from cgpt.tensor import Tensor, grad_check, mean_axis, square


def make_batch(batch=4, l_ctx=16, n_channels=3, h_pred=3, target=2, seed=0):
    rng = np.random.default_rng(seed)
    return WindowBatch(
        context=rng.standard_normal((batch, l_ctx, n_channels)),
        target_future=rng.standard_normal((batch, h_pred)),
        target_channel=target,
        context_channels=tuple(c for c in range(n_channels) if c != target),
    )


# ---------------------------------------------------------------- moving average

def test_moving_average_matches_edge_padded_convolution():
    l_ctx, kernel = 96, 25
    m = moving_average_matrix(l_ctx, kernel)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(l_ctx)
    padded = np.pad(x, (kernel // 2, kernel // 2), mode="edge")
    want = np.convolve(padded, np.ones(kernel) / kernel, mode="valid")
    assert np.abs(x @ m - want).max() < 1e-12


def test_moving_average_preserves_constants_and_interior_ramps():
    m = moving_average_matrix(96, 25)
    assert np.abs(m.sum(axis=0) - 1.0).max() < 1e-12  # each output averages to weight 1
    c = np.full(96, 7.3)
    assert np.abs(c @ m - c).max() < 1e-12
    ramp = np.arange(96.0)
    trend = ramp @ m
    assert np.abs(trend[12:-12] - ramp[12:-12]).max() < 1e-10  # centered mean of a line
    assert trend[0] > ramp[0]  # replicated left edge drags the mean up


def looped_moving_average(l_ctx, kernel):
    """The matrix built one clamped source index at a time."""
    half = kernel // 2
    m = np.zeros((l_ctx, l_ctx))
    for i in range(l_ctx):
        for k in range(i - half, i + half + 1):
            m[min(max(k, 0), l_ctx - 1), i] += 1.0 / kernel
    return m


@pytest.mark.parametrize("l_ctx", [1, 2, 5, 16, 96, 336])
def test_moving_average_has_the_bits_of_the_loop(l_ctx):
    for kernel in (1, 3, 5, 25, 97, 193, 201, 1001):
        m = moving_average_matrix(l_ctx, kernel)
        assert m.shape == (l_ctx, l_ctx), kernel
        assert m.tobytes() == looped_moving_average(l_ctx, kernel).tobytes(), kernel


def test_moving_average_rejects_even_kernel():
    with pytest.raises(ValueError, match="odd"):
        moving_average_matrix(96, 24)


# ---------------------------------------------------------------- dlinear

def test_dlinear_zero_params_forecasts_zero():
    model = DLinearModel(16, 3)
    for p in model.params.values():
        p.data[:] = 0.0
    out = model.forward(make_batch())
    assert np.array_equal(out.data, np.zeros((4, 3)))


def test_dlinear_zero_params_with_revin_forecasts_window_mean():
    model = DLinearModel(16, 3)
    for p in model.params.values():
        p.data[:] = 0.0
    batch = make_batch()
    out = model.forward(batch, revin=True)
    means = batch.context[:, :, 2].mean(axis=1, keepdims=True)
    assert np.abs(out.data - means).max() < 1e-12


def test_dlinear_reads_only_the_target_channel():
    model = DLinearModel(16, 3)
    batch = make_batch()
    base = model.forward(batch, revin=True).data
    poked = batch.context.copy()
    poked[:, :, 0] += 5.0
    poked[:, :, 1] *= -2.0
    redo = WindowBatch(poked, batch.target_future, 2, batch.context_channels)
    assert np.array_equal(base, model.forward(redo, revin=True).data)


def test_dlinear_grad_check():
    model = DLinearModel(16, 3)
    batch = make_batch()
    y = Tensor(batch.target_future)

    def loss_fn(_):
        return mean_axis(square(model.forward(batch, revin=True) - y))

    assert grad_check(loss_fn, model.params["trend.w"]) < 1e-4
    assert grad_check(loss_fn, model.params["seasonal.w"]) < 1e-4
    assert grad_check(loss_fn, model.params["trend.b"]) < 1e-4


def test_dlinear_init_deterministic():
    a, b = DLinearModel(16, 3, seed=4), DLinearModel(16, 3, seed=4)
    assert np.array_equal(a.params["trend.w"].data, b.params["trend.w"].data)
    c = DLinearModel(16, 3, seed=5)
    assert not np.array_equal(a.params["trend.w"].data, c.params["trend.w"].data)


# ---------------------------------------------------------------- mlp

def test_mlp_shapes_and_channel_binding():
    model = MlpBaseline(16, 3, n_vars=3)
    out = model.forward(make_batch())
    assert out.shape == (4, 3)
    with pytest.raises(ValueError, match="channels"):
        model.forward(make_batch(n_channels=5))


def test_mlp_flatten_is_time_major_channels_fastest():
    l_ctx, n_ch = 4, 3
    width = l_ctx * n_ch
    model = MlpBaseline(l_ctx, 1, n_vars=n_ch, hidden=width)
    eye = np.eye(width)
    model.params["fc1.w"].data = eye.copy()
    model.params["fc2.w"].data = eye.copy()
    for name in ("fc1.b", "fc2.b", "out.b"):
        model.params[name].data[:] = 0.0
    # positive inputs pass through identity + relu untouched
    context = np.arange(1.0, width + 1).reshape(1, l_ctx, n_ch)
    batch = WindowBatch(context, np.zeros((1, 1)), 0, (1, 2))
    for flat_index, (t, c) in [(0, (0, 0)), (1, (0, 1)), (3, (1, 0)), (11, (3, 2))]:
        w = np.zeros((width, 1))
        w[flat_index] = 1.0
        model.params["out.w"].data = w
        out = model.forward(batch)
        assert out.data[0, 0] == context[0, t, c]


def test_mlp_uses_every_channel():
    model = MlpBaseline(16, 3, n_vars=3)
    batch = make_batch()
    base = model.forward(batch).data
    poked = batch.context.copy()
    poked[:, :, 0] += 1.0
    redo = WindowBatch(poked, batch.target_future, 2, batch.context_channels)
    assert np.abs(base - model.forward(redo).data).max() > 1e-8


def test_mlp_revin_denormalizes_with_target_stats():
    model = MlpBaseline(16, 3, n_vars=3, hidden=8)
    batch = make_batch()
    base = model.forward(batch, revin=True).data
    scaled = batch.context.copy()
    scaled[:, :, 2] = scaled[:, :, 2] * 3.0 - 4.0
    redo = WindowBatch(scaled, batch.target_future, 2, batch.context_channels)
    moved = model.forward(redo, revin=True).data
    assert np.abs(moved - (base * 3.0 - 4.0)).max() < 1e-9


def test_mlp_grad_check():
    model = MlpBaseline(8, 2, n_vars=2, hidden=6)
    rng = np.random.default_rng(3)
    batch = WindowBatch(rng.standard_normal((3, 8, 2)), rng.standard_normal((3, 2)), 0, (1,))
    y = Tensor(batch.target_future)

    def loss_fn(_):
        return mean_axis(square(model.forward(batch) - y))

    for name in ("fc1.w", "fc2.w", "out.w", "fc1.b"):
        assert grad_check(loss_fn, model.params[name]) < 1e-4, name


def test_loaders_roundtrip():
    src = MlpBaseline(8, 2, n_vars=2, hidden=6, seed=1)
    dst = MlpBaseline(8, 2, n_vars=2, hidden=6, seed=2)
    dst.load_arrays({k: v.data.copy() for k, v in src.parameters().items()})
    rng = np.random.default_rng(4)
    batch = WindowBatch(rng.standard_normal((2, 8, 2)), rng.standard_normal((2, 2)), 0, (1,))
    assert np.array_equal(src.forward(batch).data, dst.forward(batch).data)
