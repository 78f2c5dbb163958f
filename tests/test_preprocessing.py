import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cgpt import baselines, model, preprocessing
from cgpt.baselines import DLinearModel, MlpBaseline
from cgpt.layers import EncoderConfig
from cgpt.model import CgptConfig, CgptModel, Variant
from cgpt.preprocessing import (
    PatchConfig,
    RevinStats,
    WindowBatch,
    apply_standardizer,
    fit_standardizer,
    gather_windows,
    iter_window_batches,
    make_patches,
    revin_denormalize,
    revin_forecast,
    revin_normalize,
    window_starts,
)
from cgpt.tensor import Tensor

from conftest import traced_peak


# ---------------------------------------------------------------- revin

def test_revin_simple_window():
    x = np.array([1.0, 2.0, 3.0])
    out, stats = revin_normalize(x)
    std = np.sqrt(2.0 / 3.0)  # population stdev of [1,2,3]
    assert np.allclose(out, np.array([-1.0, 0.0, 1.0]) / std, atol=1e-15)
    assert stats.mean[..., 0] == 2.0
    assert abs(stats.stdev[..., 0] - std) < 1e-15


def test_revin_constant_window_floors_stdev():
    out, stats = revin_normalize(np.array([5.0, 5.0, 5.0]))
    assert np.array_equal(out, np.zeros(3))
    assert stats.stdev[..., 0] == 1e-5


def test_revin_roundtrip_100_windows():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-3, 3)
        x = rng.standard_normal(96) * scale + rng.uniform(-50, 50)
        xn, stats = revin_normalize(x)
        assert abs(xn.mean()) < 1e-9 and abs(xn.std() - 1.0) < 1e-9
        worst = max(worst, np.abs(revin_denormalize(Tensor(xn), stats).data - x).max() / max(1.0, scale))
    assert worst < 1e-9


def test_revin_denormalize_maps_horizon_back():
    x = np.arange(8.0)
    _, stats = revin_normalize(x)
    y = np.zeros(3)  # a zero forecast on the normalized scale is the window mean
    assert np.allclose(revin_denormalize(Tensor(y), stats).data, np.full(3, x.mean()))


def test_revin_batched_channels_are_independent():
    rng = np.random.default_rng(1)
    block = rng.standard_normal((4, 3, 32))  # (batch, channel, length)
    out, stats = revin_normalize(block)
    one, one_stats = revin_normalize(block[2, 1])
    assert np.array_equal(out[2, 1], one)
    assert np.array_equal(stats.mean[2, 1], one_stats.mean)


def test_revin_normalize_has_the_bits_of_the_formula_and_keeps_its_input():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 3, 40)) * 7.0 + 3.0
    before = x.copy()
    out, stats = revin_normalize(x)
    assert out.tobytes() == ((x - stats.mean) / stats.stdev).tobytes()
    assert x.tobytes() == before.tobytes()


def test_revin_rejects_bad_input():
    with pytest.raises(ValueError):
        revin_normalize(np.array([1.0]))
    with pytest.raises(ValueError):
        revin_normalize(np.array([1.0, np.nan, 2.0]))


# ------------------------------------------------------- revin_forecast

MODEL_IDS = ("leaky", "strict", "pure", "dlinear", "mlp")


def build_model(name):
    if name == "dlinear":
        return DLinearModel(16, 3, kernel=5, seed=2)
    if name == "mlp":
        return MlpBaseline(16, 3, n_vars=3, hidden=8, seed=2)
    encoder = EncoderConfig(d_model=8, d_ff=16, n_heads=2, e_layers=1,
                            patch=PatchConfig(4, 4), n_p_max=8)
    return CgptModel(CgptConfig(encoder, 16, 3, Variant.from_id(name)), seed=2)


def scaled_batch():
    """(4, 16, 3) windows, each channel on its own scale and offset."""
    rng = np.random.default_rng(11)
    context = rng.standard_normal((4, 16, 3)) * [0.5, 3.0, 40.0] + [1.0, -7.0, 250.0]
    return WindowBatch(context, rng.standard_normal((4, 3)), 2, (0, 1))


@pytest.mark.parametrize("name", MODEL_IDS)
def test_revin_forward_is_forecast_of_normalized_batch_denormalized(name):
    m = build_model(name)
    batch = scaled_batch()
    normalized, stats = revin_normalize(np.ascontiguousarray(batch.context.transpose(0, 2, 1)))
    plain = m.forward(WindowBatch(normalized.transpose(0, 2, 1), batch.target_future,
                                  batch.target_channel, batch.context_channels))
    target_stats = RevinStats(mean=stats.mean[:, 2], stdev=stats.stdev[:, 2])
    want = revin_denormalize(plain, target_stats).data
    assert np.array_equal(m.forward(batch, revin=True).data, want)


@pytest.mark.parametrize("name", MODEL_IDS)
def test_revin_normalizes_once_per_forward(monkeypatch, name):
    shapes = []

    def counted(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return revin_normalize(x, *args, **kwargs)

    for module in (preprocessing, model, baselines):
        if hasattr(module, "revin_normalize"):
            monkeypatch.setattr(module, "revin_normalize", counted)
    build_model(name).forward(scaled_batch(), revin=True)
    assert shapes == [(1 if name == "dlinear" else 3, 4, 16)]


def test_model_input_is_a_view_of_every_channel_in_order_else_one_copy():
    batch = scaled_batch()
    every = revin_forecast(lambda x: x, batch, False, range(3))
    assert every.shape == (3, 4, 16) and np.shares_memory(every, batch.context)
    listed = revin_forecast(lambda x: x, batch, False, [2, 0])
    assert listed.flags.c_contiguous and not np.shares_memory(listed, batch.context)
    assert np.array_equal(listed, batch.context.transpose(2, 0, 1)[[2, 0]])


@pytest.mark.parametrize("revin", [False, True])
@pytest.mark.parametrize("name", ["leaky", "strict", "pure"])
def test_view_and_copy_of_the_same_channels_forecast_the_same_bits(name, revin):
    """Target 0 with contexts 1..3 reads every channel in order (a view);
    the same columns permuted are read through a copy."""
    m = build_model(name)
    rng = np.random.default_rng(12)
    context = rng.standard_normal((4, 16, 4)) * [0.5, 3.0, 40.0, 1.0] + [1.0, -7.0, 250.0, 0.0]
    in_order = WindowBatch(context, rng.standard_normal((4, 3)), 0, (1, 2, 3))
    perm = [2, 0, 3, 1]  # column j of the permuted batch holds channel perm[j]
    permuted = WindowBatch(np.ascontiguousarray(context[:, :, perm]), in_order.target_future,
                           perm.index(0), tuple(perm.index(c) for c in (1, 2, 3)))
    assert np.array_equal(m.forward(in_order, revin=revin).data,
                          m.forward(permuted, revin=revin).data)


@pytest.mark.parametrize("name", ["strict", "dlinear"])
def test_unread_channels_add_no_bytes_to_a_revin_forward(name):
    """A batch with 60 more channels than the model reads: RevIN normalizes
    only the read ones, so the traced peak of a forward does not grow."""
    m = build_model(name)
    narrow = scaled_batch()
    extra = np.random.default_rng(13).standard_normal((4, 16, 60))
    wide = WindowBatch(np.concatenate([narrow.context, extra], axis=2), narrow.target_future,
                       narrow.target_channel, narrow.context_channels)
    runs = [traced_peak(lambda: m.forward(batch, revin=True).data)
            for batch in (narrow, wide, narrow, wide)]  # the first pair warms up
    (narrow_out, narrow_peak), (wide_out, wide_peak) = runs[2:]
    assert np.array_equal(wide_out, narrow_out)
    assert abs(wide_peak - narrow_peak) <= 4096, (narrow_peak, wide_peak)


# ---------------------------------------------------------------- patches

def test_patch_counts():
    assert PatchConfig(32, 32).num_patches(96) == 3
    assert PatchConfig(32, 16).num_patches(96) == 5
    assert PatchConfig(16, 8).num_patches(96) == 11
    with pytest.raises(ValueError):
        PatchConfig(32, 32).num_patches(16)
    with pytest.raises(ValueError):
        PatchConfig(0, 4)


def test_patch_contents_non_overlapping():
    x = np.arange(96.0)
    p = make_patches(x, PatchConfig(32, 32))
    assert p.shape == (3, 32)
    assert np.array_equal(p.reshape(-1), x)  # stride == patch_len covers exactly


def test_patch_contents_overlapping():
    x = np.arange(10.0)
    p = make_patches(x, PatchConfig(4, 2))
    assert p.shape == (4, 4)
    assert np.array_equal(p[0], [0, 1, 2, 3])
    assert np.array_equal(p[1], [2, 3, 4, 5])
    assert np.array_equal(p[3], [6, 7, 8, 9])


def test_patch_batched_and_tail_dropped():
    x = np.arange(11.0)
    p = make_patches(x, PatchConfig(4, 2))
    assert p.shape == (4, 4)  # trailing sample that fits no patch is dropped
    batch = np.stack([x, x + 1.0])
    pb = make_patches(batch, PatchConfig(4, 2))
    assert pb.shape == (2, 4, 4)
    assert np.array_equal(pb[0], p)


# ---------------------------------------------------------------- standardizer

def test_standardizer_uses_train_rows_only():
    values = np.zeros((10, 2))
    values[:6, 0] = [1, 2, 3, 4, 5, 6]
    values[:6, 1] = 10.0
    values[6:] = np.nan  # poison everything beyond the training split
    stats = fit_standardizer(values, (0, 6))
    assert np.isfinite(stats.mean).all() and np.isfinite(stats.stdev).all()
    assert stats.mean[0] == 3.5
    assert stats.stdev[1] == 1e-8  # constant channel floored


def test_standardizer_transform_and_mismatch():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((100, 3)) * 4.0 + 2.0
    stats = fit_standardizer(values, (0, 70))
    out = apply_standardizer(values, stats)
    assert np.abs(out[:70].mean(axis=0)).max() < 1e-12
    assert np.abs(out[:70].std(axis=0) - 1.0).max() < 1e-12
    # the held-out rows keep whatever offset they have relative to train
    assert out.shape == values.shape
    with pytest.raises(ValueError, match="channels"):
        apply_standardizer(values[:, :2], stats)


def test_standardizer_has_the_bits_of_the_formula_and_keeps_its_input():
    rng = np.random.default_rng(6)
    values = rng.standard_normal((500, 4)) * [1.0, 30.0, 1e-3, 7.0] + [0.0, -5.0, 2.0, 1e4]
    before = values.copy()
    stats = fit_standardizer(values, (0, 350))
    out = apply_standardizer(values, stats)
    assert out.tobytes() == ((values - stats.mean) / stats.stdev).tobytes()
    assert values.tobytes() == before.tobytes()


def test_standardizer_rejects_nan_in_train():
    values = np.zeros((10, 1))
    values[3] = np.nan
    with pytest.raises(ValueError):
        fit_standardizer(values, (0, 10))


# ---------------------------------------------------------------- windows

def test_window_starts_no_overlap():
    s = window_starts((0, 100), 96, 1)
    assert np.array_equal(s, [0, 1, 2, 3])  # 100 - 96 - 1 + 1 windows


def test_window_starts_with_context_overlap():
    s = window_starts((100, 200), 96, 4, allow_context_overlap=True)
    assert s[0] == 4  # may reach 96 rows back
    assert s[-1] == 100  # target block [196, 200) still inside
    assert len(s) == 200 - 4 - 96 - 4 + 1


def test_window_starts_overlap_clamped_at_zero():
    s = window_starts((10, 130), 96, 4, allow_context_overlap=True)
    assert s[0] == 0


def test_window_starts_too_short():
    with pytest.raises(ValueError, match="at least"):
        window_starts((0, 50), 96, 1)


@settings(max_examples=300)
@given(start=st.integers(0, 200), rows=st.integers(0, 200), l_ctx=st.integers(1, 120),
       h_pred=st.integers(1, 60), overlap=st.booleans())
def test_window_starts_are_every_window_that_fits(start, rows, l_ctx, h_pred, overlap):
    """Against a brute-force oracle: a start is valid when its target lies
    inside the split and its context starts at or after
    max(start - l_ctx, 0) (overlap on) or start (overlap off)."""
    split = (start, start + rows)
    floor = max(start - l_ctx, 0) if overlap else start

    def valid(w):
        return w >= floor and w + l_ctx >= start and w + l_ctx + h_pred <= split[1]

    if not any(valid(w) for w in range(split[1] + 1)):
        with pytest.raises(ValueError, match=rf"split \({start}, {split[1]}\) holds no window"):
            window_starts(split, l_ctx, h_pred, allow_context_overlap=overlap)
        return
    s = window_starts(split, l_ctx, h_pred, allow_context_overlap=overlap)
    assert np.array_equal(s, np.arange(s[0], s[0] + len(s)))  # consecutive
    assert all(valid(w) for w in s)
    assert not valid(s[0] - 1) and not valid(s[-1] + 1)  # maximal
    targets = s[:, None] + l_ctx + np.arange(h_pred)
    assert (targets >= start).all() and (targets < split[1]).all()


def test_targets_never_cross_split_boundary():
    split = (100, 160)
    starts = window_starts(split, 96, 8, allow_context_overlap=True)
    first_target = starts + 96
    assert (first_target >= split[0]).all()
    assert (first_target + 8 <= split[1]).all()


def test_gather_windows_values():
    values = np.arange(40.0).reshape(20, 2)
    ctx, fut = gather_windows(values, np.array([0, 5]), 4, 2, target_channel=1)
    assert ctx.shape == (2, 4, 2) and fut.shape == (2, 2)
    assert np.array_equal(ctx[1, :, 0], [10, 12, 14, 16])
    assert np.array_equal(fut[0], [9, 11])  # channel 1 at rows 4,5
    assert np.array_equal(fut[1], [19, 21])


def test_iter_window_batches_partitions_everything():
    values = np.arange(60.0).reshape(30, 2)
    batches = list(iter_window_batches(values, (0, 30), 8, 2, 0, (1,), batch_size=7))
    total = sum(b.context.shape[0] for b in batches)
    assert total == 30 - 8 - 2 + 1
    assert batches[0].context.shape == (7, 8, 2)
    assert batches[-1].context.shape[0] == total - 7 * (len(batches) - 1)
    assert isinstance(batches[0], WindowBatch)
    assert batches[0].context_channels == (1,)
