"""Per-window normalization, patching, global scaling and window extraction.

The series axis is always the last one, so the same code serves a single
series, a (batch, length) stack or a (batch, channel, length) block.
Everything works on plain numpy arrays except the RevIN wrapper every
model forecasts through (``revin_forecast``) and its ``revin_denormalize``,
which map a model's output Tensor back to the target window's scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

REVIN_MIN_STDEV = 1e-5
SCALER_MIN_STDEV = 1e-8


@dataclass(frozen=True)
class RevinStats:
    """Per-instance location/scale captured at normalization time."""

    mean: np.ndarray   # (..., 1)
    stdev: np.ndarray  # (..., 1), floored


def revin_normalize(x):
    """Normalize each series (last axis) to zero mean and unit variance.

    The stdev is floored at ``REVIN_MIN_STDEV`` so constant series
    normalize to zeros instead of dividing by zero.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError(f"revin_normalize: series length must be >= 2, got {x.shape[-1]}")
    if not np.isfinite(x).all():
        raise ValueError("revin_normalize: input contains non-finite values")
    mean = x.mean(axis=-1, keepdims=True)
    stdev = np.maximum(x.std(axis=-1, keepdims=True), REVIN_MIN_STDEV)
    return (x - mean) / stdev, RevinStats(mean=mean, stdev=stdev)


def revin_denormalize(y, stats):
    """Map a model's output Tensor back to the original scale of its window."""
    return y * Tensor(stats.stdev) + Tensor(stats.mean)


def revin_forecast(forecast, batch, revin):
    """``forecast(context)`` on ``batch``, under RevIN when ``revin`` is set.

    RevIN (Kim et al., ICLR 2022) normalizes every channel of every window
    once, runs ``forecast`` on the normalized (batch, l_ctx, n_channels)
    context and maps its output back with the target window's stats.  The
    stats come from a contiguous (batch, channel, l_ctx) copy, so each
    window's series is summed as one contiguous row.
    """
    if not revin:
        return forecast(batch.context)
    normalized, stats = revin_normalize(
        np.ascontiguousarray(batch.context.transpose(0, 2, 1)))
    out = forecast(normalized.transpose(0, 2, 1))
    target = batch.target_channel
    return revin_denormalize(
        out, RevinStats(mean=stats.mean[:, target], stdev=stats.stdev[:, target]))


@dataclass(frozen=True)
class PatchConfig:
    patch_len: int = 32
    stride: int = 32

    def __post_init__(self):
        if self.patch_len < 1 or self.stride < 1:
            raise ValueError(f"patch_len and stride must be >= 1, got {self}")

    def num_patches(self, length):
        if length < self.patch_len:
            raise ValueError(
                f"series of length {length} is shorter than patch_len {self.patch_len}")
        return (length - self.patch_len) // self.stride + 1


def make_patches(x, cfg):
    """Cut each series (last axis) into (num_patches, patch_len) windows."""
    x = np.asarray(x, dtype=np.float64)
    n_p = cfg.num_patches(x.shape[-1])
    win = np.lib.stride_tricks.sliding_window_view(x, cfg.patch_len, axis=-1)
    return np.ascontiguousarray(win[..., :n_p * cfg.stride:cfg.stride, :])


@dataclass(frozen=True)
class StandardizerStats:
    """Per-channel location/scale fitted on the training split only."""

    mean: np.ndarray   # (n_channels,)
    stdev: np.ndarray  # (n_channels,), floored at SCALER_MIN_STDEV


def fit_standardizer(values, train_range):
    """Fit per-channel mean/floored stdev on rows ``train_range = (start, end)``."""
    values = np.asarray(values, dtype=np.float64)
    start, end = train_range
    if not (0 <= start < end <= values.shape[0]):
        raise ValueError(f"train range {train_range} out of bounds for {values.shape[0]} rows")
    block = values[start:end]
    if not np.isfinite(block).all():
        raise ValueError("fit_standardizer: training rows contain non-finite values")
    return StandardizerStats(
        mean=block.mean(axis=0),
        stdev=np.maximum(block.std(axis=0), SCALER_MIN_STDEV),
    )


def apply_standardizer(values, stats):
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != stats.mean.shape[0]:
        raise ValueError(
            f"standardizer fitted for {stats.mean.shape[0]} channels, "
            f"data has {values.shape[-1]}")
    return (values - stats.mean) / stats.stdev


@dataclass(frozen=True)
class WindowBatch:
    """A batch of forecasting examples cut from one contiguous series block."""

    context: np.ndarray         # (batch, l_ctx, n_channels)
    target_future: np.ndarray   # (batch, h_pred)
    target_channel: int
    context_channels: tuple


def window_starts(split, l_ctx, h_pred, allow_context_overlap=False):
    """Start indices of every valid window whose target lies inside ``split``.

    With ``allow_context_overlap`` the context may reach back up to ``l_ctx``
    rows into the preceding split (targets never leave the split); without
    it the whole window stays inside.
    """
    start, end = split
    if l_ctx < 1 or h_pred < 1:
        raise ValueError(f"l_ctx and h_pred must be >= 1, got {l_ctx}, {h_pred}")
    lo = max(start - l_ctx, 0) if allow_context_overlap else start
    last = end - l_ctx - h_pred
    if last < lo:
        need = l_ctx + h_pred
        raise ValueError(
            f"split {split} holds no window: needs at least {need} usable rows, "
            f"has {end - lo}")
    return np.arange(lo, last + 1)


def gather_windows(values, starts, l_ctx, h_pred, target_channel):
    """Materialize contexts and target futures for the given start indices."""
    starts = np.asarray(starts)
    ctx_idx = starts[:, None] + np.arange(l_ctx)
    fut_idx = starts[:, None] + l_ctx + np.arange(h_pred)
    return values[ctx_idx, :], values[fut_idx, target_channel]


def iter_window_batches(values, split, l_ctx, h_pred, target_channel,
                        context_channels, batch_size, allow_context_overlap=False):
    """Yield WindowBatch blocks in deterministic index order."""
    starts = window_starts(split, l_ctx, h_pred, allow_context_overlap)
    for i in range(0, len(starts), batch_size):
        chunk = starts[i:i + batch_size]
        ctx, fut = gather_windows(values, chunk, l_ctx, h_pred, target_channel)
        yield WindowBatch(context=ctx, target_future=fut,
                          target_channel=target_channel,
                          context_channels=tuple(context_channels))
