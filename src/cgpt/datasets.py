"""Synthetic generator pair, CSV ingestion and split borders.

Both generators share the same skeleton: smoothed Gaussian control
channels, then a target that follows its own past plus a function of
lagged controls.  The additive variant also plants a spurious correlate
(a control that tracks a true cause but drives nothing), which is the
trap a causally-guided model should ignore.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .model import CausalGraph
from .preprocessing import apply_standardizer, fit_standardizer, window_starts

BURN_IN = 32
CONTROL_AR = 0.9
CONTROL_NOISE_STD = math.sqrt(0.19)  # unit-variance AR(1) at coefficient 0.9
TARGET_AR = 0.7
TARGET_NOISE_STD = math.sqrt(0.1)


class SplitPolicy(Enum):
    RATIO_70_20_10 = "ratio_70_20_10"
    ETTH1_STANDARD = "etth1_standard"


@dataclass(frozen=True)
class TimeSeriesDataset:
    """A (time, channel) series; ``target`` indexes the forecast channel and
    ``graph`` is the known causal graph, or None when there is none."""

    name: str
    values: np.ndarray
    channel_names: tuple
    target: int
    graph: CausalGraph | None = None
    borders: tuple | None = None

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        n = self.values.shape[1]
        if len(self.channel_names) != n:
            raise ValueError("channel names do not match the value matrix width")
        if not 0 <= self.target < n:
            raise ValueError(f"target index {self.target} out of range for {n} channels")
        self.values.flags.writeable = False

    @property
    def length(self):
        return self.values.shape[0]

    @property
    def n_channels(self):
        return self.values.shape[1]

    def with_borders(self, borders):
        return replace(self, borders=tuple(tuple(b) for b in borders))


@dataclass(frozen=True)
class SyntheticConfig:
    length: int = 6144
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")


def _ar1(coeff, drive):
    """x_t = coeff * x_{t-1} + drive_t, zero-initialized."""
    out = np.empty_like(drive)
    prev = 0.0
    for t in range(drive.shape[0]):
        prev = coeff * prev + drive[t]
        out[t] = prev
    return out


def _standardize(x):
    return (x - x.mean()) / x.std()


def _shift(x, lag):
    out = np.zeros_like(x)
    out[lag:] = x[:-lag]
    return out


def _control(rng, n):
    return _standardize(_ar1(CONTROL_AR, rng.normal(0.0, CONTROL_NOISE_STD, n)))


def _as_dataset(name, columns, graph):
    values = np.column_stack(columns)[BURN_IN:]
    return TimeSeriesDataset(name=name, values=values,
                             channel_names=("C0", "C1", "C2", "C3"),
                             target=3, graph=graph)


def generate_additive(cfg=SyntheticConfig()):
    """Linear lagged-cause target with a spurious third control.

    C2 shadows C0 at a two-step lag but never feeds the target; the graph
    names only C0 and C1 as causes.
    """
    n = cfg.length + BURN_IN
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    c0 = _control(rng, n)
    c1 = _control(rng, n)
    c2 = _standardize(0.8 * _shift(c0, 2) + 0.6 * rng.normal(0.0, 1.0, n))
    drive = (0.8 * _shift(c0, 4) + 0.5 * _shift(c1, 9)
             + rng.normal(0.0, TARGET_NOISE_STD, n))
    c3 = _ar1(TARGET_AR, drive)
    return _as_dataset("additive", [c0, c1, c2, c3],
                       CausalGraph.from_edges([(0, 3), (1, 3)]))


def generate_interactive(cfg=SyntheticConfig()):
    """Multiplicative/nonlinear lagged-cause target; all controls are causal."""
    n = cfg.length + BURN_IN
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    c0 = _control(rng, n)
    c1 = _control(rng, n)
    c2 = _control(rng, n)
    drive = (0.6 * np.tanh(_shift(c0, 4) * _shift(c1, 6))
             + 0.4 * _shift(c2, 2) * _shift(c0, 3)
             + rng.normal(0.0, TARGET_NOISE_STD, n))
    c3 = _ar1(TARGET_AR, drive)
    return _as_dataset("interactive", [c0, c1, c2, c3],
                       CausalGraph.from_edges([(0, 3), (1, 3), (2, 3)]))


def load_csv(path, target, name=None):
    """Read a header+rows CSV into a dataset; strict about malformed cells.

    A column named "date" is dropped; every other column is a channel, and
    no two of them may share a name.

    Kept cells are appended to one flat float64 buffer as each row is read,
    and the dataset's values are a view of that buffer, so the load holds
    about one copy of the values.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset (no header row)") from None

        kept = [(i, col) for i, col in enumerate(header) if col != "date"]
        names = [col for _, col in kept]
        repeated = [col for col, count in Counter(names).items() if count > 1]
        if repeated:
            raise ValueError(f"{path}: repeated column names {repeated}")
        if target not in names:
            raise ValueError(f"{path}: target column {target!r} not in columns {names}")

        cols = [i for i, _ in kept]
        buf, problems = array("d"), []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                problems.append((lineno, f"expected {len(header)} fields, got {len(row)}"))
                continue
            try:
                buf.extend([float(row[i]) for i in cols])
            except ValueError:
                bad = next(col for i, col in kept if not _is_float(row[i]))
                problems.append((lineno, f"non-numeric value in column {bad!r}"))

    values = np.frombuffer(buf, dtype=np.float64).reshape(-1, len(kept))
    rows = len(values)
    bad_rows = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad_rows.size:
        # line numbers of the parsed rows: every data line not already rejected
        skipped = [lineno for lineno, _ in problems]
        linenos = np.setdiff1d(np.arange(2, 2 + rows + len(skipped)), skipped)
        for r in bad_rows:
            bad = names[np.argmin(np.isfinite(values[r]))]
            problems.append((int(linenos[r]), f"non-finite value in column {bad!r}"))
    if problems:
        problems.sort()
        shown = "; ".join(f"line {lineno}: {what}" for lineno, what in problems[:10])
        more = f" (+{len(problems) - 10} more)" if len(problems) > 10 else ""
        raise ValueError(f"{path}: rejected {len(problems)} rows: {shown}{more}")
    if not rows:
        raise ValueError(f"{path}: empty dataset (header only)")

    return TimeSeriesDataset(
        name=name or path.stem,
        values=values,
        channel_names=tuple(names),
        target=names.index(target),
    )


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def split_borders(dataset, policy, l_ctx, h_pred):
    """Three half-open (start, end) ranges for train/val/test, each checked
    to hold at least one ``l_ctx``-to-``h_pred`` window (validation/test
    contexts may reach back into the previous split, targets never do)."""
    t_total = dataset.length
    if policy is SplitPolicy.RATIO_70_20_10:
        b1, b2 = int(0.7 * t_total), int(0.9 * t_total)
        splits = ((0, b1), (b1, b2), (b2, t_total))
    elif policy is SplitPolicy.ETTH1_STANDARD:
        if t_total < 14400:
            raise ValueError(f"policy needs at least 14400 rows, dataset has {t_total}")
        splits = ((0, 8640), (8640, 11520), (11520, 14400))
    else:
        raise ValueError(f"unknown split policy: {policy}")

    if any(end <= start for start, end in splits):
        raise ValueError(f"dataset of {t_total} rows leaves an empty split: {splits}")
    for split, overlap in zip(splits, (False, True, True)):
        window_starts(split, l_ctx, h_pred, allow_context_overlap=overlap)
    return splits


def _reject_non_finite(dataset, borders):
    """Raise on the first non-finite value in any split's rows, naming the
    split, the row (0-based) and the column."""
    used = dataset.values[:borders[-1][1]]
    finite = np.isfinite(used)
    if finite.all():
        return
    row, col = np.argwhere(~finite)[0]
    split = next(name for name, (start, end) in zip(("train", "val", "test"), borders)
                 if start <= row < end)
    raise ValueError(f"{dataset.name}: non-finite value {float(used[row, col])!r} in the {split} "
                     f"split, row {row}, column {dataset.channel_names[col]!r}")


def prepare_dataset(dataset, policy, l_ctx, h_pred):
    """Attach split borders and rescale by train-split statistics.

    Every row of every split must be finite.
    """
    borders = split_borders(dataset, policy, l_ctx, h_pred)
    _reject_non_finite(dataset, borders)
    stats = fit_standardizer(dataset.values, borders[0])
    return replace(dataset, borders=borders,
                   values=apply_standardizer(dataset.values, stats)), stats
