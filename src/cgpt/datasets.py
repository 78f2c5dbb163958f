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
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .model import CausalGraph
from .preprocessing import apply_standardizer, fit_standardizer, window_starts

BURN_IN = 32
CONTROL_AR = 0.9
CONTROL_NOISE_STD = math.sqrt(0.19)  # unit-variance AR(1) at coefficient 0.9


class ChannelRole(Enum):
    INTERNAL_STATE = "internal"
    OPERATIONAL = "operational"
    TARGET = "target"


class SplitPolicy(Enum):
    RATIO_70_20_10 = "ratio_70_20_10"
    ETTH1_STANDARD = "etth1_standard"


@dataclass(frozen=True)
class TimeSeriesDataset:
    name: str
    values: np.ndarray
    channel_names: tuple
    roles: tuple
    target: int
    graph: CausalGraph | None = None
    borders: tuple | None = None

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        n = self.values.shape[1]
        if not (len(self.channel_names) == len(self.roles) == n):
            raise ValueError("channel names/roles do not match the value matrix width")
        if not 0 <= self.target < n:
            raise ValueError(f"target index {self.target} out of range for {n} channels")
        targets = [i for i, r in enumerate(self.roles) if r is ChannelRole.TARGET]
        if targets != [self.target]:
            raise ValueError(f"roles mark {targets} as targets, expected exactly [{self.target}]")
        self.values.flags.writeable = False

    @property
    def length(self):
        return self.values.shape[0]

    @property
    def n_channels(self):
        return self.values.shape[1]

    def with_borders(self, borders):
        return replace(self, borders=tuple(tuple(b) for b in borders))

    def with_values(self, values):
        return replace(self, values=np.asarray(values, dtype=np.float64))


@dataclass(frozen=True)
class SyntheticConfig:
    length: int = 6144
    seed: int = 0
    noise_std: float = math.sqrt(0.1)
    ar_coeff: float = 0.7
    lags: tuple | None = None        # per-cause lags; generator default if None
    couplings: tuple | None = None   # per-cause coefficients; generator default if None

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if not -1.0 < self.ar_coeff < 1.0:
            raise ValueError(f"AR coefficient must lie in (-1, 1), got {self.ar_coeff}")
        if self.noise_std < 0:
            raise ValueError(f"noise stdev must be >= 0, got {self.noise_std}")


def _resolve(cfg, default_lags, default_couplings):
    lags = default_lags if cfg.lags is None else tuple(cfg.lags)
    couplings = default_couplings if cfg.couplings is None else tuple(cfg.couplings)
    if len(lags) != len(default_lags) or len(couplings) != len(default_couplings):
        raise ValueError(
            f"expected {len(default_lags)} lags and {len(default_couplings)} couplings, "
            f"got {lags} / {couplings}")
    if any(not 0 < lag < cfg.length for lag in lags):
        raise ValueError(f"lags must lie in (0, length), got {lags}")
    return lags, couplings


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
    roles = (ChannelRole.OPERATIONAL,) * 3 + (ChannelRole.TARGET,)
    return TimeSeriesDataset(name=name, values=values,
                             channel_names=("C0", "C1", "C2", "C3"),
                             roles=roles, target=3, graph=graph)


def generate_additive(cfg=SyntheticConfig()):
    """Linear lagged-cause target with a spurious third control.

    C2 shadows C0 at a two-step lag but never feeds the target; the graph
    names only C0 and C1 as causes.
    """
    lags, couplings = _resolve(cfg, default_lags=(4, 9), default_couplings=(0.8, 0.5))
    n = cfg.length + BURN_IN
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    c0 = _control(rng, n)
    c1 = _control(rng, n)
    c2 = _standardize(0.8 * _shift(c0, 2) + 0.6 * rng.normal(0.0, 1.0, n))
    drive = (couplings[0] * _shift(c0, lags[0])
             + couplings[1] * _shift(c1, lags[1])
             + rng.normal(0.0, cfg.noise_std, n))
    c3 = _ar1(cfg.ar_coeff, drive)
    return _as_dataset("additive", [c0, c1, c2, c3],
                       CausalGraph.from_edges([(0, 3), (1, 3)]))


def generate_interactive(cfg=SyntheticConfig()):
    """Multiplicative/nonlinear lagged-cause target; all controls are causal."""
    lags, couplings = _resolve(cfg, default_lags=(4, 6, 2, 3), default_couplings=(0.6, 0.4))
    n = cfg.length + BURN_IN
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    c0 = _control(rng, n)
    c1 = _control(rng, n)
    c2 = _control(rng, n)
    drive = (couplings[0] * np.tanh(_shift(c0, lags[0]) * _shift(c1, lags[1]))
             + couplings[1] * _shift(c2, lags[2]) * _shift(c0, lags[3])
             + rng.normal(0.0, cfg.noise_std, n))
    c3 = _ar1(cfg.ar_coeff, drive)
    return _as_dataset("interactive", [c0, c1, c2, c3],
                       CausalGraph.from_edges([(0, 3), (1, 3), (2, 3)]))


def load_csv(path, target, schema=None, name=None):
    """Read a header+rows CSV into a dataset; strict about malformed cells.

    ``schema`` maps column names to "internal" | "operational" | "target" |
    "drop"; unmapped columns default to internal state, and a column named
    "date" defaults to dropped.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"no such file: {path}")
    schema = dict(schema or {})
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset (no header row)") from None

        kept, roles = [], []
        for i, col in enumerate(header):
            role = schema.get(col, "drop" if col == "date" else "internal")
            if col == target:
                if role == "drop":
                    raise ValueError(f"{path}: schema drops the target column {target!r}")
                role = "target"
            elif role == "target":
                raise ValueError(
                    f"{path}: schema marks {col!r} as target, but target is {target!r}")
            if role == "drop":
                continue
            try:
                roles.append(ChannelRole(role))
            except ValueError:
                raise ValueError(f"{path}: unknown role {role!r} for column {col!r}") from None
            kept.append((i, col))
        names = [col for _, col in kept]
        if target not in names:
            raise ValueError(f"{path}: target column {target!r} not in columns {names}")

        rows, problems = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                problems.append((lineno, f"expected {len(header)} fields, got {len(row)}"))
                continue
            try:
                rows.append([float(row[i]) for i, _ in kept])
            except ValueError:
                bad = next(col for i, col in kept if not _is_float(row[i]))
                problems.append((lineno, f"non-numeric value in column {bad!r}"))

    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(kept))
    bad_rows = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad_rows.size:
        # line numbers of the parsed rows: every data line not already rejected
        skipped = [lineno for lineno, _ in problems]
        linenos = np.setdiff1d(np.arange(2, 2 + len(rows) + len(skipped)), skipped)
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
        roles=tuple(roles),
        target=names.index(target),
        graph=None,
    )


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def split_borders(dataset, policy, l_ctx=None, h_pred=None):
    """Three half-open (start, end) ranges for train/val/test.

    When ``l_ctx`` is given, verify each split can hold at least one
    window (validation/test contexts may reach back into the previous
    split, targets never do).
    """
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
    if l_ctx is not None:
        horizon = 1 if h_pred is None else h_pred
        for split, overlap in zip(splits, (False, True, True)):
            window_starts(split, l_ctx, horizon, allow_context_overlap=overlap)
    return splits


def standardize_dataset(dataset, stats):
    return dataset.with_values(apply_standardizer(dataset.values, stats))


def prepare_dataset(dataset, policy, l_ctx=None, h_pred=None):
    """Attach split borders and rescale by train-split statistics."""
    borders = split_borders(dataset, policy, l_ctx, h_pred)
    ready = dataset.with_borders(borders)
    stats = fit_standardizer(ready.values, borders[0])
    return standardize_dataset(ready, stats), stats
