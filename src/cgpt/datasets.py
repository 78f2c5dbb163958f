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


_AR1_CHUNK = 4096  # drive values turned into Python floats at a time; not from the paper


def _ar1(coeff, drive):
    """x_t = coeff * x_{t-1} + drive_t, zero-initialized.

    The recursion runs over Python floats, whose multiply and add are the
    same IEEE double operations as numpy's scalars, so the bits are too.  The
    drive is converted a chunk at a time, so no list of the whole drive is
    ever held.
    """
    out = np.empty_like(drive)
    prev = 0.0
    for lo in range(0, len(drive), _AR1_CHUNK):
        out[lo:lo + _AR1_CHUNK] = [prev := coeff * prev + d
                                   for d in drive[lo:lo + _AR1_CHUNK].tolist()]
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


_SCAN_BYTES = 1 << 15  # bytes of a CSV scanned at a time; not from the paper
# A quote needs the csv module's parser, and numpy's float parser strips the
# separators \x1c-\x1f as whitespace where float() rejects them: a file that
# holds any of these bytes is read by the row loop.
_ROW_LOOP_BYTES = b'"\x1c\x1d\x1e\x1f'


def load_csv(path, target, name=None):
    """Read a header+rows UTF-8 CSV into a dataset; strict about malformed cells.

    A leading byte-order mark is dropped.  A column named "date" is dropped;
    every other column is a channel, and no two of them may share a name.

    A plain file -- no quote, no empty line, the header's field count on
    every line, and a last column that is kept -- is parsed by one
    ``np.loadtxt`` on the open file, straight into the value matrix.  numpy
    and ``float()`` both convert a cell with ``PyOS_string_to_double``, so
    the bits are the same.  Any other file, and any file numpy rejects, is
    read again by the row loop, which takes every spelling ``float()``
    takes and names each rejected line.  Either way the load holds about
    one copy of the values, and the file is read a block or a line at a
    time, never whole.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ValueError(f"{path}: empty dataset (no header row)")

            kept = [(i, col) for i, col in enumerate(header) if col != "date"]
            names = [col for _, col in kept]
            repeated = [col for col, count in Counter(names).items() if count > 1]
            if repeated:
                raise ValueError(f"{path}: repeated column names {repeated}")
            if target not in names:
                raise ValueError(f"{path}: target column {target!r} not in columns {names}")

            values, problems = _parse_plain(path, fh, len(header), [i for i, _ in kept]), []
            if values is None:
                values, problems = _read_rows(fh, len(header), kept)
    except UnicodeDecodeError as err:  # a ValueError that names no file
        raise ValueError(f"{path}: {err}") from None

    rows = len(values)
    # every value is finite if the smallest and largest are; no mask is needed
    if not (math.isfinite(values.min(initial=0.0)) and math.isfinite(values.max(initial=0.0))):
        # line numbers of the parsed rows: every data line not already rejected
        skipped = [lineno for lineno, _ in problems]
        linenos = np.setdiff1d(np.arange(2, 2 + rows + len(skipped)), skipped)
        for r in np.flatnonzero(~np.isfinite(values).all(axis=1)):
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


def _scan(path):
    """(lines, commas, empty lines) of the file at ``path``, read in blocks of
    ``_SCAN_BYTES``, or None if it holds one of ``_ROW_LOOP_BYTES``.  A line
    ends at \\r\\n, \\r or \\n, as Python's text files split them."""
    lines = commas = empty = 0
    tail = b""  # the previous block's last byte, for the pair across the seam
    with open(path, "rb") as fh:
        while block := fh.read(_SCAN_BYTES):
            if any(byte in block for byte in _ROW_LOOP_BYTES):
                return None
            a = np.frombuffer(tail + block, dtype=np.uint8)
            lf, cr = a == 10, a == 13
            crlf = np.count_nonzero(cr[:-1] & lf[1:])
            ends = np.logical_or(lf, cr, out=lf)  # a \r\n is two ends, one line
            lines += np.count_nonzero(ends[len(tail):]) - crlf
            empty += np.count_nonzero(ends[:-1] & ends[1:]) - crlf
            commas += np.count_nonzero(a[len(tail):] == 44)
            tail = block[-1:]
    return lines + (tail not in b"\r\n"), commas, empty


def _parse_plain(path, fh, n_fields, cols):
    """The kept columns of the rest of ``fh`` as one float64 matrix, by one
    ``np.loadtxt``; None when the file is not plain or numpy rejects a cell.

    Two of numpy's rules differ from the row loop's: it skips empty lines,
    and given ``usecols`` it ignores a row's extra fields.  So a plain file
    has no empty line, and ``n_fields - 1`` commas a line on average over
    all its lines, none of which may have fewer.  numpy rejects a row with
    fewer fields when ``usecols`` reaches the last field.
    """
    if cols[-1] != n_fields - 1:
        return None
    scan = _scan(path)
    if scan is None:
        return None
    lines, commas, empty = scan
    if empty or lines < 2 or commas != (n_fields - 1) * lines:
        return None
    try:
        return np.loadtxt(fh, delimiter=",", comments=None, usecols=cols, ndmin=2)
    except ValueError:
        return None


def _read_rows(fh, n_fields, kept):
    """(values, problems) of the data rows of ``fh``, read again from its
    top one row at a time: each row's kept cells are appended to one flat
    float64 buffer, whose view is the value matrix.  A ragged or
    non-numeric row is left out and named by its line number in
    ``problems``."""
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    cols = [i for i, _ in kept]
    buf, problems = array("d"), []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != n_fields:
            problems.append((lineno, f"expected {n_fields} fields, got {len(row)}"))
            continue
        try:
            buf.extend([float(row[i]) for i in cols])
        except ValueError:
            bad = next(col for i, col in kept if not _is_float(row[i]))
            problems.append((lineno, f"non-numeric value in column {bad!r}"))
    return np.frombuffer(buf, dtype=np.float64).reshape(-1, len(kept)), problems


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
