"""The benchmark's three workloads and their output checks.

Every input is made here from the workload seed; cgpt only sees the
generated series, CSV files and checkpoints.  The seed is folded onto a
pool of ``REFERENCE_POOL`` data seeds, so that each input a run can see
has stored reference outputs in ``reference.json``.

* ``c04-train`` -- acceptance check C04's configuration (additive data,
  96->1, d_model 32, one head, patch 16/16, batch 128) trained for one
  epoch per model for leaky, strict, pure, dlinear and mlp.  A few channels
  with large arrays: bound by the compute kernels and allocation.
* ``wide-train`` -- a 32-channel CSV without a graph, so all 31 other
  channels are contexts; strict, 48->24, 4 heads, revin on.  Tiny arrays
  and ~2200 tensors per step: bound by op count and graph bookkeeping.
* ``eval-sweep`` -- ``cgpt eval`` through ``cli.main`` on five seeded
  checkpoints against one 60000-row additive CSV.  Forward only, so it
  is the control for backward and optimizer changes.

A *pass* is the unit every timing is normalised by: one training epoch of
each of the workload's models, or one ``cgpt eval`` of each checkpoint.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from cgpt import baselines, checkpoint, cli, datasets, layers, model, preprocessing, training

REFERENCE_POOL = 16
# Rounding-only changes (gelu's x**3 as x*x*x, matmul's weight gradient as
# one 2-D product) move epoch-1 training MSE on c04-train by ~1e-16
# relative; a changed gradient or forward moves it by far more than 1e-9.
TRAIN_RTOL = 1e-9
# Test MAE/MSE are forward only, so reordered sums are all that can move them.
EVAL_RTOL = 1e-9
VARIANTS = ("leaky", "strict", "pure")


def data_seed(seed):
    return seed % REFERENCE_POOL


def build_model(name, shape, n_vars, seed):
    """A freshly initialised model of one of the five kinds."""
    if name in VARIANTS:
        enc = layers.EncoderConfig(
            d_model=shape["d_model"], d_ff=shape["d_ff"], n_heads=shape["n_heads"],
            e_layers=1, patch=preprocessing.PatchConfig(shape["patch"], shape["patch"]))
        cfg = model.CgptConfig(enc, shape["l_ctx"], shape["h_pred"], model.Variant.from_id(name))
        return model.CgptModel(cfg, seed=seed)
    if name == "dlinear":
        return baselines.DLinearModel(shape["l_ctx"], shape["h_pred"], seed=seed)
    if name == "mlp":
        return baselines.MlpBaseline(shape["l_ctx"], shape["h_pred"], n_vars, seed=seed)
    raise ValueError(f"unknown model {name!r}")


def wide_series(seed, rows=1536, channels=32, n_causes=3, burn_in=32):
    """AR(1) channels plus a target driven by a few lagged channels.

    Returns (values of shape (rows, channels), column names); the target
    is the last column, ``Y``.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = rows + burn_in
    k = channels - 1
    coeff = rng.uniform(0.5, 0.95, size=k)
    noise = rng.normal(0.0, 1.0, size=(n, k))
    x = np.empty((n, k))
    x[0] = noise[0]
    for t in range(1, n):
        x[t] = coeff * x[t - 1] + noise[t]
    causes = rng.choice(k, size=n_causes, replace=False)
    lags = rng.integers(1, 12, size=n_causes)
    weights = rng.uniform(0.3, 0.8, size=n_causes)
    drive = rng.normal(0.0, 0.3, size=n)
    for c, lag, w in zip(causes, lags, weights):
        drive[lag:] += w * x[:-lag, c]
    y = np.empty(n)
    y[0] = drive[0]
    for t in range(1, n):
        y[t] = 0.6 * y[t - 1] + drive[t]
    values = np.column_stack([x, y])[burn_in:]
    names = [f"X{i:02d}" for i in range(k)] + ["Y"]
    return values, names


def write_csv(path, names, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([repr(float(v)) for v in row] for row in values)


class Checks:
    """Tallies attempted calls and checks; any failure fails the run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")
        return ok

    def close(self, label, value, expected, rtol):
        ok = (expected is not None and math.isfinite(value)
              and abs(value - expected) <= rtol * abs(expected))
        return self.check(label, ok, f"{value!r} vs reference {expected!r} (rtol {rtol})")

    @contextlib.contextmanager
    def call(self, label):
        """Count a call into the program; an exception it raises is a failure."""
        self.attempted += 1
        try:
            yield
        except Exception as err:  # noqa: BLE001 -- every failure is counted, then reported
            self.failures.append(f"{label}: {type(err).__name__}: {err}")


def _timed_train(m, dataset, cfg):
    gc.collect()
    t0 = perf_counter()
    result = training.train(m, dataset, cfg)
    return perf_counter() - t0, result


class TrainWorkload:
    """Train each model for ``EPOCHS`` epochs per pass and check its losses."""

    EPOCHS = 1

    def __init__(self, seed, reference):
        self.data_seed = data_seed(seed)
        self.reference = reference.get(self.NAME, {})
        self.cfg = training.TrainConfig(
            lr=self.LR, batch_size=self.SHAPE["batch"], max_epochs=self.EPOCHS,
            patience=self.EPOCHS, revin=self.REVIN, seed=self.data_seed)

    def build_models(self):
        return {name: build_model(name, self.SHAPE, self.dataset.n_channels, self.data_seed)
                for name in self.MODELS}

    def setup(self, workdir):
        self.dataset = self.load(workdir)
        # construction is part of set-up; each pass builds fresh models
        # because training changes their parameters
        self.build_models()

    def warm_up(self):
        pass

    def run_pass(self, checks, on_model=None):
        """Seconds per epoch for each model, after checking its outputs."""
        seconds = {}
        for name, m in self.build_models().items():
            if on_model is not None:
                on_model(name)
            with checks.call(f"{name}: train"):
                wall, result = _timed_train(m, self.dataset, self.cfg)
                seconds[name] = wall / result.epochs_run
                self.check(checks, name, result)
        return seconds

    def check(self, checks, name, result):
        ref = self.reference.get(str(self.data_seed), {}).get(name, {})
        losses = result.train_losses + result.val_losses + [result.test_mae, result.test_mse]
        checks.check(f"{name}: losses finite", all(map(math.isfinite, losses)), repr(losses))
        checks.check(f"{name}: epochs run", result.epochs_run == self.EPOCHS,
                     f"{result.epochs_run} != {self.EPOCHS}")
        checks.close(f"{name}: epoch-1 train MSE", result.train_losses[0],
                     ref.get("train_mse_1"), TRAIN_RTOL)
        lo, hi = self.val_band(name)
        checks.check(f"{name}: final val MSE within the across-seed spread",
                     lo <= result.val_losses[-1] <= hi,
                     f"{result.val_losses[-1]!r} outside [{lo!r}, {hi!r}]")

    def val_band(self, name):
        """[min, max] of the stored final validation MSEs across the pool."""
        values = [entry[name]["val_mse_final"] for entry in self.reference.values()
                  if name in entry]
        return (min(values), max(values)) if values else (math.inf, -math.inf)

    def outputs(self):
        """Reference outputs of every model for this workload's data seed."""
        out = {}
        for name, m in self.build_models().items():
            result = training.train(m, self.dataset, self.cfg)
            out[name] = {"train_mse_1": result.train_losses[0],
                         "val_mse_final": result.val_losses[-1]}
        return out


class C04Train(TrainWorkload):
    NAME = "c04-train"
    MODELS = ("leaky", "strict", "pure", "dlinear", "mlp")
    SHAPE = dict(l_ctx=96, h_pred=1, d_model=32, d_ff=64, n_heads=1, patch=16, batch=128)
    LR = 3e-3
    REVIN = False

    def load(self, workdir):
        raw = datasets.generate_additive(datasets.SyntheticConfig(seed=self.data_seed))
        prepared, _ = datasets.prepare_dataset(
            raw, datasets.SplitPolicy.RATIO_70_20_10, self.SHAPE["l_ctx"], self.SHAPE["h_pred"])
        return prepared


class WideTrain(TrainWorkload):
    NAME = "wide-train"
    MODELS = ("strict",)
    SHAPE = dict(l_ctx=48, h_pred=24, d_model=16, d_ff=32, n_heads=4, patch=8, batch=32)
    LR = 1e-3
    REVIN = True

    def load(self, workdir):
        path = Path(workdir) / "wide.csv"
        values, names = wide_series(self.data_seed)
        write_csv(path, names, values)
        raw, policy = cli.resolve_dataset(str(path), {"target": "Y"})
        prepared, _ = datasets.prepare_dataset(
            raw, policy, self.SHAPE["l_ctx"], self.SHAPE["h_pred"])
        return prepared


class EvalSweep:
    """``cgpt eval`` of five seeded checkpoints against one large CSV."""

    NAME = "eval-sweep"
    MODELS = C04Train.MODELS
    SHAPE = C04Train.SHAPE
    ROWS = 60000

    def __init__(self, seed, reference):
        self.data_seed = data_seed(seed)
        self.reference = reference.get(self.NAME, {})

    def setup(self, workdir):
        workdir = Path(workdir)
        self.csv = workdir / "additive.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["gen-data", "--dataset", "additive", "--seed", str(self.data_seed),
                           "--length", str(self.ROWS), "--out", str(self.csv)])
        if rc != 0:
            raise RuntimeError(f"cgpt gen-data exited {rc}")
        self.config = workdir / "eval.cfg"
        self.config.write_text("target=C3\n")
        self.checkpoints = {}
        for name in self.MODELS:
            m = build_model(name, self.SHAPE, 4, self.data_seed)
            header = dict(m.config_header())
            header.update(dataset="additive", revin="yes", seed=self.data_seed)
            path = workdir / f"{name}.ckpt"
            checkpoint.save_checkpoint(path, header, dict(m.parameters()))
            self.checkpoints[name] = path

    def eval_once(self, name):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["eval", "--checkpoint", str(self.checkpoints[name]),
                           "--dataset", str(self.csv), "--config", str(self.config)])
        if rc != 0:
            raise RuntimeError(f"cgpt eval exited {rc}")
        return {k: float(v) for k, v in
                (line.split("=", 1) for line in out.getvalue().splitlines())}

    def warm_up(self):
        for name in self.MODELS:
            self.eval_once(name)

    def run_pass(self, checks, on_model=None):
        seconds = {}
        for name in self.MODELS:
            ref = self.reference.get(str(self.data_seed), {}).get(name, {})
            with checks.call(f"{name}: eval"):
                gc.collect()
                t0 = perf_counter()
                scores = self.eval_once(name)
                seconds[name] = perf_counter() - t0
                for key in ("test_mae", "test_mse"):
                    checks.close(f"{name}: {key}", scores[key], ref.get(key), EVAL_RTOL)
        return seconds

    def windows(self):
        """Test windows scored by one pass (every checkpoint once)."""
        starts = preprocessing.window_starts((int(0.9 * self.ROWS), self.ROWS),
                                             self.SHAPE["l_ctx"], self.SHAPE["h_pred"],
                                             allow_context_overlap=True)
        return len(starts) * len(self.MODELS)

    def outputs(self):
        return {name: self.eval_once(name) for name in self.MODELS}


WORKLOADS = {w.NAME: w for w in (C04Train, WideTrain, EvalSweep)}
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def load_reference():
    """Stored outputs: workload -> data seed -> model -> output -> value."""
    return json.loads(REFERENCE_FILE.read_text())
