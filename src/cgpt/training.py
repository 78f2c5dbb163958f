"""Deterministic training loop: decoupled weight decay, cosine schedule,
early stopping on validation MSE with best-checkpoint restore."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import format, parse
from .model import select_contexts
from .preprocessing import iter_window_batches, window_starts, gather_windows, WindowBatch
from .tensor import Tensor, backward, mean_axis, no_grad, square, zero_grads

# AdamW's fixed constants (Loshchilov & Hutter, ICLR 2019)
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
ADAM_CHUNK = 16384  # elements of AdamW.step's scratch array (128 KiB); not from the paper


class DivergenceError(RuntimeError):
    """A model produced a non-finite loss, gradient, forecast or metric."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 100
    patience: int = 10
    revin: bool = False
    seed: int = 0

    def __post_init__(self):
        if (not 0 < self.lr < math.inf or self.batch_size < 1 or self.max_epochs < 1
                or self.patience < 1):
            raise ValueError(f"invalid training configuration: {self}")


@dataclass
class RunResult:
    """What one run measured.  ``epochs_run`` and ``best_epoch`` (1-based,
    the first lowest validation loss) follow from ``val_losses``."""

    seed: int
    test_mae: float
    test_mse: float
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)

    @property
    def epochs_run(self):
        return len(self.val_losses)

    @property
    def best_epoch(self):
        return 1 + self.val_losses.index(min(self.val_losses))


def cosine_lr(epoch, cfg):
    """Annealed rate for a 0-based epoch index: 0.5*lr*(1+cos(pi*e/E))."""
    if not 0 <= epoch <= cfg.max_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {cfg.max_epochs}]")
    return 0.5 * cfg.lr * (1.0 + math.cos(math.pi * epoch / cfg.max_epochs))


class AdamW:
    """Adam with decoupled weight decay applied before the moment update.

    ``step`` consumes the gradients: each parameter's update is computed
    in its ``grad`` array, and ``grad`` is ``None`` afterwards.  Its only
    scratch array holds ``ADAM_CHUNK`` elements, or one row if that is more.
    """

    def __init__(self, params):
        self.params = dict(params)
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grads(self):
        zero_grads(self.params.values())

    def step(self, lr_t):
        b1, b2 = ADAM_BETAS
        self.t += 1
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.isfinite(g).all():
                raise DivergenceError(f"non-finite gradient in parameter {name!r}")
            p.data *= 1.0 - lr_t * WEIGHT_DECAY
            # In place, rows at a time, with the rounding of m = b1*m + (1-b1)*g,
            # v likewise, and p -= lr_t * (m/bias1) / (sqrt(v/bias2) + eps).  The
            # scratch holds (1-b1)*g, then (1-b2)*g*g, then the denominator; the
            # update goes into g's own array once g is last read.
            x, m, v, g = np.atleast_1d(p.data, self._m[name], self._v[name], g)
            rows = max(1, ADAM_CHUNK // max(1, math.prod(x.shape[1:])))
            scratch = np.empty((min(rows, len(x)), *x.shape[1:]))
            for lo in range(0, len(x), rows):
                xs, ms, vs, gs = x[lo:lo + rows], m[lo:lo + rows], v[lo:lo + rows], g[lo:lo + rows]
                s = scratch[:len(gs)]
                np.multiply(1.0 - b1, gs, out=s)
                ms *= b1
                ms += s
                np.multiply(1.0 - b2, gs, out=s)
                s *= gs
                vs *= b2
                vs += s
                np.divide(vs, bias2, out=s)
                np.sqrt(s, out=s)
                s += ADAM_EPS
                update = np.divide(ms, bias1, out=gs)
                update *= lr_t
                update /= s
                xs -= update
            xs = ms = vs = gs = s = update = None  # so g is freed with p.grad, not later
            p.grad = None


def mse_loss(forecast, target):
    return mean_axis(square(forecast - Tensor(np.asarray(target, dtype=np.float64))))


def evaluate(model, dataset, split, batch_size, revin=False):
    """Mean absolute / squared error over every window of ``split`` (a row
    range of a prepared dataset), scored ``batch_size`` windows at a time.

    Contexts may reach back into the preceding split; targets stay inside.
    Raises DivergenceError, naming the 0-based batch index, as soon as a
    batch's forecast is not finite or the squared-error sum overflows.
    Both metrics are then finite: a finite sum of squares bounds every
    error, and so the sum of their absolute values.
    """
    contexts = select_contexts(dataset.graph, dataset.target, range(dataset.n_channels))
    batches = iter_window_batches(dataset.values, split, model.l_ctx, model.h_pred,
                                  dataset.target, contexts, batch_size,
                                  allow_context_overlap=True)
    abs_sum = sq_sum = 0.0
    count = 0
    with no_grad():
        for i, batch in enumerate(batches):
            diff = model.forward(batch, revin=revin).data - batch.target_future
            abs_sum += np.abs(diff).sum()
            sq_sum += (diff * diff).sum()
            count += diff.size
            if not math.isfinite(sq_sum):
                raise DivergenceError(f"non-finite forecast or squared error in batch {i}")
    return float(abs_sum / count), float(sq_sum / count)


def _train_step(model, batch, optimizer, lr_t, revin):
    """Forward, loss, backward and update on one batch; returns the loss.

    A non-finite loss is returned without updating anything.  The step's
    graph is referenced only by ``loss``, so dropping it after ``backward``
    frees the graph before the update runs.
    """
    optimizer.zero_grads()
    loss = mse_loss(model.forward(batch, revin=revin), batch.target_future)
    value = loss.item()
    if math.isfinite(value):
        backward(loss)
        del loss
        optimizer.step(lr_t)
    return value


def _snapshot(params, into=None):
    """Copy every parameter's array into ``into``, a name -> array dict made
    by the first call; returns it.  Later calls reuse its arrays."""
    if into is None:
        into = {k: np.empty_like(p.data) for k, p in params.items()}
    for k, p in params.items():
        np.copyto(into[k], p.data)
    return into


def _epoch_permutation(seed, epoch, n):
    rng = np.random.Generator(np.random.Philox(key=[seed, epoch]))
    return rng.permutation(n)


def train(model, dataset, cfg):
    """Fit ``model`` on a prepared dataset (borders attached, standardized).

    Returns a RunResult; the model is left holding the parameters of its
    best validation epoch, not the last one.
    """
    if dataset.borders is None:
        raise ValueError("dataset has no split borders; run prepare_dataset first")
    l_ctx, h_pred = model.l_ctx, model.h_pred
    contexts = select_contexts(dataset.graph, dataset.target, range(dataset.n_channels))
    train_split, val_split, test_split = dataset.borders

    train_starts = window_starts(train_split, l_ctx, h_pred)
    optimizer = AdamW(model.parameters())
    params = optimizer.params

    def score(split, what):
        try:
            return evaluate(model, dataset, split, cfg.batch_size, cfg.revin)
        except DivergenceError as err:
            raise DivergenceError(f"non-finite {what}: {err}") from None

    best_state, best_epoch = None, 0
    train_losses, val_losses = [], []

    for epoch in range(1, cfg.max_epochs + 1):
        lr_t = cosine_lr(epoch - 1, cfg)
        order = _epoch_permutation(cfg.seed, epoch, len(train_starts))
        sq_sum = 0.0
        count = 0
        for i in range(0, len(train_starts), cfg.batch_size):
            chunk = train_starts[order[i:i + cfg.batch_size]]
            ctx, fut = gather_windows(dataset.values, chunk, l_ctx, h_pred, dataset.target)
            batch = WindowBatch(ctx, fut, dataset.target, tuple(contexts))
            value = _train_step(model, batch, optimizer, lr_t, cfg.revin)
            if not math.isfinite(value):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, batch {i // cfg.batch_size}")
            sq_sum += value * fut.size
            count += fut.size
        train_losses.append(sq_sum / count)

        _, val_mse = score(val_split, f"validation loss at epoch {epoch}")
        val_losses.append(val_mse)
        if best_state is None or val_mse < val_losses[best_epoch - 1]:
            best_state = _snapshot(params, best_state)
            best_epoch = epoch
        elif epoch - best_epoch >= cfg.patience:
            break

    for name, p in params.items():
        np.copyto(p.data, best_state[name])

    test_mae, test_mse = score(test_split, "test metric")
    return RunResult(cfg.seed, test_mae, test_mse, train_losses, val_losses)


def mean_std(values):
    """Mean and sample standard deviation; the deviation of one value is 0.0."""
    arr = np.array(values, dtype=np.float64)
    return float(arr.mean()), 0.0 if arr.size < 2 else float(arr.std(ddof=1))


def run_seeds(make_run, seeds):
    """Aggregate RunResults over seeds: mean and sample stdev per metric."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("run_seeds: no seeds given")
    results = [make_run(seed) for seed in seeds]
    mae_mean, mae_std = mean_std([r.test_mae for r in results])
    mse_mean, mse_std = mean_std([r.test_mse for r in results])
    return {"mae_mean": mae_mean, "mae_std": mae_std,
            "mse_mean": mse_mean, "mse_std": mse_std, "n_seeds": len(seeds)}


def result_record(result, meta):
    """Flat, self-describing key=value serialization of one training run.

    Timing is deliberately left out: records of identical runs must be
    byte-identical.
    """
    fields = dict(meta)
    fields.update({
        "seed": result.seed,
        "best_epoch": result.best_epoch,
        "epochs_run": result.epochs_run,
        "test_mae": repr(result.test_mae),
        "test_mse": repr(result.test_mse),
        "train_losses": ",".join(repr(v) for v in result.train_losses),
        "val_losses": ",".join(repr(v) for v in result.val_losses),
    })
    return format(fields)


def parse_record(text):
    """Inverse of result_record, values kept as strings (``checkpoint.parse``)."""
    return parse(text)
