import functools
import gc
import math
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from cgpt import training
from cgpt.baselines import DLinearModel, MlpBaseline
from cgpt.datasets import (
    SplitPolicy,
    SyntheticConfig,
    TimeSeriesDataset,
    generate_additive,
    prepare_dataset,
)
from cgpt.layers import EncoderConfig
from cgpt.model import CgptConfig, CgptModel, Variant
from cgpt.preprocessing import PatchConfig, WindowBatch, window_starts
from cgpt.tensor import Tensor, backward
from cgpt.training import (
    ADAM_BETAS,
    ADAM_CHUNK,
    ADAM_EPS,
    WEIGHT_DECAY,
    AdamW,
    DivergenceError,
    RunResult,
    TrainConfig,
    cosine_lr,
    evaluate,
    mse_loss,
    parse_record,
    result_record,
    run_seeds,
    train,
)

from conftest import traced_peak

TINY_ENC = EncoderConfig(d_model=8, d_ff=16, n_heads=1, e_layers=1,
                         patch=PatchConfig(8, 8), n_p_max=8)


def tiny_cgpt(variant=Variant.LEAKY_PAIRWISE, seed=0):
    return CgptModel(CgptConfig(encoder=TINY_ENC, l_ctx=32, h_pred=1, variant=variant),
                     seed=seed)


def small_additive(length=512, l_ctx=32, h_pred=1, seed=0):
    ds = generate_additive(SyntheticConfig(seed=seed, length=length))
    ready, _ = prepare_dataset(ds, SplitPolicy.RATIO_70_20_10, l_ctx, h_pred)
    return ready


# ---------------------------------------------------------------- scheduler

def test_cosine_boundary_values():
    cfg = TrainConfig()
    assert cosine_lr(0, cfg) == 1e-3
    assert abs(cosine_lr(50, cfg) - 5e-4) < 1e-18
    assert cosine_lr(100, cfg) == 0.0


def test_cosine_monotone_decrease():
    cfg = TrainConfig()
    values = [cosine_lr(e, cfg) for e in range(101)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_cosine_range_check():
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        cosine_lr(-1, cfg)
    with pytest.raises(ValueError):
        cosine_lr(101, cfg)


# ---------------------------------------------------------------- optimizer

def test_train_config_holds_only_what_callers_set():
    # the optimizer's constants are module-level, not per-run settings
    assert [f.name for f in fields(TrainConfig)] == [
        "lr", "batch_size", "max_epochs", "patience", "revin", "seed"]
    assert (ADAM_BETAS, ADAM_EPS, WEIGHT_DECAY) == ((0.9, 0.999), 1e-8, 0.01)


def test_adamw_zero_grad_is_pure_decay():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = AdamW({"p": p})
    p.grad = np.zeros(2)
    opt.step(1e-3)
    assert np.array_equal(p.data, np.array([0.99999, -1.99998]))


def test_adamw_missing_grad_behaves_like_zero_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"p": p})
    opt.step(1e-3)
    assert np.array_equal(p.data, np.array([0.99999]))


def test_adamw_first_step_is_signed_lr():
    # a zero parameter stays zero under any weight decay
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    opt = AdamW({"p": p})
    p.grad = np.array([1.0, -3.0])
    opt.step(1e-3)
    assert np.abs(p.data - np.array([-1e-3, 1e-3])).max() < 1e-9


def test_adamw_matches_reference_trajectory():
    """100 steps on a quadratic against an independently coded optimizer."""
    cfg = TrainConfig()
    target = np.array([1.5, -0.5, 3.0])
    p = Tensor(np.array([0.0, 2.0, -1.0]), requires_grad=True)
    opt = AdamW({"p": p})

    ref = p.data.copy()
    m = np.zeros(3)
    v = np.zeros(3)
    b1, b2 = ADAM_BETAS
    for t in range(1, 101):
        lr_t = cosine_lr(t - 1, cfg)
        g = ref - target  # gradient of 0.5*||x - target||^2
        ref = ref * (1.0 - lr_t * WEIGHT_DECAY)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g ** 2
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        ref = ref - lr_t * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

        p.grad = p.data - target
        opt.step(lr_t)
        assert np.abs(p.data - ref).max() < 1e-10, t


def test_adamw_in_place_step_is_byte_identical_to_out_of_place_formula():
    rng = np.random.default_rng(4)
    shapes = {"w": (3, 4), "b": (4,)}
    params = {k: Tensor(rng.standard_normal(s), requires_grad=True) for k, s in shapes.items()}
    opt = AdamW(params)
    ref = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    b1, b2 = ADAM_BETAS
    for t in range(1, 8):
        lr_t = 1e-2 / t
        for k, p in params.items():
            g = rng.standard_normal(shapes[k])
            p.grad = g
            ref[k] = ref[k] * (1.0 - lr_t * WEIGHT_DECAY)
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            ref[k] = ref[k] - lr_t * (m[k] / (1.0 - b1 ** t)) / (
                np.sqrt(v[k] / (1.0 - b2 ** t)) + ADAM_EPS)
        opt.step(lr_t)
        for k, p in params.items():
            assert p.data.tobytes() == ref[k].tobytes(), (k, t)


@pytest.mark.parametrize("shape", [(2 * ADAM_CHUNK + 3,), (1000, 37), (3, ADAM_CHUNK + 5)],
                         ids=["1d", "2d", "row_above_the_budget"])
def test_adamw_sliced_update_has_the_bytes_of_the_whole_array_formula(shape):
    """Parameters larger than the scratch budget, and not a multiple of it,
    get the whole-array formula's bytes, through a scratch of at most
    ADAM_CHUNK elements (or one row) rather than one the parameter's size."""
    rng = np.random.default_rng(12)
    edge = [-0.0, 0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308]
    p = Tensor(rng.standard_normal(shape), requires_grad=True)
    p.data.flat[:len(edge)] = edge
    opt = AdamW({"p": p})
    ref, m, v = p.data.copy(), np.zeros(shape), np.zeros(shape)
    b1, b2 = ADAM_BETAS
    for t in range(1, 4):
        lr_t = 1e-2 / t
        g = rng.standard_normal(shape)
        g.flat[-len(edge):] = edge
        p.grad = g.copy()
        ref = ref * (1.0 - lr_t * WEIGHT_DECAY)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        ref = ref - lr_t * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + ADAM_EPS)
        _, peak = traced_peak(lambda: opt.step(lr_t))
        assert p.data.tobytes() == ref.tobytes(), t
        # isfinite's bool mask, then the scratch; 4 KiB for the slices' objects
        assert peak <= p.data.nbytes // 8 + 8 * max(ADAM_CHUNK, shape[-1]) + 2 ** 12, peak


def test_adamw_step_consumes_the_gradients_with_one_scratch_array():
    """The update is computed in the gradient's array, so a step's peak is
    isfinite's bool mask or the update's scratch of at most ADAM_CHUNK
    elements; computing the update in fresh arrays held two
    parameter-sized temporaries at once."""
    rng = np.random.default_rng(6)
    p = Tensor(rng.standard_normal((256, 256)), requires_grad=True)
    opt = AdamW({"p": p})
    for _ in range(2):
        p.grad = rng.standard_normal((256, 256))
        _, peak = traced_peak(lambda: opt.step(1e-3))
        assert p.grad is None
        assert peak <= 1.25 * p.data.nbytes, peak / p.data.nbytes


def test_adamw_rejects_non_finite_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"theta": p})
    p.grad = np.array([np.nan])
    with pytest.raises(DivergenceError, match="theta"):
        opt.step(1e-3)


# ---------------------------------------------------------------- evaluate

class _Stub:
    """An 8->2 model that predicts the true future plus a constant offset."""

    l_ctx, h_pred = 8, 2

    def __init__(self, offset=0.0):
        self.offset = offset

    def forward(self, batch, revin=False):
        return Tensor(batch.target_future + self.offset)


def _score(model, split=(30, 40)):
    """Scores the 9 windows whose futures lie in rows 30..39 of a 2-channel
    noise series, in batches of 4, 4 and 1."""
    values = np.random.default_rng(0).standard_normal((40, 2))
    ds = TimeSeriesDataset("noise", values, ("a", "b"), 0)
    return evaluate(model, ds.with_borders(((0, 20), (20, 30), (30, 40))), split, 4)


def test_evaluate_perfect_and_offset_predictions():
    assert _score(_Stub(0.0)) == (0.0, 0.0)
    mae, mse = _score(_Stub(1.0))
    assert abs(mae - 1.0) < 1e-12 and abs(mse - 1.0) < 1e-12


def test_evaluate_empty_stream():
    # 5 rows hold no 8->2 window, so there is no batch to score
    with pytest.raises(ValueError, match=r"split \(0, 5\) holds no window"):
        _score(_Stub(), split=(0, 5))


class _BlowsUpAt(_Stub):
    """A perfect forecast, except ``bad`` in every element of call ``at``."""

    def __init__(self, at, bad):
        super().__init__()
        self.at, self.bad, self.calls = at, bad, 0

    def forward(self, batch, revin=False):
        self.calls += 1
        if self.calls - 1 == self.at:
            return Tensor(np.full(batch.target_future.shape, self.bad))
        return super().forward(batch, revin)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_evaluate_names_the_batch_of_a_non_finite_forecast_or_metric(bad):
    # 1e200 is a finite forecast whose squared error overflows
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="in batch 1$"):
        _score(_BlowsUpAt(1, bad))


def test_train_config_rejects_non_finite_lr():
    for lr in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="invalid training configuration"):
            TrainConfig(lr=lr)


# ---------------------------------------------------------------- train loop

def zeroed_dlinear(l_ctx=16, h_pred=1):
    model = DLinearModel(l_ctx, h_pred)
    for p in model.params.values():
        p.data[:] = 0.0
    return model


def zero_dataset(rows=80):
    values = np.zeros((rows, 2))
    ds = TimeSeriesDataset("flat", values, ("a", "b"), 1)
    return ds.with_borders(((0, rows - 30), (rows - 30, rows - 15), (rows - 15, rows)))


def test_patience_stops_at_eleven_when_nothing_improves():
    # zero data + zero parameters: val loss is 0 from the first epoch on
    result = train(zeroed_dlinear(), zero_dataset(), TrainConfig(batch_size=16))
    assert result.best_epoch == 1
    assert result.epochs_run == 11
    assert result.val_losses == [0.0] * 11
    assert result.test_mse == 0.0


def test_early_stopped_run_counts_its_epochs_from_the_validation_losses():
    ds = small_additive()
    model = DLinearModel(32, 1, seed=3)
    cfg = TrainConfig(lr=0.1, batch_size=64, max_epochs=40, patience=2, seed=3)
    result = train(model, ds, cfg)
    losses = result.val_losses
    assert result.epochs_run == len(losses) == 4  # stopped well before max_epochs
    assert result.best_epoch == 1 + losses.index(min(losses)) == 2
    assert result.epochs_run - result.best_epoch == cfg.patience
    assert evaluate(model, ds, ds.borders[1], 64)[1] == losses[1]


def test_tied_validation_losses_pick_the_earlier_epoch():
    result = RunResult(seed=0, test_mae=0.0, test_mse=0.0,
                       train_losses=[3.0, 2.0, 1.0, 0.5], val_losses=[0.5, 0.3, 0.3, 0.4])
    assert (result.best_epoch, result.epochs_run) == (2, 4)


def test_patience_window_slides_on_improvement():
    result = train(zeroed_dlinear(), zero_dataset(),
                   TrainConfig(batch_size=16, max_epochs=5, patience=10))
    assert result.epochs_run == 5  # max_epochs caps the run before patience fires


def test_best_checkpoint_restored_and_test_computed_on_it():
    ds = small_additive()
    model = DLinearModel(32, 1, seed=3)
    cfg = TrainConfig(batch_size=64, max_epochs=12, patience=12, seed=3)
    result = train(model, ds, cfg)

    _, val_mse = evaluate(model, ds, ds.borders[1], 64, revin=cfg.revin)
    assert val_mse == min(result.val_losses)
    assert result.best_epoch == result.val_losses.index(min(result.val_losses)) + 1

    assert evaluate(model, ds, ds.borders[2], 64, revin=cfg.revin) == (
        result.test_mae, result.test_mse)


def test_training_is_bit_deterministic():
    ds = small_additive()
    cfg = TrainConfig(batch_size=128, max_epochs=3, patience=3, seed=7)
    results = [train(tiny_cgpt(seed=7), ds, cfg) for _ in range(2)]
    a, b = results
    assert a.train_losses == b.train_losses
    assert a.val_losses == b.val_losses
    assert (a.test_mae, a.test_mse) == (b.test_mae, b.test_mse)
    meta = {"dataset": "additive", "model": "leaky"}
    assert result_record(a, meta) == result_record(b, meta)


def test_each_step_graph_is_freed_before_the_next_forward():
    """Every forecast (and the graph hanging off it) is gone by the time the
    next forward starts; reference counting alone must free it."""
    model = tiny_cgpt()
    forward = model.forward
    forecasts = []

    def watched(batch, revin=False):
        assert all(ref() is None for ref in forecasts), f"forward {len(forecasts)}"
        out = forward(batch, revin=revin)
        forecasts.append(weakref.ref(out))
        return out

    model.forward = watched
    gc.disable()
    try:
        train(model, small_additive(), TrainConfig(batch_size=64, max_epochs=1))
    finally:
        gc.enable()
    assert len(forecasts) > 3


def test_divergent_run_aborts_with_location():
    ds = small_additive()
    model = DLinearModel(32, 1, seed=0)
    model.params["trend.w"].data[:] = 1e200  # loss overflows on the first batch
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError, match="epoch 1"):
            train(model, ds, TrainConfig(batch_size=64))


@pytest.mark.parametrize("split", ["validation", "test"])
def test_non_finite_evaluation_in_train_is_a_divergence(split):
    ds = small_additive()
    model = DLinearModel(32, 1, seed=0)
    val_batches = -(-len(window_starts(ds.borders[1], 32, 1, allow_context_overlap=True)) // 64)
    first_bad = 0 if split == "validation" else val_batches
    forward, evals = model.forward, []

    def blows_up_in_eval(batch, revin=False):
        out = forward(batch, revin=revin)
        if out.requires_grad:  # a training step
            return out
        evals.append(batch)
        return out if len(evals) <= first_bad else Tensor(np.full(out.shape, np.nan))

    model.forward = blows_up_in_eval
    message = ("non-finite validation loss at epoch 1: " if split == "validation"
               else "non-finite test metric: ")
    with pytest.raises(DivergenceError, match=message + "non-finite forecast .* in batch 0"):
        train(model, ds, TrainConfig(batch_size=64, max_epochs=1, patience=1))


def test_wide_training_step_peak_memory_is_bounded():
    """One strict step at the benchmark's wide shape: 32 channels, no
    graph (31 contexts), 4 heads, revin.  Its graph has ~1400 nodes.
    Keeping every intermediate array until the step ends peaks at ~34 MiB;
    keeping only what backward reads, at ~15 MiB."""
    enc = EncoderConfig(d_model=16, d_ff=32, n_heads=4, e_layers=1, patch=PatchConfig(8, 8))
    model = CgptModel(CgptConfig(enc, 48, 24, Variant.STRICT_PAIRWISE), seed=0)
    rng = np.random.default_rng(0)
    batch = WindowBatch(rng.standard_normal((32, 48, 32)), rng.standard_normal((32, 24)),
                        31, tuple(range(31)))
    optimizer = AdamW(model.parameters())

    def step():
        optimizer.zero_grads()
        backward(mse_loss(model.forward(batch, revin=True), batch.target_future))
        optimizer.step(1e-3)

    step()  # warm up, so that no one-time set-up is measured
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"


@functools.cache
def traced_mlp_epoch():
    """(peak bytes, each parameter's bytes, bytes the forward saves for backward)
    of one epoch of the c04-shaped mlp (4 channels x 96 steps, hidden 512,
    batch 128), traced from before the model is built.  What the forward
    saves is the flattened input, two hidden activations and their relu
    masks (1.5 MiB)."""
    ds = small_additive(length=2048, l_ctx=96)
    cfg = TrainConfig(lr=3e-3, batch_size=128, max_epochs=1, patience=1)

    def fit():
        model = MlpBaseline(96, 1, n_vars=4, hidden=512)
        train(model, ds, cfg)
        return model

    model, peak = traced_peak(fit)
    sizes = [p.data.nbytes for p in model.parameters().values()]
    saved = 8 * cfg.batch_size * (96 * 4 + 2 * 512) + cfg.batch_size * 2 * 512
    return peak, sizes, saved


def test_mlp_epoch_holds_one_graph_one_gradient_set_and_one_scratch():
    """The epoch's live set is the parameters, AdamW's two moments, one
    gradient set and one step's graph, whose allowance is twice what the
    forward saves.  The bound also allows a scratch array the size of the
    largest parameter, 19.0 MiB in all.  The epoch peaks at 16.6 MiB; it
    peaked at 18.0 MiB while a leaf's first gradient was added into zeros
    and AdamW's scratch was parameter-sized, and at 20.8 MiB while the
    graph lived through the update, every gradient through validation, and
    relu saved its inputs instead of masks."""
    peak, sizes, saved = traced_mlp_epoch()
    bound = 4 * sum(sizes) + max(sizes) + 2 * saved
    assert peak <= bound, f"{peak / 2 ** 20:.2f} MiB > {bound / 2 ** 20:.2f} MiB"


def test_mlp_epoch_holds_no_parameter_sized_scratch():
    """The same epoch within 4 x parameters + 2 x saved (17.05 MiB): no
    parameter-sized temporary on top.  A leaf takes its first gradient
    array instead of adding it into zeros (a second copy of fc2.w's 2 MiB
    gradient), and AdamW's scratch holds at most ADAM_CHUNK elements."""
    peak, sizes, saved = traced_mlp_epoch()
    bound = 4 * sum(sizes) + 2 * saved
    assert peak <= bound, f"{peak / 2 ** 20:.2f} MiB > {bound / 2 ** 20:.2f} MiB"


def test_update_runs_after_the_step_graph_is_freed(monkeypatch):
    """By the time AdamW.step runs, the step's loss tensor (and so the graph
    hanging off it) is gone; afterwards no parameter holds a gradient."""
    losses = []

    def watched_loss(forecast, target):
        out = mse_loss(forecast, target)
        losses.append(weakref.ref(out))
        return out

    step = AdamW.step

    def watched_step(self, lr_t):
        assert losses and losses[-1]() is None, f"step {len(losses)}"
        step(self, lr_t)
        assert all(p.grad is None for p in self.params.values())

    monkeypatch.setattr(training, "mse_loss", watched_loss)
    monkeypatch.setattr(AdamW, "step", watched_step)
    gc.disable()
    try:
        train(MlpBaseline(32, 1, n_vars=4, hidden=16), small_additive(),
              TrainConfig(batch_size=64, max_epochs=1))
    finally:
        gc.enable()
    assert len(losses) > 3


def test_best_state_that_improves_twice_reuses_its_buffers(monkeypatch):
    snapshots = []
    snapshot = training._snapshot

    def watched(params, into=None):
        out = snapshot(params, into)
        snapshots.append((out, [id(a) for a in out.values()]))
        return out

    monkeypatch.setattr(training, "_snapshot", watched)
    model = DLinearModel(32, 1, seed=3)
    result = train(model, small_additive(), TrainConfig(batch_size=64, max_epochs=12,
                                                        patience=12, seed=3))
    improvements = [i for i, v in enumerate(result.val_losses)
                    if v < min(result.val_losses[:i], default=math.inf)]
    assert len(improvements) >= 2 and len(snapshots) == len(improvements)
    first, ids = snapshots[0]
    assert all(out is first and now == ids for out, now in snapshots)
    for name, p in model.parameters().items():
        assert p.data.tobytes() == first[name].tobytes(), name


def test_every_model_family_learns_in_one_epoch():
    ds = small_additive()

    def untrained_loss(model):
        _, mse = evaluate(model, ds, ds.borders[0], 256)
        return mse

    families = {
        "leaky": tiny_cgpt(Variant.LEAKY_PAIRWISE),
        "strict": tiny_cgpt(Variant.STRICT_PAIRWISE),
        "pure": tiny_cgpt(Variant.PURE_INFLUENCE),
        "dlinear": DLinearModel(32, 1),
        "mlp": MlpBaseline(32, 1, n_vars=4, hidden=64),
    }
    cfg = TrainConfig(batch_size=64, max_epochs=1, patience=1)
    for name, model in families.items():
        before = untrained_loss(model)
        result = train(model, ds, cfg)
        assert result.train_losses[0] < before, name


def test_overfits_a_tiny_window_set():
    """64 training windows must be memorized to far below the noise floor."""
    ds = generate_additive(SyntheticConfig(seed=0, length=160))
    from cgpt.preprocessing import apply_standardizer, fit_standardizer
    values = apply_standardizer(ds.values, fit_standardizer(ds.values, (0, 96)))
    ds = replace(ds, values=values, borders=((0, 96), (96, 128), (128, 160)))

    enc = EncoderConfig(d_model=32, d_ff=64, n_heads=1, e_layers=1,
                        patch=PatchConfig(8, 8), n_p_max=8)
    model = CgptModel(CgptConfig(encoder=enc, l_ctx=32, h_pred=1,
                                 variant=Variant.LEAKY_PAIRWISE), seed=0)
    result = train(model, ds, TrainConfig(batch_size=8, max_epochs=100, patience=100))
    assert min(result.train_losses) < 0.01


def test_train_requires_borders():
    ds = generate_additive(SyntheticConfig(seed=0, length=256))
    with pytest.raises(ValueError, match="borders"):
        train(DLinearModel(32, 1), ds, TrainConfig())


# ---------------------------------------------------------------- aggregation

def test_run_seeds_aggregates_mean_and_sample_std():
    def fake_run(seed):
        return RunResult(seed=seed, test_mae=0.1 * (seed + 1), test_mse=0.01)

    agg = run_seeds(fake_run, [0, 1, 2])
    assert abs(agg["mae_mean"] - 0.2) < 1e-12
    assert abs(agg["mae_std"] - 0.1) < 1e-12  # sample std of 0.1/0.2/0.3
    assert agg["mse_std"] == 0.0  # identical metric across seeds
    assert agg["n_seeds"] == 3

    one = run_seeds(fake_run, [4])
    assert one["n_seeds"] == 1 and one["mae_std"] == 0.0
    with pytest.raises(ValueError):
        run_seeds(fake_run, [])


def test_dlinear_additive_long_horizon_is_stable_across_seeds():
    """Five full protocol runs land in a tight band (slow-ish, ~7s)."""
    ds = small_additive(length=6144, l_ctx=96, h_pred=96)

    def make_run(seed):
        return train(DLinearModel(96, 96, seed=seed), ds, TrainConfig(seed=seed))

    agg = run_seeds(make_run, range(5))
    assert agg["mse_std"] <= 0.01
    assert agg["mae_std"] <= 0.01


# ---------------------------------------------------------------- records

def test_result_record_roundtrip_and_determinism():
    result = RunResult(seed=3, test_mae=0.125, test_mse=0.015625,
                       train_losses=[1.0, 0.5], val_losses=[0.7, 0.6])
    meta = {"dataset": "additive", "model": "leaky", "revin": "no",
            "l_ctx": 96, "h_pred": 1}
    text = result_record(result, meta)
    parsed = parse_record(text)
    assert parsed["dataset"] == "additive"
    assert parsed["seed"] == "3"
    assert float(parsed["test_mae"]) == 0.125
    assert [float(v) for v in parsed["train_losses"].split(",")] == [1.0, 0.5]
    assert (parsed["best_epoch"], parsed["epochs_run"]) == ("2", "2")

    again = RunResult(seed=3, test_mae=0.125, test_mse=0.015625,
                      train_losses=[1.0, 0.5], val_losses=[0.7, 0.6])
    assert result_record(again, meta) == text


def test_parse_record_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        parse_record("a=1\nnot a record\n")
    with pytest.raises(ValueError, match="^line 3: key 'a' already set on line 1$"):
        parse_record("a=1\nb=2\na=3\n")
