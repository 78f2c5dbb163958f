import gc
import math
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

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
from cgpt.preprocessing import PatchConfig, WindowBatch, iter_window_batches, window_starts
from cgpt.tensor import Tensor, backward
from cgpt.training import (
    ADAM_BETAS,
    ADAM_EPS,
    WEIGHT_DECAY,
    AdamW,
    DivergenceError,
    TrainConfig,
    cosine_lr,
    evaluate,
    mse_loss,
    parse_record,
    result_record,
    run_seeds,
    train,
)

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


def test_adamw_rejects_non_finite_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = AdamW({"theta": p})
    p.grad = np.array([np.nan])
    with pytest.raises(DivergenceError, match="theta"):
        opt.step(1e-3)


# ---------------------------------------------------------------- evaluate

class _Stub:
    """Predicts the true future plus a constant offset."""

    def __init__(self, offset=0.0):
        self.offset = offset

    def forward(self, batch, revin=False):
        return Tensor(batch.target_future + self.offset)


def _stream(n=3):
    rng = np.random.default_rng(0)
    for _ in range(n):
        yield WindowBatch(rng.standard_normal((4, 8, 2)),
                          rng.standard_normal((4, 2)), 0, (1,))


def test_evaluate_perfect_and_offset_predictions():
    assert evaluate(_Stub(0.0), _stream()) == (0.0, 0.0)
    mae, mse = evaluate(_Stub(1.0), _stream())
    assert abs(mae - 1.0) < 1e-12 and abs(mse - 1.0) < 1e-12


def test_evaluate_empty_stream():
    with pytest.raises(ValueError, match="empty"):
        evaluate(_Stub(), iter(()))


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
        evaluate(_BlowsUpAt(1, bad), _stream())


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


def test_patience_window_slides_on_improvement():
    result = train(zeroed_dlinear(), zero_dataset(),
                   TrainConfig(batch_size=16, max_epochs=5, patience=10))
    assert result.epochs_run == 5  # max_epochs caps the run before patience fires


def test_best_checkpoint_restored_and_test_computed_on_it():
    ds = small_additive()
    model = DLinearModel(32, 1, seed=3)
    cfg = TrainConfig(batch_size=64, max_epochs=12, patience=12, seed=3)
    result = train(model, ds, cfg)

    contexts = [0, 1, 2]
    val_stream = iter_window_batches(ds.values, ds.borders[1], 32, 1, 3, contexts,
                                     64, allow_context_overlap=True)
    _, val_mse = evaluate(model, val_stream, revin=cfg.revin)
    assert val_mse == min(result.val_losses)
    assert result.best_epoch == result.val_losses.index(min(result.val_losses)) + 1

    test_stream = iter_window_batches(ds.values, ds.borders[2], 32, 1, 3, contexts,
                                      64, allow_context_overlap=True)
    _, test_mse = evaluate(model, test_stream, revin=cfg.revin)
    assert test_mse == result.test_mse


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
    graph (31 contexts), 4 heads, revin.  Its graph has ~2200 nodes.
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


def test_every_model_family_learns_in_one_epoch():
    ds = small_additive()
    contexts = [0, 1, 2][:2]  # graph parents of C3 are [0, 1]

    def untrained_loss(model):
        stream = iter_window_batches(ds.values, ds.borders[0], 32, 1, 3, contexts, 256)
        _, mse = evaluate(model, stream)
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
    from cgpt.training import RunResult

    def fake_run(seed):
        return RunResult(seed=seed, best_epoch=1, epochs_run=1,
                         test_mae=0.1 * (seed + 1), test_mse=0.01)

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
    from cgpt.training import RunResult

    result = RunResult(seed=3, best_epoch=2, epochs_run=5, test_mae=0.125,
                       test_mse=0.015625, train_losses=[1.0, 0.5], val_losses=[0.7, 0.6])
    meta = {"dataset": "additive", "model": "leaky", "revin": "no",
            "l_ctx": 96, "h_pred": 1}
    text = result_record(result, meta)
    parsed = parse_record(text)
    assert parsed["dataset"] == "additive"
    assert parsed["seed"] == "3"
    assert float(parsed["test_mae"]) == 0.125
    assert [float(v) for v in parsed["train_losses"].split(",")] == [1.0, 0.5]

    again = RunResult(seed=3, best_epoch=2, epochs_run=5, test_mae=0.125,
                      test_mse=0.015625, train_losses=[1.0, 0.5], val_losses=[0.7, 0.6])
    assert result_record(again, meta) == text


def test_parse_record_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        parse_record("a=1\nnot a record\n")
