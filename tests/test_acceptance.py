"""Release gate: ten end-to-end checks, one test per criterion.

Each test prints a single ``[acceptance] C## PASS/FAIL/SKIP`` line (visible
under ``pytest -s``) so the gate can be read off the log at a glance.

C03 needs ``ETTh1.csv`` under ``CGPT_DATA_DIR`` (or the working directory).
The file ships with the public ETT benchmark and is not bundled here; the
check runs in full when the file is present and skips loudly otherwise.

C04 trains the three pairwise variants to convergence on generated data.
It is the slow one (a few minutes of CPU); everything else is seconds.
"""

import functools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from cgpt import tensor as T
from cgpt.baselines import DLinearModel
from cgpt.cli import main
from cgpt.datasets import (ChannelRole, SplitPolicy, SyntheticConfig,
                           TimeSeriesDataset, generate_additive,
                           generate_interactive, load_csv, prepare_dataset)
from cgpt.layers import EncoderConfig
from cgpt.model import (CausalGraph, CgptConfig, CgptModel, Variant,
                        cgpt_forward, influence, parameter_count)
from cgpt.preprocessing import (PatchConfig, WindowBatch, iter_window_batches,
                                revin_denormalize, revin_normalize)
from cgpt.tensor import Tensor, grad_check, mean_axis, square
from cgpt.training import TrainConfig, cosine_lr, evaluate, train


def criterion(num, title):
    """Emit one PASS/FAIL/SKIP line per criterion, whatever the outcome."""
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"[acceptance] C{num:02d} SKIP - {title}")
                raise
            except BaseException:
                print(f"[acceptance] C{num:02d} FAIL - {title}")
                raise
            print(f"[acceptance] C{num:02d} PASS - {title}")
        return run
    return deco


# --------------------------------------------------------------- C1

TOY_ENC = EncoderConfig(d_model=8, d_ff=16, n_heads=1, e_layers=1,
                        patch=PatchConfig(4, 4), n_p_max=8)


def _op_cases(rng):
    """(name, f, x) triples covering every differentiable op kind."""
    x34 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    x43 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    pos = Tensor(np.abs(rng.standard_normal((3, 4))) + 0.5, requires_grad=True)
    # keep relu inputs away from its kink, where finite differences lie
    raw = rng.standard_normal((3, 4))
    far = Tensor(np.sign(raw) * (np.abs(raw) + 0.5), requires_grad=True)
    twin = Tensor(rng.standard_normal((3, 4)))
    return [
        ("add", lambda t: T.sum_axis(T.add(t, twin)), x34),
        ("sub", lambda t: T.sum_axis(T.sub(twin, t)), x34),
        ("mul", lambda t: T.sum_axis(T.mul(t, twin)), x34),
        ("scale", lambda t: T.sum_axis(T.scale(t, -1.7)), x34),
        ("matmul", lambda t: T.sum_axis(T.matmul(t, Tensor(twin.data.T))), x34),
        ("transpose", lambda t: T.sum_axis(T.mul(T.transpose_last_two(t), Tensor(twin.data.T))), x34),
        ("reshape", lambda t: T.sum_axis(T.mul(T.reshape(t, (3, 4)), twin)), x43),
        ("concat", lambda t: T.sum_axis(T.mul(T.concat_last_dim([t, t]), Tensor(np.concatenate([twin.data] * 2, axis=-1)))), x34),
        ("narrow", lambda t: T.sum_axis(T.square(T.narrow(t, 1, 1, 3))), x34),
        ("sum_axis", lambda t: T.sum_axis(T.square(T.sum_axis(t, 0))), x34),
        ("mean_axis", lambda t: T.sum_axis(T.square(T.mean_axis(t, 1))), x34),
        ("softmax", lambda t: T.sum_axis(T.mul(T.softmax_last_dim(t), twin)), x34),
        ("layer_norm", lambda t: T.sum_axis(T.mul(T.layer_norm_last_dim(t), twin)), x34),
        ("gelu", lambda t: T.sum_axis(T.gelu(t)), x34),
        ("relu", lambda t: T.sum_axis(T.square(T.relu(t))), far),
        ("tanh", lambda t: T.sum_axis(T.tanh(t)), x34),
        ("square", lambda t: T.sum_axis(T.square(t)), x34),
        ("sqrt", lambda t: T.sum_axis(T.sqrt(t)), pos),
    ]


@criterion(1, "autodiff matches finite differences (ops + full model)")
def test_c01_gradient_integrity():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for name, f, x in _op_cases(rng):
            err = grad_check(f, x)
            assert err < 1e-4, f"op {name}, seed {seed}: rel err {err}"

    # full loss on a 2-context toy window, every parameter tensor
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        model = CgptModel(CgptConfig(TOY_ENC, l_ctx=16, h_pred=3,
                                     variant=Variant.LEAKY_PAIRWISE), seed=seed)
        batch = WindowBatch(context=rng.standard_normal((2, 16, 3)),
                            target_future=rng.standard_normal((2, 3)),
                            target_channel=2, context_channels=(0, 1))
        y = Tensor(batch.target_future)

        def loss_fn(_):
            return mean_axis(square(cgpt_forward(batch, model) - y))

        for name, param in model.parameters().items():
            err = grad_check(loss_fn, param)
            assert err < 1e-4, f"param {name}, seed {seed}: rel err {err}"


# --------------------------------------------------------------- C2

@criterion(2, "RevIN round trip exact to 1e-9, constant series finite")
def test_c02_revin_round_trip():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        window = rng.standard_normal((7, 96)) * 10.0 ** float(rng.integers(-2, 4)) \
            + rng.standard_normal()
        normalized, stats = revin_normalize(window)
        restored = revin_denormalize(normalized, stats)
        worst = max(worst, np.abs(restored - window).max())
    assert worst < 1e-9

    flat, stats = revin_normalize(np.full((3, 48), 5.0))
    assert np.isfinite(flat).all()
    assert np.array_equal(revin_denormalize(flat, stats), np.full((3, 48), 5.0))


# --------------------------------------------------------------- C3

@criterion(3, "ETTh1 DLinear 96->96 MSE in [0.050,0.065], 96->1 in [0.003,0.005]")
def test_c03_etth1_public_reproduction():
    path = Path(os.environ.get("CGPT_DATA_DIR", ".")) / "ETTh1.csv"
    if not path.exists():
        pytest.skip(
            f"ETTh1.csv not found at {path} — the public benchmark file is "
            "not bundled; place it under CGPT_DATA_DIR to run the one "
            "quantitative reproduction check")

    dataset = load_csv(path, target="OT", name="etth1")
    assert dataset.length == 17420 and dataset.n_channels == 7

    bands = {96: (0.050, 0.065), 1: (0.003, 0.005)}
    for h_pred, (lo, hi) in bands.items():
        prepared, _ = prepare_dataset(dataset, SplitPolicy.ETTH1_STANDARD, 96, h_pred)
        mses = []
        for seed in range(5):
            model = DLinearModel(96, h_pred, seed=seed)
            result = train(model, prepared, TrainConfig(revin=True, seed=seed))
            mses.append(result.test_mse)
        mean = float(np.mean(mses))
        assert lo <= mean <= hi, f"96->{h_pred}: mean MSE {mean:.4f} outside [{lo}, {hi}]"


# --------------------------------------------------------------- C4

@pytest.mark.slow
@criterion(4, "one-step ablation: pure >= 1.5x leaky MSE; leaky~strict within 20%")
def test_c04_ablation_direction():
    # Downscaled but trained to convergence: d_model 32, finer patches and
    # twice the update steps let every variant reach its noise floor in a
    # few CPU-minutes (at 30 underfit epochs the structural gap between
    # the variants has not yet opened and the comparison is meaningless).
    dataset = generate_additive(SyntheticConfig())
    prepared, _ = prepare_dataset(dataset, SplitPolicy.RATIO_70_20_10, 96, 1)
    encoder = EncoderConfig(d_model=32, d_ff=64, patch=PatchConfig(16, 16))

    means = {}
    for variant in (Variant.LEAKY_PAIRWISE, Variant.STRICT_PAIRWISE,
                    Variant.PURE_INFLUENCE):
        mses = []
        for seed in (0, 1):
            model = CgptModel(CgptConfig(encoder, 96, 1, variant), seed=seed)
            result = train(model, prepared,
                           TrainConfig(max_epochs=100, lr=3e-3, batch_size=128,
                                       revin=False, seed=seed))
            mses.append(result.test_mse)
        means[variant] = float(np.mean(mses))

    leaky = means[Variant.LEAKY_PAIRWISE]
    strict = means[Variant.STRICT_PAIRWISE]
    pure = means[Variant.PURE_INFLUENCE]
    assert pure >= 1.5 * leaky, f"pure/leaky ratio {pure / leaky:.2f} < 1.5"
    assert abs(leaky - strict) / leaky < 0.20, \
        f"leaky {leaky:.4f} vs strict {strict:.4f}: rel gap {abs(leaky - strict) / leaky:.2%}"


# --------------------------------------------------------------- C5

def _window(n_channels, contexts, rng, batch=4, l_ctx=16, h=3):
    return WindowBatch(context=rng.standard_normal((batch, l_ctx, n_channels)),
                       target_future=rng.standard_normal((batch, h)),
                       target_channel=3, context_channels=tuple(contexts))


@criterion(5, "any-variate: one parameter set serves 4 and 67 channels")
def test_c05_any_variate_invariance():
    model = CgptModel(CgptConfig(TOY_ENC, 16, 3, Variant.LEAKY_PAIRWISE))
    n_params = parameter_count(model)
    rng = np.random.default_rng(0)

    few = _window(4, (0, 1), rng)
    many = _window(67, range(4, 67), rng)
    for batch in (few, many):
        forecast = cgpt_forward(batch, model)
        assert forecast.shape == (4, 3)
    assert parameter_count(model) == n_params  # unchanged by channel count

    # a channel outside the causal graph leaves the forecast bit-identical
    base = cgpt_forward(few, model).data
    extra = np.concatenate([few.context, rng.standard_normal((4, 16, 1))], axis=2)
    widened = WindowBatch(extra, few.target_future, 3, (0, 1))
    assert np.array_equal(cgpt_forward(widened, model).data, base)


# --------------------------------------------------------------- C6

@criterion(6, "STRICT influences and PURE forecasts are blind to target history")
def test_c06_strict_pure_blindness():
    rng = np.random.default_rng(7)
    strict = CgptModel(CgptConfig(TOY_ENC, 16, 3, Variant.STRICT_PAIRWISE))
    z_context = strict.encode_channel(rng.standard_normal((4, 16)))
    z_target_a = strict.encode_channel(rng.standard_normal((4, 16)))
    z_target_b = strict.encode_channel(rng.standard_normal((4, 16)))
    infl_a = influence(z_target_a, z_context, strict)
    infl_b = influence(z_target_b, z_context, strict)
    assert np.array_equal(infl_a.data, infl_b.data)

    pure = CgptModel(CgptConfig(TOY_ENC, 16, 3, Variant.PURE_INFLUENCE))
    batch = _window(4, (0, 1), rng)
    base = cgpt_forward(batch, pure, revin=False).data
    poked = batch.context.copy()
    poked[:, :, 3] = rng.standard_normal((4, 16)) * 100
    perturbed = WindowBatch(poked, batch.target_future, 3, (0, 1))
    assert np.array_equal(cgpt_forward(perturbed, pure, revin=False).data, base)


# --------------------------------------------------------------- C7

@criterion(7, "channel-independent encoder with a single shared parameter set")
def test_c07_shared_encoder_ci_property():
    rng = np.random.default_rng(3)
    model = CgptModel(CgptConfig(TOY_ENC, 16, 3, Variant.LEAKY_PAIRWISE))
    batch = _window(4, (0, 1), rng)

    z_target = model.encode_channel(np.ascontiguousarray(batch.context[:, :, 3]))
    poked = batch.context.copy()
    poked[:, :, (0, 1, 2)] = rng.standard_normal((4, 16, 3)) * 50
    z_again = model.encode_channel(np.ascontiguousarray(poked[:, :, 3]))
    assert np.array_equal(z_target.data, z_again.data)

    # aliasing: every encoder weight reachable from parameters() IS the
    # tensor used for every channel; there is exactly one encoder set
    params = model.parameters()
    encoder_names = [k for k in params if k.startswith("encoder.")]
    assert len(encoder_names) == len(model.encoder_params)
    for name in encoder_names:
        assert params[name] is model.encoder_params[name.removeprefix("encoder.")]

    # both streams feed gradient into the same shared tensor: the combined
    # gradient is exactly the sum of the per-stream gradients
    embed = model.encoder_params["patch_embed.w"]

    def embed_grad(*columns):
        embed.grad = None
        latents = [model.encode_channel(np.ascontiguousarray(batch.context[:, :, c]))
                   for c in columns]
        total = latents[0] if len(latents) == 1 else T.add(*latents)
        T.backward(T.sum_axis(total))
        return embed.grad.copy()

    assert np.array_equal(embed_grad(0, 3), embed_grad(0) + embed_grad(3))


# --------------------------------------------------------------- C8

@criterion(8, "generator oracle: OLS recovers coefficients, spurious ~0, "
              "interactive defeats the linear fit")
def test_c08_synthetic_generator_oracle():
    ds = generate_additive(SyntheticConfig(seed=0))
    v = ds.values
    t = np.arange(9, ds.length)
    design = np.column_stack([v[t - 1, 3], v[t - 4, 0], v[t - 9, 1], v[t - 2, 2]])
    coef, *_ = np.linalg.lstsq(design, v[t, 3], rcond=None)
    for got, want in zip(coef[:3], (0.7, 0.8, 0.5)):
        assert abs(got - want) <= 0.05, f"coefficient {got:.3f} vs {want}"
    assert abs(coef[3]) <= 0.05, f"spurious channel coefficient {coef[3]:.3f}"

    di = generate_interactive(SyntheticConfig(seed=0))
    w = di.values
    t = np.arange(6, di.length)
    linear = np.column_stack([w[t - 1, 3], w[t - 4, 0], w[t - 6, 1],
                              w[t - 2, 2], w[t - 3, 0]])
    coef, *_ = np.linalg.lstsq(linear, w[t, 3], rcond=None)
    linear_resid = np.var(w[t, 3] - linear @ coef)
    truth = (0.7 * w[t - 1, 3] + 0.6 * np.tanh(w[t - 4, 0] * w[t - 6, 1])
             + 0.4 * w[t - 2, 2] * w[t - 3, 0])
    true_resid = np.var(w[t, 3] - truth)
    assert linear_resid >= 2 * true_resid, \
        f"linear fit too good: {linear_resid:.4f} vs {true_resid:.4f}"


# --------------------------------------------------------------- C9

@criterion(9, "repeated runs yield bit-identical records and checkpoints")
def test_c09_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("length=1024\nmax_epochs=2\nd_model=16\nd_ff=32\n")
    argv = ["train", "--config", str(cfg), "--dataset", "additive",
            "--model", "leaky", "--horizon", "1", "--revin", "no",
            "--seeds", "0"]
    for out in ("first", "second"):
        assert main(argv + ["--out", str(tmp_path / out)]) == 0
    rel = Path("additive") / "leaky" / "revin_no" / "seed_0"
    for name in ("result_96to1.txt", "model_96to1.ckpt"):
        first = (tmp_path / "first" / rel / name).read_bytes()
        second = (tmp_path / "second" / rel / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"


# --------------------------------------------------------------- C10

@criterion(10, "cosine schedule endpoints and patience-exhaustion restore")
def test_c10_scheduler_and_stopping():
    cfg = TrainConfig()
    assert cosine_lr(0, cfg) == 1e-3
    assert cosine_lr(50, cfg) == 5e-4
    assert cosine_lr(100, cfg) == 0.0

    # constant-zero data: the first epoch's validation loss can never be
    # beaten, so the run must stop after exactly patience more epochs
    model = DLinearModel(16, 1)
    for p in model.params.values():
        p.data[:] = 0.0
    values = np.zeros((80, 2))
    flat = TimeSeriesDataset("flat", values, ("a", "b"),
                             (ChannelRole.INTERNAL_STATE, ChannelRole.TARGET), 1)
    flat = flat.with_borders(((0, 50), (50, 65), (65, 80)))
    result = train(model, flat, TrainConfig(batch_size=16))
    assert result.best_epoch == 1
    assert result.epochs_run == 1 + TrainConfig().patience

    # the restored parameters are the best epoch's, not the last epoch's
    ds = generate_additive(SyntheticConfig(length=1024, seed=1))
    prepared, _ = prepare_dataset(ds, SplitPolicy.RATIO_70_20_10, 32, 1)
    model = DLinearModel(32, 1, seed=3)
    result = train(model, prepared, TrainConfig(batch_size=64, max_epochs=12,
                                                patience=12, seed=3))
    stream = iter_window_batches(prepared.values, prepared.borders[1], 32, 1,
                                 3, [0, 1, 2], 64, allow_context_overlap=True)
    _, val_mse = evaluate(model, stream)
    assert val_mse == min(result.val_losses)
    assert result.best_epoch == result.val_losses.index(min(result.val_losses)) + 1
