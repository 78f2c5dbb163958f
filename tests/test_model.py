import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cgpt.layers import EncoderConfig
from cgpt.model import (
    CausalGraph,
    CgptConfig,
    CgptModel,
    Variant,
    aggregate,
    cgpt_forward,
    influence,
    parameter_count,
    select_contexts,
)
from cgpt.preprocessing import PatchConfig, WindowBatch
from cgpt.tensor import Tensor, grad_check, mean_axis, square

TOY_ENC = EncoderConfig(d_model=8, d_ff=16, n_heads=1, e_layers=1,
                        patch=PatchConfig(4, 4), n_p_max=8)


def toy_model(variant=Variant.LEAKY_PAIRWISE, h_pred=3, seed=0):
    return CgptModel(CgptConfig(encoder=TOY_ENC, l_ctx=16, h_pred=h_pred,
                                variant=variant), seed=seed)


def toy_batch(n_channels=4, contexts=(0, 1), target=3, batch=5, l_ctx=16, seed=0):
    rng = np.random.default_rng(seed)
    return WindowBatch(
        context=rng.standard_normal((batch, l_ctx, n_channels)),
        target_future=rng.standard_normal((batch, 3)),
        target_channel=target,
        context_channels=tuple(contexts),
    )


# ---------------------------------------------------------------- graph

def test_select_contexts_uses_graph_parents_sorted():
    graph = CausalGraph.from_edges([(2, 3), (0, 3), (1, 0)])
    assert select_contexts(graph, 3, range(4)) == [0, 2]
    assert select_contexts(graph, 0, range(4)) == [1]
    assert select_contexts(graph, 1, range(4)) == []  # no parents


def test_select_contexts_without_graph_takes_all_others():
    assert select_contexts(None, 2, range(5)) == [0, 1, 3, 4]
    with pytest.raises(TypeError):
        CausalGraph()  # no graph is None, never an empty default
    assert select_contexts(CausalGraph.from_edges([]), 0, range(3)) == []


def test_select_contexts_errors():
    with pytest.raises(ValueError, match="target"):
        select_contexts(None, 7, range(4))
    graph = CausalGraph.from_edges([(9, 3)])
    with pytest.raises(ValueError, match="absent"):
        select_contexts(graph, 3, range(4))


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        CausalGraph.from_edges([(2, 2)])


# ---------------------------------------------------------------- influence

def test_strict_influence_ignores_target_encoding():
    model = toy_model(Variant.STRICT_PAIRWISE)
    rng = np.random.default_rng(1)
    z_ctx = Tensor(rng.standard_normal((4, 8)))
    a = influence(Tensor(rng.standard_normal((4, 8))), z_ctx, model)
    b = influence(Tensor(rng.standard_normal((4, 8))), z_ctx, model)
    assert np.array_equal(a.data, b.data)


def test_leaky_influence_depends_on_target_encoding():
    model = toy_model(Variant.LEAKY_PAIRWISE)
    rng = np.random.default_rng(2)
    z_ctx = Tensor(rng.standard_normal((4, 8)))
    a = influence(Tensor(rng.standard_normal((4, 8))), z_ctx, model)
    b = influence(Tensor(rng.standard_normal((4, 8))), z_ctx, model)
    assert np.abs(a.data - b.data).max() > 1e-6


def test_zeroed_influence_mlp_outputs_zero():
    model = toy_model(Variant.LEAKY_PAIRWISE)
    for p in model.influence_params.values():
        p.data[:] = 0.0
    rng = np.random.default_rng(3)
    out = influence(Tensor(rng.standard_normal((2, 8))), Tensor(rng.standard_normal((2, 8))), model)
    assert np.array_equal(out.data, np.zeros((2, 8)))


def test_leaky_reduces_to_strict_when_fed_the_placeholder():
    seed = 11
    leaky, strict = toy_model(Variant.LEAKY_PAIRWISE, seed=seed), toy_model(
        Variant.STRICT_PAIRWISE, seed=seed)
    rng = np.random.default_rng(4)
    z_ctx = rng.standard_normal((3, 8))
    fake_target = Tensor(np.tile(leaky.placeholder.data, (3, 1)))
    a = influence(fake_target, Tensor(z_ctx), leaky)
    b = influence(Tensor(rng.standard_normal((3, 8))), Tensor(z_ctx), strict)
    assert np.abs(a.data - b.data).max() < 1e-12


# ---------------------------------------------------------------- aggregate

def test_aggregate_without_influences_passes_target_through():
    z = Tensor(np.arange(8.0).reshape(1, 8))
    out = aggregate(z, [], Variant.LEAKY_PAIRWISE)
    assert np.array_equal(out.data, z.data)


def test_aggregate_sums_k_identical_influences():
    rng = np.random.default_rng(5)
    z = Tensor(rng.standard_normal((2, 8)))
    inf = Tensor(rng.standard_normal((2, 8)))
    out = aggregate(z, [inf, inf, inf], Variant.STRICT_PAIRWISE)
    assert np.abs(out.data - (z.data + 3.0 * inf.data)).max() < 1e-12


def test_aggregate_pure_drops_target_and_needs_contexts():
    rng = np.random.default_rng(6)
    z = Tensor(rng.standard_normal((2, 8)))
    infs = [Tensor(rng.standard_normal((2, 8))) for _ in range(2)]
    out = aggregate(z, infs, Variant.PURE_INFLUENCE)
    assert np.abs(out.data - (infs[0].data + infs[1].data)).max() < 1e-12
    with pytest.raises(ValueError, match="context"):
        aggregate(z, [], Variant.PURE_INFLUENCE)


def test_aggregate_is_bit_deterministic():
    rng = np.random.default_rng(7)
    z = Tensor(rng.standard_normal((2, 8)))
    infs = [Tensor(rng.standard_normal((2, 8))) for _ in range(5)]
    a = aggregate(z, infs, Variant.LEAKY_PAIRWISE)
    b = aggregate(z, infs, Variant.LEAKY_PAIRWISE)
    assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------- forward

@pytest.mark.parametrize("variant", list(Variant))
def test_forward_shapes(variant):
    model = toy_model(variant)
    batch = toy_batch()
    out = cgpt_forward(batch, model)
    assert out.shape == (5, 3)


def test_forward_single_step_head():
    model = toy_model(h_pred=1)
    out = model.forward(toy_batch())
    assert out.shape == (5, 1)


def test_forward_rejects_target_among_contexts():
    model = toy_model()
    with pytest.raises(ValueError, match="among contexts"):
        cgpt_forward(toy_batch(contexts=(0, 3)), model)


def test_pure_is_blind_to_target_history():
    model = toy_model(Variant.PURE_INFLUENCE)
    batch = toy_batch()
    base = cgpt_forward(batch, model, revin=False).data
    poisoned = batch.context.copy()
    poisoned[:, :, batch.target_channel] = 0.0
    redo = WindowBatch(poisoned, batch.target_future, batch.target_channel,
                       batch.context_channels)
    assert np.array_equal(base, cgpt_forward(redo, model, revin=False).data)


@settings(max_examples=40)
@given(data=st.data())
def test_pure_is_blind_to_target_history_under_random_graphs(data):
    """For 2-6 channels, a random target and a random non-empty set of
    causes of it: a new target history, or an appended channel nothing
    reads, leaves the pure forecast bit-identical."""
    n = data.draw(st.integers(2, 6), label="channels")
    target = data.draw(st.integers(0, n - 1), label="target")
    causes = data.draw(st.sets(st.sampled_from([c for c in range(n) if c != target]),
                               min_size=1), label="causes")
    graph = CausalGraph.from_edges((c, target) for c in causes)
    contexts = select_contexts(graph, target, range(n))
    model = toy_model(Variant.PURE_INFLUENCE, seed=data.draw(st.integers(0, 2 ** 32)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="values"))
    batch = toy_batch(n_channels=n, contexts=contexts, target=target, batch=3,
                      seed=data.draw(st.integers(0, 2 ** 32)))
    base = cgpt_forward(batch, model, revin=False).data

    replaced = batch.context.copy()
    replaced[:, :, target] = rng.standard_normal((3, 16)) * 10.0
    widened = np.concatenate([batch.context, rng.standard_normal((3, 16, 1))], axis=2)
    for context in (replaced, widened):
        redo = WindowBatch(context, batch.target_future, target, batch.context_channels)
        assert np.array_equal(base, cgpt_forward(redo, model, revin=False).data)


def test_leaky_is_not_blind_to_target_history():
    model = toy_model(Variant.LEAKY_PAIRWISE)
    batch = toy_batch()
    base = cgpt_forward(batch, model).data
    poisoned = batch.context.copy()
    poisoned[:, :, batch.target_channel] += 1.0
    redo = WindowBatch(poisoned, batch.target_future, batch.target_channel,
                       batch.context_channels)
    assert np.abs(base - cgpt_forward(redo, model).data).max() > 1e-8


def test_extra_unrelated_channel_leaves_forecast_bit_identical():
    model = toy_model()
    batch = toy_batch(n_channels=4)
    base = cgpt_forward(batch, model, revin=True).data
    extra = np.random.default_rng(99).standard_normal((5, 16, 1))
    widened = WindowBatch(np.concatenate([batch.context, extra], axis=2),
                          batch.target_future, batch.target_channel,
                          batch.context_channels)
    assert np.array_equal(base, cgpt_forward(widened, model, revin=True).data)


def test_same_model_runs_on_any_channel_count():
    model = toy_model(h_pred=3)
    before = parameter_count(model)
    few = toy_batch(n_channels=4, contexts=(0, 1), target=3)
    many = toy_batch(n_channels=67, contexts=tuple(range(66)), target=66)
    assert cgpt_forward(few, model).shape == (5, 3)
    assert cgpt_forward(many, model).shape == (5, 3)
    assert parameter_count(model) == before


def test_parameter_count_closed_form():
    d, ff, p_len, n_p_max, h = 8, 16, 4, 8, 3
    enc = (p_len * d + d) + n_p_max * d \
        + 4 * (d * d + d) + 2 * (2 * d) + (d * ff + ff) + (ff * d + d)
    inf = 2 * d * ff + ff + ff * d + d
    want = enc + inf + d + (d * h + h)
    assert parameter_count(toy_model(h_pred=h)) == want
    assert parameter_count(toy_model(Variant.PURE_INFLUENCE, h_pred=h)) == want


def test_forecast_shift_is_head_applied_to_influence_sum():
    """With an affine head, adding contexts shifts the forecast by
    (sum of influences) @ head.w exactly."""
    model = toy_model(Variant.LEAKY_PAIRWISE)
    batch = toy_batch()
    with_ctx = cgpt_forward(batch, model).data
    alone = WindowBatch(batch.context, batch.target_future, batch.target_channel, ())
    without = cgpt_forward(alone, model).data

    z_t = model.encode_channel(np.ascontiguousarray(batch.context[:, :, 3]))
    total = None
    for ch in batch.context_channels:
        z_c = model.encode_channel(np.ascontiguousarray(batch.context[:, :, ch]))
        inf = influence(z_t, z_c, model).data
        total = inf if total is None else total + inf
    assert np.abs((with_ctx - without) - total @ model.head_params["w"].data).max() < 1e-9


def test_revin_forward_tracks_window_scale():
    model = toy_model()
    batch = toy_batch()
    shifted = WindowBatch(batch.context + 100.0, batch.target_future,
                          batch.target_channel, batch.context_channels)
    base = cgpt_forward(batch, model, revin=True).data
    moved = cgpt_forward(shifted, model, revin=True).data
    # per-window normalization absorbs the level shift, denorm restores it
    assert np.abs((moved - base) - 100.0).max() < 1e-9


def test_pure_with_revin_denormalizes_with_target_stats():
    model = toy_model(Variant.PURE_INFLUENCE)
    batch = toy_batch()
    out = cgpt_forward(batch, model, revin=True).data
    scaled = batch.context.copy()
    scaled[:, :, 3] = scaled[:, :, 3] * 2.0 + 10.0
    redo = WindowBatch(scaled, batch.target_future, 3, batch.context_channels)
    moved = cgpt_forward(redo, model, revin=True).data
    assert np.abs(moved - (out * 2.0 + 10.0)).max() < 1e-9


# ---------------------------------------------------------------- what the model can express

def linear_cgpt(variant, alpha, beta):
    """A cgpt model whose forecast is x_t·alpha + sum over contexts of
    x_c·beta (pure: the sum alone): one token per channel, an identity
    encoder, and an influence MLP run where gelu is the identity."""
    l_ctx, d = len(alpha), TOY_ENC.d_model
    enc = EncoderConfig(d_model=d, d_ff=16, n_heads=1, e_layers=1,
                        patch=PatchConfig(l_ctx, l_ctx), n_p_max=1)
    model = CgptModel(CgptConfig(encoder=enc, l_ctx=l_ctx, h_pred=1, variant=variant), seed=0)
    p = model.parameters()
    for name in ("layer0.wo", "layer0.bo", "layer0.ffn.w2", "layer0.ffn.b2", "pos",
                 "patch_embed.b", "patch_embed.w"):
        p["encoder." + name].data[:] = 0.0
    p["encoder.patch_embed.w"].data[:, 0] = alpha  # latent[0] = x·alpha
    p["encoder.patch_embed.w"].data[:, 1] = beta   # latent[1] = x·beta
    w1, b1, w2, b2 = (p["influence." + k].data for k in ("w1", "b1", "w2", "b2"))
    w1[:], w2[:] = 0.0, 0.0
    w1[d + 1, 0] = 1.0  # hidden[0] = x_c·beta + 100, where gelu's tanh rounds to 1.0
    b1[:] = 100.0
    w2[0, 0] = 1.0
    b2[:] = -(b1 + model.placeholder.data @ w1[:d]) @ w2  # takes the offset back off
    p["head.w"].data[:] = 0.0
    p["head.w"].data[0, 0] = 1.0
    p["head.b"].data[:] = 0.0
    return model


@pytest.mark.parametrize("variant", list(Variant))
def test_model_represents_the_lag_linear_predictor(variant):
    l_ctx = 16
    rng = np.random.default_rng(21)
    alpha, beta = rng.standard_normal(l_ctx), rng.standard_normal(l_ctx)
    model = linear_cgpt(variant, alpha, beta)
    batch = toy_batch(n_channels=4, contexts=(0, 2), target=3, batch=32, l_ctx=l_ctx, seed=22)
    x = batch.context
    want = x[:, :, 0] @ beta + x[:, :, 2] @ beta
    if variant is not Variant.PURE_INFLUENCE:
        want += x[:, :, 3] @ alpha
    assert np.abs(beta @ x[:, :, [0, 2]]).max() < 90.0  # keeps gelu where tanh is 1.0
    out = cgpt_forward(batch, model).data[:, 0]
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("revin", [False, True])
@pytest.mark.parametrize("variant", list(Variant))
def test_contexts_enter_as_an_exchangeable_set(variant, revin):
    """Swapping two contexts' columns together with their order in
    ``context_channels`` is the same forward; swapping the columns alone
    only reorders the sum of influences."""
    model = toy_model(variant, seed=23)
    batch = toy_batch(n_channels=5, contexts=(0, 1, 2), target=4, seed=24)
    base = cgpt_forward(batch, model, revin=revin).data
    swapped = np.ascontiguousarray(batch.context[:, :, [2, 1, 0, 3, 4]])
    relabelled = WindowBatch(swapped, batch.target_future, 4, (2, 1, 0))
    assert np.array_equal(cgpt_forward(relabelled, model, revin=revin).data, base)
    reordered = WindowBatch(swapped, batch.target_future, 4, (0, 1, 2))
    moved = cgpt_forward(reordered, model, revin=revin).data
    assert np.abs(moved - base).max() <= 1e-12 * np.abs(base).max()


# ---------------------------------------------------------------- autodiff through the model

@pytest.mark.parametrize("variant", list(Variant))
def test_full_model_grad_check(variant):
    model = toy_model(variant)
    batch = toy_batch(batch=2)
    y = Tensor(batch.target_future)

    def loss_fn(_):
        diff = cgpt_forward(batch, model) - y
        return mean_axis(square(diff))

    checked = ["encoder.layer0.wq", "influence.w1", "head.w", "placeholder",
               "encoder.pos", "encoder.patch_embed.w"]
    params = model.parameters()
    for name in checked:
        assert grad_check(loss_fn, params[name]) < 1e-4, name


def test_placeholder_gets_gradient_only_when_used():
    batch = toy_batch(batch=2)
    y = Tensor(batch.target_future)
    for variant, used in [(Variant.LEAKY_PAIRWISE, False),
                          (Variant.STRICT_PAIRWISE, True),
                          (Variant.PURE_INFLUENCE, True)]:
        model = toy_model(variant)
        from cgpt.tensor import backward
        loss = mean_axis(square(cgpt_forward(batch, model) - y))
        backward(loss)
        has_grad = model.placeholder.grad is not None and np.abs(model.placeholder.grad).max() > 0
        assert has_grad == used, variant


# ---------------------------------------------------------------- construction

def test_variant_parsing():
    assert Variant.from_id("leaky") is Variant.LEAKY_PAIRWISE
    assert Variant.from_id("pure") is Variant.PURE_INFLUENCE
    with pytest.raises(ValueError, match="strict"):
        Variant.from_id("bogus")


def test_config_validation():
    with pytest.raises(ValueError, match="patch_len"):
        CgptConfig(encoder=TOY_ENC, l_ctx=2)
    with pytest.raises(ValueError, match="position table"):
        CgptConfig(encoder=EncoderConfig(patch=PatchConfig(4, 4), n_p_max=2), l_ctx=96)
    with pytest.raises(ValueError, match="h_pred"):
        CgptConfig(encoder=TOY_ENC, l_ctx=16, h_pred=0)


def test_init_deterministic_and_seed_sensitive():
    a, b, c = toy_model(seed=5), toy_model(seed=5), toy_model(seed=6)
    pa, pb, pc = a.parameters(), b.parameters(), c.parameters()
    for k in pa:
        assert np.array_equal(pa[k].data, pb[k].data), k
    assert not np.array_equal(pa["head.w"].data, pc["head.w"].data)


def test_load_arrays_roundtrip_and_validation():
    src, dst = toy_model(seed=1), toy_model(seed=2)
    arrays = {k: v.data.copy() for k, v in src.parameters().items()}
    dst.load_arrays(arrays)
    out_src = cgpt_forward(toy_batch(), src).data
    out_dst = cgpt_forward(toy_batch(), dst).data
    assert np.array_equal(out_src, out_dst)

    with pytest.raises(ValueError, match="missing"):
        dst.load_arrays({k: v for k, v in arrays.items() if k != "head.b"})
    bad = dict(arrays)
    bad["head.w"] = np.zeros((2, 2))
    with pytest.raises(ValueError, match="shape"):
        dst.load_arrays(bad)
