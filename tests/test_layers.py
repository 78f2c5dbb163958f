import math

import numpy as np
import pytest

from cgpt.layers import (
    EncoderConfig,
    embed_patches,
    encoder_forward,
    init_encoder_params,
    pool_latent,
    self_attention,
)
from cgpt.preprocessing import PatchConfig
from cgpt.tensor import (Tensor, backward, concat_last_dim, grad_check, matmul, mean_axis, mul,
                         narrow, softmax_last_dim, square, sum_axis, transpose_last_two,
                         zero_grads)

TOY = EncoderConfig(d_model=8, d_ff=16, n_heads=2, e_layers=2,
                    patch=PatchConfig(4, 4), n_p_max=8)


def toy_params(seed=0):
    return init_encoder_params(TOY, np.random.Generator(np.random.Philox(key=seed)))


# ------------------------------------------------------- independent reference

def ref_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_ln(x, eps=1e-5):
    return (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + eps)


def ref_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def ref_encoder(patches, arrays, cfg):
    """Plain-numpy re-implementation used as the oracle for encoder_forward."""
    n_p = patches.shape[-2]
    x = patches @ arrays["patch_embed.w"] + arrays["patch_embed.b"] + arrays["pos"][:n_p]
    d_head = cfg.d_model // cfg.n_heads
    for layer in range(cfg.e_layers):
        pre = f"layer{layer}."
        y = ref_ln(x) * arrays[pre + "ln1.g"] + arrays[pre + "ln1.b"]
        q = y @ arrays[pre + "wq"] + arrays[pre + "bq"]
        k = y @ arrays[pre + "wk"] + arrays[pre + "bk"]
        v = y @ arrays[pre + "wv"] + arrays[pre + "bv"]
        outs = []
        for h in range(cfg.n_heads):
            sl = slice(h * d_head, (h + 1) * d_head)
            scores = q[..., sl] @ np.swapaxes(k[..., sl], -1, -2) / np.sqrt(d_head)
            outs.append(ref_softmax(scores) @ v[..., sl])
        x = x + np.concatenate(outs, axis=-1) @ arrays[pre + "wo"] + arrays[pre + "bo"]
        y2 = ref_ln(x) * arrays[pre + "ln2.g"] + arrays[pre + "ln2.b"]
        hidden = ref_gelu(y2 @ arrays[pre + "ffn.w1"] + arrays[pre + "ffn.b1"])
        x = x + hidden @ arrays[pre + "ffn.w2"] + arrays[pre + "ffn.b2"]
    return x


# ---------------------------------------------------------------- embedding

def test_embed_with_zero_weights_yields_pos_table():
    params = toy_params()
    params["patch_embed.w"].data[:] = 0.0
    rng = np.random.default_rng(0)
    tokens = embed_patches(Tensor(rng.standard_normal((3, 4))), params, TOY)
    assert np.array_equal(tokens.data, params["pos"].data[:3])


def test_embed_matches_matrix_arithmetic():
    params = toy_params(1)
    rng = np.random.default_rng(2)
    patches = rng.standard_normal((5, 3, 4))
    tokens = embed_patches(Tensor(patches), params, TOY)
    want = (patches @ params["patch_embed.w"].data
            + params["patch_embed.b"].data + params["pos"].data[:3])
    assert np.abs(tokens.data - want).max() < 1e-12
    assert tokens.shape == (5, 3, 8)


def test_embed_rejects_too_many_patches():
    params = toy_params()
    with pytest.raises(ValueError, match="position table"):
        embed_patches(Tensor(np.zeros((9, 4))), params, TOY)


# ---------------------------------------------------------------- attention

def test_single_token_attends_to_itself():
    params = toy_params(3)
    tokens = Tensor(np.random.default_rng(3).standard_normal((1, 8)))
    out, weights = self_attention(tokens, params, 0, TOY, return_weights=True)
    for w in weights:
        assert np.array_equal(w.data, np.array([[1.0]]))
    # with the full weight on the sole token, output is v @ wo + bo
    v = tokens.data @ params["layer0.wv"].data + params["layer0.bv"].data
    want = v @ params["layer0.wo"].data + params["layer0.bo"].data
    assert np.abs(out.data - want).max() < 1e-12


def test_attention_rows_sum_to_one():
    params = toy_params(4)
    tokens = Tensor(np.random.default_rng(4).standard_normal((2, 6, 8)))
    _, weights = self_attention(tokens, params, 0, TOY, return_weights=True)
    for w in weights:
        assert np.abs(w.data.sum(axis=-1) - 1.0).max() < 1e-12


def test_identical_tokens_get_identical_outputs():
    params = toy_params(5)
    row = np.random.default_rng(5).standard_normal(8)
    tokens = Tensor(np.tile(row, (4, 1)))
    out = self_attention(tokens, params, 0, TOY)
    assert np.abs(out.data - out.data[0]).max() < 1e-12


def per_head_attention(tokens, params, layer, cfg):
    """The head loop self_attention had before heads became one axis:
    narrow q, k and v per head, transpose k, and concatenate the heads."""
    pre = f"layer{layer}."
    q = matmul(tokens, params[pre + "wq"]) + params[pre + "bq"]
    k = matmul(tokens, params[pre + "wk"]) + params[pre + "bk"]
    v = matmul(tokens, params[pre + "wv"]) + params[pre + "bv"]
    d_head = cfg.d_model // cfg.n_heads
    heads = []
    for h in range(cfg.n_heads):
        lo, hi = h * d_head, (h + 1) * d_head
        qh, kh, vh = (narrow(t, -1, lo, hi) for t in (q, k, v))
        scores = matmul(qh, transpose_last_two(kh)) * (1.0 / math.sqrt(d_head))
        heads.append(matmul(softmax_last_dim(scores), vh))
    merged = heads[0] if len(heads) == 1 else concat_last_dim(heads)
    return matmul(merged, params[pre + "wo"]) + params[pre + "bo"]


def heads_config(n_heads):
    return EncoderConfig(d_model=32, d_ff=16, n_heads=n_heads, patch=PatchConfig(4, 4))


@pytest.mark.parametrize("shape", [(3, 6, 32), (6, 32)], ids=["batched", "unbatched"])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_has_the_bits_of_the_per_head_loop(n_heads, shape):
    cfg = heads_config(n_heads)
    params = init_encoder_params(cfg, np.random.Generator(np.random.Philox(key=n_heads)))
    rng = np.random.default_rng(len(shape))
    data = rng.standard_normal(shape)
    weight = Tensor(rng.standard_normal(shape))

    def run(attention):
        zero_grads(params.values())
        tokens = Tensor(data, requires_grad=True)
        out = attention(tokens, params, 0, cfg)
        backward(sum_axis(mul(out, weight)))
        grads = {k: p.grad.tobytes() for k, p in params.items() if p.grad is not None}
        return out.data.tobytes(), tokens.grad.tobytes(), grads

    out, tokens_grad, grads = run(self_attention)
    want_out, want_tokens_grad, want_grads = run(per_head_attention)
    assert out == want_out
    assert tokens_grad == want_tokens_grad
    assert len(grads) == 8 and grads.keys() == want_grads.keys()
    for k in grads:
        assert grads[k] == want_grads[k], k


@pytest.mark.parametrize("shape", [(3, 6, 32), (6, 32)], ids=["batched", "unbatched"])
@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_is_eight_ops_for_any_head_count(n_heads, shape):
    cfg = heads_config(n_heads)
    params = init_encoder_params(cfg, np.random.default_rng(0))
    tokens = Tensor(np.random.default_rng(1).standard_normal(shape))
    first = Tensor(0.0)._id
    self_attention(tokens, params, 0, cfg)
    created = Tensor(0.0)._id - first - 1
    # q, k, v and the output projection are a matmul and an add each
    assert created == 4 * 2 + 8


# ---------------------------------------------------------------- encoder

def test_encoder_preserves_shape():
    params = toy_params(6)
    rng = np.random.default_rng(6)
    for shape in [(3, 8), (5, 3, 8)]:
        out = encoder_forward(Tensor(rng.standard_normal(shape)), params, TOY)
        assert out.shape == shape


def test_encoder_matches_numpy_reference():
    params = toy_params(7)
    arrays = {k: v.data for k, v in params.items()}
    rng = np.random.default_rng(7)
    patches = rng.standard_normal((4, 2, 4))
    tokens = embed_patches(Tensor(patches), params, TOY)
    got = encoder_forward(tokens, params, TOY)
    want = ref_encoder(patches, arrays, TOY)
    assert np.abs(got.data - want).max() < 1e-9


def test_shared_params_accumulate_grads_across_streams():
    params = toy_params(8)
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((2, 3, 4))

    def loss_of(x):
        zero_grads(params.values())
        tok = embed_patches(Tensor(x), params, TOY)
        loss = mean_axis(square(encoder_forward(tok, params, TOY)))
        backward(loss)
        return {k: p.grad.copy() for k, p in params.items()}

    ga, gb = loss_of(a), loss_of(b)
    zero_grads(params.values())
    loss = mean_axis(square(encoder_forward(embed_patches(Tensor(a), params, TOY), params, TOY))) \
        + mean_axis(square(encoder_forward(embed_patches(Tensor(b), params, TOY), params, TOY)))
    backward(loss)
    for k, p in params.items():
        assert np.abs(p.grad - (ga[k] + gb[k])).max() < 1e-12, k


def test_encoding_is_a_pure_function_of_its_input():
    params = toy_params(9)
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((2, 3, 4))

    def encode(arr):
        return pool_latent(encoder_forward(embed_patches(Tensor(arr), params, TOY),
                                           params, TOY)).data

    first = encode(x)
    encode(y)  # unrelated stream in between
    assert np.array_equal(first, encode(x))


def test_encoder_grad_check():
    params = toy_params(10)
    rng = np.random.default_rng(10)
    patches = rng.standard_normal((2, 4))

    def f(t):
        tok = embed_patches(t, params, TOY)
        return mean_axis(square(pool_latent(encoder_forward(tok, params, TOY))))

    x = Tensor(patches, requires_grad=True)
    assert grad_check(f, x) < 1e-4

    def g(_):
        tok = embed_patches(Tensor(patches), params, TOY)
        return mean_axis(square(pool_latent(encoder_forward(tok, params, TOY))))

    assert grad_check(g, params["layer0.wq"]) < 1e-4
    assert grad_check(g, params["layer1.ffn.w2"]) < 1e-4
    assert grad_check(g, params["pos"]) < 1e-4


def test_encoder_flags_non_finite_activations():
    params = toy_params(11)
    params["layer0.ffn.b1"].data[:] = 50.0  # gelu(~50) is ~50, all positive
    params["layer0.ffn.w2"].data[:] = 1e308
    tokens = Tensor(np.arange(24.0).reshape(3, 8))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="layer 0"):
        encoder_forward(tokens, params, TOY)


def test_pool_latent_means_patch_axis():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((5, 3, 8))
    out = pool_latent(Tensor(z))
    assert out.shape == (5, 8)
    assert np.abs(out.data - z.mean(axis=1)).max() < 1e-15


def test_init_is_deterministic_per_seed():
    a, b, c = toy_params(0), toy_params(0), toy_params(1)
    for k in a:
        assert np.array_equal(a[k].data, b[k].data), k
    assert not np.array_equal(a["patch_embed.w"].data, c["patch_embed.w"].data)


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(d_model=8, n_heads=3)
    with pytest.raises(ValueError):
        EncoderConfig(d_model=0)
    with pytest.raises(TypeError):
        EncoderConfig(dropout=0.1)
