"""Patch-token transformer encoder applied independently per channel.

One parameter set serves every channel stream; callers pass the same
params dict for each channel so weight sharing is aliasing, not copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .preprocessing import PatchConfig
from .tensor import (
    Tensor,
    gelu,
    layer_norm_last_dim,
    matmul,
    mean_axis,
    merge_heads,
    narrow,
    reshape,
    softmax_last_dim,
    split_heads,
)


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int = 64
    d_ff: int = 128
    n_heads: int = 1
    e_layers: int = 1
    patch: PatchConfig = field(default_factory=PatchConfig)
    n_p_max: int = 64

    def __post_init__(self):
        if min(self.d_model, self.d_ff, self.n_heads, self.e_layers, self.n_p_max) < 1:
            raise ValueError(f"encoder dimensions must be positive: {self}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


class _NoDraws:
    """Stands in for the weight generator of a model built with
    ``seed=None``: each draw is a read-only view of one zero in the asked
    shape, so the model draws and allocates no weights until
    ``load_arrays`` hands it its own."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)

    normal = uniform


def init_rng(seed):
    """The generator a model draws its initial weights from: Philox keyed
    by ``seed``, or, for ``seed=None``, ``_NoDraws``."""
    if seed is None:
        return _NoDraws()
    return np.random.Generator(np.random.Philox(key=seed))


def glorot_uniform(rng, shape):
    fan_in, fan_out = shape[0], shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_encoder_params(cfg, rng):
    """Fresh encoder parameters; random draws happen in insertion order."""
    d, ff, p_len = cfg.d_model, cfg.d_ff, cfg.patch.patch_len

    def w(shape):
        return Tensor(glorot_uniform(rng, shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)

    params = {}
    params["patch_embed.w"] = w((p_len, d))
    params["patch_embed.b"] = zeros(d)
    params["pos"] = Tensor(rng.normal(0.0, 0.02, size=(cfg.n_p_max, d)), requires_grad=True)
    for layer in range(cfg.e_layers):
        pre = f"layer{layer}."
        for name in ("wq", "wk", "wv", "wo"):
            params[pre + name] = w((d, d))
            params[pre + name.replace("w", "b")] = zeros(d)
        params[pre + "ln1.g"] = ones(d)
        params[pre + "ln1.b"] = zeros(d)
        params[pre + "ffn.w1"] = w((d, ff))
        params[pre + "ffn.b1"] = zeros(ff)
        params[pre + "ffn.w2"] = w((ff, d))
        params[pre + "ffn.b2"] = zeros(d)
        params[pre + "ln2.g"] = ones(d)
        params[pre + "ln2.b"] = zeros(d)
    return params


def load_param_arrays(params, arrays):
    """Give an existing parameter dict named numpy arrays, strictly.

    Names and shapes must match before any parameter changes.  Each
    parameter then adopts its array when it is writable C-order float64
    (what ``load_checkpoint`` returns), else a copy of it: the caller
    hands the arrays over and must not write to them afterwards."""
    if set(params) != set(arrays):
        missing = sorted(set(params) - set(arrays))
        extra = sorted(set(arrays) - set(params))
        raise ValueError(f"parameter names differ: missing {missing}, unexpected {extra}")
    for name, tensor in params.items():
        if tensor.data.shape != arrays[name].shape:
            raise ValueError(
                f"{name}: shape {arrays[name].shape} does not match {tensor.data.shape}")
    for name, tensor in params.items():
        tensor.data = np.require(arrays[name], np.float64, ("C", "W"))


def embed_patches(patches, params, cfg):
    """Project patches to d_model and add the learned position table."""
    n_p = patches.shape[-2]
    if n_p > cfg.n_p_max:
        raise ValueError(f"{n_p} patches exceed the position table size {cfg.n_p_max}")
    tokens = matmul(patches, params["patch_embed.w"]) + params["patch_embed.b"]
    return tokens + narrow(params["pos"], 0, 0, n_p)


def self_attention(tokens, params, layer, cfg, return_weights=False):
    """Scaled dot-product self-attention over the patch axis.

    Every head runs in the same ops: q, v and kᵀ are split into a head
    axis, (..., h, n, d_head), so the scores, the softmax and the weighted
    sum are one op each, whatever the head count.  ``return_weights``
    adds the list of per-head (..., n, n) attention weights.
    """
    pre = f"layer{layer}."
    q = matmul(tokens, params[pre + "wq"]) + params[pre + "bq"]
    k = matmul(tokens, params[pre + "wk"]) + params[pre + "bk"]
    v = matmul(tokens, params[pre + "wv"]) + params[pre + "bv"]

    h, d_head = cfg.n_heads, cfg.d_model // cfg.n_heads
    scores = matmul(split_heads(q, h), split_heads(k, h, transpose=True))
    attn = softmax_last_dim(scores * (1.0 / math.sqrt(d_head)))
    merged = merge_heads(matmul(attn, split_heads(v, h)))
    out = matmul(merged, params[pre + "wo"]) + params[pre + "bo"]
    if not return_weights:
        return out
    lead, n = attn.shape[:-3], attn.shape[-1]
    return out, [reshape(narrow(attn, -3, i, i + 1), (*lead, n, n)) for i in range(h)]


def _scaled_norm(x, params, key):
    return layer_norm_last_dim(x) * params[key + ".g"] + params[key + ".b"]


def encoder_forward(tokens, params, cfg):
    """Pre-norm residual blocks: x + Attn(LN(x)), then x + FFN(LN(x))."""
    x = tokens
    for layer in range(cfg.e_layers):
        pre = f"layer{layer}."
        x = x + self_attention(_scaled_norm(x, params, pre + "ln1"), params, layer, cfg)
        h = gelu(matmul(_scaled_norm(x, params, pre + "ln2"), params[pre + "ffn.w1"])
                 + params[pre + "ffn.b1"])
        x = x + (matmul(h, params[pre + "ffn.w2"]) + params[pre + "ffn.b2"])
        if not np.isfinite(x.data).all():
            raise FloatingPointError(f"non-finite encoder activations after layer {layer}")
    return x


def pool_latent(z):
    """Mean over the patch axis: (..., n_patches, d_model) -> (..., d_model)."""
    return mean_axis(z, axis=-2)
