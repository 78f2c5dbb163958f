"""Pairwise channel mixing on top of channel-independent encodings.

Every channel's history is encoded by one shared encoder; directed
influences are then computed per (context, target) pair and summed onto
the target representation.  Three mixing variants differ only in what
the influence computation may see of the target:

* ``LEAKY_PAIRWISE`` - influence of a context conditions on the target's
  own encoding.
* ``STRICT_PAIRWISE`` - influence sees a learned placeholder instead of
  the target encoding; the target still contributes its own stream.
* ``PURE_INFLUENCE`` - like strict, but the target stream is dropped
  entirely; the forecast is built from context influences alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .layers import (
    EncoderConfig,
    check_model_size,
    embed_patches,
    encoder_forward,
    glorot_uniform,
    init_encoder_params,
    init_rng,
    load_param_arrays,
    pool_latent,
)
from .preprocessing import PatchConfig, make_patches, revin_forecast
from .tensor import Tensor, concat_last_dim, gelu, matmul


class Variant(Enum):
    LEAKY_PAIRWISE = "leaky"
    STRICT_PAIRWISE = "strict"
    PURE_INFLUENCE = "pure"

    @classmethod
    def from_id(cls, name):
        try:
            return cls(name)
        except ValueError:
            ids = ", ".join(v.value for v in cls)
            raise ValueError(f"unknown variant {name!r}; expected one of: {ids}") from None


@dataclass(frozen=True)
class CausalGraph:
    """Directed edges (cause_channel, effect_channel) over dataset channels.
    A dataset without a known graph carries ``None``, not an empty graph."""

    edges: frozenset

    def __post_init__(self):
        for cause, effect in self.edges:
            if cause == effect:
                raise ValueError(f"self-loop on channel {cause}")

    @classmethod
    def from_edges(cls, edges):
        return cls(edges=frozenset((int(c), int(e)) for c, e in edges))

    def parents(self, channel):
        return sorted(c for c, e in self.edges if e == channel)


def select_contexts(graph, target, all_channels):
    """Context channels for ``target``: its graph parents, or every other
    channel when no graph is available."""
    channels = sorted(all_channels)
    if target not in channels:
        raise ValueError(f"target channel {target} not among channels {channels}")
    if graph is None:
        return [c for c in channels if c != target]
    parents = graph.parents(target)
    bad = [c for c in parents if c not in channels]
    if bad:
        raise ValueError(f"graph names channels {bad} absent from the dataset")
    return parents


@dataclass(frozen=True)
class CgptConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    l_ctx: int = 96
    h_pred: int = 96
    variant: Variant = Variant.LEAKY_PAIRWISE

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant.from_id(self.variant))
        patch = self.encoder.patch
        if self.l_ctx < patch.patch_len:
            raise ValueError(f"l_ctx={self.l_ctx} is shorter than patch_len={patch.patch_len}")
        if self.h_pred < 1:
            raise ValueError(f"h_pred must be >= 1, got {self.h_pred}")
        n_p = patch.num_patches(self.l_ctx)
        if n_p > self.encoder.n_p_max:
            raise ValueError(f"l_ctx={self.l_ctx}, {patch}: {n_p} patches exceed the position "
                             f"table's n_p_max={self.encoder.n_p_max}")


class CgptModel:
    """Shared encoder + pairwise influence MLP + affine forecast head.

    Parameter shapes depend only on the config, never on how many
    channels a dataset has, so one trained model applies to any
    channel count.  ``seed=None`` draws no weights: ``load_arrays``
    supplies them.
    """

    kind = "cgpt"

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        enc_cfg = cfg.encoder
        d, ff = enc_cfg.d_model, enc_cfg.d_ff
        # patch embedding and positions, encoder layers, influence MLP, placeholder, head
        check_model_size(self, d * (enc_cfg.patch.patch_len + 1 + enc_cfg.n_p_max)
                         + enc_cfg.e_layers * (4 * d * d + 2 * d * ff + ff + 9 * d)
                         + 3 * d * ff + ff + 2 * d + (d + 1) * cfg.h_pred)
        rng = init_rng(seed)
        self.encoder_params = init_encoder_params(enc_cfg, rng)
        self.influence_params = {
            "w1": Tensor(glorot_uniform(rng, (2 * d, ff)), requires_grad=True),
            "b1": Tensor(np.zeros(ff), requires_grad=True),
            "w2": Tensor(glorot_uniform(rng, (ff, d)), requires_grad=True),
            "b2": Tensor(np.zeros(d), requires_grad=True),
        }
        self.placeholder = Tensor(rng.normal(0.0, 0.02, size=d), requires_grad=True)
        self.head_params = {
            "w": Tensor(glorot_uniform(rng, (d, cfg.h_pred)), requires_grad=True),
            "b": Tensor(np.zeros(cfg.h_pred), requires_grad=True),
        }

    @property
    def l_ctx(self):
        return self.cfg.l_ctx

    @property
    def h_pred(self):
        return self.cfg.h_pred

    def parameters(self):
        params = {f"encoder.{k}": v for k, v in self.encoder_params.items()}
        params.update({f"influence.{k}": v for k, v in self.influence_params.items()})
        params["placeholder"] = self.placeholder
        params.update({f"head.{k}": v for k, v in self.head_params.items()})
        return params

    def load_arrays(self, arrays):
        load_param_arrays(self.parameters(), arrays)

    def config_header(self):
        enc = self.cfg.encoder
        return {
            "kind": self.kind,
            "variant": self.cfg.variant.value,
            "l_ctx": self.cfg.l_ctx,
            "h_pred": self.cfg.h_pred,
            "d_model": enc.d_model,
            "d_ff": enc.d_ff,
            "n_heads": enc.n_heads,
            "e_layers": enc.e_layers,
            "patch_len": enc.patch.patch_len,
            "stride": enc.patch.stride,
            "n_p_max": enc.n_p_max,
        }

    @classmethod
    def from_header(cls, header, seed=0):
        """Inverse of config_header() on read values; absent ones keep their defaults."""
        def build(config_cls, **nested):
            return config_cls(**nested, **{f.name: header[f.name] for f in fields(config_cls)
                                           if f.name in header and f.name not in nested})

        encoder = build(EncoderConfig, patch=build(PatchConfig))
        return cls(build(CgptConfig, encoder=encoder), seed=seed)

    def encode_channel(self, series):
        """(batch, l_ctx) numpy history -> (batch, d_model) latent Tensor."""
        patches = make_patches(series, self.cfg.encoder.patch)
        tokens = embed_patches(Tensor(patches), self.encoder_params, self.cfg.encoder)
        return pool_latent(encoder_forward(tokens, self.encoder_params, self.cfg.encoder))

    def forward(self, batch, revin=False):
        return cgpt_forward(batch, self, revin=revin)


def _placeholder_base(model, like):
    """Broadcast the learned placeholder row over the batch dimension."""
    return Tensor(np.zeros_like(like.data)) + model.placeholder


def influence(z_target, z_context, model):
    """Directed influence of one encoded context channel on the target."""
    variant = model.cfg.variant
    base = z_target if variant is Variant.LEAKY_PAIRWISE else _placeholder_base(model, z_context)
    p = model.influence_params
    hidden = gelu(matmul(concat_last_dim([base, z_context]), p["w1"]) + p["b1"])
    return matmul(hidden, p["w2"]) + p["b2"]


def aggregate(z_target, influences, variant):
    """Sum influences onto the target stream (or alone, for PURE_INFLUENCE)."""
    terms = list(influences) if variant is Variant.PURE_INFLUENCE else [z_target, *influences]
    if not terms:
        raise ValueError("PURE_INFLUENCE needs at least one context channel")
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def parameter_count(model):
    return sum(p.data.size for p in model.parameters().values())


def cgpt_forward(batch, model, revin=False):
    """Forecast ``batch.target_channel`` from a (batch, l_ctx, n_ch) context."""
    cfg = model.cfg
    target = batch.target_channel
    contexts = list(batch.context_channels)
    if target in contexts:
        raise ValueError(f"target channel {target} listed among contexts {contexts}")

    def forecast(x):
        # x[0] is the target's history, x[1:] the contexts'; pure never reads x[0]
        pure = cfg.variant is Variant.PURE_INFLUENCE
        z_target = None if pure else model.encode_channel(x[0])
        z_contexts = [model.encode_channel(series) for series in x[1:]]
        infl = [influence(z_target, z_context, model) for z_context in z_contexts]
        mixed = aggregate(z_target, infl, cfg.variant)
        return matmul(mixed, model.head_params["w"]) + model.head_params["b"]

    return revin_forecast(forecast, batch, revin, [target, *contexts])
