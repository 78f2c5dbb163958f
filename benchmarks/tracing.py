"""Per-layer tracing of cgpt from outside the package.

``Tracer.installed()`` replaces every public function the benchmark
measures with a wrapper that records a span: a name, a start, an end and
the span that was open when it started.  ``layers``, ``model``,
``baselines``, ``training`` and ``cli`` import what they call by name
(``from .tensor import matmul``), so a function is replaced in every cgpt
module that binds it, not only where it is defined.  Methods are replaced
on their class.  Everything is put back when the context exits.

Each autodiff op's wrapper times the forward call and then wraps the
``_bwd`` closure of the tensor it returns, so the backward time of an op
is a span of its own (a child of the ``tensor.backward`` span) and is also
charged to the stage spans that were open when the op ran.  That is how
per-stage backward time is measured without touching the package.

Wrappers never read or write array data, so traced and untraced runs give
bit-identical numbers; the benchmark's tests check this.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("tensor", "preprocessing", "layers", "model", "baselines",
           "datasets", "training", "checkpoint", "cli")

OPS = ("add", "sub", "mul", "scale", "matmul", "transpose_last_two", "reshape",
       "concat_last_dim", "narrow", "sum_axis", "mean_axis", "softmax_last_dim",
       "layer_norm_last_dim", "gelu", "relu", "square")

# (module, attribute or Class.method, span name)
STAGES = (
    ("tensor", "backward", "tensor.backward"),
    ("preprocessing", "gather_windows", "preprocessing.gather_windows"),
    ("preprocessing", "make_patches", "preprocessing.make_patches"),
    ("preprocessing", "revin_normalize", "preprocessing.revin_normalize"),
    ("layers", "embed_patches", "layers.embed_patches"),
    ("layers", "self_attention", "layers.self_attention"),
    ("layers", "encoder_forward", "layers.encoder_forward"),
    ("layers", "pool_latent", "layers.pool_latent"),
    ("model", "CgptModel.encode_channel", "model.encode_channel"),
    ("model", "influence", "model.influence"),
    ("model", "aggregate", "model.aggregate"),
    ("model", "cgpt_forward", "model.cgpt_forward"),
    ("baselines", "DLinearModel.forward", "baselines.dlinear"),
    ("baselines", "MlpBaseline.forward", "baselines.mlp"),
    ("training", "train", "training.train"),
    ("training", "mse_loss", "training.mse_loss"),
    ("training", "AdamW.step", "training.adamw_step"),
    ("training", "evaluate", "training.evaluate"),
    ("datasets", "generate_additive", "datasets.generate"),
    ("datasets", "load_csv", "datasets.load_csv"),
    ("datasets", "prepare_dataset", "datasets.prepare_dataset"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("cli", "main", "cli.main"),
    ("cli", "model_from_checkpoint", "cli.model_from_checkpoint"),
)

MODEL_LABELS = ("leaky", "strict", "pure", "dlinear", "mlp")
SETUP, PASS = 0, 1
MIB = 1024.0 * 1024.0


def _modules():
    return {name: importlib.import_module(f"cgpt.{name}") for name in MODULES}


class Tracer:
    """Spans in memory plus the few counters that spans cannot carry.

    ``phase`` (SETUP or PASS) and ``model`` (the label of the model being
    trained) are set by the benchmark between calls; both only tag what is
    recorded.
    """

    def __init__(self):
        self.phase = PASS
        self.model = None
        self._names = []
        self._name_ids = {}
        self._is_op = []
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_phase = array("b")
        self._span_start = array("d")
        self._span_end = array("d")
        self._open = []
        self._stages = ()
        self._step = None
        self.bwd_by_stages = defaultdict(float)  # open stage names -> backward s
        self.step_nodes = defaultdict(int)       # model -> tensors created in steps
        self.step_bytes = defaultdict(int)       # model -> bytes of op outputs in steps
        self.step_calls = defaultdict(int)       # (span name, model) -> calls in steps
        self.amounts = defaultdict(float)        # (quantity, phase) -> total

    # ------------------------------------------------------------ spans

    def _intern(self, name, is_op=False):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
            self._is_op.append(is_op)
        return self._name_ids[name]

    def _begin(self, name_id):
        i = len(self._span_start)
        self._span_name.append(name_id)
        self._span_parent.append(self._open[-1] if self._open else -1)
        self._span_phase.append(self.phase)
        self._span_end.append(0.0)
        self._open.append(i)
        self._span_start.append(perf_counter())
        return i

    def _finish(self, i):
        self._span_end[i] = perf_counter()
        self._open.pop()
        return self._span_end[i] - self._span_start[i]

    def _set_stages(self, stages):
        self._stages = stages
        in_step = "training.train" in stages and "training.evaluate" not in stages
        self._step = self.model if in_step else None

    # --------------------------------------------------------- wrappers

    def _stage(self, fn, name, after=None):
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self._stages
            self._set_stages(outer + (name,))
            if self._step is not None:
                self.step_calls[name, self._step] += 1
            i = self._begin(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(i)
                self._set_stages(outer)
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def _op(self, fn, op):
        fwd_id = self._intern(f"tensor.{op}.fwd", is_op=True)
        bwd_id = self._intern(f"tensor.{op}.bwd", is_op=True)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._begin(fwd_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(i)
            if self._step is not None:
                self.step_bytes[self._step] += out.data.nbytes
            if out._bwd is not None:
                out._bwd = self._backward_of(out._bwd, bwd_id, self._stages)
            return out

        return traced

    def _backward_of(self, bwd, bwd_id, stages):
        def traced_bwd(g):
            i = self._begin(bwd_id)
            try:
                return bwd(g)
            finally:
                self.bwd_by_stages[stages] += self._finish(i)

        return traced_bwd

    def _tensor_init(self, init):
        @functools.wraps(init)
        def traced_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            if self._step is not None:
                self.step_nodes[self._step] += 1

        return traced_init

    # ----------------------------------------------------- installation

    def _replacements(self, mods):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        wrappers = []
        for op in OPS:
            fn = getattr(mods["tensor"], op)
            wrappers.append((fn, self._op(fn, op)))
        for module, attr, name in STAGES:
            owner = mods[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[attr]
                yield owner, attr, fn, self._stage(fn, name, _AFTER.get(name))
                continue
            fn = getattr(owner, attr)
            wrappers.append((fn, self._stage(fn, name, _AFTER.get(name))))
        # ``wrappers`` keeps every original alive, so ids cannot be reused
        by_id = {id(fn): w for fn, w in wrappers}
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id:
                    yield mod, attr, value, by_id[id(value)]
        tensor_cls = mods["tensor"].Tensor
        init = tensor_cls.__dict__["__init__"]
        yield tensor_cls, "__init__", init, self._tensor_init(init)

    @contextmanager
    def installed(self):
        """Wrap every traced binding; restore the originals on exit."""
        patched = []
        try:
            for owner, attr, original, wrapper in list(self._replacements(_modules())):
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -------------------------------------------------------- summaries

    def span_table(self):
        """Per-span numpy columns: name id, parent, phase, duration, self
        time (minus every child span) and stage time (minus child stage
        spans only, so a stage keeps the ops it runs itself)."""
        name = np.frombuffer(self._span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self._span_parent, dtype=np.int32).copy()
        phase = np.frombuffer(self._span_phase, dtype=np.int8).copy()
        dur = (np.frombuffer(self._span_end, dtype=np.float64)
               - np.frombuffer(self._span_start, dtype=np.float64))
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        is_op = np.asarray(self._is_op, dtype=bool)[name]
        stage_child = np.zeros_like(dur)
        stage_kids = has_parent & ~is_op
        np.add.at(stage_child, parent[stage_kids], dur[stage_kids])
        return name, parent, phase, dur, dur - child, dur - stage_child

    def layer_metrics(self, passes, setups):
        """Per-layer values per measured pass; a layer that runs only in
        set-up (loading the input, saving checkpoints) is reported per
        set-up instead."""
        name, parent, phase, dur, self_t, stage_t = self.span_table()
        per = {PASS: 1.0 / max(passes, 1), SETUP: 1.0 / max(setups, 1)}
        n_names = len(self._names)
        ones = np.ones_like(dur)
        sums = {}

        def total(span, column):
            nid = self._name_ids.get(span)
            if nid is None:
                return 0.0
            for col in (ones, column):
                if id(col) not in sums:
                    sums[id(col)] = {p: np.bincount(name[phase == p], weights=col[phase == p],
                                                    minlength=n_names) for p in per}
            p = PASS if sums[id(ones)][PASS][nid] else SETUP
            return float(sums[id(column)][p][nid]) * per[p]

        def count(span):
            return total(span, ones)

        bwd_incl, bwd_self = defaultdict(float), defaultdict(float)
        for stages, seconds in self.bwd_by_stages.items():
            for stage in set(stages):
                bwd_incl[stage] += seconds * per[PASS]
            if stages:
                bwd_self[stages[-1]] += seconds * per[PASS]

        steps = {m: n for (span, m), n in self.step_calls.items() if span == "tensor.backward"}

        def per_step(values):
            return sum(v / steps[m] for m, v in values.items() if steps.get(m))

        def calls_per_step(span):
            return per_step({m: n for (s, m), n in self.step_calls.items() if s == span})

        out = {}
        for op in OPS:
            out[f"tensor.{op}.fwd_s"] = total(f"tensor.{op}.fwd", dur)
            out[f"tensor.{op}.bwd_s"] = total(f"tensor.{op}.bwd", dur)
            out[f"tensor.{op}.calls"] = count(f"tensor.{op}.fwd")
        out["tensor.backward.s"] = total("tensor.backward", dur)
        out["tensor.backward.self_s"] = total("tensor.backward", self_t)
        out["tensor.nodes_per_step"] = per_step(self.step_nodes)
        for m in MODEL_LABELS:
            out[f"tensor.nodes_per_step.{m}"] = (
                self.step_nodes[m] / steps[m] if steps.get(m) else 0.0)
        out["tensor.out_mib_per_step"] = per_step(self.step_bytes) / MIB

        for stage in ("gather_windows", "make_patches", "revin_normalize"):
            out[f"preprocessing.{stage}.s"] = total(f"preprocessing.{stage}", dur)
        out["preprocessing.revin_normalize.calls"] = count("preprocessing.revin_normalize")

        for stage in ("embed_patches", "self_attention", "pool_latent"):
            out[f"layers.{stage}.fwd_s"] = total(f"layers.{stage}", dur)
            out[f"layers.{stage}.bwd_s"] = bwd_incl["layers." + stage]
        out["layers.encoder_forward.self_fwd_s"] = total("layers.encoder_forward", stage_t)
        out["layers.encoder_forward.self_bwd_s"] = bwd_self["layers.encoder_forward"]

        out["model.encode_channel.calls_per_step"] = calls_per_step("model.encode_channel")
        out["model.encode_channel.fwd_s"] = total("model.encode_channel", dur)
        out["model.influence.calls_per_step"] = calls_per_step("model.influence")
        for stage in ("influence", "aggregate"):
            out[f"model.{stage}.fwd_s"] = total(f"model.{stage}", dur)
            out[f"model.{stage}.bwd_s"] = bwd_incl["model." + stage]
        out["model.cgpt_forward.self_fwd_s"] = total("model.cgpt_forward", stage_t)
        out["model.cgpt_forward.self_bwd_s"] = bwd_self["model.cgpt_forward"]

        for kind in ("dlinear", "mlp"):
            out[f"baselines.{kind}.fwd_s"] = total(f"baselines.{kind}", dur)
            out[f"baselines.{kind}.bwd_s"] = bwd_incl["baselines." + kind]

        out["training.train.s"] = total("training.train", dur)
        out["training.train.self_s"] = total("training.train", self_t)
        out["training.mse_loss.fwd_s"] = total("training.mse_loss", dur)
        out["training.adamw_step.s"] = total("training.adamw_step", dur)
        out["training.adamw_step.calls"] = count("training.adamw_step")
        out["training.evaluate.s"] = total("training.evaluate", dur)
        out["training.evaluate.windows"] = self._amount("windows", per)

        out["datasets.generate.s"] = total("datasets.generate", dur)
        out["datasets.load_csv.s"] = total("datasets.load_csv", dur)
        out["datasets.load_csv.rows"] = self._amount("rows", per)
        out["datasets.prepare_dataset.s"] = total("datasets.prepare_dataset", dur)

        out["checkpoint.save.s"] = total("checkpoint.save", dur)
        out["checkpoint.load.s"] = total("checkpoint.load", dur)
        out["checkpoint.bytes"] = self._amount("checkpoint_bytes", per)

        out["cli.main.self_s"] = total("cli.main", self_t)
        out["cli.model_from_checkpoint.s"] = total("cli.model_from_checkpoint", dur)

        roots = (parent < 0) & (phase == PASS)
        root_dur = float(dur[roots].sum())
        out["trace.coverage"] = 1.0 - float(self_t[roots].sum()) / root_dur if root_dur else 0.0
        return out

    def _amount(self, quantity, per):
        p = PASS if self.amounts[quantity, PASS] else SETUP
        return self.amounts[quantity, p] * per[p]


def _count_windows(tracer, args, out):
    if "training.evaluate" in tracer._stages:
        tracer.amounts["windows", tracer.phase] += len(out[0])


def _count_rows(tracer, args, out):
    tracer.amounts["rows", tracer.phase] += out.length


def _count_file_bytes(tracer, args, out):
    tracer.amounts["checkpoint_bytes", tracer.phase] += os.path.getsize(args[0])


_AFTER = {
    "preprocessing.gather_windows": _count_windows,
    "datasets.load_csv": _count_rows,
    "checkpoint.save": _count_file_bytes,
    "checkpoint.load": _count_file_bytes,
}
