"""Tests of the benchmark itself: tracing must not touch numerics, must
undo every patch, and must count graph nodes exactly; the generated
wide series must depend on its seed alone."""

import importlib
import inspect
import json

import numpy as np
import pytest

import bench

bench.import_program()

import tracing  # noqa: E402 -- needs cgpt from src/
import workloads  # noqa: E402
from cgpt import datasets, preprocessing, training  # noqa: E402

TINY = dict(l_ctx=16, h_pred=2, d_model=8, d_ff=16, n_heads=2, patch=8, batch=64)


@pytest.fixture(scope="module")
def tiny_data():
    raw = datasets.generate_additive(datasets.SyntheticConfig(length=400, seed=1))
    prepared, _ = datasets.prepare_dataset(raw, datasets.SplitPolicy.RATIO_70_20_10,
                                           TINY["l_ctx"], TINY["h_pred"])
    return prepared


def train_and_forecast(name, data, revin):
    m = workloads.build_model(name, TINY, data.n_channels, seed=3)
    cfg = training.TrainConfig(lr=3e-3, batch_size=TINY["batch"], max_epochs=2,
                               patience=2, revin=revin, seed=3)
    result = training.train(m, data, cfg)
    batch = next(preprocessing.iter_window_batches(
        data.values, data.borders[2], TINY["l_ctx"], TINY["h_pred"], data.target,
        [0, 1], batch_size=32, allow_context_overlap=True))
    return result, m.forward(batch, revin=revin).data


@pytest.mark.parametrize("name", workloads.C04Train.MODELS)
@pytest.mark.parametrize("revin", [False, True])
def test_tracing_leaves_numerics_bit_identical(tiny_data, name, revin):
    plain, plain_forecast = train_and_forecast(name, tiny_data, revin)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.model = name
        traced, traced_forecast = train_and_forecast(name, tiny_data, revin)
    assert traced.train_losses == plain.train_losses
    assert traced.val_losses == plain.val_losses
    assert (traced.test_mae, traced.test_mse) == (plain.test_mae, plain.test_mse)
    assert np.array_equal(traced_forecast, plain_forecast)
    assert tracer.layer_metrics(passes=1, setups=1)["training.train.s"] > 0


def _bindings():
    """Every attribute of every cgpt module and of every class they define."""
    out = {}
    for mod_name in tracing.MODULES:
        mod = importlib.import_module(f"cgpt.{mod_name}")
        for attr, value in vars(mod).items():
            out[mod_name, attr] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for cls_attr, cls_value in vars(value).items():
                    out[mod_name, attr, cls_attr] = cls_value
    return out


def test_every_patched_attribute_is_restored():
    before = _bindings()
    with tracing.Tracer().installed():
        during = _bindings()
    after = _bindings()
    changed = {k for k in before if during[k] is not before[k]}
    # ops are replaced where they are defined and where they are imported
    assert ("tensor", "matmul") in changed and ("layers", "matmul") in changed
    assert ("model", "CgptModel", "encode_channel") in changed
    assert ("training", "backward") in changed and ("cli", "evaluate") in changed
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_nodes_per_step_counts_tensors_created_per_training_step(tiny_data):
    # one encoder layer and the additive graph C0,C1->C3: the structure of
    # the C04 configuration, whatever the array sizes
    shape = dict(TINY, n_heads=1)
    tracer = tracing.Tracer()
    with tracer.installed():
        for name in ("leaky", "strict", "pure"):
            tracer.model = name
            m = workloads.build_model(name, shape, tiny_data.n_channels, seed=0)
            training.train(m, tiny_data, training.TrainConfig(batch_size=64, max_epochs=1))
    metrics = tracer.layer_metrics(passes=1, setups=1)
    assert [metrics[f"tensor.nodes_per_step.{m}"] for m in ("leaky", "strict", "pure")] \
        == [125, 129, 93]
    assert metrics["model.encode_channel.calls_per_step"] == 3 + 3 + 2
    assert metrics["model.influence.calls_per_step"] == 2 + 2 + 2


def test_wide_series_depends_on_its_seed_alone():
    a, names = workloads.wide_series(5)
    b, _ = workloads.wide_series(5)
    c, _ = workloads.wide_series(6)
    assert a.shape == (1536, 32) and len(names) == 32 and names[-1] == "Y"
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.isfinite(a).all()


def test_benchmark_json_declares_every_layer_metric_with_its_unit():
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    names = set(tracing.Tracer().layer_metrics(passes=1, setups=1))
    names |= {"trace.overhead"} | {f"training.epoch_s.{m}" for m in tracing.MODEL_LABELS}
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == {name: bench.layer_unit(name) for name in names}
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(bench.WORKLOAD_NAMES)


def test_timing_summary_reports_the_highest_supported_percentile():
    assert bench.timing_summary([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3, "max": 3.0}
    summary = bench.timing_summary([float(i) for i in range(100)])
    assert summary["n"] == 100 and "p90" in summary
