"""Command-line workflow tests: data generation, training fan-out, reports.

Everything drives ``cli.main(argv)`` in-process and asserts on exit codes,
emitted files, and captured output; no subprocesses.
"""

import csv
import hashlib
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cgpt import checkpoint, cli
from cgpt.baselines import DLinearModel, MlpBaseline
from cgpt.checkpoint import load_checkpoint, save_checkpoint
from cgpt.cli import main, report_rows
from cgpt.datasets import (SplitPolicy, SyntheticConfig, generate_additive, load_csv,
                           prepare_dataset)
from cgpt.layers import EncoderConfig
from cgpt.model import CgptConfig, CgptModel
from cgpt.training import RunResult, evaluate, result_record

from conftest import traced_peak

# Small enough to train in well under a second, large enough that every
# split still holds 96->1 windows under the 70/20/10 ratio policy.  TINY
# holds the data and training keys; a model kind adds only keys it reads,
# since ``train`` rejects the others.
TINY = "length=1024\nmax_epochs=1\nbatch=256\n"
TINY_MODEL_KEYS = {"cgpt": "d_model=16\nd_ff=32\n", "dlinear": "", "mlp": ""}


def tiny_config(model="leaky"):
    return TINY + TINY_MODEL_KEYS[cli.MODELS[model].kind]


def write_tiny_config(tmp_path, extra="", model="leaky"):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(tiny_config(model) + extra)
    return str(cfg)


def train_argv(tmp_path, *, model="leaky", seeds="0", out="runs", extra=()):
    return ["train", "--config", write_tiny_config(tmp_path, model=model),
            "--dataset", "additive", "--model", model,
            "--context", "96", "--horizon", "1", "--revin", "no",
            "--seeds", seeds, "--out", str(tmp_path / out), *extra]


def fake_record(path, *, dataset="additive", model="leaky", revin="no",
                l_ctx=96, h_pred=1, seed=0, mae=0.5, mse=0.3):
    """Drop a hand-built result record into the on-disk layout."""
    meta = {"dataset": dataset, "model": model, "revin": revin,
            "l_ctx": l_ctx, "h_pred": h_pred}
    result = RunResult(seed=seed, test_mae=mae, test_mse=mse,
                       train_losses=[1.0], val_losses=[0.9])
    record_dir = (path / dataset / model / f"revin_{revin}" / f"seed_{seed}")
    record_dir.mkdir(parents=True, exist_ok=True)
    (record_dir / f"result_{l_ctx}to{h_pred}.txt").write_text(
        result_record(result, meta))


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ----------------------------------------------------------------- gen-data


def test_gen_data_additive_line_count(tmp_path, capsys):
    out = tmp_path / "additive.csv"
    assert main(["gen-data", "--dataset", "additive", "--seed", "0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6145  # header + 6144 rows
    assert lines[0] == "C0,C1,C2,C3"


def test_gen_data_sidecar_edge_counts(tmp_path):
    for kind, n_edges in (("additive", 2), ("interactive", 3)):
        out = tmp_path / f"{kind}.csv"
        assert main(["gen-data", "--dataset", kind, "--out", str(out)]) == 0
        edges = (tmp_path / f"{kind}.graph.txt").read_text().splitlines()
        assert len(edges) == n_edges
        assert all(e.endswith("->C3") for e in edges)


@pytest.mark.parametrize("kind", ["additive", "interactive"])
def test_gen_data_calls_the_generator_the_cli_name_holds(tmp_path, monkeypatch, kind):
    """gen-data looks its generator up when it runs, so a wrapper bound to
    the name (as the benchmark's tracer binds one) is the one it calls."""
    generate = getattr(cli, f"generate_{kind}")
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return generate(cfg)

    monkeypatch.setattr(cli, f"generate_{kind}", counting)
    assert main(["gen-data", "--dataset", kind, "--length", "600",
                 "--out", str(tmp_path / "data.csv")]) == 0
    assert calls == [SyntheticConfig(length=600)]


def test_gen_data_is_deterministic(tmp_path):
    for name in ("a.csv", "b.csv"):
        main(["gen-data", "--dataset", "interactive", "--seed", "7",
              "--out", str(tmp_path / name)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_gen_data_csv_loads_back_exactly(tmp_path):
    out = tmp_path / "additive.csv"
    main(["gen-data", "--dataset", "additive", "--seed", "3", "--out", str(out)])
    reloaded = load_csv(out, target="C3")
    direct = generate_additive(SyntheticConfig(seed=3))
    assert reloaded.channel_names == direct.channel_names
    np.testing.assert_array_equal(reloaded.values, direct.values)


# sha256 of gen-data CSVs, as csv.writer wrote them: every float as its
# repr.  2500 rows span several of the blocks gen-data writes at a time;
# 9000 rows cross the generator's AR(1) chunk and nine blocks; 60000 rows
# is the eval-sweep benchmark's input.
GEN_DATA_CSV_SHA256 = {
    ("additive", 0, 600): "9adaee36915426c894577622adab3e2720f950d8053def50a4f12315c9e133f0",
    ("interactive", 3, 600): "aca1b1f020625e9848ce45a3ee48069f69eb940cae0887a6ab718bb65dfe6acb",
    ("additive", 0, 2500): "ff9db9125358a4229a60802eaa97f3c25b500ead9a15852d3a6b09314a9a0df9",
    ("interactive", 5, 9000): "ebaa141c755b88d42aa0ade0a665b2883eb6b1f0806adb4c981202b3f0f4bef0",
    ("additive", 0, 60000): "5b48ae4c10e5dedc0e307b41cae425672c6499a78934aef23bff790ae4438ed1",
}


@pytest.mark.parametrize("kind,seed,length", list(GEN_DATA_CSV_SHA256))
def test_gen_data_csv_matches_pinned_bytes(tmp_path, kind, seed, length):
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--dataset", kind, "--seed", str(seed), "--length", str(length),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_DATA_CSV_SHA256[kind, seed, length]


def test_gen_data_holds_about_two_copies_of_the_values(tmp_path, capsys):
    """gen-data's traced peak is the generator's columns and one values
    array, with only one block of rows and one chunk of the AR(1) drive as
    Python floats at a time; a list of the whole drive or table breaks it."""
    out = tmp_path / "data.csv"
    argv = ["gen-data", "--dataset", "additive", "--out", str(out), "--length"]
    assert main([*argv, "10"]) == 0  # so the interpreter's one-time allocations are not traced
    rc, peak = traced_peak(lambda: main([*argv, "60000"]))
    assert rc == 0
    values_bytes = generate_additive(SyntheticConfig(length=60000)).values.nbytes
    assert peak <= 2.5 * values_bytes, peak / values_bytes


@pytest.mark.parametrize("command", ["gen-data", "report"])
def test_write_failing_midway_leaves_neither_file_nor_tmp(tmp_path, monkeypatch, capsys, command):
    runs = tmp_path / "runs"
    fake_record(runs)
    out = tmp_path / "out.csv"
    argv = {"gen-data": ["gen-data", "--dataset", "additive", "--length", "2500"],
            "report": ["report", "--results", str(runs), "--experiment", "2"]}[command]
    real_writer, real_open = csv.writer, open

    class FailingWriter:
        """Writes the header and the first block of rows, then fails."""

        def __init__(self, fh):
            self._writer = real_writer(fh)

        def writerow(self, row):
            self._writer.writerow(row)

        def writerows(self, rows):
            self._writer.writerows(rows)
            raise OSError("disk full")

    class FailingFile:
        """Takes two writes (gen-data's header, then its first block of
        rows) and fails on the third."""

        def __init__(self, *args, **kwargs):
            self._fh = real_open(*args, **kwargs)
            self._writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, text):
            if self._writes == 2:
                raise OSError("disk full")
            self._writes += 1
            return self._fh.write(text)

    if command == "gen-data":
        # gen-data writes its rows as text, so the file itself fails.
        monkeypatch.setattr(cli, "open", FailingFile, raising=False)
    else:
        monkeypatch.setattr(cli.csv, "writer", FailingWriter)
    assert main([*argv, "--out", str(out)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs"]


def test_gen_data_unwritable_path_is_runtime_error(tmp_path, capsys):
    target = tmp_path / "occupied"
    target.mkdir()
    assert main(["gen-data", "--dataset", "additive", "--out", str(target)]) == 2
    assert "error" in capsys.readouterr().err


# -------------------------------------------------------------------- train


def test_train_fans_out_per_seed(tmp_path, capsys):
    assert main(train_argv(tmp_path, seeds="0,1")) == 0
    root = tmp_path / "runs" / "additive" / "leaky" / "revin_no"
    for seed in (0, 1):
        assert (root / f"seed_{seed}" / "result_96to1.txt").exists()
        assert (root / f"seed_{seed}" / "model_96to1.ckpt").exists()
    assert "over 2 seed(s)" in capsys.readouterr().out


def test_train_refuses_existing_outputs(tmp_path, capsys):
    assert main(train_argv(tmp_path)) == 0
    assert main(train_argv(tmp_path)) == 2
    assert "--overwrite" in capsys.readouterr().err
    assert main(train_argv(tmp_path, extra=("--overwrite",))) == 0


def test_train_rerun_after_failed_record_write(tmp_path, monkeypatch, capsys):
    real_replace = cli.os.replace

    def replace_failing_for_records(src, dst):
        if Path(dst).name.startswith("result_"):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace_failing_for_records)
    assert main(train_argv(tmp_path)) == 2
    assert "disk full" in capsys.readouterr().err
    seed_dir = tmp_path / "runs" / "additive" / "leaky" / "revin_no" / "seed_0"
    assert sorted(p.name for p in seed_dir.iterdir()) == ["model_96to1.ckpt"]

    monkeypatch.undo()
    assert main(train_argv(tmp_path)) == 0  # a checkpoint alone blocks nothing
    assert sorted(p.name for p in seed_dir.iterdir()) == ["model_96to1.ckpt", "result_96to1.txt"]


def test_train_flag_overrides_config_value(tmp_path):
    # config pins horizon=96; the flag must win
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY + "horizon=96\n")
    assert main(["train", "--config", str(cfg), "--dataset", "additive",
                 "--model", "dlinear", "--horizon", "1", "--revin", "no",
                 "--seeds", "0", "--out", str(tmp_path / "runs")]) == 0
    seed_dir = tmp_path / "runs" / "additive" / "dlinear" / "revin_no" / "seed_0"
    assert (seed_dir / "result_96to1.txt").exists()
    assert not (seed_dir / "result_96to96.txt").exists()


def test_train_records_are_reproducible(tmp_path):
    main(train_argv(tmp_path, out="first"))
    main(train_argv(tmp_path, out="second"))
    rel = "additive/leaky/revin_no/seed_0"
    first = (tmp_path / "first" / rel / "result_96to1.txt").read_bytes()
    second = (tmp_path / "second" / rel / "result_96to1.txt").read_bytes()
    assert first == second


@pytest.mark.parametrize("seeds, in_config, message", [
    ("0,0", False, "seed list '0,0': seed 0 is repeated"),
    ("2,-1", False, "seed list '2,-1': negative seed -1"),
    ("1,2,1", True, "tiny.cfg:4: config key seeds: seed list '1,2,1': seed 1 is repeated"),
    # numpy keys Philox with int64 [seed, epoch]: 2**63 would turn it into
    # float64 and share 2**63 + 1's permutation; 2**64 would not convert
    (f"0,{2**63}", False, f"seed list '0,{2**63}': seed {2**63} is not below 2**63"),
    (f"{2**64}", True, f"tiny.cfg:4: config key seeds: seed list '{2**64}': "
                       f"seed {2**64} is not below 2**63"),
    ("0,+1", False, "seed list '0,+1': cannot parse '+1'"),
], ids=["repeated", "negative", "config_file", "two_to_the_63", "two_to_the_64_config",
        "plus_sign"])
def test_bad_seed_list_is_usage_error(tmp_path, capsys, seeds, in_config, message):
    if in_config:
        argv = ["train", "--config",
                write_tiny_config(tmp_path, f"seeds={seeds}\n", model="dlinear"),
                "--dataset", "additive", "--model", "dlinear", "--out", str(tmp_path / "runs")]
    else:
        argv = train_argv(tmp_path, seeds=seeds)
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_unknown_model_flag_is_usage_error(tmp_path, capsys):
    code = main(["train", "--dataset", "additive", "--model", "transformer",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "leaky" in err and "dlinear" in err


def test_unknown_model_in_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY + "model=transformer\ndataset=additive\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "valid ids" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("lr", "nan"), ("lr", "inf"), ("lr", "1e400"), ("lr", "-1"), ("lr", "0"),
    ("batch", "0"), ("max_epochs", "0"), ("patience", "-2"),
    ("context", "0"), ("horizon", "-1"), ("length", "0"), ("d_model", "0"), ("d_ff", "0"),
    ("n_heads", "0"), ("e_layers", "0"), ("patch_len", "0"), ("stride", "-4"),
    ("n_p_max", "0"), ("kernel", "0"), ("hidden", "0"),
    ("data_seed", "-3"), ("data_seed", str(2 ** 128)),
])
def test_bad_training_hyperparameter_is_usage_error(tmp_path, capsys, key, value):
    cfg = write_tiny_config(tmp_path, f"{key}={value}\n", model="dlinear")
    line = tiny_config("dlinear").count("\n") + 1
    assert main(["train", "--config", cfg, "--dataset", "additive", "--model", "dlinear",
                 "--seeds", "0", "--out", str(tmp_path / "runs")]) == 1
    assert f"{cfg}:{line}: config key {key}: " in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv, message", [
    (["gen-data", "--dataset", "additive", "--length", "0"],
     "argument --length: expected an integer of at least 1, got '0'"),
    (["gen-data", "--dataset", "additive", "--seed", "-1"],
     "argument --seed: expected a seed from 0 to 2**128 - 1, got '-1'"),
    (["gen-data", "--dataset", "additive", "--seed", str(2 ** 128)],
     f"argument --seed: expected a seed from 0 to 2**128 - 1, got '{2 ** 128}'"),
    (["train", "--dataset", "additive", "--model", "dlinear", "--context", "-5"],
     "argument --context: expected an integer of at least 1, got '-5'"),
    (["train", "--dataset", "additive", "--model", "dlinear", "--horizon", "0"],
     "argument --horizon: expected an integer of at least 1, got '0'"),
    (["gen-data", "--dataset", "additive", "--length", "1_000"],
     "argument --length: cannot parse '1_000'"),
], ids=["length", "negative_seed", "seed_two_to_the_128", "context", "horizon",
        "underscore_length"])
def test_bad_integer_flag_is_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, extra, message", [
    ("dlinear", "kernel=24\n", "kernel must be odd and positive, got 24"),
    ("leaky", "n_heads=3\n", "d_model=16 is not divisible by n_heads=3"),
    ("leaky", "patch_len=200\n", "l_ctx=96 is shorter than patch_len=200"),
    ("leaky", None, "shorter than patch_len"),
], ids=["kernel", "heads", "patch_len", "context_flag"])
def test_config_only_a_model_rejects_is_usage_error(tmp_path, capsys, model, extra, message):
    """Values that each pass their converter but not the model's constructor."""
    argv = ["train", "--dataset", "additive", "--model", model, "--horizon", "1",
            "--seeds", "0", "--out", str(tmp_path / "runs")]
    if extra is None:
        argv += ["--context", "8"]
    else:
        cfg = write_tiny_config(tmp_path, extra, model=model)
        argv += ["--config", cfg]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    if extra is not None:
        assert f"{cfg}: " in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("model, extra, unread", [
    ("leaky", "hidden=4\nkernel=5\n", "kernel, hidden"),
    ("dlinear", "d_model=16\n", "d_model"),
    ("mlp", "n_heads=2\nkernel=25\n", "n_heads, kernel"),
])
def test_model_key_the_model_does_not_read_is_usage_error(tmp_path, capsys, model, extra,
                                                          unread):
    cfg = write_tiny_config(tmp_path, extra, model=model)
    assert main(["train", "--config", cfg, "--dataset", "additive", "--model", model,
                 "--horizon", "1", "--seeds", "0", "--out", str(tmp_path / "runs")]) == 1
    assert (f"{cfg}: invalid {model} configuration: {model} does not read key {unread}"
            in capsys.readouterr().err)
    assert not (tmp_path / "runs").exists()


BIG = 2 ** 63 + 1  # odd, so that it is a kernel dlinear would take


@pytest.mark.parametrize("model, key", [
    ("leaky", "d_model"), ("strict", "e_layers"), ("pure", "d_ff"),
    ("dlinear", "kernel"), ("mlp", "hidden"),
])
def test_model_above_the_size_cap_is_a_usage_error_naming_the_key(tmp_path, capsys, model,
                                                                   key):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(TINY + f"{key}={BIG}\n")
    assert main(["train", "--config", str(cfg), "--dataset", "additive", "--model", model,
                 "--horizon", "1", "--seeds", "0", "--out", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}: invalid {model} configuration: " in err
    assert f"{key}={BIG}" in err and "more than the cap of 134217728" in err
    assert not (tmp_path / "runs").exists()


def tiny_models():
    """One small model of each kind, for hand-built checkpoints."""
    return [DLinearModel(96, 1), MlpBaseline(96, 1, n_vars=4, hidden=8),
            CgptModel(CgptConfig(EncoderConfig(d_model=8, d_ff=8), 96, 1))]


@pytest.mark.parametrize("kind, key", [
    ("dlinear", "l_ctx"), ("dlinear", "kernel"), ("mlp", "n_vars"), ("mlp", "h_pred"),
    ("cgpt", "d_model"), ("cgpt", "d_ff"),
])
def test_header_above_the_size_cap_is_a_runtime_error_naming_the_key(tmp_path, capsys, kind,
                                                                      key):
    model = next(m for m in tiny_models() if m.kind == kind)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, dict(model.config_header(), **{key: BIG}), model.parameters())
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive"]) == 2
    captured = capsys.readouterr()
    assert "test_mae" not in captured.out
    assert f"{ckpt}: " in captured.err and f"{key}={BIG}" in captured.err
    assert "more than the cap of 134217728" in captured.err


@pytest.mark.parametrize("in_config", [False, True])
def test_revin_on_a_one_step_context_is_usage_error(tmp_path, monkeypatch, capsys, in_config):
    # RevIN normalizes each window over its context, which one step cannot
    # give; the error names both settings before any data is read
    monkeypatch.setattr(cli, "resolve_dataset", lambda *a: pytest.fail("data was read"))
    cfg = tmp_path / "one.cfg"
    cfg.write_text("context=1\nrevin=yes\n" if in_config else "")
    flags = [] if in_config else ["--context", "1", "--revin", "yes"]
    assert main(["train", "--config", str(cfg), "--dataset", "additive", "--model", "dlinear",
                 "--horizon", "1", "--seeds", "0", "--out", str(tmp_path / "runs"),
                 *flags]) == 1
    err = capsys.readouterr().err
    assert "--context/context 1 with --revin/revin yes" in err
    assert not (tmp_path / "runs").exists()


def test_missing_dataset_is_usage_error(tmp_path, capsys):
    assert main(["train", "--model", "leaky", "--out", str(tmp_path)]) == 1
    assert "--dataset" in capsys.readouterr().err


def test_unknown_dataset_id_is_usage_error(tmp_path, capsys):
    assert main(["train", "--dataset", "stocks", "--model", "leaky",
                 "--out", str(tmp_path)]) == 1
    assert "additive" in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("momentum=0.9\n")
    assert main(["train", "--config", str(cfg), "--dataset", "additive",
                 "--model", "leaky"]) == 1
    assert "momentum" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_repeated_config_key_is_usage_error(tmp_path, capsys, command):
    cfg = write_tiny_config(tmp_path, "lr=0.001\nlr=0.5\n")
    argv = (["train", "--config", cfg, "--dataset", "additive", "--model", "leaky",
             "--out", str(tmp_path / "runs")] if command == "train" else
            ["eval", "--config", cfg, "--dataset", "additive",
             "--checkpoint", str(tmp_path / "model.ckpt")])
    assert main(argv) == 1
    assert f"{cfg}:7: key 'lr' already set on line 6" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_missing_real_dataset_file_is_runtime_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CGPT_DATA_DIR", str(tmp_path))
    assert main(["train", "--dataset", "etth1", "--model", "dlinear",
                 "--out", str(tmp_path / "runs")]) == 2
    assert "ETTh1.csv" in capsys.readouterr().err


def test_etth1_is_a_real_csv_with_fixed_borders(tmp_path, monkeypatch):
    monkeypatch.setenv("CGPT_DATA_DIR", str(tmp_path))
    (tmp_path / "ETTh1.csv").write_text(
        "date,HUFL,OT\n2016-07-01 00:00:00,5.8,30.5\n2016-07-01 01:00:00,5.7,27.8\n")
    dataset, policy = cli.resolve_dataset("etth1")
    assert dataset.name == "etth1" and dataset.channel_names == ("HUFL", "OT")
    assert dataset.target == 1 and policy is SplitPolicy.ETTH1_STANDARD
    dataset, _ = cli.resolve_dataset("etth1", {"target": "HUFL"})
    assert dataset.target == 0


def test_train_on_generated_csv_path_with_sidecar_graph(tmp_path):
    """A generated CSV with its sidecar trains exactly as the generator does;
    the stem names the dataset in the record and header, so it is the
    generator's name.  Without one of the sidecar's edges the record differs."""
    csv_path = tmp_path / "additive.csv"
    assert main(["gen-data", "--dataset", "additive", "--length", "1024",
                 "--out", str(csv_path)]) == 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(tiny_config().replace("length=1024\n", "") + "target=C3\n")

    def run(dataset, config, out):
        assert main(["train", "--config", str(config), "--dataset", dataset,
                     "--model", "leaky", "--horizon", "1", "--seeds", "0",
                     "--out", str(tmp_path / out)]) == 0
        seed_dir = tmp_path / out / "additive" / "leaky" / "revin_no" / "seed_0"
        return [(seed_dir / name).read_bytes() for name in ("result_96to1.txt",
                                                             "model_96to1.ckpt")]

    from_csv = run(str(csv_path), cfg, "csv")
    assert from_csv == run("additive", write_tiny_config(tmp_path), "generated")
    sidecar = tmp_path / "additive.graph.txt"
    edges = sidecar.read_text().splitlines()
    sidecar.write_text("".join(f"{edge}\n" for edge in edges if edge != "C0->C3"))
    assert len(edges) == len(sidecar.read_text().splitlines()) + 1
    assert run(str(csv_path), cfg, "cut")[0] != from_csv[0]


def test_self_loop_in_graph_sidecar_names_file_and_line(tmp_path, capsys):
    csv_path = tmp_path / "mydata.csv"
    main(["gen-data", "--dataset", "additive", "--out", str(csv_path)])
    sidecar = tmp_path / "mydata.graph.txt"
    sidecar.write_text("C0->C3\nC3->C3\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(tiny_config().replace("length=1024\n", "") + "target=C3\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--dataset", str(csv_path),
                 "--model", "leaky", "--out", str(tmp_path / "runs")]) == 2
    assert f"{sidecar}:2: self-loop on channel 'C3'" in capsys.readouterr().err


def test_byte_order_marks_are_dropped_from_csvs_and_sidecars(tmp_path, monkeypatch):
    """A UTF-8 file may start with a byte-order mark; the first column, the
    sidecar's first channel and a real CSV's target keep their names."""
    csv_path = tmp_path / "marked.csv"
    rows = b"".join(b"%d,%d\n" % (i, i % 7) for i in range(20))
    csv_path.write_bytes(b"\xef\xbb\xbfC0,C1\n" + rows)
    (tmp_path / "marked.graph.txt").write_bytes(b"\xef\xbb\xbfC0->C1\n")
    dataset, _ = cli.resolve_dataset(str(csv_path), {"target": "C0"})
    assert dataset.channel_names == ("C0", "C1") and dataset.target == 0
    assert dataset.graph.edges == {(0, 1)}

    monkeypatch.setenv("CGPT_DATA_DIR", str(tmp_path))
    (tmp_path / "ETTh1.csv").write_bytes(b"\xef\xbb\xbfOT,date,HUFL\n30.5,2016,5.8\n")
    dataset, _ = cli.resolve_dataset("etth1")
    assert dataset.channel_names == ("OT", "HUFL") and dataset.target == 0


@pytest.mark.parametrize("bad, dataset", [("data.csv", "data.csv"),
                                          ("data.graph.txt", "data.csv"),
                                          ("ETTh1.csv", "etth1")])  # read for its target
def test_dataset_file_that_is_not_utf8_is_runtime_error_naming_it(tmp_path, monkeypatch,
                                                                  capsys, bad, dataset):
    monkeypatch.setenv("CGPT_DATA_DIR", str(tmp_path))
    rows = "".join(f"{i},{i % 7}\n" for i in range(20))
    (tmp_path / "data.csv").write_text("C0,OT\n" + rows)
    (tmp_path / "data.graph.txt").write_text("C0->OT\n")
    (tmp_path / "ETTh1.csv").write_text("C0,OT\n" + rows)
    (tmp_path / bad).write_bytes(b"\xff" + (tmp_path / bad).read_bytes())
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("target=OT\n")
    flags = ["--config", str(cfg)] if dataset.endswith(".csv") else []
    capsys.readouterr()
    assert main(["train", "--dataset", dataset, "--model", "dlinear",
                 "--out", str(tmp_path / "runs"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cgpt: error: {tmp_path / bad}: 'utf-8' codec can't decode "), err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_pure_whose_sidecar_gives_the_target_no_parent_is_located_before_any_work(
        tmp_path, monkeypatch, capsys, command):
    """``pure`` reads only the target's contexts: a sidecar that gives the
    target none is exit 2 naming the target and the sidecar, raised before
    an epoch or a batch runs."""
    csv_path = tmp_path / "mydata.csv"
    assert main(["gen-data", "--dataset", "additive", "--length", "1024",
                 "--out", str(csv_path)]) == 0
    sidecar = tmp_path / "mydata.graph.txt"
    sidecar.write_text("C0->C1\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(tiny_config("pure").replace("length=1024\n", "") + "target=C3\n")

    def refuse(*args, **kwargs):
        raise AssertionError("reached training or scoring")

    monkeypatch.setattr(cli, "train", refuse)
    monkeypatch.setattr(cli, "evaluate", refuse)
    if command == "train":
        argv = ["train", "--config", str(cfg), "--dataset", str(csv_path), "--model", "pure",
                "--horizon", "1", "--out", str(tmp_path / "runs")]
    else:
        tiny_checkpoint(tmp_path / "pure.ckpt", "pure", 4)
        argv = ["eval", "--checkpoint", str(tmp_path / "pure.ckpt"),
                "--dataset", str(csv_path), "--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == ("cgpt: error: pure needs at least one context channel, "
                                       f"but {sidecar} gives target 'C3' no parent\n")


def test_pure_on_a_single_channel_csv_is_located_before_any_epoch(tmp_path, monkeypatch, capsys):
    csv_path = tmp_path / "single.csv"
    csv_path.write_text("OT\n" + "".join(f"{i % 7}\n" for i in range(1024)))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(tiny_config("pure").replace("length=1024\n", "") + "target=OT\n")
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("reached training"))
    assert main(["train", "--config", str(cfg), "--dataset", str(csv_path), "--model", "pure",
                 "--horizon", "1", "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == ("cgpt: error: pure needs at least one context channel, "
                                       "but dataset single has no channel besides target 'OT'\n")


def test_csv_dataset_without_target_key_is_usage_error(tmp_path, capsys):
    csv_path = tmp_path / "mydata.csv"
    main(["gen-data", "--dataset", "additive", "--out", str(csv_path)])
    assert main(["train", "--dataset", str(csv_path), "--model", "leaky",
                 "--out", str(tmp_path / "runs")]) == 1
    assert "target" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("dataset", ["additive", "interactive"])
def test_target_other_than_the_generators_is_usage_error(tmp_path, capsys, command, dataset):
    model = DLinearModel(96, 1)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model.config_header(), model.parameters())
    argv = {"train": ["train", "--model", "dlinear", "--out", str(tmp_path / "runs")],
            "eval": ["eval", "--checkpoint", str(ckpt)]}[command]
    cfg = write_tiny_config(tmp_path, "target=C0\n", model="dlinear")
    assert main([*argv, "--config", cfg, "--dataset", dataset]) == 1
    captured = capsys.readouterr()
    assert "test_mae" not in captured.out
    assert (f"dataset {dataset}: config key target=C0 cannot be set; "
            "the generator's target is C3") in captured.err
    assert not (tmp_path / "runs").exists()


def test_target_naming_the_generators_target_is_accepted(tmp_path):
    argv = train_argv(tmp_path, model="dlinear")
    assert main(argv) == 0
    argv[2] = write_tiny_config(tmp_path, "target=C3\n", model="dlinear")
    assert main([*argv, "--out", str(tmp_path / "with_target")]) == 0
    task = Path("additive", "dlinear", "revin_no", "seed_0", "result_96to1.txt")
    assert ((tmp_path / "with_target" / task).read_text()
            == (tmp_path / "runs" / task).read_text())


# --------------------------------------------------------------------- eval


@pytest.mark.parametrize("model", ["leaky", "strict", "pure", "dlinear", "mlp"])
def test_eval_matches_training_record(tmp_path, capsys, model):
    main(train_argv(tmp_path, model=model))
    seed_dir = tmp_path / "runs" / "additive" / model / "revin_no" / "seed_0"
    record = dict(line.split("=", 1) for line in
                  (seed_dir / "result_96to1.txt").read_text().splitlines())
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(seed_dir / "model_96to1.ckpt"),
                 "--dataset", "additive",
                 "--config", write_tiny_config(tmp_path, model=model)]) == 0
    out = dict(line.split("=", 1) for line in
               capsys.readouterr().out.strip().splitlines())
    assert float(out["test_mae"]) == float(record["test_mae"])
    assert float(out["test_mse"]) == float(record["test_mse"])


def test_eval_scores_at_the_config_files_batch(tmp_path, capsys):
    # summing the errors 32 windows at a time rounds differently from 256
    cfg = tmp_path / "batch32.cfg"
    cfg.write_text(TINY.replace("batch=256", "batch=32"))
    assert main(["train", "--config", str(cfg), "--dataset", "additive", "--model", "dlinear",
                 "--horizon", "1", "--seeds", "0", "--out", str(tmp_path / "runs")]) == 0
    seed_dir = tmp_path / "runs" / "additive" / "dlinear" / "revin_no" / "seed_0"
    record = (seed_dir / "result_96to1.txt").read_text().splitlines()
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(seed_dir / "model_96to1.ckpt"),
                 "--dataset", "additive", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [line for line in record if line.startswith(("test_mae=", "test_mse="))]


def test_eval_without_config_scores_at_the_checkpoints_batch(tmp_path, capsys):
    # the default length, so that eval needs no config file to rebuild the data
    cfg = tmp_path / "batch32.cfg"
    cfg.write_text("max_epochs=1\nbatch=32\n")
    assert main(["train", "--config", str(cfg), "--dataset", "additive", "--model", "dlinear",
                 "--horizon", "1", "--seeds", "0", "--out", str(tmp_path / "runs")]) == 0
    seed_dir = tmp_path / "runs" / "additive" / "dlinear" / "revin_no" / "seed_0"
    record = (seed_dir / "result_96to1.txt").read_text().splitlines()
    ckpt = seed_dir / "model_96to1.ckpt"
    assert load_checkpoint(ckpt)[0]["batch"] == "32"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [line for line in record if line.startswith(("test_mae=", "test_mse="))]


@pytest.mark.parametrize("batch, message", [("0", "expected an integer of at least 1, got '0'"),
                                            ("32.0", "cannot parse '32.0'")])
def test_eval_reads_the_header_batch_strictly(tmp_path, capsys, batch, message):
    model = DLinearModel(96, 1)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, dict(model.config_header(), batch=batch), model.parameters())
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive"]) == 2
    captured = capsys.readouterr()
    assert "test_mae" not in captured.out
    assert f"{ckpt}: header key batch: {message}" in captured.err


def test_eval_holds_one_copy_of_the_weights_and_of_the_values(tmp_path, capsys):
    """The traced peak of a whole ``cgpt eval`` is the model's parameters,
    one values array and what scoring one batch at a time allocates; the
    checkpoint's arrays and the raw CSV values are dead by then."""
    csv_path = tmp_path / "long.csv"
    assert main(["gen-data", "--dataset", "additive", "--length", "65536",
                 "--out", str(csv_path)]) == 0
    (tmp_path / "eval.cfg").write_text("target=C3\n")
    model = MlpBaseline(96, 1, n_vars=4, seed=2)
    ckpt = tmp_path / "mlp.ckpt"
    save_checkpoint(ckpt, dict(model.config_header(), revin="yes"), model.parameters())
    param_bytes = sum(p.data.nbytes for p in model.parameters().values())
    argv = ["eval", "--checkpoint", str(ckpt), "--dataset", str(csv_path),
            "--config", str(tmp_path / "eval.cfg")]

    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    printed = capsys.readouterr().out

    # the allowance: evaluate's own peak over a built model and prepared data
    model = cli.model_from_checkpoint(*load_checkpoint(ckpt))
    prepared, _ = prepare_dataset(*cli.resolve_dataset(str(csv_path), {"target": "C3"}), 96, 1)
    values_bytes = prepared.values.nbytes
    assert values_bytes >= 2 * 2 ** 20
    tracemalloc.start()
    try:
        mae, mse = evaluate(model, prepared, prepared.borders[2], 256, revin=True)
        scoring_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert printed == f"test_mae={mae!r}\ntest_mse={mse!r}\n"
    # 256 KiB for the interpreter's own objects: parsed header, config, csv reader
    assert peak <= param_bytes + values_bytes + scoring_bytes + 2 ** 18


def test_eval_prints_what_evaluate_returns_on_the_test_split(tmp_path, capsys):
    main(train_argv(tmp_path, model="strict"))
    ckpt = tmp_path / "runs" / "additive" / "strict" / "revin_no" / "seed_0" / "model_96to1.ckpt"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive",
                 "--config", write_tiny_config(tmp_path)]) == 0
    model = cli.model_from_checkpoint(*load_checkpoint(ckpt))
    dataset, policy = cli.resolve_dataset("additive", {"length": 1024})
    prepared, _ = prepare_dataset(dataset, policy, 96, 1)
    mae, mse = evaluate(model, prepared, prepared.borders[2], 256)
    assert capsys.readouterr().out == f"test_mae={mae!r}\ntest_mse={mse!r}\n"


def tiny_checkpoint(path, model, n_vars):
    """A seeded, untrained ``model`` over ``n_vars`` channels saved at
    ``path``, scoring 64 windows at a time; returns the model."""
    header = {"variant": model, "l_ctx": 96, "h_pred": 1, "n_vars": n_vars,
              "d_model": 8, "d_ff": 8, "hidden": 32}
    built = cli.MODELS[model].from_header(header, seed=1)
    save_checkpoint(path, dict(built.config_header(), batch=64), built.parameters())
    return built


def write_etth1_layout(path, n_rows):
    """An ETTh1-shaped CSV (date, two loads, OT) of ``n_rows`` rows; rows
    from 14400 on, which no split reads, sit 1000 above the rest."""
    rng = np.random.default_rng(5)
    values = rng.standard_normal((n_rows, 3)).cumsum(axis=0)
    values[14400:] += 1000.0
    lines = ["date,HUFL,MUFL,OT"]
    lines += [f"row{i},{a!r},{b!r},{c!r}" for i, (a, b, c) in enumerate(values.tolist())]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("layout", ["ratio", "etth1"])
def test_eval_prints_what_evaluate_returns_on_the_full_prepared_dataset(tmp_path, monkeypatch,
                                                                        capsys, layout):
    """``cgpt eval`` scores a copy of only the rows the test windows read;
    every kind, with and without RevIN, prints the bytes of scoring the
    whole prepared dataset's test split."""
    if layout == "ratio":
        data = tmp_path / "additive.csv"
        assert main(["gen-data", "--dataset", "additive", "--length", "1024",
                     "--out", str(data)]) == 0
        dataset, options = str(data), {"target": "C3"}
        (tmp_path / "eval.cfg").write_text("target=C3\n")
        flags = ["--config", str(tmp_path / "eval.cfg")]
    else:
        monkeypatch.setenv("CGPT_DATA_DIR", str(tmp_path))
        write_etth1_layout(tmp_path / "ETTh1.csv", 14400 + 300)
        dataset, options, flags = "etth1", {}, []
    prepared, _ = prepare_dataset(*cli.resolve_dataset(dataset, options), 96, 1)
    for model in ("leaky", "strict", "pure", "dlinear", "mlp"):
        ckpt = tmp_path / f"{model}.ckpt"
        built = tiny_checkpoint(ckpt, model, prepared.n_channels)
        for revin in (True, False):
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(ckpt), "--dataset", dataset,
                         "--revin", "yes" if revin else "no", *flags]) == 0
            mae, mse = evaluate(built, prepared, prepared.borders[2], 64, revin)
            assert capsys.readouterr().out == f"test_mae={mae!r}\ntest_mse={mse!r}\n", \
                (model, revin)


def test_eval_scores_only_the_test_rows_and_their_context(tmp_path, monkeypatch, capsys):
    seen = []

    def recording(model, dataset, split, batch_size, revin=False):
        seen.append((dataset, split))
        return 0.0, 0.0

    monkeypatch.setattr(cli, "evaluate", recording)
    tiny_checkpoint(tmp_path / "dlinear.ckpt", "dlinear", 4)
    assert main(["eval", "--checkpoint", str(tmp_path / "dlinear.ckpt"),
                 "--dataset", "additive"]) == 0
    prepared, _ = prepare_dataset(*cli.resolve_dataset("additive"), 96, 1)
    start, end = prepared.borders[2]
    lo = max(start - 96, 0)
    [(rows, split)] = seen
    assert rows.length == end - lo and split == (start - lo, end - lo)
    np.testing.assert_array_equal(rows.values, prepared.values[lo:end])


def test_eval_rejects_garbage_checkpoint(tmp_path, capsys):
    bad = tmp_path / "model.ckpt"
    bad.write_bytes(b"\x01\x02\x03")
    assert main(["eval", "--checkpoint", str(bad), "--dataset", "additive"]) == 2


def test_eval_rejects_header_missing_a_hyperparameter(tmp_path, capsys):
    model = CgptModel(CgptConfig(EncoderConfig(d_model=8, d_ff=8), 96, 1))
    header = model.config_header()
    del header["stride"]
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, header, model.parameters())
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive"]) == 2
    assert "stride missing" in capsys.readouterr().err


def test_eval_header_value_of_wrong_type_names_file_and_key(tmp_path, capsys):
    model = CgptModel(CgptConfig(EncoderConfig(d_model=16, d_ff=8), 96, 1))
    header = dict(model.config_header(), d_model="16.0")
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, header, model.parameters())
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive"]) == 2
    assert f"{ckpt}: header key d_model: cannot parse '16.0'" in capsys.readouterr().err


@pytest.mark.parametrize("revin, code", [("maybe", 2), ("", 2), (None, 0)])
def test_eval_reads_the_header_revin_strictly(tmp_path, capsys, revin, code):
    model = DLinearModel(96, 1)
    header = model.config_header()
    if revin is not None:
        header["revin"] = revin
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, header, model.parameters())
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive"]) == code
    captured = capsys.readouterr()
    if code:
        assert "test_mae" not in captured.out
        assert f"{ckpt}: header key revin: expected yes or no, got {revin!r}" in captured.err
    else:  # a header without the key was saved without RevIN
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive",
                     "--revin", "no"]) == 0
        assert capsys.readouterr().out == captured.out


@pytest.mark.parametrize("stored, flag", [("yes", []), ("no", ["--revin", "yes"])])
def test_eval_with_revin_of_a_one_step_context_names_the_checkpoint(tmp_path, monkeypatch,
                                                                     capsys, stored, flag):
    model = DLinearModel(1, 1)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, dict(model.config_header(), revin=stored), model.parameters())
    monkeypatch.setattr(cli, "resolve_dataset", lambda *a: pytest.fail("data was read"))
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive", *flag]) == 2
    captured = capsys.readouterr()
    assert "test_mae" not in captured.out
    assert f"{ckpt}: header key l_ctx=1 is too short for revin" in captured.err


def test_eval_rejects_checkpoint_with_non_finite_weight(tmp_path, capsys):
    model = DLinearModel(96, 1)
    model.params["trend.b"].data[0] = np.nan
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model.config_header(), model.parameters())
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive"]) == 2
    captured = capsys.readouterr()
    assert "test_mae" not in captured.out
    assert f"{ckpt}: entry 'trend.b' holds non-finite value nan" in captured.err


def test_eval_rejects_checkpoint_with_a_repeated_header_key(tmp_path, capsys):
    model = DLinearModel(96, 1)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model.config_header(), model.parameters())
    blob = ckpt.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob)
    header = blob[4:4 + header_len] + b"kind=mlp\n"
    ckpt.write_bytes(struct.pack("<I", len(header)) + header + blob[4 + header_len:])
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive"]) == 2
    captured = capsys.readouterr()
    assert "test_mae" not in captured.out
    assert f"{ckpt}: header line 5: key 'kind' already set on line 1" in captured.err


def test_eval_of_overflowing_forecast_is_runtime_error(tmp_path, capsys):
    model = DLinearModel(96, 1)
    for p in model.params.values():
        p.data[:] = 1e300
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model.config_header(), model.parameters())
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive"]) == 2
    captured = capsys.readouterr()
    assert "test_mse" not in captured.out
    assert "non-finite forecast or squared error in batch 0" in captured.err


def test_eval_config_value_of_wrong_type_is_usage_error(tmp_path, capsys):
    main(train_argv(tmp_path))
    ckpt = tmp_path / "runs" / "additive" / "leaky" / "revin_no" / "seed_0" / "model_96to1.ckpt"
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("length=abc\n")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive",
                 "--config", str(cfg)]) == 1
    assert "config key length" in capsys.readouterr().err


# ------------------------------------------------------------------- report


def test_report_identical_records_have_zero_std(tmp_path):
    runs = tmp_path / "runs"
    for seed in range(3):
        fake_record(runs, seed=seed, mae=0.5, mse=0.3)
    out = tmp_path / "table.csv"
    assert main(["report", "--results", str(runs), "--experiment", "2",
                 "--out", str(out)]) == 0
    header, rows = read_table(out)
    leaky = next(r for r in rows if r[header.index("model")] == "leaky")
    assert leaky[header.index("mae_std")] == "0.0000"
    assert leaky[header.index("mse_std")] == "0.0000"
    assert leaky[header.index("mae_mean")] == "0.5000"


def test_report_full_grid_and_missing_markers(tmp_path):
    runs = tmp_path / "runs"
    for model in ("leaky", "dlinear"):
        for seed in (0, 1):
            fake_record(runs, model=model, seed=seed, mae=0.4 + seed, mse=0.2)
    out = tmp_path / "table.csv"
    assert main(["report", "--results", str(runs), "--experiment", "2",
                 "--out", str(out)]) == 0
    header, rows = read_table(out)
    # one row per (dataset, model): full model grid for the one dataset
    assert [r[1] for r in rows] == ["leaky", "strict", "pure", "dlinear", "mlp"]
    by_model = {r[1]: r for r in rows}
    assert by_model["strict"][header.index("mae_mean")] == "missing"
    assert by_model["leaky"][header.index("mae_mean")] == "0.9000"
    # sample standard deviation of {0.4, 1.4}
    assert by_model["leaky"][header.index("mae_std")] == f"{np.std([0.4, 1.4], ddof=1):.4f}"


def test_report_experiment3_ratio_on_published_numbers(tmp_path):
    # strongest published gap: pure 0.0168 vs leaky 0.0073 on one task
    runs = tmp_path / "runs"
    fake_record(runs, model="leaky", mse=0.0073, mae=0.06)
    fake_record(runs, model="pure", mse=0.0168, mae=0.09)
    out = tmp_path / "table.csv"
    assert main(["report", "--results", str(runs), "--experiment", "3",
                 "--out", str(out)]) == 0
    header, rows = read_table(out)
    pure = next(r for r in rows if r[1] == "pure" and r[4] == "1")
    assert pure[header.index("pure_to_leaky_mse")] == "2.30"


def test_report_experiment3_keeps_only_pairwise_variants(tmp_path):
    runs = tmp_path / "runs"
    for model in ("leaky", "pure", "dlinear"):
        fake_record(runs, model=model, l_ctx=96, h_pred=96)
        fake_record(runs, model=model, l_ctx=96, h_pred=1)
    out = tmp_path / "table.csv"
    main(["report", "--results", str(runs), "--experiment", "3", "--out", str(out)])
    _, rows = read_table(out)
    assert {r[1] for r in rows} == {"leaky", "strict", "pure"}
    assert {(r[3], r[4]) for r in rows} == {("96", "96"), ("96", "1")}


def test_report_filters_by_task(tmp_path):
    runs = tmp_path / "runs"
    fake_record(runs, l_ctx=96, h_pred=1)
    out = tmp_path / "table.csv"
    # experiment 1 wants 96->96; only a 96->1 record exists
    assert main(["report", "--results", str(runs), "--experiment", "1",
                 "--out", str(out)]) == 2


def test_report_refuses_non_finite_record(tmp_path, capsys):
    runs = tmp_path / "runs"
    fake_record(runs, seed=0)
    fake_record(runs, seed=1, mae=float("nan"))
    out = tmp_path / "table.csv"
    assert main(["report", "--results", str(runs), "--experiment", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed_1" in err and "test_mae=nan" in err
    assert not out.exists()


@pytest.mark.parametrize("old, new, message", [
    ("test_mae=0.5\n", "", "key test_mae missing"),
    ("revin=no\n", "revin=no\ngarbage\n", "line 4: expected key=value, got 'garbage'"),
    ("test_mse=0.3\n", "test_mse=0.3\ntest_mse=99\n", "line 11: key 'test_mse' already set on line 10"),
    ("l_ctx=96\n", "l_ctx=abc\n", "key l_ctx: cannot parse 'abc'"),
    ("test_mae=0.5\n", "test_mae=abc\n", "key test_mae: cannot parse 'abc'"),
    ("revin=no\n", "revin=maybe\n", "key revin: expected yes or no, got 'maybe'"),
    ("model=leaky\n", "model=transformer\n", "key model: unknown model id 'transformer'"),
], ids=["missing_key", "no_equals_sign", "repeated_key", "int_key", "float_key",
        "revin_value", "model_value"])
def test_report_names_the_bad_record_and_key(tmp_path, capsys, old, new, message):
    runs = tmp_path / "runs"
    fake_record(runs, seed=0)
    fake_record(runs, seed=1)
    bad = next(runs.rglob("seed_1/result_*.txt"))
    bad.write_text(bad.read_text().replace(old, new))
    out = tmp_path / "table.csv"
    assert main(["report", "--results", str(runs), "--experiment", "2",
                 "--out", str(out)]) == 2
    assert f"{bad}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_report_empty_directory_is_runtime_error(tmp_path, capsys):
    empty = tmp_path / "runs"
    empty.mkdir()
    assert main(["report", "--results", str(empty), "--experiment", "1",
                 "--out", str(tmp_path / "t.csv")]) == 2
    assert "no result" in capsys.readouterr().err


def test_report_rows_is_pure():
    records = [{"dataset": "additive", "model": "leaky", "revin": "no",
                "l_ctx": "96", "h_pred": "1",
                "test_mae": "0.5", "test_mse": "0.25"}]
    first = report_rows(records, 2)
    second = report_rows(records, 2)
    assert first == second


# ----------------------------------------------------------- key=value files

EDGE_VALUES = ["0", "-1", str(2 ** 63), str(2 ** 128), "1e400", "nan", "inf", "", " 7 ",
               "9" * 5000]
# Spellings Python's int takes but an integer key must reject: an integer
# is written as str writes it, an optional '-' and ASCII digits with no
# leading zero.
BAD_INTEGERS = ["٩٦", "1_000", "+7", "９６", "१", "096", "00", "-0"]
INTEGER_KEYS = [key for key, convert in cli._CONVERTERS.items()
                if convert in (cli._positive_int, cli._seed, cli._parse_seeds)]


def value_or_located_error(read, path, key, must_fail=False):
    """Run ``read``; a UsageError or ValueError must name ``path`` and
    ``key``, and any other exception fails the test, as does a value
    when ``must_fail``."""
    try:
        value = read()
    except ValueError as err:  # cli.UsageError is one too
        message = str(err)
        assert str(path) in message, message
        assert f"key {key}" in message or f"key {key!r}" in message or f"{key}=" in message, \
            message
    else:
        assert not must_fail, f"{path}: {key} read as {value!r}"


def test_every_stored_text_reader_returns_a_value_or_a_located_error(tmp_path):
    """Every key the converters know, with each edge value, read from a
    config file, a checkpoint header and a result record; and each header,
    of each model kind, rebuilt into a model."""
    cfg, ckpt, runs = tmp_path / "exp.cfg", tmp_path / "model.ckpt", tmp_path / "runs"
    models = tiny_models()
    fake_record(runs)
    record = next(runs.rglob("result_*.txt"))
    base = checkpoint.parse(record.read_text())
    for key in cli._CONVERTERS:
        for value in EDGE_VALUES + BAD_INTEGERS:
            bad = key in INTEGER_KEYS and value in BAD_INTEGERS
            cfg.write_text(f"{key}={value}\n")
            value_or_located_error(lambda: cli.read_config(cfg), cfg, key, bad)
            for model in models:
                save_checkpoint(ckpt, dict(model.config_header(), **{key: value}),
                                model.parameters())
                value_or_located_error(
                    lambda: cli._read_stored(load_checkpoint(ckpt)[0], f"{ckpt}: header "),
                    ckpt, key, bad)
                value_or_located_error(lambda: cli._checkpoint_model(ckpt), ckpt, key, bad)
            record.write_text(checkpoint.format(dict(base, **{key: value})))
            value_or_located_error(lambda: cli._collect_records(runs), record, key, bad)


def test_stored_text_is_read_stripped_and_misreads_are_worded_alike(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("lr = 0.1\n")
    assert cli.read_config(cfg) == {"lr": 0.1}

    model = DLinearModel(96, 1)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, dict(model.config_header(), revin=" yes", batch=" 32"),
                    model.parameters())
    _, stored = cli._checkpoint_model(ckpt)
    assert (stored["revin"], stored["batch"]) == (True, 32)

    runs = tmp_path / "runs"
    fake_record(runs)
    record = next(runs.rglob("result_*.txt"))
    record.write_text(record.read_text().replace("l_ctx=96\n", "l_ctx= 96\n"))
    assert cli._collect_records(runs)[0]["l_ctx"] == "96"

    cgpt = CgptModel(CgptConfig(EncoderConfig(d_model=16, d_ff=8), 96, 1))
    for model, key, text in ((cgpt, "d_model", "16.0"), (model, "batch", "32.0")):
        save_checkpoint(ckpt, dict(model.config_header(), **{key: text}), model.parameters())
        with pytest.raises(ValueError) as err:
            cli._checkpoint_model(ckpt)
        assert str(err.value) == f"{ckpt}: header key {key}: cannot parse '{text}'"
