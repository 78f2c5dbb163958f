"""Command-line workflow tests: data generation, training fan-out, reports.

Everything drives ``cli.main(argv)`` in-process and asserts on exit codes,
emitted files, and captured output; no subprocesses.
"""

import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from cgpt import cli
from cgpt.baselines import DLinearModel
from cgpt.checkpoint import save_checkpoint
from cgpt.cli import main, report_rows
from cgpt.datasets import SplitPolicy, generate_additive, load_csv, SyntheticConfig
from cgpt.layers import EncoderConfig
from cgpt.model import CgptConfig, CgptModel
from cgpt.training import RunResult, result_record

# Small enough to train in well under a second, large enough that every
# split still holds 96->1 windows under the 70/20/10 ratio policy.
TINY = "length=1024\nmax_epochs=1\nd_model=16\nd_ff=32\nbatch=256\n"


def write_tiny_config(tmp_path, extra=""):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY + extra)
    return str(cfg)


def train_argv(tmp_path, *, model="leaky", seeds="0", out="runs", extra=()):
    return ["train", "--config", write_tiny_config(tmp_path),
            "--dataset", "additive", "--model", model,
            "--context", "96", "--horizon", "1", "--revin", "no",
            "--seeds", seeds, "--out", str(tmp_path / out), *extra]


def fake_record(path, *, dataset="additive", model="leaky", revin="no",
                l_ctx=96, h_pred=1, seed=0, mae=0.5, mse=0.3):
    """Drop a hand-built result record into the on-disk layout."""
    meta = {"dataset": dataset, "model": model, "revin": revin,
            "l_ctx": l_ctx, "h_pred": h_pred}
    result = RunResult(seed=seed, best_epoch=1, epochs_run=1,
                       test_mae=mae, test_mse=mse,
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


# sha256 of gen-data CSVs; csv writes every float with repr.  2500 rows
# span several of the blocks gen-data writes at a time.
GEN_DATA_CSV_SHA256 = {
    ("additive", 0, 600): "9adaee36915426c894577622adab3e2720f950d8053def50a4f12315c9e133f0",
    ("interactive", 3, 600): "aca1b1f020625e9848ce45a3ee48069f69eb940cae0887a6ab718bb65dfe6acb",
    ("additive", 0, 2500): "ff9db9125358a4229a60802eaa97f3c25b500ead9a15852d3a6b09314a9a0df9",
}


@pytest.mark.parametrize("kind,seed,length", list(GEN_DATA_CSV_SHA256))
def test_gen_data_csv_matches_pinned_bytes(tmp_path, kind, seed, length):
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--dataset", kind, "--seed", str(seed), "--length", str(length),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_DATA_CSV_SHA256[kind, seed, length]


@pytest.mark.parametrize("command", ["gen-data", "report"])
def test_write_failing_midway_leaves_neither_file_nor_tmp(tmp_path, monkeypatch, capsys, command):
    runs = tmp_path / "runs"
    fake_record(runs)
    out = tmp_path / "out.csv"
    argv = {"gen-data": ["gen-data", "--dataset", "additive", "--length", "2500"],
            "report": ["report", "--results", str(runs), "--experiment", "2"]}[command]
    real_writer = csv.writer

    class FailingWriter:
        """Writes the header and the first block of rows, then fails."""

        def __init__(self, fh):
            self._writer = real_writer(fh)

        def writerow(self, row):
            self._writer.writerow(row)

        def writerows(self, rows):
            self._writer.writerows(rows)
            raise OSError("disk full")

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
    ("1,2,1", True, "tiny.cfg:6: config key seeds: seed list '1,2,1': seed 1 is repeated"),
    # numpy keys Philox with int64 [seed, epoch]: 2**63 would turn it into
    # float64 and share 2**63 + 1's permutation; 2**64 would not convert
    (f"0,{2**63}", False, f"seed list '0,{2**63}': seed {2**63} is not below 2**63"),
    (f"{2**64}", True, f"tiny.cfg:6: config key seeds: seed list '{2**64}': "
                       f"seed {2**64} is not below 2**63"),
], ids=["repeated", "negative", "config_file", "two_to_the_63", "two_to_the_64_config"])
def test_bad_seed_list_is_usage_error(tmp_path, capsys, seeds, in_config, message):
    if in_config:
        argv = ["train", "--config", write_tiny_config(tmp_path, f"seeds={seeds}\n"),
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
    cfg = write_tiny_config(tmp_path, f"{key}={value}\n")
    line = TINY.count("\n") + 1
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
], ids=["length", "negative_seed", "seed_two_to_the_128", "context", "horizon"])
def test_bad_integer_flag_is_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, extra, message", [
    ("dlinear", "kernel=24\n", "kernel must be odd and positive, got 24"),
    ("leaky", "n_heads=3\n", "d_model 16 not divisible by n_heads 3"),
    ("leaky", "patch_len=200\n", "shorter than patch_len 200"),
    ("leaky", None, "shorter than patch_len"),
], ids=["kernel", "heads", "patch_len", "context_flag"])
def test_config_only_a_model_rejects_is_usage_error(tmp_path, capsys, model, extra, message):
    """Values that each pass their converter but not the model's constructor."""
    argv = ["train", "--dataset", "additive", "--model", model, "--horizon", "1",
            "--seeds", "0", "--out", str(tmp_path / "runs")]
    if extra is None:
        argv += ["--context", "8"]
    else:
        cfg = write_tiny_config(tmp_path, extra)
        argv += ["--config", cfg]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    if extra is not None:
        assert f"{cfg}: " in err
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
    csv_path = tmp_path / "mydata.csv"
    main(["gen-data", "--dataset", "additive", "--out", str(csv_path)])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY.replace("length=1024\n", "") + "target=C3\n")
    assert main(["train", "--config", str(cfg), "--dataset", str(csv_path),
                 "--model", "leaky", "--horizon", "1", "--seeds", "0",
                 "--out", str(tmp_path / "runs")]) == 0
    assert (tmp_path / "runs" / "mydata" / "leaky" / "revin_no"
            / "seed_0" / "result_96to1.txt").exists()


def test_csv_dataset_without_target_key_is_usage_error(tmp_path, capsys):
    csv_path = tmp_path / "mydata.csv"
    main(["gen-data", "--dataset", "additive", "--out", str(csv_path)])
    assert main(["train", "--dataset", str(csv_path), "--model", "leaky",
                 "--out", str(tmp_path / "runs")]) == 1
    assert "target" in capsys.readouterr().err


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
                 "--config", write_tiny_config(tmp_path)]) == 0
    out = dict(line.split("=", 1) for line in
               capsys.readouterr().out.strip().splitlines())
    assert float(out["test_mae"]) == float(record["test_mae"])
    assert float(out["test_mse"]) == float(record["test_mse"])


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
    assert f"{ckpt}: header key d_model: cannot read '16.0' as int" in capsys.readouterr().err


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


def test_eval_rejects_checkpoint_with_non_finite_weight(tmp_path, capsys):
    model = DLinearModel(96, 1)
    model.params["trend.b"].data[0] = np.nan
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model.config_header(), model.parameters())
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", "additive"]) == 2
    captured = capsys.readouterr()
    assert "test_mae" not in captured.out
    assert f"{ckpt}: entry 'trend.b' holds non-finite value nan" in captured.err


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
    ("l_ctx=96\n", "l_ctx=abc\n", "key l_ctx: cannot read 'abc' as int"),
    ("test_mae=0.5\n", "test_mae=abc\n", "key test_mae: cannot read 'abc' as float"),
    ("revin=no\n", "revin=maybe\n", "key revin: expected yes or no, got 'maybe'"),
    ("model=leaky\n", "model=transformer\n", "key model: unknown model id 'transformer'"),
], ids=["missing_key", "no_equals_sign", "int_key", "float_key", "revin_value", "model_value"])
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
