"""Command-line front end: generate data, train models, tabulate results.

Subcommands::

    cgpt gen-data --dataset additive --seed 0 --out data/additive.csv
    cgpt train    --dataset additive --model leaky --context 96 --horizon 1 \
                  --revin no --seeds 0,1,2,3,4 --out runs/
    cgpt eval     --checkpoint runs/.../model_96to1.ckpt --dataset additive
    cgpt report   --results runs/ --experiment 2 --out table2.csv

``train`` and ``eval`` also accept ``--config FILE``; explicit flags
override file values.  Config files, records and checkpoint headers are
``key=value`` text (``checkpoint.parse``); a defect names the file and the
line or key.  Exit codes: 0 success, 1 usage error (a config file's too),
2 runtime failure.  The ``CGPT_DATA_DIR`` environment variable names the
directory holding real-world CSV files.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .baselines import DLinearModel, MlpBaseline
from .checkpoint import format, load_checkpoint, parse, read_value, save_checkpoint
from .datasets import (SplitPolicy, SyntheticConfig, generate_additive,
                       generate_interactive, load_csv, open_text, prepare_dataset)
from .model import CausalGraph, CgptModel, Variant, select_contexts
from .training import TrainConfig, evaluate, mean_std, result_record, run_seeds, train

# Model id -> class.  The classes turn a flat header of hyperparameters
# into a model (from_header) and back (config_header).
MODELS = {**{v.value: CgptModel for v in Variant},
          "dlinear": DLinearModel, "mlp": MlpBaseline}
MODEL_IDS = tuple(MODELS)
_KINDS = {cls.kind: cls for cls in MODELS.values()}

_GENERATORS = ("additive", "interactive")

# Real-world CSVs under CGPT_DATA_DIR: file name, the rule that picks the
# target column when the config file sets no ``target``, and split policy.
_REAL_CSVS = {
    "etth1": ("ETTh1.csv", "named 'OT'", lambda col: col == "OT",
              SplitPolicy.ETTH1_STANDARD),
    "factory": ("continuous_factory_process.csv",
                "containing 'Stage1.Output.Measurement0.U'",
                lambda col: "Stage1.Output.Measurement0.U" in col,
                SplitPolicy.RATIO_70_20_10),
    "amino": ("amino_emissions.csv", "starting with '2-Amino'",
              lambda col: col.startswith("2-Amino"), SplitPolicy.RATIO_70_20_10),
}


class UsageError(argparse.ArgumentTypeError, ValueError):
    """Bad invocation (flags, config file, ids); exit code 1.  argparse names
    the flag whose converter raised it, and ``read_value`` keeps its message."""


@dataclass
class ExperimentSpec:
    """One resolved experiment; fields other than ``options`` are train flags."""

    dataset: str
    model: str
    context: int = 96
    horizon: int = 96
    revin: bool = False
    seeds: tuple = (0, 1, 2, 3, 4)
    out: str = "out"
    overwrite: bool = False
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------- config file

def _integer(text):
    """The int ``str`` writes as ``text`` (``int`` also takes '٩٦', '+7', '096')."""
    try:
        if str(int(text)) == text:
            return int(text)
    except ValueError:  # not an integer, or more digits than int converts
        pass
    raise UsageError(f"cannot parse {text!r}")


def _parse_seeds(text):
    try:
        seeds = tuple(_integer(part) for part in text.split(","))
    except UsageError as err:
        raise UsageError(f"seed list {text!r}: {err}") from None
    for seed, count in Counter(seeds).items():
        if seed < 0:
            raise UsageError(f"seed list {text!r}: negative seed {seed}")
        if seed >= 2 ** 63:  # training keys numpy's Philox with int64 [seed, epoch]
            raise UsageError(f"seed list {text!r}: seed {seed} is not below 2**63")
        if count > 1:
            raise UsageError(f"seed list {text!r}: seed {seed} is repeated")
    return seeds


def _checked(convert, accept, expected):
    """A converter: ``convert(text)``, a UsageError unless ``accept`` takes it."""
    def checked(text):
        value = convert(text)
        if not accept(value):
            raise UsageError(f"expected {expected}, got {text!r}")
        return value
    checked.__name__ = convert.__name__  # argparse says "invalid float value: 'x'"
    return checked


_parse_yes_no = _checked({"yes": True, "no": False}.get, lambda v: v is not None, "yes or no")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a finite number above 0")
_positive_int = _checked(_integer, lambda v: v >= 1, "an integer of at least 1")
_seed = _checked(_integer, lambda v: 0 <= v < 2 ** 128,  # numpy's Philox takes keys in this range
                 "a seed from 0 to 2**128 - 1")


def _model_id(text):
    if text not in MODELS:
        raise UsageError(f"unknown model id {text!r}; valid ids: {', '.join(MODEL_IDS)}")
    return text


# Config keys that size a model; each model kind reads only some of them.
_MODEL_KEYS = ("d_model", "d_ff", "n_heads", "e_layers", "patch_len", "stride", "n_p_max",
               "kernel", "hidden")
# Keys a config file may set, each with the converter for its value.  The
# first group mirrors the train flags, which override it; the rest set data
# loading, model and training options that have no flag.
_CONVERTERS = {
    "dataset": str, "model": _model_id, "context": _positive_int, "horizon": _positive_int,
    "revin": _parse_yes_no, "seeds": _parse_seeds, "out": str,
    "data_seed": _seed, "length": _positive_int, "target": str,
    **dict.fromkeys(_MODEL_KEYS, _positive_int),
    "lr": _positive_float, "batch": _positive_int, "max_epochs": _positive_int,
    "patience": _positive_int,
}
_CONFIG_KEYS = frozenset(_CONVERTERS)
# Keys only checkpoint headers and result records hold.
_CONVERTERS.update(l_ctx=_positive_int, h_pred=_positive_int, n_vars=_positive_int,
                   test_mae=float, test_mse=float)


def _parse_file(path, where, error, read=None):
    """``parse`` of the UTF-8 text file at ``path`` (``open_text``); each
    defect raises ``error``."""
    try:
        with open_text(path) as fh:
            text = fh.read()
        return parse(text, where, read)
    except ValueError as err:
        raise error(err) from None


def read_config(path):
    """Config file -> dict of converted values, for the keys in
    ``_CONFIG_KEYS``; every defect is a UsageError naming the file."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")

    def read(key, text, lineno):
        where = f"{path}:{lineno}: "
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{where}unknown key {key!r}; "
                             f"valid keys: {', '.join(sorted(_CONFIG_KEYS))}")
        return read_value(where + "config ", key, text, _CONVERTERS[key], UsageError)

    return _parse_file(path, f"{path}:", UsageError, read)


def _read_stored(values, where):
    """A header's or record's ``values``, each key ``_CONVERTERS`` holds
    converted; a rejected value is a ValueError naming ``where`` and the key."""
    return {key: read_value(where, key, text, _CONVERTERS[key]) if key in _CONVERTERS
            else text for key, text in values.items()}


def build_spec(args):
    """Merge config file and flags (flags win) into an ExperimentSpec."""
    values = read_config(args.config) if args.config else {}
    spec_keys = {f.name for f in fields(ExperimentSpec)}
    values.update((k, v) for k, v in vars(args).items() if k in spec_keys and v is not None)
    for key in ("dataset", "model"):
        if key not in values:
            raise UsageError(f"no {key} given; pass --{key} or set it in the config file")
    spec = {k: values.pop(k) for k in spec_keys & values.keys()}
    return ExperimentSpec(**spec, options=values)


def _pick(options, **keys):
    """{name: options[key]} for each name=key pair whose key is set."""
    return {name: options[key] for name, key in keys.items() if options.get(key) is not None}


# ------------------------------------------------------------------ datasets

def _data_dir():
    return Path(os.environ.get("CGPT_DATA_DIR", "."))


def _first_column(path, predicate, description):
    with open_text(path) as fh:
        header = next(csv.reader(fh), [])
    for col in header:
        if predicate(col):
            return col
    raise ValueError(f"{path}: no column {description}")


def _csv_path(dataset_id):
    """The file a ``.csv`` dataset id names: the path itself, else that
    path under CGPT_DATA_DIR."""
    path = Path(dataset_id)
    return path if path.exists() else _data_dir() / dataset_id


def _sidecar_path(csv_path):
    return csv_path.with_name(csv_path.stem + ".graph.txt")


def _load_graph_sidecar(csv_path, channel_names):
    """Optional '<stem>.graph.txt' next to a CSV: one 'NAME->NAME' edge per
    line, in UTF-8 (``open_text``)."""
    sidecar = _sidecar_path(csv_path)
    if not sidecar.exists():
        return None
    with open_text(sidecar) as fh:
        text = fh.read()
    index = {name: i for i, name in enumerate(channel_names)}
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if "->" not in stripped:
            raise ValueError(f"{sidecar}:{lineno}: expected CAUSE->EFFECT, got {stripped!r}")
        cause, _, effect = stripped.partition("->")
        cause, effect = cause.strip(), effect.strip()
        for name in (cause, effect):
            if name not in index:
                raise ValueError(f"{sidecar}:{lineno}: unknown channel {name!r}")
        if cause == effect:
            raise ValueError(f"{sidecar}:{lineno}: self-loop on channel {cause!r}")
        edges.append((index[cause], index[effect]))
    return CausalGraph.from_edges(edges)


def resolve_dataset(dataset_id, options=None):
    """Map a dataset id (or .csv path) to a loaded dataset and split policy.

    Registry ids: additive, interactive (generated), etth1, factory, amino
    (CSV files under CGPT_DATA_DIR).  Anything ending in .csv is loaded
    directly; its target column comes from the ``target`` config key and a
    ``<stem>.graph.txt`` sidecar is honoured when present.  A generator
    fixes its target, so a ``target`` key must name that channel.
    """
    options = dict(options or {})
    ratio = SplitPolicy.RATIO_70_20_10

    if dataset_id in _GENERATORS:
        cfg = SyntheticConfig(**_pick(options, length="length", seed="data_seed"))
        # looked up by module-level name when called, so that a rebinding of
        # the name (a tracer, a test) is the function that runs
        generate = generate_additive if dataset_id == "additive" else generate_interactive
        dataset = generate(cfg)
        target = dataset.channel_names[dataset.target]
        if options.get("target", target) != target:
            raise UsageError(f"dataset {dataset_id}: config key target={options['target']} "
                             f"cannot be set; the generator's target is {target}")
        return dataset, ratio

    if dataset_id in _REAL_CSVS:
        file_name, description, is_target, policy = _REAL_CSVS[dataset_id]
        path = _data_dir() / file_name
        target = options.get("target")
        if target is None and path.exists():
            target = _first_column(path, is_target, description)
        return load_csv(path, target=target, name=dataset_id), policy

    if dataset_id.endswith(".csv"):
        path = _csv_path(dataset_id)
        target = options.get("target")
        if target is None:
            raise UsageError(f"dataset {dataset_id}: a CSV dataset needs a "
                             "'target=COLUMN' entry in the config file")
        dataset = load_csv(path, target=target, name=path.stem)
        graph = _load_graph_sidecar(path, dataset.channel_names)
        if graph is not None:
            dataset = replace(dataset, graph=graph)
        return dataset, ratio

    known = ", ".join([*_GENERATORS, *_REAL_CSVS])
    raise UsageError(f"unknown dataset id {dataset_id!r}; "
                     f"valid ids: {known}, or a path to a .csv file")


# -------------------------------------------------------------------- models

def build_model(spec, n_vars, seed):
    """The model ``spec`` names; a model key it does not read is a UsageError."""
    header = dict(spec.options, variant=spec.model, l_ctx=spec.context,
                  h_pred=spec.horizon, n_vars=n_vars)
    model = MODELS[spec.model].from_header(header, seed=seed)
    unread = [k for k in _MODEL_KEYS if k in spec.options and k not in model.config_header()]
    if unread:
        raise UsageError(f"{spec.model} does not read key {', '.join(unread)}")
    return model


def model_from_checkpoint(header, arrays):
    """Rebuild a model from a checkpoint's config header and its weights.

    The header must describe the model completely: every key the rebuilt
    model would write has to be present with the same value.  The model
    draws no weights of its own; it adopts ``arrays``.
    """
    cls = _KINDS.get(header.get("kind"))
    if cls is None:
        raise ValueError(f"checkpoint names unknown model kind {header.get('kind')!r}")
    model = cls.from_header(_read_stored(header, "header "), seed=None)
    problems = [f"{key} missing" if key not in header else
                f"{key}={header[key]} rebuilds as {value}"
                for key, value in model.config_header().items()
                if key not in header or str(header[key]) != str(value)]
    if problems:
        raise ValueError(f"checkpoint header does not describe a {cls.kind} model: "
                         + "; ".join(problems))
    try:
        model.load_arrays(arrays)
    except ValueError as err:
        sizes = ", ".join(f"{k}={v}" for k, v in model.config_header().items())
        raise ValueError(f"the arrays do not fit {sizes}: {err}") from None
    return model


# --------------------------------------------------------------- subcommands

def _write_atomic(path, write):
    """Run ``write`` on a temporary file beside ``path``, then move it into
    place, so ``path`` is either absent or complete."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv_atomic(path, rows, blocks=()):
    """Write ``rows`` through csv.writer, then each block of CSV text as it
    is, to ``path``, atomically."""
    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
            for block in blocks:
                fh.write(block)

    _write_atomic(path, write)


_CSV_BLOCK_ROWS = 1024


def cmd_gen_data(args):
    dataset, _ = resolve_dataset(args.dataset, {"length": args.length, "data_seed": args.seed})

    # csv.writer writes a float as its repr, and no float needs quoting, so
    # %r and csv's \r\n give its exact bytes at the cost of one repr per
    # value.  Rows go in blocks, so that only one block's Python floats
    # exist at a time, not the whole table's.
    out = Path(args.out)
    row = ",".join(["%r"] * dataset.n_channels) + "\r\n"
    blocks = (dataset.values[lo:lo + _CSV_BLOCK_ROWS]
              for lo in range(0, dataset.length, _CSV_BLOCK_ROWS))
    _write_csv_atomic(out, [dataset.channel_names],
                      (row * len(block) % tuple(block.ravel().tolist()) for block in blocks))

    sidecar = out.with_name(out.stem + ".graph.txt")
    names = dataset.channel_names
    edges = sorted(dataset.graph.edges)
    text = "".join(f"{names[c]}->{names[e]}\n" for c, e in edges)
    _write_atomic(sidecar, lambda path: path.write_text(text))

    print(f"wrote {out} ({dataset.length} rows, {dataset.n_channels} channels)")
    print(f"wrote {sidecar} ({len(edges)} edges)")
    return 0


def _prepared_dataset(dataset_id, options, l_ctx, h_pred):
    """The dataset ``dataset_id`` names, split and standardized.  Its raw
    values die with this frame, so only the standardized copy stays live."""
    dataset, policy = resolve_dataset(dataset_id, options)
    prepared, _ = prepare_dataset(dataset, policy, l_ctx, h_pred)
    return prepared


def _require_contexts(variant, dataset, dataset_id):
    """A ``pure`` model reads only the target's contexts, so a dataset that
    gives its target none is an error before any epoch or batch runs."""
    if variant != Variant.PURE_INFLUENCE.value or select_contexts(
            dataset.graph, dataset.target, range(dataset.n_channels)):
        return
    target = dataset.channel_names[dataset.target]
    # only a sidecar gives a graph in which the target has no parent
    why = (f"dataset {dataset.name} has no channel besides target {target!r}"
           if dataset.graph is None else
           f"{_sidecar_path(_csv_path(dataset_id))} gives target {target!r} no parent")
    raise ValueError(f"pure needs at least one context channel, but {why}")


_REVIN_MIN_CONTEXT = 2  # RevIN takes each window's mean and stdev over the context


def cmd_train(args):
    spec = build_spec(args)
    if spec.revin and spec.context < _REVIN_MIN_CONTEXT:
        raise UsageError(f"--context/context {spec.context} with --revin/revin yes: RevIN "
                         f"needs a context of at least {_REVIN_MIN_CONTEXT} steps")
    prepared = _prepared_dataset(spec.dataset, spec.options, spec.context, spec.horizon)
    _require_contexts(spec.model, prepared, spec.dataset)

    task = f"{spec.context}to{spec.horizon}"
    revin_dir = "revin_yes" if spec.revin else "revin_no"
    out_root = Path(spec.out) / prepared.name / spec.model / revin_dir
    seed_dirs = {seed: out_root / f"seed_{seed}" for seed in spec.seeds}

    # A record is written last, so it alone marks a finished run; a seed
    # dir holding only a checkpoint is what a crashed run leaves behind.
    blockers = [d / f"result_{task}.txt" for d in seed_dirs.values()
                if (d / f"result_{task}.txt").exists()]
    if blockers and not spec.overwrite:
        raise RuntimeError(
            f"output already exists: {blockers[0]}"
            + (f" (and {len(blockers) - 1} more)" if len(blockers) > 1 else "")
            + "; pass --overwrite to replace it")

    train_options = _pick(spec.options, lr="lr", batch_size="batch",
                          max_epochs="max_epochs", patience="patience")
    meta = {
        "dataset": prepared.name,
        "model": spec.model,
        "revin": "yes" if spec.revin else "no",
        "l_ctx": spec.context,
        "h_pred": spec.horizon,
    }

    def run_one(seed):
        try:
            model = build_model(spec, prepared.n_channels, seed)
        except ValueError as err:
            where = f"{args.config}: " if args.config else ""
            raise UsageError(f"{where}invalid {spec.model} configuration: {err}") from None
        cfg = TrainConfig(seed=seed, revin=spec.revin, **train_options)
        result = train(model, prepared, cfg)
        seed_dir = seed_dirs[seed]
        header = dict(model.config_header())
        header.update(dataset=prepared.name, revin=meta["revin"], seed=seed,
                      batch=cfg.batch_size)
        _write_atomic(seed_dir / f"model_{task}.ckpt",
                      lambda path: save_checkpoint(path, header, dict(model.parameters())))
        record = result_record(result, meta)
        _write_atomic(seed_dir / f"result_{task}.txt", lambda path: path.write_text(record))
        print(f"seed {seed}: test_mae={result.test_mae:.6f} "
              f"test_mse={result.test_mse:.6f} "
              f"(best epoch {result.best_epoch}/{result.epochs_run})")
        return result

    summary = run_seeds(run_one, spec.seeds)
    print(f"{prepared.name}/{spec.model}/{revin_dir} {task}: "
          f"mae {summary['mae_mean']:.4f} ± {summary['mae_std']:.4f}, "
          f"mse {summary['mse_mean']:.4f} ± {summary['mse_std']:.4f} "
          f"over {summary['n_seeds']} seed(s)")
    return 0


def _checkpoint_model(path):
    """(model, read header values) of the checkpoint at ``path``.  The model
    adopts the checkpoint's arrays, so the weights are held once."""
    header, arrays = load_checkpoint(path)
    try:
        return model_from_checkpoint(header, arrays), _read_stored(header, "header ")
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _test_rows(dataset_id, options, l_ctx, h_pred):
    """(rows, split): a copy of the rows the test windows read, which are
    the test split and the ``l_ctx`` rows of context before it, and the test
    split's row range within that copy.  The rest of the prepared dataset
    dies with this frame."""
    prepared = _prepared_dataset(dataset_id, options, l_ctx, h_pred)
    start, end = prepared.borders[2]
    lo = max(start - l_ctx, 0)
    rows = replace(prepared, values=prepared.values[lo:end].copy(), borders=None)
    return rows, (start - lo, end - lo)


def cmd_eval(args):
    options = read_config(args.config) if args.config else {}
    model, stored = _checkpoint_model(args.checkpoint)
    revin = stored.get("revin", False) if args.revin is None else args.revin
    if revin and model.l_ctx < _REVIN_MIN_CONTEXT:
        raise ValueError(f"{args.checkpoint}: header key l_ctx={model.l_ctx} is too short for "
                         f"revin, which needs a context of at least {_REVIN_MIN_CONTEXT} steps")
    rows, split = _test_rows(args.dataset, options, model.l_ctx, model.h_pred)
    _require_contexts(stored.get("variant"), rows, args.dataset)

    # the batch size sets the order of the error sums, so score at the run's:
    # the config file's, else the one the checkpoint records
    mae, mse = evaluate(model, rows, split,
                        options.get("batch", stored.get("batch", TrainConfig.batch_size)), revin)
    print(format({"test_mae": repr(mae), "test_mse": repr(mse)}), end="")
    return 0


# --------------------------------------------------------------------- report

_EXPERIMENT_TASKS = {1: ((96, 96),), 2: ((96, 1),), 3: ((96, 96), (96, 1))}


def _collect_records(results_dir):
    """Every record under ``results_dir``, checked for the keys report_rows reads."""
    root = Path(results_dir)
    records = []
    for path in sorted(root.rglob("result_*.txt")):
        record = _parse_file(path, f"{path}: line ", ValueError)
        stored = _read_stored(record, f"{path}: ")
        for key in ("dataset", "model", "revin", "l_ctx", "h_pred", "test_mae", "test_mse"):
            if key not in stored:
                raise ValueError(f"{path}: key {key} missing")
            if isinstance(stored[key], float) and not math.isfinite(stored[key]):
                raise ValueError(f"{path}: {key}={record[key]} is not finite")
        records.append(record)
    if not records:
        raise RuntimeError(f"no result_*.txt records found under {root}")
    return records


def report_rows(records, experiment):
    """Aggregate parsed records into the rows of one experiment table.

    Rows cover the full grid (task x dataset x model x revin) spanned by
    the matching records; cells without runs read "missing".  Experiment 3
    is restricted to the pairwise variants and gains a trailing column
    with the PureInfluence/LeakyPairwise MSE ratio.
    """
    tasks = _EXPERIMENT_TASKS[experiment]
    models = ("leaky", "strict", "pure") if experiment == 3 else MODEL_IDS

    groups = {}
    for rec in records:
        task = (int(rec["l_ctx"]), int(rec["h_pred"]))
        if task not in tasks or rec["model"] not in models:
            continue
        key = (task, rec["dataset"], rec["model"], rec["revin"])
        groups.setdefault(key, []).append(
            (float(rec["test_mae"]), float(rec["test_mse"])))
    if not groups:
        raise RuntimeError(f"no records match experiment {experiment} "
                           f"(tasks {tasks}, models {models})")

    datasets = sorted({key[1] for key in groups})
    revins = [r for r in ("no", "yes") if any(key[3] == r for key in groups)]

    stats = {}
    for key, pairs in groups.items():
        mae_mean, mae_std = mean_std([p[0] for p in pairs])
        mse_mean, mse_std = mean_std([p[1] for p in pairs])
        stats[key] = (mae_mean, mae_std, mse_mean, mse_std)

    rows = []
    for task in tasks:
        for dataset in datasets:
            for model in models:
                for revin in revins:
                    row = [dataset, model, revin, str(task[0]), str(task[1])]
                    cell = stats.get((task, dataset, model, revin))
                    if cell is None:
                        row += ["missing"] * 4
                    else:
                        row += [f"{v:.4f}" for v in cell]
                    if experiment == 3:
                        row.append(_pure_to_leaky(stats, task, dataset, revin)
                                   if model == "pure" else "")
                    rows.append(row)
    return rows


def _pure_to_leaky(stats, task, dataset, revin):
    pure = stats.get((task, dataset, "pure", revin))
    leaky = stats.get((task, dataset, "leaky", revin))
    if pure is None or leaky is None or leaky[2] == 0.0:
        return "missing"
    return f"{pure[2] / leaky[2]:.2f}"


def cmd_report(args):
    records = _collect_records(args.results)
    rows = report_rows(records, args.experiment)

    header = ["dataset", "model", "revin", "context", "horizon",
              "mae_mean", "mae_std", "mse_mean", "mse_std"]
    if args.experiment == 3:
        header.append("pure_to_leaky_mse")

    out = Path(args.out)
    _write_csv_atomic(out, [header, *rows])
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------- entry point

class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as exceptions, not sys.exit(2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="cgpt",
                     description="Forecasting experiments with causally "
                                 "guided pairwise channel mixing.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    gen = sub.add_parser("gen-data", help="write a synthetic dataset to CSV")
    gen.add_argument("--dataset", required=True, choices=_GENERATORS)
    gen.add_argument("--seed", type=_seed, help="generator seed (default 0)")
    gen.add_argument("--length", type=_positive_int, help="rows to generate (default 6144)")
    gen.add_argument("--out", required=True, help="CSV output path")
    gen.set_defaults(run=cmd_gen_data)

    tr = sub.add_parser("train", help="train one model over several seeds")
    tr.add_argument("--config", help="flat key=value experiment file")
    tr.add_argument("--dataset", help="dataset id or .csv path")
    tr.add_argument("--model", choices=MODEL_IDS)
    tr.add_argument("--context", type=_positive_int, help="history length (default 96)")
    tr.add_argument("--horizon", type=_positive_int, help="forecast length (default 96)")
    tr.add_argument("--revin", type=_parse_yes_no, metavar="{yes,no}")
    tr.add_argument("--seeds", type=_parse_seeds,
                    help="comma-separated list, default 0,1,2,3,4")
    tr.add_argument("--out", help="results root directory (default out)")
    tr.add_argument("--overwrite", action="store_true",
                    help="replace existing results/checkpoints")
    tr.set_defaults(run=cmd_train)

    ev = sub.add_parser("eval", help="score a saved checkpoint on a test split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True, help="dataset id or .csv path")
    ev.add_argument("--revin", type=_parse_yes_no, metavar="{yes,no}",
                    help="override the setting stored in the checkpoint")
    ev.add_argument("--config", help="key=value file; only data_seed, length, "
                                     "target and batch are used")
    ev.set_defaults(run=cmd_eval)

    rep = sub.add_parser("report", help="aggregate result records into a CSV table")
    rep.add_argument("--results", required=True, help="directory to scan")
    rep.add_argument("--experiment", type=int, required=True, choices=(1, 2, 3))
    rep.add_argument("--out", required=True, help="CSV table path")
    rep.set_defaults(run=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as err:
        print(f"cgpt: error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 -- CLI boundary maps failures to exit 2
        print(f"cgpt: error: {err}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
