"""Benchmark of the cgpt package, end to end and layer by layer.

Run one workload, as the benchmark contract does::

    python3 benchmarks/bench.py --workload c04-train --seed 0 --seconds 20 --trace 0

or every workload, untraced and traced, each in its own process, writing
all results to one file::

    python3 benchmarks/bench.py --seed 0 --out BENCH_label.json

Workloads are described in ``workloads.py`` and the traced layer metrics
in ``tracing.py``.  With ``--trace 0`` a run measures the end-to-end
metrics (tracing off); with ``--trace 1`` it measures per-layer metrics,
plus a short untraced stretch to report the tracing overhead.  Each run
prints human-readable lines and, last, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed call or
output check makes ``correct`` false and the exit code 1.

End-to-end metrics: ``setup_s`` is the median time to import cgpt in a
fresh interpreter plus the median of several set-ups (making the input,
``prepare_dataset``, building models or checkpoints); ``pass_s`` sums,
over the workload's models, the median seconds of one pass (see
``workloads.py``); ``peak_rss_mib`` is the process's peak resident memory.

cgpt is imported from ``src/`` of the checkout this file sits in, never
from an installed copy; without it the run exits non-zero and prints no result.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("c04-train", "wide-train", "eval-sweep")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
UNTRACED_SHARE = 1.0 / 3.0
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}


def cap_blas_threads():
    """Pin every BLAS/OpenMP thread pool to one thread, well under the CPUs
    this process may use.  The workloads' matrices are small, so extra BLAS
    threads do not speed them up; they only add run-to-run noise.

    Must run before numpy is imported.  Returns the cap.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_program():
    """Import cgpt from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cgpt
        import cgpt.cli  # noqa: F401 -- imports every module of the package
    except ImportError as err:
        raise SystemExit(f"bench: cannot import cgpt from {src}: {err}") from None
    if Path(cgpt.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"bench: cgpt imported from {cgpt.__file__}, not from {src}")


def import_seconds():
    """Median time a fresh interpreter takes to import cgpt (and numpy).

    Each import runs in its own process, so every sample pays the full
    cost a user pays, and the median damps page-cache and scheduling noise.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import cgpt.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src")],
                             capture_output=True, text=True, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def _git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, data_seed, blas_cap):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints its config and cannot return it
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cgpt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_cap": blas_cap,
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "data_seed": data_seed,
    }


def timing_summary(samples):
    """Median plus the highest percentile with at least ten samples beyond
    it; with fewer than twenty samples that is the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    for per_mille in (999, 990, 950, 900):
        if n * (1000 - per_mille) >= 10 * 1000:
            rank = -(-per_mille * n // 1000)  # nearest rank, ceil(p * n)
            return {"median": statistics.median(ordered), "n": n,
                    f"p{per_mille / 10:g}": ordered[rank - 1]}
    return {"median": statistics.median(ordered), "n": n, "max": ordered[-1]}


def measure(workload, checks, seconds, on_model=None):
    """Run whole passes until ``seconds`` have gone by (at least one).

    Returns {model: [seconds per pass]} and the number of passes.
    """
    per_model = {}
    passes = 0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < seconds:
        for name, s in workload.run_pass(checks, on_model).items():
            per_model.setdefault(name, []).append(s)
        passes += 1
    return per_model, passes


def pass_seconds(per_model):
    """Sum over models of each model's median seconds per pass."""
    return sum(statistics.median(v) for v in per_model.values())


def run_workload(name, seed, seconds, trace, blas_cap, import_s):
    import workloads
    from tracing import MODEL_LABELS, PASS, SETUP, Tracer

    workload = workloads.WORKLOADS[name](seed, workloads.load_reference())
    checks = workloads.Checks()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(workdir)
            setups.append(time.perf_counter() - t0)
        workload.warm_up()
        share = UNTRACED_SHARE if trace else 1.0
        untraced, passes = measure(workload, checks, seconds * share)
        result = {
            "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
            "env": environment(seed, workload.data_seed, blas_cap),
            "samples": {"import_s": import_s, "setup_s": setups, "pass_s_by_model": untraced},
        }
        pass_s = pass_seconds(untraced)
        if not trace:
            metrics = {
                "setup_s": import_s + statistics.median(setups),
                "pass_s": pass_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        else:
            tracer = Tracer()
            with tracer.installed():
                tracer.phase = SETUP
                workload.setup(workdir)
                tracer.phase = PASS
                traced, traced_passes = measure(
                    workload, checks, seconds * (1 - share),
                    on_model=lambda label: setattr(tracer, "model", label))
            metrics = tracer.layer_metrics(traced_passes, setups=1)
            metrics["trace.overhead"] = pass_seconds(traced) / pass_s
            for label in MODEL_LABELS:
                samples = untraced.get(label) if name != "eval-sweep" else None
                metrics[f"training.epoch_s.{label}"] = (
                    statistics.median(samples) if samples else 0.0)
            units = {m: layer_unit(m) for m in metrics}
            result["samples"]["traced_pass_s_by_model"] = traced
        result["passes"] = passes
        result["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
        result["checks"] = {"attempted": checks.attempted, "failures": checks.failures}
        report(result, workload, untraced, setups, import_s)
        return result
    finally:
        shutil.rmtree(workdir)


def layer_unit(metric):
    if any(part == "s" or part.endswith("_s") for part in metric.split(".")):
        return "s"
    if metric.endswith("out_mib_per_step"):
        return "MiB"
    if metric.endswith(".bytes"):
        return "B"
    if metric.startswith("trace."):
        return "ratio"
    return "count"


def report(result, workload, untraced, setups, import_s):
    """Human-readable lines: every end-to-end metric by name and unit."""
    checks = result["checks"]
    print(f"workload {result['workload']}  seed {result['seed']} "
          f"(data seed {workload.data_seed})  trace {result['trace']}  "
          f"{result['passes']} untraced passes")
    print("env " + json.dumps(result["env"], sort_keys=True))
    setup = timing_summary(setups)
    print(f"  setup_s        {import_s + setup['median']:.4f} s   import {import_s:.4f} s + "
          f"set-up median {setup['median']:.4f} s over n={setup['n']} {_tail(setup)}")
    totals = [sum(p) for p in zip(*untraced.values())]
    summary = timing_summary(totals) if totals else {"median": 0.0, "n": 0, "max": 0.0}
    pass_s = pass_seconds(untraced)
    print(f"  pass_s         {pass_s:.4f} s   sum of per-model medians; "
          f"whole passes: median {summary['median']:.4f} s over n={summary['n']} {_tail(summary)}")
    for model_name, samples in untraced.items():
        s = timing_summary(samples)
        print(f"    {model_name:<12} {s['median']:.4f} s   n={s['n']} {_tail(s)}")
    if result["workload"] == "eval-sweep":
        print(f"  eval_windows_per_s {workload.windows() / pass_s:.1f} windows/s   "
              f"{workload.windows()} test windows per pass")
    else:
        print(f"  train_epoch_s  {pass_s:.4f} s   (pass_s: one epoch of every model)")
    print(f"  peak_rss_mib   {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MiB")
    failed = len(checks["failures"])
    print(f"  error_rate     {failed}/{checks['attempted']} = "
          f"{failed / max(checks['attempted'], 1):.4f} failed/attempted")
    for failure in checks["failures"]:
        print(f"  FAILED {failure}")


def _tail(summary):
    key = next(k for k in summary if k not in ("median", "n"))
    return f"{key} {summary[key]:.4f} s"


def run_all(args):
    """Each workload in its own process, untraced then traced."""
    results = []
    status = 0
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name in WORKLOAD_NAMES:
            for trace in (0, 1):
                out = Path(tmp) / f"{name}-{trace}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", str(out)]
                proc = subprocess.run(cmd, check=False)
                status = status or proc.returncode
                if out.exists():
                    results.append(json.loads(out.read_text()))
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": results}, indent=1, sort_keys=True) + "\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per run (whole passes, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    blas_cap = cap_blas_threads()
    import_program()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          blas_cap, import_seconds())
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    failed = len(result["checks"]["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["checks"]["attempted"],
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
