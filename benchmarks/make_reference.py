"""Write ``reference.json``: the outputs every benchmark run is checked against.

For each workload and each data seed of the pool, this records what the
program computes: epoch-1 training MSE and final validation MSE per
trained model, and test MAE/MSE per evaluated checkpoint.  The file was
made at the commit that introduced the benchmark; a change that only
makes the program faster must keep matching it.  Run from the root of
the repository::

    python3 benchmarks/make_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

import bench


def main():
    bench.cap_blas_threads()
    bench.import_program()
    import workloads

    out = {}
    bench.WORK.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        out[name] = {}
        for seed in range(workloads.REFERENCE_POOL):
            workload = cls(seed, {})
            with tempfile.TemporaryDirectory(dir=bench.WORK) as tmp:
                workload.setup(tmp)
                out[name][str(seed)] = workload.outputs()
            print(f"{name} seed {seed}: {out[name][str(seed)]}", file=sys.stderr)
    workloads.REFERENCE_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
