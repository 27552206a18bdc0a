"""Write reference.json: every operation's output digest at the default seed.

    python3 bench/make_reference.py

Run it only when an output is meant to change; the benchmark counts any
later mismatch at the default seed as a failed operation.  The grid's
criterion-9 CSV is also produced through ``run_experiment`` and
``emit_csv`` directly and must match the CLI's bytes.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import bench


def main() -> int:
    bench._import_package()
    from ldbounds.harness import emit_csv, parse_config, run_experiment

    import workloads

    reference = {}
    with tempfile.TemporaryDirectory(prefix="work-", dir=bench.BENCH_DIR) as workdir:
        for name, build in workloads.WORKLOADS.items():
            workload = build(workloads.DEFAULT_SEED, workdir, tiny=False)
            reference[name] = {op.name: op.check(op.run()) for op in workload.ops}
            print(name, "done", file=sys.stderr)

        path = os.path.join(workdir, "library.csv")
        emit_csv(run_experiment(parse_config(workloads.GRID_1D)).rows, path)
        with open(path, "rb") as fh:
            library_sha = workloads.sha256(fh.read())
        if library_sha != reference["grid"]["experiment_1d"]["csv_sha256"]:
            sys.exit("grid: CLI CSV differs from run_experiment's")

    with open(os.path.join(bench.BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
