"""Benchmark for the ldbounds package: one workload per run.

    python3 bench/bench.py --workload grid --seed 0 --seconds 40 --trace 0

Run from a source checkout; the package is imported from its ``src``
directory.  The workload's operation list is repeated while another
repetition fits in ``--seconds``, and each timing is the median over
repetitions.  ``setup_s`` is the median of five set-ups, each a fresh
interpreter's import of the package plus the workload's input generation.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the per-repetition times and every failed check.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` repetitions alternate untraced and traced, the metrics are
the per-layer ones from the traced repetitions, and ``trace.overhead_s``
is the traced minus the untraced median wall time.
"""

from __future__ import annotations

import os
import time

# One BLAS/OpenMP thread, never more than nproc: the load is this single
# process, and OpenBLAS would otherwise choose its own thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ldbounds.cli; "
    "print(time.perf_counter() - t)"
)


def _import_package():
    """Import ldbounds from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC_DIR, "ldbounds", "__init__.py")):
        sys.exit(f"bench: no ldbounds package under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    import ldbounds

    if os.path.dirname(os.path.dirname(os.path.abspath(ldbounds.__file__))) != SRC_DIR:
        sys.exit(f"bench: ldbounds imported from {ldbounds.__file__}, not {SRC_DIR}")


def _import_seconds() -> float:
    """Time a fresh interpreter takes to import the package."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=SRC_DIR),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=["grid", "separation", "codec"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs for the smoke test; no reference checks")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Runner:
    """Runs repetitions of a workload's operation list and checks them."""

    def __init__(self, workload, reference, tracer):
        self.workload = workload
        self.reference = reference  # None unless at the default seed
        self.tracer = tracer
        self.digests: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def repetition(self, traced: bool) -> tuple[dict[int, float], float]:
        """One pass over the operations: (phase -> seconds, total seconds)."""
        from workloads import CheckFailed, compare  # needs src on sys.path

        phases = {1: 0.0, 2: 0.0}
        total = 0.0
        for op in self.workload.ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                if traced:
                    self.tracer.active = True
                    try:
                        result = self.tracer.call(tracing.ROOT_SPAN, op.run, (), {})
                    finally:
                        self.tracer.active = False
                else:
                    result = op.run()
            except Exception:
                self.failures.append(f"{op.name}: raised\n{traceback.format_exc()}")
                continue
            finally:
                elapsed = time.perf_counter() - start
                phases[op.phase] += elapsed
                total += elapsed
            try:
                digest = op.check(result)
            except CheckFailed as exc:
                self.failures.append(f"{op.name}: {exc}")
                continue
            problems = []
            if op.name in self.digests:
                problems = [f"not repeatable, {p}"
                            for p in compare(digest, self.digests[op.name])]
            else:
                self.digests[op.name] = digest
            if self.reference is not None:
                problems += compare(digest, self.reference.get(op.name, {}))
            if problems:
                self.failures.append(f"{op.name}: " + "; ".join(problems))
        return phases, total


def _measure(runner: Runner, seconds: float, trace: bool) -> tuple[list, dict]:
    """Repeat while another repetition fits in `seconds`.

    Traced runs alternate untraced and traced repetitions, at least one of
    each.
    """
    reps = []
    layers = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        traced = trace and len(reps) % 2 == 1
        if traced:
            runner.tracer.install()
            try:
                first = runner.tracer.mark()
                phases, total = runner.repetition(traced=True)
            finally:
                runner.tracer.uninstall()
            layers.append(runner.tracer.layer_metrics(first, total))
        else:
            phases, total = runner.repetition(traced=False)
        reps.append({"traced": traced, "phase1_s": phases[1], "phase2_s": phases[2],
                     "total_s": total})
        now = time.perf_counter()
        if now + (now - started) > deadline and (not trace or len(reps) >= 2):
            break
    per_layer = {}
    if trace:
        per_layer = tracing.median_metrics(layers)
        plain = statistics.median(r["total_s"] for r in reps if not r["traced"])
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - plain
        for layer in layers:
            # every operation runs inside a root span, so self times must
            # account for the traced wall time up to the tracer's own cost
            runner.attempted += 1
            gap = abs(layer["trace.wall_s"] - layer["trace.self_sum_s"])
            if gap > max(abs(per_layer["trace.overhead_s"]), 1e-3):
                runner.failures.append(
                    f"trace: self times sum to {layer['trace.self_sum_s']} s, "
                    f"wall {layer['trace.wall_s']} s")
    return reps, per_layer


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    import workloads

    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        reference_all = json.load(fh)
    use_reference = args.seed == workloads.DEFAULT_SEED and not args.tiny
    reference = reference_all[args.workload] if use_reference else None

    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as workdir:
        # each set-up: a fresh interpreter's import, then input generation
        setups = []
        for k in range(SETUP_REPEATS):
            sub = os.path.join(workdir, f"setup{k}")
            os.mkdir(sub)
            imports_s = _import_seconds()
            start = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, sub, args.tiny)
            setups.append(imports_s + time.perf_counter() - start)
        setup_s = statistics.median(setups)

        runner = Runner(workload, reference, tracing.Tracer())
        reps, per_layer = _measure(runner, args.seconds, bool(args.trace))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = [r for r in reps if not r["traced"]]
    phase1 = statistics.median(r["phase1_s"] for r in plain)
    phase2 = statistics.median(r["phase2_s"] for r in plain)
    failed = len(runner.failures)  # at most one per attempted operation
    error_rate = failed / runner.attempted
    name1, name2 = workload.phase_names
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "reference_checked": use_reference,
        "tiny": args.tiny,
        "trace": args.trace,
        "env": _environment(),
        "repetitions": reps,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "error_rate": {"value": error_rate, "unit": "fraction"},
            name1: {"value": phase1, "unit": "s"},
            name2: {"value": phase2, "unit": "s"},
        },
        "failures": runner.failures,
    }
    if args.trace:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "phase1_s": {"value": phase1, "unit": "s"},
            "phase2_s": {"value": phase2, "unit": "s"},
        }
    print(json.dumps(detail))
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
