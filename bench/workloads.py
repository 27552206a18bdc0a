"""The benchmark's workloads: inputs made from a seed, timed operations, checks.

Every workload is a fixed list of operations driven through the package's
public entry points: ``ldbounds.cli.main`` in-process, and library calls
where the CLI has no command.  Each operation belongs to one of two
phases, whose summed wall times are the workload's two timed metrics.

An operation's ``check`` runs outside the timed region.  It raises
``CheckFailed`` when an invariant that holds at every seed is broken, and
otherwise returns a digest of the output.  At the default seed the digest
is compared with ``reference.json``; at any seed it must repeat exactly
from one repetition to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ldbounds import cli, norms
from ldbounds.bounds import covering_count_log2
from ldbounds.data import GridSpec, quantize, sample_uniform, save_csv
from ldbounds.harness import CSV_HEADER
from ldbounds.queryfn import OpKind
from ldbounds.rng import mix64

DEFAULT_SEED = 0

# Digest keys compared with a relative tolerance instead of exactly.  Each is
# a float sum whose terms a later change may add in another order: with at
# most ~1e7 terms of one sign the rounding drift is below 1e7 * 2**-53 ~ 1e-9
# relative, while any real change to a value moves it far more.  The rs
# rows of the 2-d grid get the same tolerance: range sums may move by
# summation order (1e-12 relative per answer), and training plus Monte
# Carlo averaging carry such a perturbation through without amplifying it
# by more than a few orders of magnitude.
REL_TOL = {
    "min_observed": 1e-9,
    "card1d_l1": 1e-9,
    "mc_l1": 1e-9,
    "mc_l1_se": 1e-9,
    "rs_observed_err": 1e-9,
}


class CheckFailed(Exception):
    """An operation's output broke an invariant or its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    phase: int  # 1 or 2
    run: Callable[[], object]
    check: Callable[[object], dict]


@dataclass
class Workload:
    phase_names: tuple[str, str]  # the two timed metrics, as named in the README
    ops: list[Op]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, dict | None]:
    """ldbounds.cli.main in-process; returns (exit code, printed JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue().strip()
    return code, (json.loads(text) if text else None)


def cli_doc(result) -> dict:
    code, doc = result
    require(code == 0 and doc is not None, f"ldbounds exited with code {code}")
    return doc


def compare(digest: dict, reference: dict) -> list[str]:
    """Mismatches between a digest and its reference, tolerances applied."""
    problems = []
    for key in sorted(set(digest) | set(reference)):
        got, want = digest.get(key), reference.get(key)
        tol = REL_TOL.get(key)
        if tol is None or got is None or want is None:
            ok = got == want
        else:
            g, w = np.atleast_1d(got), np.atleast_1d(want)
            ok = g.shape == w.shape and bool(np.all(np.abs(g - w) <= tol * np.abs(w)))
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


# -- grid: the experiment runs users wait for --------------------------------

# The acceptance-test (criterion 9) experiment config; at the default seed
# the benchmark runs it unchanged.
GRID_1D = {
    "ops": ["index", "ce"],
    "norms": ["l1", "linf"],
    "distributions": [
        {"kind": "uniform"},
        {"kind": "gmm", "name": "gmm2",
         "components": [[0.25, 0.05, 0.5], [0.75, 0.1, 0.5]]},
    ],
    "n_values": [1000, 10_000],
    "d": 1,
    "models": ["linear", "nn-s1", "sample"],
    "train": {"steps": 1000, "batch": 64, "lr": 0.05, "momentum": 0.9},
    "eval": {"samples": 2048, "grid": 4},
    "master_seed": 99,
}

# ce at d = 2 has two predicate axes, rs at d = 2 has one.  Sized down from
# n = 1e4 and 1000 steps, which takes minutes, to about a third of the 1-d
# grid's time.
GRID_2D = {
    "ops": ["ce", "rs"],
    "norms": ["l1", "linf"],
    "distributions": [{"kind": "uniform"}],
    "n_values": [1000],
    "d": 2,
    "models": ["linear", "nn-s1", "sample"],
    "train": {"steps": 150, "batch": 64, "lr": 0.05, "momentum": 0.9},
    "eval": {"samples": 2048, "grid": 4},
    "master_seed": 7,
}


def _tiny_config(config: dict) -> dict:
    return dict(config, n_values=[200],
                train=dict(config["train"], steps=20),
                eval={"samples": 256, "grid": 2})


def _experiment_op(name: str, phase: int, config: dict, workdir: str) -> Op:
    cfg_path = os.path.join(workdir, f"{name}.json")
    csv_path = os.path.join(workdir, f"{name}.csv")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    cells = (len(config["ops"]) * len(config["norms"]) * len(config["distributions"])
             * len(config["n_values"]) * len(config["models"]))

    def check(result) -> dict:
        doc = cli_doc(result)
        require(doc["rows"] == cells and doc["failed_cells"] == 0,
                f"{doc['rows']} rows and {doc['failed_cells']} failed cells, "
                f"expected {cells} rows")
        with open(csv_path, "rb") as fh:
            data = fh.read()
        lines = data.decode().rstrip("\n").split("\n")
        require(lines[0] == CSV_HEADER and len(lines) == cells + 1, "malformed CSV")
        fixed, rs_err = [], []
        for line in lines[1:]:
            fields = line.split(",")
            require(len(fields) == 11 and fields[10] in ("true", "false"),
                    f"malformed row {line!r}")
            err, eps = float(fields[7]), float(fields[8])
            require(math.isfinite(err) and err >= 0.0 and eps > 0.0,
                    f"bad error or eps* in {line!r}")
            if fields[0] == "rs":
                rs_err.append(err)
                fields[7] = ""
                fixed.append(",".join(fields))
        if not rs_err:
            return {"csv_sha256": sha256(data)}
        ce_rows = [line for line in lines if not line.startswith("rs,")]
        return {
            "ce_sha256": sha256("\n".join(ce_rows).encode()),
            "rs_fixed_sha256": sha256("\n".join(fixed).encode()),
            "rs_observed_err": rs_err,
        }

    argv = ["experiment", "--config", cfg_path, "--out", csv_path]
    return Op(name, phase, lambda: run_cli(argv), check)


def grid(seed: int, workdir: str, tiny: bool) -> Workload:
    ops = []
    for phase, (name, config) in enumerate(
        [("experiment_1d", GRID_1D), ("experiment_2d", GRID_2D)], start=1
    ):
        config = dict(config, master_seed=config["master_seed"] + seed)
        if tiny:
            config = _tiny_config(config)
        ops.append(_experiment_op(name, phase, config, workdir))
    return Workload(("experiment_1d_s", "experiment_2d_s"), ops)


# -- separation: certificates and exact distances -----------------------------


def _certify_op(name: str, args: list[str], method: str) -> Op:
    argv = ["certify", *args]

    def check(result) -> dict:
        doc = cli_doc(result)
        require(doc["passed"] is True, f"certificate did not pass: {doc}")
        require(doc["method"] == method, f"method {doc['method']!r}, expected {method!r}")
        return {k: doc[k] for k in ("passed", "min_observed", "method",
                                    "pairs_checked", "members")}

    return Op(name, 1, lambda: run_cli(argv), check)


def _distance_op(n: int, seed: int, mc_samples: int) -> Op:
    a = sample_uniform(n, 1, mix64(seed, 2 * n))
    b = sample_uniform(n, 1, mix64(seed, 2 * n + 1))
    mc_seed = mix64(seed, 3 * n)

    # called through the module so that a traced run sees these calls
    def run():
        return (norms.card1d_l1(a, b), norms.card1d_linf(a, b),
                norms.mc_l1(a, b, OpKind.CARD_EST, mc_samples, mc_seed))

    def check(result) -> dict:
        l1, linf, est = result
        require(0.0 < l1 <= linf, f"card1d_l1 {l1} outside (0, card1d_linf {linf}]")
        require(abs(est.value - l1) <= 4.0 * est.std_error,
                f"mc_l1 {est.value} +- {est.std_error} is over 4 SE from card1d_l1 {l1}")
        return {"card1d_l1": l1, "card1d_linf": linf,
                "mc_l1": est.value, "mc_l1_se": est.std_error}

    return Op(f"distance_n{n}", 2, run, check)


def separation(seed: int, workdir: str, tiny: bool) -> Workload:
    if tiny:
        mc_pairs, mc_samples, probe_pairs, probe_samples = 3, 2000, 2, 1000
        exact_n, distance_ns, distance_samples = 100, (200, 300), 4000
    else:
        mc_pairs, mc_samples, probe_pairs, probe_samples = 28, 20_000, 10, 20_000
        exact_n, distance_ns, distance_samples = 400, (1000, 1500, 2000), 20_000
    ops = [
        # the acceptance-test (criterion 4) two-attribute family, with half
        # its 40k Monte Carlo samples so that a run holds several repetitions
        _certify_op("certify_l1_ce_d2", [
            "--construction", "packing-l1-ce", "--op", "ce", "--n", "100", "--d", "2",
            "--eps", "0.05", "--count", "8", "--pairs", str(mc_pairs),
            "--seed", str(49 + seed), "--mc-samples", str(mc_samples)],
            "monte_carlo"),
        _certify_op("certify_linf_ce_d2", [
            "--construction", "packing-linf", "--op", "ce", "--n", "100", "--d", "2",
            "--eps", "1", "--u", "4", "--count", "20", "--pairs", str(probe_pairs),
            "--seed", str(61 + seed), "--mc-samples", str(probe_samples)],
            "probe"),
        _certify_op("certify_l1_index_d1", [
            "--construction", "packing-l1-index", "--n", str(exact_n), "--eps", "0.5",
            "--count", "20", "--pairs", "50", "--seed", str(43 + seed)],
            "exact"),
        _certify_op("certify_l1_ce_d1", [
            "--construction", "packing-l1-ce", "--op", "ce", "--n", str(exact_n),
            "--d", "1", "--eps", "0.05", "--count", "20", "--pairs", "50",
            "--seed", str(45 + seed)],
            "exact"),
    ]
    ops += [_distance_op(n, seed, distance_samples) for n in distance_ns]
    return Workload(("certify_s", "distance_s"), ops)


# -- codec: cover encode and decode --------------------------------------------


def _sorted_rows(values: np.ndarray) -> np.ndarray:
    return values[np.lexsort(values.T[::-1])]


def _codec_ops(name: str, op: OpKind, n: int, d: int, seed: int, workdir: str):
    eps = 1.0
    dataset = sample_uniform(n, d, seed)
    csv_in = os.path.join(workdir, f"{name}.csv")
    ldbc = os.path.join(workdir, f"{name}.ldbc")
    csv_out = os.path.join(workdir, f"{name}.decoded.csv")
    save_csv(dataset, csv_in)
    count_d = {OpKind.INDEX: 1, OpKind.CARD_EST: d, OpKind.RANGE_SUM: d - 1}[op]
    bits = math.ceil(covering_count_log2(op, n, count_d, eps))

    def check_encode(result) -> dict:
        doc = cli_doc(result)
        require(doc["bit_length"] == bits,
                f"bit_length {doc['bit_length']}, expected {bits}")
        with open(ldbc, "rb") as fh:
            blob = fh.read()
        index = int.from_bytes(blob[28:], "big")
        require(index.bit_length() <= bits, "index wider than its bit length")
        return {"bit_length": doc["bit_length"], "ldbc_sha256": sha256(blob),
                "index_sha256": sha256(str(index).encode())}

    def check_decode(result) -> dict:
        doc = cli_doc(result)
        decoded = np.loadtxt(csv_out, delimiter=",", ndmin=2)
        want = quantize(dataset, GridSpec(resolution=doc["resolution"])).values
        require(decoded.shape == want.shape
                and np.array_equal(_sorted_rows(decoded), _sorted_rows(want)),
                "decoded records differ from the quantized input")
        with open(csv_out, "rb") as fh:
            return {"decoded_sha256": sha256(fh.read())}

    encode = ["encode", "--op", op.value, "--eps", str(eps), "--input", csv_in,
              "--out", ldbc]
    decode = ["decode", "--input", ldbc, "--out", csv_out]
    return (Op(f"encode_{name}", 1, lambda: run_cli(encode), check_encode),
            Op(f"decode_{name}", 2, lambda: run_cli(decode), check_decode))


def codec(seed: int, workdir: str, tiny: bool) -> Workload:
    if tiny:
        cases = [("index_n100", OpKind.INDEX, 100, 1), ("ce_d2_n50", OpKind.CARD_EST, 50, 2)]
    else:
        cases = [("index_n1000", OpKind.INDEX, 1000, 1),
                 ("index_n2000", OpKind.INDEX, 2000, 1),
                 ("ce_d2_n400", OpKind.CARD_EST, 400, 2)]
    pairs = [_codec_ops(name, op, n, d, mix64(seed, k), workdir)
             for k, (name, op, n, d) in enumerate(cases)]
    # every encode, then every decode, so each phase is one contiguous walk
    ops = [enc for enc, _ in pairs] + [dec for _, dec in pairs]
    return Workload(("encode_s", "decode_s"), ops)


WORKLOADS = {"grid": grid, "separation": separation, "codec": codec}
