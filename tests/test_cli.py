from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ldbounds
import ldbounds.bounds as bnd
from ldbounds import cli
from ldbounds.cli import main
from ldbounds.data import GridSpec, load_csv, make_dataset, quantize, save_csv
from ldbounds.queryfn import OpKind


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip() else None
    return code, doc


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples() -> dict[str, tuple[list[str], str]]:
    """subcommand -> (argv, printed JSON) for each one-command README example."""
    out = {}
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        cmd, _, printed = block.replace("\\\n", " ").partition("\n")
        argv = shlex.split(cmd.removeprefix("$ "))
        if argv[:1] == ["ldbounds"] and printed.startswith("{"):
            out[argv[1]] = (argv[1:], printed)
    return out


@pytest.mark.parametrize("command", ["bounds", "eps-star", "certify"])
def test_readme_examples(capsys, command):
    # the README's printed JSON is what the command prints today
    argv, printed = _readme_examples()[command]
    code, doc = run_cli(capsys, *argv)
    assert code == 0
    assert doc == json.loads(printed)


def test_bounds_lower(capsys):
    code, doc = run_cli(
        capsys,
        "bounds", "--op", "index", "--norm", "inf", "--side", "lower",
        "--n", "100", "--eps", "1", "--u", "1000",
    )
    assert code == 0
    assert abs(doc["bits"] - 165.13987701289584) < 1e-9
    assert doc["validity"] == "in_range"


def test_bounds_upper(capsys):
    code, doc = run_cli(
        capsys,
        "bounds", "--op", "index", "--norm", "l1", "--side", "upper",
        "--n", "100", "--eps", "1",
    )
    assert code == 0
    assert abs(doc["bits"] - 244.98905422931673) < 1e-9


def test_bounds_out_of_range_is_null(capsys):
    code, doc = run_cli(
        capsys,
        "bounds", "--op", "index", "--norm", "inf", "--side", "lower",
        "--n", "100", "--eps", "50", "--u", "1000",
    )
    assert code == 0
    assert doc["bits"] is None
    assert doc["validity"] == "out_of_range"
    assert "reason" in doc


def test_bounds_usage_errors(capsys):
    assert main(["bounds", "--op", "index", "--norm", "inf", "--side", "lower",
                 "--eps", "1"]) == 1  # missing --n
    capsys.readouterr()
    assert main(["bounds", "--op", "index", "--norm", "l7", "--side", "lower",
                 "--n", "10", "--eps", "1"]) == 1
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


_SEQUENCE = [
    ["eps-star", "--bits", "64", "--op", "index", "--norm", "l1", "--n", "1000"],
    ["bounds", "--op", "index", "--norm", "inf", "--side", "lower", "--n", "100",
     "--eps", "1", "--u", "1000"],
    ["bounds", "--op", "index", "--norm", "l7", "--side", "lower", "--n", "10",
     "--eps", "1"],
    ["certify", "--construction", "packing-linf", "--op", "rs", "--n", "10", "--u", "4",
     "--eps", "1", "--count", "3", "--pairs", "2", "--seed", "1", "--mc-samples", "100"],
    ["--help"],
    ["certify", "--construction", "packing-l1-index", "--n", "100", "--eps", "0.5",
     "--count", "3", "--pairs", "3", "--seed", "1"],
    ["eps-star", "--bits", "64", "--op", "index", "--norm", "l1", "--n", "1000"],
]


def test_main_reuses_one_parser(capsys, monkeypatch):
    def outputs():
        got = []
        for argv in _SEQUENCE:
            code = main(argv)
            got.append((code, capsys.readouterr().out))
        return got

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    reused = outputs()
    assert [code for code, _ in reused] == [0, 0, 1, 0, 0, 0, 0]
    assert reused[0] == reused[-1]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    assert outputs() == reused


def test_eps_star_matches_library(capsys):
    code, doc = run_cli(
        capsys, "eps-star", "--bits", "64", "--op", "index", "--norm", "l1",
        "--n", "1000",
    )
    assert code == 0
    direct = bnd.eps_star(64.0, OpKind.INDEX, bnd.NORM_L1, 1000, 1)
    assert doc["eps_star"] == direct.eps
    assert doc["validity"] == "interior"


def test_eps_star_no_bound(capsys):
    code, doc = run_cli(
        capsys, "eps-star", "--bits", "64", "--op", "ce", "--norm", "mu",
        "--n", "1000", "--d", "2",
    )
    assert code == 0
    assert doc["eps_star"] == 0.0
    assert doc["validity"] == "no_bound"


def test_certify_passes(capsys):
    code, doc = run_cli(
        capsys,
        "certify", "--construction", "packing-l1-index", "--n", "100",
        "--eps", "0.5", "--count", "3", "--pairs", "3", "--seed", "1",
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["pairs_checked"] == 3
    assert doc["pairs_total"] == 3
    assert doc["min_observed"] > doc["claimed"]
    assert doc["members"] == 3


def test_certify_reports_its_scope(capsys):
    # `passed` covers the drawn pairs only: 2 of the 4 * 3 / 2 pairs here
    code, doc = run_cli(
        capsys,
        "certify", "--construction", "packing-l1-index", "--n", "100",
        "--eps", "0.5", "--count", "4", "--pairs", "2", "--seed", "1",
    )
    assert code == 0
    assert (doc["pairs_checked"], doc["pairs_total"], doc["members"]) == (2, 6, 4)


def test_certify_linf_needs_u(capsys):
    code = main([
        "certify", "--construction", "packing-linf", "--n", "10",
        "--eps", "1", "--count", "4", "--pairs", "3", "--seed", "1",
    ])
    capsys.readouterr()
    assert code == 1


def test_certify_linf_with_u(capsys):
    code, doc = run_cli(
        capsys,
        "certify", "--construction", "packing-linf", "--n", "10", "--d", "1",
        "--eps", "1", "--u", "4", "--count", "4", "--pairs", "3", "--seed", "1",
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["method"] == "exact"


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_certify_rejects_nonpositive_pairs(capsys, pairs):
    code = main([
        "certify", "--construction", "packing-l1-index", "--n", "100",
        "--eps", "0.5", "--count", "3", "--pairs", pairs, "--seed", "1",
    ])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_certify_rejects_negative_mc_samples(capsys):
    code = main([
        "certify", "--construction", "packing-linf", "--op", "ce", "--n", "20",
        "--d", "2", "--u", "3", "--eps", "1", "--count", "4", "--pairs", "3",
        "--seed", "1", "--mc-samples", "-5",
    ])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_encode_decode_roundtrip(tmp_path, capsys):
    ds = make_dataset(np.array([[0.1], [0.3], [0.62], [0.99]]))
    src = str(tmp_path / "data.csv")
    box = str(tmp_path / "data.ldbc")
    back = str(tmp_path / "back.csv")
    save_csv(ds, src)

    code, doc = run_cli(
        capsys, "encode", "--op", "index", "--eps", "1.0",
        "--input", src, "--out", box,
    )
    assert code == 0
    assert doc["resolution"] == 4 and doc["bit_length"] == 7

    code, doc = run_cli(capsys, "decode", "--input", box, "--out", back)
    assert code == 0
    assert doc["bit_length"] == 7
    decoded = load_csv(back)
    want = quantize(ds, GridSpec(resolution=4))
    assert np.array_equal(decoded.values, want.values)


def test_encode_missing_input(tmp_path, capsys):
    code = main([
        "encode", "--op", "index", "--eps", "0.25",
        "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.ldbc"),
    ])
    capsys.readouterr()
    assert code == 2


def test_encode_bad_eps(tmp_path, capsys):
    src = str(tmp_path / "d.csv")
    save_csv(make_dataset([[0.5]]), src)
    code = main([
        "encode", "--op", "index", "--eps", "0",
        "--input", src, "--out", str(tmp_path / "x.ldbc"),
    ])
    capsys.readouterr()
    assert code == 1


def test_train_linear(tmp_path, capsys):
    gen = np.random.default_rng(3)
    src = str(tmp_path / "train.csv")
    save_csv(make_dataset(np.sort(gen.random((50, 1)), axis=0)), src)
    out = str(tmp_path / "model.json")
    code, doc = run_cli(
        capsys, "train", "--model", "linear", "--op", "index", "--data", src,
        "--steps", "30", "--batch", "8", "--out", out,
    )
    assert code == 0
    assert doc["model_bits"] == 64 and doc["params"] == 2
    assert doc["final_loss"] is not None
    saved = json.load(open(out))
    assert saved  # model file written


def test_train_sample_with_m(tmp_path, capsys):
    gen = np.random.default_rng(4)
    src = str(tmp_path / "train.csv")
    save_csv(make_dataset(gen.random((20, 2))), src)
    code, doc = run_cli(
        capsys, "train", "--model", "sample", "--op", "ce", "--data", src,
        "--m", "5",
    )
    assert code == 0
    assert doc["m"] == 5
    assert doc["model_bits"] == 5 * 2 * 32


@pytest.mark.parametrize(
    "flags",
    [
        ("--batch", "0"),
        ("--batch", "-1"),
        ("--steps", "-1"),
        ("--lr", "nan"),
        ("--lr", "inf"),
        ("--lr", "-0.5"),
        ("--momentum", "nan"),
        ("--momentum", "1.5"),
    ],
)
def test_train_rejects_bad_schedule(tmp_path, capsys, flags):
    src = str(tmp_path / "train.csv")
    save_csv(make_dataset(np.linspace(0.0, 1.0, 10).reshape(-1, 1)), src)
    code = main(["train", "--model", "linear", "--op", "index", "--data", src, *flags])
    assert code == 1
    assert capsys.readouterr().out == ""


EXPERIMENT_CONFIG = {
    "ops": ["index"],
    "norms": ["l1"],
    "distributions": [{"kind": "uniform"}],
    "n_values": [30, 50],
    "models": ["linear"],
    "train": {"steps": 20, "batch": 8},
    "eval": {"samples": 128, "grid": 2},
    "master_seed": 5,
}


def test_experiment_end_to_end(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    out = str(tmp_path / "rows.csv")
    plot = str(tmp_path / "plot.json")
    json.dump(EXPERIMENT_CONFIG, open(cfg, "w"))
    code, doc = run_cli(
        capsys, "experiment", "--config", cfg, "--out", out, "--plot", plot,
    )
    assert code == 0
    assert doc["rows"] == 2 and doc["failed_cells"] == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0].startswith("op,norm,distribution,n,")
    assert len(lines) == 3
    series = json.load(open(plot))
    assert {s["label"] for s in series} == {
        "index/l1/uniform/linear/observed_err",
        "index/l1/uniform/linear/eps_star",
    }


def test_experiment_malformed_config(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    open(cfg, "w").write("{not json")
    code = main(["experiment", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    capsys.readouterr()
    assert code == 1


def test_experiment_unknown_model(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    bad = dict(EXPERIMENT_CONFIG, models=["transformer"])
    json.dump(bad, open(cfg, "w"))
    code = main(["experiment", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize(
    "bad", [{"distributions": ["uniform"]}, {"models": [3]}, {"eval": [1]}, {"train": [1]}]
)
def test_experiment_malformed_entry(tmp_path, capsys, bad):
    cfg = str(tmp_path / "cfg.json")
    json.dump(dict(EXPERIMENT_CONFIG, **bad), open(cfg, "w"))
    code = main(["experiment", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_experiment_fractional_steps(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    json.dump(dict(EXPERIMENT_CONFIG, train={"steps": 10.9}), open(cfg, "w"))
    code = main(["experiment", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "train.steps" in err


def test_experiment_zero_batch(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    json.dump(dict(EXPERIMENT_CONFIG, train={"batch": 0}), open(cfg, "w"))
    code = main(["experiment", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("samples", [0, -3])
def test_experiment_nonpositive_eval_samples(tmp_path, capsys, samples):
    cfg = str(tmp_path / "cfg.json")
    json.dump(dict(EXPERIMENT_CONFIG, eval={"samples": samples}), open(cfg, "w"))
    code = main(["experiment", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert capsys.readouterr().out == ""
    assert code == 1


def test_experiment_negative_eval_grid(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    json.dump(dict(EXPERIMENT_CONFIG, eval={"grid": -1}), open(cfg, "w"))
    code = main(["experiment", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert capsys.readouterr().out == ""
    assert code == 1


def test_experiment_all_cells_fail(tmp_path, capsys):
    cfg = str(tmp_path / "cfg.json")
    bad = dict(EXPERIMENT_CONFIG, d=2)  # rank cells need 1-attribute data
    json.dump(bad, open(cfg, "w"))
    code = main(["experiment", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    capsys.readouterr()
    assert code == 2


def test_decode_rejects_crafted_header_quickly(tmp_path):
    # 29-byte container claiming n = u = 2,000,000 with a 1-byte payload
    path = tmp_path / "crafted.ldbc"
    path.write_bytes(
        b"LDBC" + bytes([1, 0])
        + (2_000_000).to_bytes(8, "little")
        + (1).to_bytes(2, "little")
        + (2_000_000).to_bytes(8, "little")
        + (1).to_bytes(4, "little")
        + b"\x00"
    )
    src = os.path.dirname(os.path.dirname(ldbounds.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "ldbounds.cli", "decode",
         "--input", str(path), "--out", str(tmp_path / "out.csv")],
        env=env, capture_output=True, timeout=2,
    )
    assert done.returncode == 1
    assert b"payload" in done.stderr
