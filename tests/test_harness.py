from __future__ import annotations

import csv
import itertools
import json
import logging
import os
import signal
import threading
import time
from dataclasses import replace
from functools import partial

import pytest

import ldbounds.bounds as bnd
from ldbounds import harness, rng
from ldbounds.data import GmmParams, sample_uniform, sort_dataset_1d
from ldbounds.errors import InvalidParams, RuntimeFailure
from ldbounds.harness import (
    CSV_HEADER,
    DEFAULT_DOMAIN_U,
    DistSpec,
    ExperimentConfig,
    ModelTemplate,
    PRESET_MODELS,
    emit_csv,
    emit_plot_data,
    parse_config,
    run_experiment,
)
from ldbounds.models import TrainConfig, init_model, model_bits, predict, train
from ldbounds.norms import EvalConfig, model_error
from ldbounds.queryfn import OpKind

FAST_TRAIN = TrainConfig(steps=30, batch=16, lr=0.05, momentum=0.9, seed=0)
FAST_EVAL = EvalConfig(samples=256, grid=2, seed=0)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        ops=(OpKind.INDEX,),
        norms=("l1",),
        distributions=(DistSpec(name="uniform"),),
        n_values=(40, 60),
        d=1,
        models=(PRESET_MODELS["linear"],),
        datasets_per_cell=1,
        train=FAST_TRAIN,
        eval=FAST_EVAL,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_shape_and_order():
    run = run_experiment(small_config(norms=("l1", "linf")))
    assert run.failures == ()
    assert len(run.rows) == 4  # 1 op x 1 dist x 2 n x 1 model x 2 norms
    assert [(r.n, r.norm) for r in run.rows] == [
        (40, "l1"),
        (40, "linf"),
        (60, "l1"),
        (60, "linf"),
    ]
    for r in run.rows:
        assert r.op == "index" and r.model_id == "linear" and r.model_bits == 64
        assert r.observed_err >= 0.0 and r.eps_star > 0.0


def test_run_deterministic():
    cfg = small_config(models=(PRESET_MODELS["linear"], PRESET_MODELS["sample"]))
    assert run_experiment(cfg).rows == run_experiment(cfg).rows


def test_rows_stable_under_added_model():
    lone = run_experiment(small_config())
    both = run_experiment(
        small_config(models=(PRESET_MODELS["linear"], PRESET_MODELS["nn-s1"]))
    )
    linear_rows = tuple(r for r in both.rows if r.model_id == "linear")
    assert linear_rows == lone.rows


def test_rows_stable_under_added_norm():
    lone = run_experiment(small_config(norms=("l1",)))
    both = run_experiment(small_config(norms=("l1", "linf")))
    l1_rows = tuple(r for r in both.rows if r.norm == "l1")
    assert l1_rows == lone.rows


def test_failures_recorded_not_fatal():
    # rank cells need 1-attribute data; the cardinality cells still run
    run = run_experiment(
        small_config(ops=(OpKind.INDEX, OpKind.CARD_EST), d=2, n_values=(40,))
    )
    assert len(run.failures) == 1
    assert run.failures[0][0].startswith("index|")
    assert len(run.rows) == 1 and run.rows[0].op == "ce"


def test_cells_rebuilt_from_documented_seeds():
    # each seed is mix64(master, stable_text_hash(coords)); data and training
    # seeds omit the norm, evaluation seeds and the row seed include it
    cfg = small_config(datasets_per_cell=2)
    run = run_experiment(cfg)
    spec = PRESET_MODELS["linear"].resolve(OpKind.INDEX, 1)

    def seed(coords):
        return rng.mix64(cfg.master_seed, rng.stable_text_hash(coords))

    worst_reps = set()
    for row in run.rows:
        base = f"index|uniform|{row.n}|linear"
        estimates = []
        for rep in range(2):
            data = sort_dataset_1d(sample_uniform(row.n, 1, seed(f"{base}|{rep}|data")))
            train_seed = seed(f"{base}|{rep}|train")
            model = train(
                init_model(spec, train_seed), data, OpKind.INDEX,
                replace(FAST_TRAIN, seed=train_seed),
            )
            eval_cfg = replace(FAST_EVAL, seed=seed(f"{base}|l1|{rep}|eval"))
            predict_index = partial(predict, model, OpKind.INDEX)
            estimates.append(model_error(data, OpKind.INDEX, predict_index, "l1", eval_cfg))
        worst = max(estimates, key=lambda est: est.value)
        worst_reps.add(estimates.index(worst))
        assert row.observed_err == worst.value
        assert row.seed == seed(f"{base}|l1")
        assert row.model_bits == model_bits(spec, 1) == 64
        assert row.exact == worst.exact
    # the worst replicate is the first in one cell and the second in the other
    assert len(run.rows) == 2 and worst_reps == {0, 1}


def test_measure_failure_drops_only_its_norm():
    # the worst-case floor needs n >= 3, so only the linf measurement fails
    run = run_experiment(small_config(n_values=(2,), norms=("l1", "linf")))
    assert [(r.n, r.norm) for r in run.rows] == [(2, "l1")]
    assert [cell for cell, _ in run.failures] == ["index|uniform|2|linear|linf"]


def test_eps_star_column_matches_direct_call():
    run = run_experiment(small_config(norms=("l1", "linf")))
    for r in run.rows:
        norm = bnd.NORM_L1 if r.norm == "l1" else bnd.NORM_INF
        u = DEFAULT_DOMAIN_U if r.norm == "linf" else None
        direct = bnd.eps_star(r.model_bits, OpKind.INDEX, norm, r.n, 1, u=u).eps
        assert abs(r.eps_star - direct) <= 1e-9 * max(1.0, abs(direct))


def test_sample_model_full_size_is_exact():
    tmpl = ModelTemplate(model_id="sample-full", kind="sample", m=40)
    run = run_experiment(small_config(n_values=(40,), models=(tmpl,)))
    assert run.failures == ()
    for r in run.rows:
        assert r.observed_err == 0.0


def test_worst_over_replicates():
    one = run_experiment(small_config(n_values=(40,), datasets_per_cell=1))
    three = run_experiment(small_config(n_values=(40,), datasets_per_cell=3))
    assert three.rows[0].observed_err >= one.rows[0].observed_err


def test_replicates_validated():
    with pytest.raises(InvalidParams):
        run_experiment(small_config(datasets_per_cell=0))


def test_emit_csv_layout(tmp_path):
    run = run_experiment(small_config())
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    emit_csv(run.rows, p1)
    emit_csv(run.rows, p2)
    b1 = open(p1, "rb").read()
    assert b1 == open(p2, "rb").read()
    text = b1.decode("utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(run.rows)
    with open(p1, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    for rec, row in zip(parsed, run.rows):
        assert rec["op"] == row.op
        assert int(rec["n"]) == row.n
        assert float(rec["observed_err"]) == row.observed_err
        assert float(rec["eps_star"]) == row.eps_star
        assert int(rec["seed"]) == row.seed
        assert rec["exact"] in ("true", "false")


def test_emit_plot_data_schema(tmp_path):
    run = run_experiment(small_config(norms=("l1", "linf")))
    path = str(tmp_path / "plot.json")
    emit_plot_data(run.rows, path)
    series = json.load(open(path))
    assert isinstance(series, list)
    labels = [s["label"] for s in series]
    assert "index/l1/uniform/linear/observed_err" in labels
    assert "index/linf/uniform/linear/eps_star" in labels
    for s in series:
        assert set(s) == {"label", "x", "y"}
        assert s["x"] == sorted(s["x"])
        assert len(s["x"]) == len(s["y"]) == 2
    by_label = {s["label"]: s for s in series}
    want = [r.eps_star for r in run.rows if r.norm == "l1"]
    assert by_label["index/l1/uniform/linear/eps_star"]["y"] == want


def test_parse_config_defaults():
    cfg = parse_config(
        {
            "ops": ["index"],
            "norms": ["l1"],
            "distributions": [{"kind": "uniform"}],
            "n_values": [100],
            "models": ["linear"],
        }
    )
    assert cfg.d == 1
    assert cfg.datasets_per_cell == 1
    assert cfg.master_seed == 0
    assert cfg.domain_u == DEFAULT_DOMAIN_U
    assert cfg.train.steps == 20_000
    assert cfg.eval.samples == 4096
    assert cfg.models[0] is PRESET_MODELS["linear"]


def test_parse_config_full():
    cfg = parse_config(
        {
            "ops": ["index", "ce"],
            "norms": ["l1", "linf"],
            "distributions": [
                {"kind": "uniform", "name": "u"},
                {"kind": "gmm", "components": [[0.3, 0.05, 0.5], [0.7, 0.1, 0.5]]},
            ],
            "n_values": [10, 20],
            "d": 2,
            "models": ["nn-s1", {"kind": "sample", "m": 5, "id": "s5"}],
            "datasets_per_cell": 3,
            "train": {"steps": 11, "batch": 4, "lr": 0.5, "momentum": 0.1},
            "eval": {"samples": 99, "grid": 7},
            "master_seed": 42,
            "domain_u": 1000,
        }
    )
    assert cfg.ops == (OpKind.INDEX, OpKind.CARD_EST)
    assert cfg.distributions[1].name == "gmm2"
    assert cfg.distributions[1].gmm.components[0] == (0.3, 0.05, 0.5)
    assert cfg.models[1].m == 5 and cfg.models[1].model_id == "s5"
    assert cfg.train.steps == 11 and cfg.eval.grid == 7
    assert cfg.domain_u == 1000


def test_parse_config_overlays_defaults():
    cfg = parse_config(
        {
            "ops": ["index"],
            "norms": ["l1"],
            "distributions": [{"kind": "uniform"}],
            "n_values": [100],
            "models": ["linear"],
            "train": {"steps": 11.0, "lr": 1},
            "eval": {"grid": 3.0},
        }
    )
    assert cfg.train == replace(TrainConfig(), steps=11, lr=1.0)
    assert isinstance(cfg.train.lr, float)
    assert cfg.eval == replace(EvalConfig(), grid=3)
    assert isinstance(cfg.eval.grid, int)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"ops": ["index"], "norms": ["l1"], "distributions": [], "models": []},
        {
            "ops": ["index"],
            "norms": ["l2"],
            "distributions": [{"kind": "uniform"}],
            "n_values": [10],
            "models": ["linear"],
        },
        {
            "ops": ["index"],
            "norms": ["l1"],
            "distributions": [{"kind": "zipf"}],
            "n_values": [10],
            "models": ["linear"],
        },
        {
            "ops": ["index"],
            "norms": ["l1"],
            "distributions": [{"kind": "uniform"}],
            "n_values": [10],
            "models": ["resnet"],
        },
        {
            "ops": ["index"],
            "norms": ["l1"],
            "distributions": [{"kind": "uniform"}],
            "n_values": [10],
            "models": [{"kind": "conv"}],
        },
        {
            "ops": ["sort"],
            "norms": ["l1"],
            "distributions": [{"kind": "uniform"}],
            "n_values": [10],
            "models": ["linear"],
        },
        {
            "ops": ["index"],
            "norms": ["l1"],
            "distributions": [{"kind": "uniform"}],
            "n_values": [10],
            "models": ["linear"],
            "train": {"batch": 0},
        },
        {
            "ops": ["index"],
            "norms": ["l1"],
            "distributions": [{"kind": "uniform"}],
            "n_values": [10],
            "models": ["linear"],
            "train": {"lr": "nan"},
        },
        {
            "ops": ["index"],
            "norms": ["l1"],
            "distributions": [{"kind": "uniform"}],
            "n_values": [10],
            "models": ["linear"],
            "eval": {"grid": -1},
        },
        *(
            dict(
                {
                    "ops": ["index"],
                    "norms": ["l1"],
                    "distributions": [{"kind": "uniform"}],
                    "n_values": [10],
                    "models": ["linear"],
                },
                **bad,
            )
            for bad in (
                {"distributions": ["uniform"]},
                {"models": [3]},
                {"models": [None]},
                {"eval": [1]},
                {"train": [50, 64]},
                {"train": "fast"},
                {"models": [{"kind": "sample", "m": 2.5}]},
                {"models": [{"kind": "sample", "m": "abc"}]},
                {"models": [{"kind": "sample", "m": 0}]},
                {"models": [{"kind": "mlp", "hidden": 0}]},
                {"models": [{"kind": "linear", "m": 7}]},
                {"models": [{"kind": "linear", "hidden": 5}]},
                {"models": [{"kind": "sample", "hidden": 5}]},
                {"models": [{"kind": "mlp", "hidden": 3, "m": 7}]},
                {"n_values": [0]},
                {"d": 0},
                {"domain_u": 0},
                {"u": 0},
                {"datasets_per_cell": 0},
                {"ops": []},
                {"norms": []},
                {"distributions": []},
                {"n_values": []},
                {"models": []},
            )
        ),
    ],
)
def test_parse_config_rejects(doc):
    with pytest.raises(InvalidParams):
        parse_config(doc)


@pytest.mark.parametrize(
    "bad",
    [
        {"norms": ("l2",)},
        {"n_values": (40, 0)},
        {"d": 0},
        {"datasets_per_cell": 0},
        {"domain_u": 0},
        {"ops": ()},
        {"models": ()},
        {"ops": (OpKind.INDEX, OpKind.INDEX)},
        {"norms": ("l1", "linf", "l1")},
        {"n_values": (40, 40)},
        {"distributions": (DistSpec(name="uniform"), DistSpec(name="uniform"))},
        {"models": (PRESET_MODELS["sample"], ModelTemplate(model_id="sample", kind="sample", m=9))},
    ],
)
def test_experiment_config_checks_itself(bad):
    with pytest.raises(InvalidParams):
        small_config(**bad)


@pytest.mark.parametrize(
    "bad",
    [
        {"kind": "rnn"},
        {"kind": "mlp", "hidden": 0},
        {"kind": "sample", "m": 0},
        {"kind": "sample", "m": -2},
        {"kind": "linear", "m": 7},
        {"kind": "linear", "hidden": 5},
        {"kind": "sample", "hidden": 5},
        {"kind": "mlp", "hidden": 3, "m": 7},
    ],
)
def test_model_template_checks_itself(bad):
    with pytest.raises(InvalidParams):
        ModelTemplate(model_id="bad", **bad)


MINIMAL_DOC = {
    "ops": ["index"],
    "norms": ["l1"],
    "distributions": [{"kind": "uniform"}],
    "n_values": [100],
    "models": ["linear"],
}


@pytest.mark.parametrize(
    "field, bad",
    [
        ("n_values", {"n_values": [1000.7]}),
        ("d", {"d": 1.5}),
        ("datasets_per_cell", {"datasets_per_cell": 2.5}),
        ("master_seed", {"master_seed": 3.25}),
        ("domain_u", {"domain_u": 1000.5}),
        ("domain_u", {"domain_u": 2**32 + 0.5}),
        ("train.steps", {"train": {"steps": 10.9}}),
        ("train.batch", {"train": {"batch": 64.5}}),
        ("n_values", {"n_values": [100, 2.5]}),
        ("eval.samples", {"eval": {"samples": 100.2}}),
        ("eval.grid", {"eval": {"grid": 2.5}}),
        ("hidden", {"models": [{"kind": "mlp", "hidden": 4.5}]}),
        ("m", {"models": [{"kind": "sample", "m": 2.5}]}),
    ],
)
def test_parse_config_rejects_a_fraction_in_an_integer_field(field, bad):
    with pytest.raises(InvalidParams, match=f"'{field}' must be an integer"):
        parse_config(dict(MINIMAL_DOC, **bad))


@pytest.mark.parametrize(
    "field, bad",
    [
        ("d", {"d": True}),
        ("n_values", {"n_values": [100, True]}),
        ("train.steps", {"train": {"steps": True}}),
        ("train.lr", {"train": {"lr": False}}),
        ("train.momentum", {"train": {"momentum": True}}),
        ("eval.grid", {"eval": {"grid": False}}),
        ("hidden", {"models": [{"kind": "mlp", "hidden": True}]}),
        ("m", {"models": [{"kind": "sample", "m": True}]}),
        ("components", {"distributions": [{"kind": "gmm", "components": [[True, 0.5, 0.1]]}]}),
        ("train.steps", {"train": {"steps": "11"}}),
        ("train.steps", {"train": {"steps": "1e4"}}),
        ("train.lr", {"train": {"lr": "0.05"}}),
        ("d", {"d": "2"}),
        ("master_seed", {"master_seed": None}),
        ("n_values", {"n_values": ["100"]}),
        ("eval.samples", {"eval": {"samples": "2048"}}),
        ("hidden", {"models": [{"kind": "mlp", "hidden": "4"}]}),
        ("m", {"models": [{"kind": "sample", "m": "8"}]}),
        ("components", {"distributions": [{"kind": "gmm", "components": [["1", 0.5, 0.1]]}]}),
    ],
)
def test_parse_config_reads_numbers_only_from_json_numbers(field, bad):
    with pytest.raises(InvalidParams, match=f"'{field}' must be a number"):
        parse_config(dict(MINIMAL_DOC, **bad))


@pytest.mark.parametrize(
    "bad",
    [
        {"distributions": [{"kind": "uniform", "name": "a,b"}]},
        {"distributions": [{"kind": "uniform", "name": "a|b"}]},
        {"distributions": [{"kind": "uniform", "name": 3}]},
        {"models": [{"kind": "linear", "id": "lin,ear"}]},
        {"models": [{"kind": "linear", "id": "line\nar"}]},
        {"models": [{"kind": "linear", "id": "linear\r"}]},
        {"models": [{"kind": "linear", "id": 7}]},
        {"models": [{"kind": "linear", "id": None}]},
    ],
)
def test_parse_config_rejects_a_label_that_breaks_a_csv_row(bad):
    with pytest.raises(InvalidParams, match="must be a string without ',', '|' or a line break"):
        parse_config(dict(MINIMAL_DOC, **bad))


@pytest.mark.parametrize(
    "key, bad",
    [
        ("master_sed", {"master_sed": 3}),
        ("step", {"train": {"step": 100}}),
        ("sample", {"eval": {"sample": 100}}),
        ("width", {"models": [{"kind": "mlp", "hidden": 3, "width": 3}]}),
        ("components", {"distributions": [{"kind": "uniform", "components": [[1, 0.5, 0.1]]}]}),
        ("weights", {"distributions": [{"kind": "gmm", "components": [[1, 0.5, 0.1]], "weights": [1]}]}),
        # `u` is not a second spelling of `domain_u`, and a config sets no
        # seed: each cell derives its training and evaluation seeds from master_seed
        ("u", {"u": 1000}),
        ("u", {"u": 1000.5}),
        ("seed", {"train": {"seed": 5}}),
        ("seed", {"train": {"seed": 1.5}}),
        ("seed", {"eval": {"seed": 5}}),
    ],
    ids=[
        "top", "train", "eval", "model", "uniform", "gmm",
        "u", "u-fraction", "train.seed", "train.seed-fraction", "eval.seed",
    ],
)
def test_parse_config_rejects_an_unknown_field(key, bad):
    with pytest.raises(InvalidParams, match=f"unknown field '{key}'"):
        parse_config(dict(MINIMAL_DOC, **bad))


GMM_COMPONENTS = [[0.5, 0.25, 0.1], [0.5, 0.75, 0.1]]


@pytest.mark.parametrize(
    "field, bad",
    [
        ("ops", {"ops": ["index", "ce", "index"]}),
        ("norms", {"norms": ["l1", "l1"]}),
        ("n_values", {"n_values": [100, 100.0]}),
        ("distributions", {"distributions": [{"kind": "uniform"}, {"kind": "uniform"}]}),
        # two unnamed 2-component mixtures are both gmm2
        ("distributions", {"distributions": [
            {"kind": "gmm", "components": GMM_COMPONENTS},
            {"kind": "gmm", "components": GMM_COMPONENTS[::-1]},
        ]}),
        ("models", {"models": [{"kind": "sample", "m": 2}, {"kind": "sample", "m": 50}]}),
        ("models", {"models": ["nn-s1", {"kind": "mlp", "hidden": 5, "id": "nn-s1"}]}),
    ],
)
def test_parse_config_rejects_a_repeated_cell_coordinate(field, bad):
    with pytest.raises(InvalidParams, match=f"config field '{field}' repeats"):
        parse_config(dict(MINIMAL_DOC, **bad))


def test_parse_config_reads_the_readme_example():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    block = readme.split("Config schema (JSON):", 1)[1].split("```json\n", 1)[1]
    doc = json.loads(block.split("```", 1)[0])
    cfg = parse_config(doc)
    assert cfg.ops == (OpKind.INDEX, OpKind.CARD_EST) and cfg.d == doc["d"]
    assert [dist.name for dist in cfg.distributions] == ["uniform", "gmm2"]
    assert cfg.models == tuple(PRESET_MODELS[name] for name in doc["models"])
    assert cfg.train == replace(TrainConfig(), **doc["train"])
    assert cfg.eval == replace(EvalConfig(), **doc["eval"])
    assert (cfg.master_seed, cfg.domain_u) == (doc["master_seed"], doc["domain_u"])


def test_parse_config_sample_m_is_an_integer_or_unset():
    models = [{"kind": "sample"}, {"kind": "sample", "m": 3.0, "id": "s3"}]
    cfg = parse_config(dict(MINIMAL_DOC, models=models))
    assert cfg.models[0].m is None
    assert cfg.models[1].m == 3 and type(cfg.models[1].m) is int


def test_parse_config_accepts_integral_floats():
    cfg = parse_config(
        dict(
            MINIMAL_DOC, n_values=[1e4, 200.0], d=1.0, datasets_per_cell=2.0,
            master_seed=3.0, domain_u=1e3, train={"steps": 1e2, "batch": 64.0},
            eval={"samples": 1e3, "grid": 2.0},
        )
    )
    assert cfg.n_values == (10_000, 200) and cfg.d == 1 and cfg.datasets_per_cell == 2
    assert cfg.master_seed == 3 and cfg.domain_u == 1000
    assert (cfg.train.steps, cfg.train.batch) == (100, 64)
    assert (cfg.eval.samples, cfg.eval.grid) == (1000, 2)
    assert all(
        type(v) is int
        for v in (*cfg.n_values, cfg.d, cfg.master_seed, cfg.domain_u, cfg.train.steps)
    )


def test_gmm_cells_run():
    dist = DistSpec(
        name="bimodal",
        gmm=GmmParams(components=((0.25, 0.05, 0.5), (0.75, 0.05, 0.5))),
    )
    run = run_experiment(small_config(distributions=(dist,), n_values=(40,)))
    assert run.failures == ()
    assert run.rows[0].distribution == "bimodal"


GMM2 = DistSpec(name="gmm2", gmm=GmmParams(components=((0.25, 0.05, 0.5), (0.75, 0.1, 0.5))))
THREE_MODELS = (PRESET_MODELS["linear"], PRESET_MODELS["nn-s1"], PRESET_MODELS["sample"])


@pytest.mark.parametrize("reps", [1, 3, 9])
def test_rows_equal_single_cell_runs(reps):
    # a group's cells train in stacks (all 6 at once, 2 cells of 3
    # replicates each, or one cell of 9, more than _STACK_JOBS), yet each
    # row is the row of a run holding only its cell
    dists, ns = (DistSpec(name="uniform"), GMM2), (40, 60, 80)
    cfg = small_config(
        norms=("l1", "linf"), distributions=dists, n_values=ns,
        models=THREE_MODELS, datasets_per_cell=reps,
    )
    run = run_experiment(cfg)
    assert run.failures == ()
    want = []
    for dist, n in itertools.product(dists, ns):
        lone = run_experiment(replace(cfg, distributions=(dist,), n_values=(n,)))
        want += lone.rows
    # `want` is in product order too: (distribution, n), then model, then norm
    assert run.rows == tuple(want)


def test_failures_come_out_in_product_order():
    # d = 2: every rank cell fails to fit; ce cells at n = 2 fail under linf
    cfg = small_config(
        ops=(OpKind.INDEX, OpKind.CARD_EST), norms=("l1", "linf"), d=2,
        n_values=(2, 40), models=THREE_MODELS[:2],
    )
    run = run_experiment(cfg)
    assert [key for key, _ in run.failures] == [
        "index|uniform|2|linear",
        "index|uniform|2|nn-s1",
        "index|uniform|40|linear",
        "index|uniform|40|nn-s1",
        "ce|uniform|2|linear|linf",
        "ce|uniform|2|nn-s1|linf",
    ]
    assert [(r.n, r.model_id, r.norm) for r in run.rows] == [
        (2, "linear", "l1"),
        (2, "nn-s1", "l1"),
        (40, "linear", "l1"),
        (40, "linear", "linf"),
        (40, "nn-s1", "l1"),
        (40, "nn-s1", "linf"),
    ]


def test_diverging_cell_fails_only_itself():
    # near the step-size edge one cell of the stack overflows at step 838;
    # the others would last past step 894, so they stay finite for 840 steps
    train_cfg = replace(FAST_TRAIN, steps=840, batch=4, lr=1.6)
    cfg = small_config(master_seed=2, n_values=(40, 60, 80, 100), train=train_cfg)
    run = run_experiment(cfg)
    assert len(run.failures) == 1
    (key, message), = run.failures
    n = int(key.split("|")[2])
    assert message == "loss became inf at step 838"
    assert run_experiment(replace(cfg, n_values=(n,))).failures == run.failures
    for other in {40, 60, 80, 100} - {n}:
        assert [r for r in run.rows if r.n == other] == list(
            run_experiment(replace(cfg, n_values=(other,))).rows
        )


# -- runs split over forked processes ------------------------------------------

MIXED = small_config(  # the config of test_failures_come_out_in_product_order
    ops=(OpKind.INDEX, OpKind.CARD_EST), norms=("l1", "linf"), d=2,
    n_values=(2, 40), models=THREE_MODELS[:2],
)
# 2 cells of 3 replicates per stack: 3 stacks in each of the 2 groups
REPLICATED = small_config(
    distributions=(DistSpec(name="uniform"), GMM2), n_values=(40, 60, 80),
    models=THREE_MODELS[:2], datasets_per_cell=3,
)
DIVERGING = small_config(  # the config of test_diverging_cell_fails_only_itself
    master_seed=2, n_values=(40, 60, 80, 100),
    train=replace(FAST_TRAIN, steps=840, batch=4, lr=1.6),
)


def _csv_bytes(rows, path) -> bytes:
    emit_csv(rows, str(path))
    return path.read_bytes()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Forks(list):
    """One entry per `os.fork` call; `cpus(k)` makes the harness see k CPUs."""

    def __init__(self, monkeypatch):
        super().__init__()
        self.monkeypatch = monkeypatch
        real_fork = os.fork

        def fork():
            self.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)

    def cpus(self, k: int) -> None:
        self.monkeypatch.setattr(harness, "_cpu_count", lambda: k)


@pytest.fixture
def forks(monkeypatch):
    # a run that waits forever on a child fails the test instead of hanging
    # it; a forked child starts with no alarm pending
    def expire(signum, frame):
        raise TimeoutError("run_experiment still waiting after 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield Forks(monkeypatch)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "cfg, units", [(MIXED, 4), (REPLICATED, 6), (DIVERGING, 1)],
    ids=["mixed", "replicated", "diverging"],
)
def test_every_process_count_gives_the_serial_run(cfg, units, forks, tmp_path):
    forks.cpus(1)
    serial = run_experiment(cfg)
    want = _csv_bytes(serial.rows, tmp_path / "serial.csv")
    assert not forks and serial.rows
    for cpus in (2, 3, 16):
        forks.cpus(cpus)
        forks.clear()
        run = run_experiment(cfg)
        assert len(forks) == min(cpus, units) - 1  # the caller runs rank 0
        assert run.rows == serial.rows and run.failures == serial.failures
        assert _csv_bytes(run.rows, tmp_path / f"{cpus}.csv") == want
        _no_child_left()


def test_range_sum_cells_on_one_attribute_fail_in_every_process_count(
    forks, monkeypatch, tmp_path
):
    # every (op, model) group forms a work unit, the rs ones included: their
    # cells fail in the unit, under their own keys, once the width is checked
    cfg = small_config(
        ops=(OpKind.INDEX, OpKind.CARD_EST, OpKind.RANGE_SUM), norms=("l1", "linf"),
        models=THREE_MODELS[:2],
    )
    calls = []
    real = harness.train_many

    def train_many(jobs, op):
        calls.append(op)
        return real(jobs, op)

    monkeypatch.setattr(harness, "train_many", train_many)
    forks.cpus(1)
    serial = run_experiment(cfg)
    assert calls == [op for op in cfg.ops for _ in range(2)]  # 6 units, one per group
    assert [r.op for r in serial.rows] == ["index"] * 8 + ["ce"] * 8
    assert serial.failures == tuple(
        (f"rs|uniform|{n}|{model}", "range-sum data needs >= 2 attributes")
        for n in (40, 60)
        for model in ("linear", "nn-s1")
    )
    want = _csv_bytes(serial.rows, tmp_path / "serial.csv")
    for cpus in (2, 3, 16):
        forks.cpus(cpus)
        forks.clear()
        run = run_experiment(cfg)
        assert len(forks) == min(cpus, 6) - 1
        assert run.rows == serial.rows and run.failures == serial.failures
        assert _csv_bytes(run.rows, tmp_path / f"{cpus}.csv") == want
        _no_child_left()


def _in_children_only(monkeypatch, action):
    """Make every work unit outside this process call `action` first."""
    parent = os.getpid()
    real = harness.train_many

    def train_many(jobs, op):
        if os.getpid() != parent:
            action()
        return real(jobs, op)

    monkeypatch.setattr(harness, "train_many", train_many)


def test_an_error_in_a_child_is_raised_again(forks, monkeypatch):
    def fail():
        raise ValueError("bad unit")

    forks.cpus(2)
    _in_children_only(monkeypatch, fail)
    with pytest.raises(ValueError, match="bad unit") as info:
        run_experiment(MIXED)
    assert len(forks) == 1
    assert "in fail" in str(info.value.__cause__)  # the child's traceback
    _no_child_left()


def test_an_unpicklable_error_in_a_child_becomes_a_runtime_failure(forks, monkeypatch):
    class LocalError(Exception):  # a local class cannot be pickled
        pass

    def fail():
        raise LocalError("not picklable")

    forks.cpus(3)
    _in_children_only(monkeypatch, fail)
    with pytest.raises(RuntimeFailure, match="LocalError: not picklable"):
        run_experiment(MIXED)
    _no_child_left()


@pytest.mark.parametrize(
    "end, status",
    [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
        (lambda: os._exit(3), "exit status 3"),
    ],
    ids=["sigkill", "exit"],
)
def test_a_child_ending_without_results_is_a_runtime_failure(end, status, forks, monkeypatch):
    forks.cpus(2)
    _in_children_only(monkeypatch, end)
    with pytest.raises(RuntimeFailure, match=status):
        run_experiment(MIXED)
    _no_child_left()


def test_an_error_in_the_caller_kills_and_reaps_the_children(forks, monkeypatch):
    parent = os.getpid()
    real = harness.train_many

    def train_many(jobs, op):
        if os.getpid() == parent:
            raise ValueError("caller failed")
        time.sleep(60)  # killed long before
        return real(jobs, op)

    forks.cpus(16)
    monkeypatch.setattr(harness, "train_many", train_many)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="caller failed"):
        run_experiment(MIXED)
    assert len(forks) == 3 and time.perf_counter() - start < 30
    _no_child_left()


def test_no_fork_while_another_thread_runs(forks):
    forks.cpus(2)
    serial = run_experiment(MIXED)
    assert len(forks) == 1
    forks.clear()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        run = run_experiment(MIXED)
    finally:
        release.set()
        thread.join()
    assert not forks
    assert run == serial


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_failure_warnings_come_once_in_product_order(cpus, forks, caplog):
    forks.cpus(cpus)
    with caplog.at_level(logging.WARNING, logger="ldbounds.harness"):
        run = run_experiment(MIXED)
    assert len(run.failures) == 6
    assert [r.getMessage() for r in caplog.records if r.name == "ldbounds.harness"] == [
        f"cell {key} failed: {message}" for key, message in run.failures
    ]
