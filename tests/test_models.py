from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset, random_sorted
from ldbounds import models, queryfn
from ldbounds.data import GmmParams, make_dataset, sample_gmm, sort_dataset_1d
from ldbounds.errors import (
    DimensionMismatch,
    DivergenceDetected,
    EntryOutOfRange,
    InvalidParams,
    InvalidRequest,
    ValidationError,
)
from ldbounds.models import (
    ModelSpec,
    TrainConfig,
    grad_check,
    init_model,
    input_dim_for,
    load_model,
    matching_sample_m,
    model_bits,
    nn_s1,
    nn_s2,
    param_count,
    predict,
    predictor,
    save_model,
    train,
    train_many,
)
from ldbounds.norms import EvalConfig, model_error
from ldbounds.queryfn import OpKind, eval_batch, query_dims, sample_range_queries
from ldbounds.rng import make_generator


def test_param_counts():
    assert param_count(nn_s1(1)) == 10
    assert param_count(nn_s2(1)) == 49
    assert param_count(ModelSpec(kind="linear", input_dim=1)) == 2
    assert param_count(ModelSpec(kind="linear", input_dim=4)) == 5
    assert param_count(nn_s1(2)) == 13


def test_model_bits():
    assert model_bits(ModelSpec(kind="linear", input_dim=1)) == 64
    assert model_bits(nn_s1(1)) == 320
    assert model_bits(ModelSpec(kind="sample", input_dim=1, m=3), data_d=2) == 192


def test_input_dim_for():
    assert input_dim_for(OpKind.INDEX, 1) == 1
    assert input_dim_for(OpKind.CARD_EST, 2) == 4
    assert input_dim_for(OpKind.RANGE_SUM, 3) == 4


def test_matching_sample_m():
    # the affine model on rank queries holds 2 numbers; records are 1-d
    assert matching_sample_m(OpKind.INDEX, 1) == 2
    # cardinality d=2: affine holds 5 numbers, records hold 2 each
    assert matching_sample_m(OpKind.CARD_EST, 2) == 3


def test_spec_validation():
    with pytest.raises(InvalidParams):
        ModelSpec(kind="mlp", input_dim=1, hidden=0)
    with pytest.raises(InvalidParams):
        ModelSpec(kind="sample", input_dim=1, m=0)
    with pytest.raises(InvalidParams):
        ModelSpec(kind="nonsense", input_dim=1)
    # hidden sizes an mlp only, m a sample model only
    for bad in ({"kind": "linear", "hidden": 5}, {"kind": "sample", "hidden": 5, "m": 3},
                {"kind": "linear", "m": 7}, {"kind": "mlp", "hidden": 3, "m": 7}):
        with pytest.raises(InvalidParams):
            ModelSpec(input_dim=1, **bad)


@pytest.mark.parametrize(
    "bad",
    [
        {"batch": 0},
        {"batch": -1},
        {"steps": -1},
        {"lr": -0.5},
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"momentum": -0.1},
        {"momentum": 1.0},
        {"momentum": 1.5},
        {"momentum": float("nan")},
        {"momentum": float("inf")},
    ],
)
def test_train_config_validation(bad):
    with pytest.raises(InvalidParams):
        TrainConfig(**bad)
    assert TrainConfig(steps=0, batch=1).steps == 0  # an untrained model is legal
    assert TrainConfig(lr=0.0, momentum=0.0).lr == 0.0  # a frozen model too


def test_init_deterministic():
    a = init_model(nn_s2(1), seed=5)
    b = init_model(nn_s2(1), seed=5)
    c = init_model(nn_s2(1), seed=6)
    for key in a.params:
        assert np.array_equal(a.params[key], b.params[key])
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)
    # biases start at zero, affine bias at one half
    assert np.all(a.params["b1"] == 0.0) and np.all(a.params["b2"] == 0.0)
    lin = init_model(ModelSpec(kind="linear", input_dim=1), seed=1)
    assert np.all(lin.params["w"] == 0.0) and lin.params["b"][0] == 0.5


def test_training_reduces_loss():
    ds = random_sorted(300, seed=1)
    cfg = TrainConfig(steps=600, batch=64, lr=0.05, momentum=0.9, seed=2)
    model = train(init_model(nn_s1(1), 2), ds, OpKind.INDEX, cfg)
    assert len(model.loss_trace) == 600
    head = float(np.mean(model.loss_trace[:20]))
    tail = float(np.mean(model.loss_trace[-20:]))
    assert tail < head / 4


def test_training_deterministic():
    ds = random_sorted(100, seed=3)
    cfg = TrainConfig(steps=100, batch=32, lr=0.05, momentum=0.9, seed=4)
    m1 = train(init_model(nn_s1(1), 4), ds, OpKind.INDEX, cfg)
    m2 = train(init_model(nn_s1(1), 4), ds, OpKind.INDEX, cfg)
    for key in m1.params:
        assert np.array_equal(m1.params[key], m2.params[key])
    assert m1.loss_trace == m2.loss_trace


def test_training_range_ops():
    ds = random_dataset(150, 2, seed=5)
    cfg = TrainConfig(steps=300, batch=64, lr=0.05, momentum=0.9, seed=6)
    model = train(init_model(nn_s1(4), 6), ds, OpKind.CARD_EST, cfg)
    assert np.mean(model.loss_trace[-20:]) < np.mean(model.loss_trace[:20])
    ds3 = random_dataset(150, 3, seed=7)
    model = train(init_model(nn_s1(4), 7), ds3, OpKind.RANGE_SUM, cfg)
    assert np.isfinite(model.loss_trace).all()


def test_training_rejects_wrong_input_dim():
    ds = random_dataset(50, 2, seed=8)
    cfg = TrainConfig(steps=10, batch=8, lr=0.01, momentum=0.9, seed=9)
    with pytest.raises(InvalidParams):
        train(init_model(nn_s1(1), 9), ds, OpKind.CARD_EST, cfg)


@pytest.mark.parametrize(
    "spec", [ModelSpec(kind="linear", input_dim=1), nn_s1(1), ModelSpec(kind="sample", input_dim=1, m=3)]
)
def test_rank_routes_reject_two_attribute_data(spec):
    ds = random_dataset(50, 2, seed=1)
    with pytest.raises(DimensionMismatch):
        query_dims(OpKind.INDEX, 2)
    with pytest.raises(DimensionMismatch):
        eval_batch(ds, OpKind.INDEX, np.array([0.5]))
    with pytest.raises(DimensionMismatch):
        model_error(ds, OpKind.INDEX, lambda b: np.zeros(len(b)), "l1", EvalConfig(samples=8))
    with pytest.raises(DimensionMismatch):
        train(init_model(spec, 2), ds, OpKind.INDEX, TrainConfig(steps=3, batch=4, seed=2))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["linear", "nn-s1", "sample"]),
    values=st.lists(st.integers(0, 4).map(lambda k: k / 4) | st.floats(0.0, 1.0), min_size=1, max_size=30),
    m=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_index_training_sees_only_the_multiset(kind, values, m, seed):
    # shuffled records train the model of their sorted copy, bit for bit
    shuffled = make_dataset(values)
    spec = {"linear": ModelSpec(kind="linear", input_dim=1), "nn-s1": nn_s1(1),
            "sample": ModelSpec(kind="sample", input_dim=1, m=m)}[kind]
    cfg = TrainConfig(steps=20, batch=16, lr=0.05, seed=seed)
    a, b = (
        train(init_model(spec, seed), ds, OpKind.INDEX, cfg)
        for ds in (shuffled, sort_dataset_1d(shuffled))
    )
    assert a.params.keys() == b.params.keys()
    for name in a.params:
        assert a.params[name].tobytes() == b.params[name].tobytes()
    assert (a.records is None) == (b.records is None)
    if a.records is not None:
        assert a.records.tobytes() == b.records.tobytes()
    assert np.array(a.loss_trace).tobytes() == np.array(b.loss_trace).tobytes()
    assert a.n_train == b.n_train


def test_training_divergence_detected():
    ds = random_sorted(100, seed=10)
    cfg = TrainConfig(steps=3000, batch=32, lr=1e6, momentum=0.99, seed=11)
    with pytest.raises(DivergenceDetected, match="at step 24"):
        train(init_model(nn_s2(1), 11), ds, OpKind.INDEX, cfg)


def test_predict_scales_by_n():
    ds = random_sorted(80, seed=12)
    cfg = TrainConfig(steps=50, batch=16, lr=0.01, momentum=0.9, seed=13)
    model = train(init_model(ModelSpec(kind="linear", input_dim=1), 13), ds, OpKind.INDEX, cfg)
    qs = np.array([0.0, 0.5, 1.0])
    out = predict(model, OpKind.INDEX, qs)
    assert out.shape == (3,)
    # untrained affine starts at 0.5 -> predictions near n/2 before training
    fresh = init_model(ModelSpec(kind="linear", input_dim=1), 1)
    fresh = train(fresh, ds, OpKind.INDEX, TrainConfig(steps=0, batch=8, lr=0.0, momentum=0.0, seed=1))
    assert np.allclose(predict(fresh, OpKind.INDEX, qs), 40.0)


def test_sample_model_exact_at_full_size():
    for op, d in ((OpKind.INDEX, 1), (OpKind.CARD_EST, 2), (OpKind.RANGE_SUM, 2)):
        n = 60
        ds = random_sorted(n, seed=20) if op is OpKind.INDEX else random_dataset(n, d, seed=20)
        spec = ModelSpec(kind="sample", input_dim=input_dim_for(op, d), m=n)
        model = train(init_model(spec, 21), ds, op, TrainConfig(steps=0, batch=1, lr=0.0, momentum=0.0, seed=21))
        gen = make_generator(22)
        if op is OpKind.INDEX:
            batch = gen.random(500)
        else:
            batch = sample_range_queries(500, d if op is OpKind.CARD_EST else d - 1, gen)
        got = predict(model, op, batch)
        want = eval_batch(ds, op, batch)
        assert np.array_equal(got, want), op


def test_sample_model_subsample_scale():
    ds = random_sorted(100, seed=23)
    spec = ModelSpec(kind="sample", input_dim=1, m=10)
    model = train(init_model(spec, 24), ds, OpKind.INDEX, TrainConfig(steps=0, batch=1, lr=0.0, momentum=0.0, seed=24))
    assert model.records.shape == (10, 1)
    out = predict(model, OpKind.INDEX, np.array([1.0]))
    assert out[0] == 100.0  # (n/m) * m records matched


def test_grad_check_random_instances():
    gen = make_generator(30)
    worst = 0.0
    for trial in range(30):
        kind = trial % 3
        if kind == 0:
            spec = ModelSpec(kind="linear", input_dim=1)
            op = OpKind.INDEX
        elif kind == 1:
            spec = nn_s1(1)
            op = OpKind.INDEX
        else:
            spec = nn_s2(4)
            op = OpKind.CARD_EST
        model = init_model(spec, seed=100 + trial)
        if op is OpKind.INDEX:
            batch = gen.random(8)
        else:
            batch = sample_range_queries(8, 2, gen)
        target = gen.random(8)
        err, skipped = grad_check(model, op, batch, target)
        if not skipped:
            worst = max(worst, err)
    assert worst < 1e-4


def test_save_load_roundtrip(tmp_path):
    ds = random_sorted(50, seed=31)
    cfg = TrainConfig(steps=40, batch=16, lr=0.05, momentum=0.9, seed=32)
    specs = (nn_s1(1), nn_s2(1), ModelSpec(kind="linear", input_dim=1), ModelSpec(kind="sample", input_dim=1, m=5))
    for spec in specs:
        model = train(init_model(spec, 33), ds, OpKind.INDEX, cfg)
        path = str(tmp_path / f"{spec.kind}-{spec.hidden}.json")
        save_model(model, path)
        back = load_model(path)
        assert back.spec == spec
        qs = np.linspace(0.0, 1.0, 7)
        assert np.array_equal(
            predict(model, OpKind.INDEX, qs), predict(back, OpKind.INDEX, qs)
        ), spec.kind


def test_load_model_rejects_other_precision(tmp_path):
    path = str(tmp_path / "linear.json")
    save_model(init_model(ModelSpec(kind="linear", input_dim=1), 1), path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["precision_bits"] == 32
    for bits in (16, 64, None):
        doc["precision_bits"] = bits
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValidationError):
            load_model(path)


@pytest.mark.parametrize("bad", ["2.5", "nan"])
def test_load_model_rejects_bad_sample_records(tmp_path, bad):
    path = str(tmp_path / "sample.json")
    spec = ModelSpec(kind="sample", input_dim=1, m=2)
    model = train(init_model(spec, 1), random_sorted(5, seed=2), OpKind.INDEX, TrainConfig(steps=0))
    save_model(model, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["records"] = [["0.5"], [bad]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with pytest.raises(EntryOutOfRange):
        load_model(path)


def test_sample_model_builds_one_kernel(monkeypatch):
    built = []
    box_sum = queryfn.BoxSum

    def counting(*args):
        built.append(args)
        return box_sum(*args)

    monkeypatch.setattr(queryfn, "BoxSum", counting)
    spec = ModelSpec(kind="sample", input_dim=4, m=50)
    ds = random_dataset(200, 2, seed=41)
    model = train(init_model(spec, 42), ds, OpKind.CARD_EST, TrainConfig(steps=0, seed=42))
    gen = make_generator(43)
    for _ in range(2):
        predict(model, OpKind.CARD_EST, sample_range_queries(64, 2, gen))
    assert len(built) == 1


def test_predictor_feeds_model_error():
    ds = random_sorted(60, seed=34)
    spec = ModelSpec(kind="sample", input_dim=1, m=60)
    model = train(init_model(spec, 35), ds, OpKind.INDEX, TrainConfig(steps=0, batch=1, lr=0.0, momentum=0.0, seed=35))
    est = model_error(ds, OpKind.INDEX, predictor(model, OpKind.INDEX), "linf", EvalConfig(samples=200, grid=8, seed=36))
    assert est.value == 0.0


def test_predict_raw_rejected_for_sample():
    spec = ModelSpec(kind="sample", input_dim=1, m=2)
    model = init_model(spec, 1)
    with pytest.raises(InvalidRequest):
        from ldbounds.models import predict_raw

        predict_raw(model, OpKind.INDEX, np.array([0.5]))


def test_train_prepares_each_dataset_once(monkeypatch):
    builds = []

    class CountingBoxSum(queryfn.BoxSum):
        def __init__(self, points, weights):
            builds.append(points.shape)
            super().__init__(points, weights)

    monkeypatch.setattr(queryfn, "BoxSum", CountingBoxSum)
    ds = random_dataset(50, 2, seed=21)
    spec = ModelSpec(kind="linear", input_dim=input_dim_for(OpKind.CARD_EST, 2))
    model = init_model(spec, seed=0)
    for seed in (0, 1):
        train(model, ds, OpKind.CARD_EST, TrainConfig(steps=25, batch=16, seed=seed))
    assert builds == [(50, 2)]


def _reference_train(model, dataset, op, cfg):
    """The per-step loop: one draw, one eval_batch and one update per name.

    Its forward and backward passes are written out here for one model, so
    the oracle shares no code with the stacked kernels it checks.
    """
    n = dataset.n
    gen = make_generator(cfg.seed)
    draw = queryfn.uniform_sampler(op, dataset.d)
    params = {k: v.copy() for k, v in model.params.items()}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    trace = []
    for _ in range(cfg.steps):
        batch = draw(cfg.batch, gen)
        target = eval_batch(dataset, op, batch) / n
        if op is OpKind.INDEX:
            X = np.asarray(batch, dtype=np.float64).reshape(-1, 1)
        else:
            X = np.hstack(batch)
        if model.spec.kind == "linear":
            out = X @ params["w"] + params["b"][0]
        else:
            Z1 = X @ params["W1"].T + params["b1"]
            A1 = np.maximum(Z1, 0.0)
            out = (A1 @ params["W2"].T)[:, 0] + params["b2"][0]
        residual = out - target
        trace.append(float(np.mean(residual * residual)))
        dout = 2.0 * residual / X.shape[0]
        if model.spec.kind == "linear":
            grads = {"w": X.T @ dout, "b": np.array([dout.sum()])}
        else:
            dA1 = dout[:, None] * params["W2"][0][None, :]
            dZ1 = dA1 * (Z1 > 0.0)
            grads = {
                "W1": dZ1.T @ X,
                "b1": dZ1.sum(axis=0),
                "W2": (dout[None, :] @ A1).reshape(1, -1),
                "b2": np.array([dout.sum()]),
            }
        for k in params:
            velocity[k] = cfg.momentum * velocity[k] - cfg.lr * grads[k]
            params[k] += velocity[k]
    return params, tuple(trace)


# (op, d): n = 200 puts ce at d = 3 on the mask kernel, the rest on the table
REFERENCE_CASES = [
    (OpKind.INDEX, 1),
    (OpKind.CARD_EST, 1),
    (OpKind.CARD_EST, 2),
    (OpKind.CARD_EST, 3),
    (OpKind.RANGE_SUM, 2),
    (OpKind.RANGE_SUM, 3),
]


@pytest.mark.parametrize("steps,batch", [(40, 5000), (7, 1), (300, 64), (0, 3)])
@pytest.mark.parametrize("op,d", REFERENCE_CASES)
@pytest.mark.parametrize("preset", ["linear", "nn-s1", "nn-s2"])
def test_train_matches_reference_loop(preset, op, d, steps, batch):
    ds = random_sorted(200, seed=d) if op is OpKind.INDEX else random_dataset(200, d, seed=d)
    dim = input_dim_for(op, d)
    spec = {"linear": ModelSpec(kind="linear", input_dim=dim), "nn-s1": nn_s1(dim), "nn-s2": nn_s2(dim)}
    model = init_model(spec[preset], seed=3)
    cfg = TrainConfig(steps=steps, batch=batch, lr=0.05, momentum=0.9, seed=17)
    got = train(model, ds, op, cfg)
    params, trace = _reference_train(model, ds, op, cfg)
    assert got.loss_trace == trace
    assert got.params.keys() == params.keys()
    for k in params:
        assert got.params[k].shape == params[k].shape
        assert got.params[k].dtype == params[k].dtype
        assert np.array_equal(got.params[k], params[k])


@pytest.mark.parametrize("op,d", [(OpKind.INDEX, 1), (OpKind.CARD_EST, 1), (OpKind.RANGE_SUM, 3)])
def test_uniform_block_equals_consecutive_draws(op, d):
    block_gen, gen = make_generator(8), make_generator(8)
    block = queryfn.uniform_block(op, d, 5, 7, block_gen)
    draw = queryfn.uniform_sampler(op, d)
    draws = [draw(7, gen) for _ in range(5)]
    if op is OpKind.INDEX:
        assert np.array_equal(block, np.concatenate(draws))
    else:
        C, R = block
        assert np.array_equal(C, np.concatenate([c for c, _ in draws]))
        assert np.array_equal(R, np.concatenate([r for _, r in draws]))
    # both leave the generator at the same point of its stream
    assert block_gen.random() == gen.random()


@pytest.mark.parametrize("steps,batch,calls", [(1000, 64, 1), (40, 5000, 4)])
def test_train_answers_one_batch_per_block(monkeypatch, steps, batch, calls):
    seen = []

    def counting(*args):
        seen.append(args)
        return eval_batch(*args)

    monkeypatch.setattr(models, "eval_batch", counting)
    ds = random_dataset(100, 2, seed=51)
    spec = nn_s1(input_dim_for(OpKind.CARD_EST, 2))
    cfg = TrainConfig(steps=steps, batch=batch, seed=52)
    model = train(init_model(spec, 52), ds, OpKind.CARD_EST, cfg)
    assert len(model.loss_trace) == steps
    assert len(seen) == calls


_GMM = GmmParams(components=((0.25, 0.05, 0.5), (0.75, 0.1, 0.5)))


def _mixed_jobs(spec, op, d, cfg):
    """Jobs under one spec and setting that differ in n, data and seed."""
    sets = [
        random_dataset(50, d, seed=1),
        sample_gmm(200, d, _GMM, seed=2),
        random_dataset(1000, d, seed=3),
        sample_gmm(7, d, _GMM, seed=4),
    ]
    if op is OpKind.INDEX:
        sets = [sort_dataset_1d(ds) for ds in sets]
    return [
        (init_model(spec, seed=10 + i), ds, replace(cfg, seed=20 + i))
        for i, ds in enumerate(sets)
    ]


@pytest.mark.parametrize("steps,batch", [(300, 64), (40, 5000)])
@pytest.mark.parametrize("op,d", [(OpKind.INDEX, 1), (OpKind.CARD_EST, 2), (OpKind.RANGE_SUM, 3)])
@pytest.mark.parametrize("preset", ["linear", "nn-s1", "nn-s2"])
def test_stacked_job_equals_job_alone(preset, op, d, steps, batch):
    dim = input_dim_for(op, d)
    spec = {"linear": ModelSpec(kind="linear", input_dim=dim), "nn-s1": nn_s1(dim), "nn-s2": nn_s2(dim)}
    cfg = TrainConfig(steps=steps, batch=batch, lr=0.05, momentum=0.9)
    jobs = _mixed_jobs(spec[preset], op, d, cfg)
    stacked = train_many(jobs, op)
    assert len(stacked) == len(jobs)
    for (model, ds, job_cfg), got in zip(jobs, stacked):
        alone = train(model, ds, op, job_cfg)
        assert got.n_train == ds.n
        assert got.loss_trace == alone.loss_trace
        for k in alone.params:
            assert got.params[k].shape == alone.params[k].shape
            assert np.array_equal(got.params[k], alone.params[k])


def test_train_many_sample_jobs_and_empty_stack():
    spec = ModelSpec(kind="sample", input_dim=1, m=5)
    jobs = _mixed_jobs(spec, OpKind.INDEX, 1, TrainConfig(steps=0))
    for (model, ds, cfg), got in zip(jobs, train_many(jobs, OpKind.INDEX)):
        assert np.array_equal(got.records, train(model, ds, OpKind.INDEX, cfg).records)
    assert train_many([], OpKind.INDEX) == []


def test_train_many_rejects_mixed_settings():
    cfg = TrainConfig(steps=5, batch=4)
    jobs = _mixed_jobs(nn_s1(1), OpKind.INDEX, 1, cfg)
    with pytest.raises(InvalidParams):
        train_many(jobs[:1] + [(init_model(nn_s2(1), 0), jobs[1][1], cfg)], OpKind.INDEX)
    with pytest.raises(InvalidParams):
        train_many(jobs[:1] + [(jobs[1][0], jobs[1][1], replace(cfg, lr=0.5))], OpKind.INDEX)


@pytest.mark.parametrize("slot", [0, 2])
def test_diverging_job_fails_only_itself(slot):
    # lr = 1.8 sits near the edge: an affine model starting 1e100 away from
    # its fit overflows mid-run, the others stay finite for 300 steps
    cfg = TrainConfig(steps=300, batch=4, lr=1.8, momentum=0.9)
    jobs = _mixed_jobs(ModelSpec(kind="linear", input_dim=1), OpKind.INDEX, 1, cfg)
    model, ds, job_cfg = jobs[slot]
    far = replace(model, params={k: 1e100 * v for k, v in model.params.items()})
    jobs[slot] = (far, ds, job_cfg)
    with pytest.raises(DivergenceDetected, match="at step 1[0-9][0-9]$") as alone:
        train(far, ds, OpKind.INDEX, job_cfg)
    stacked = train_many(jobs, OpKind.INDEX)
    assert isinstance(stacked[slot], DivergenceDetected)
    assert str(stacked[slot]) == str(alone.value)
    for j, (model, ds, job_cfg) in enumerate(jobs):
        if j != slot:
            want = train(model, ds, OpKind.INDEX, job_cfg)
            assert stacked[j].loss_trace == want.loss_trace
            assert all(np.array_equal(stacked[j].params[k], want.params[k]) for k in want.params)


@pytest.mark.parametrize("stack", [1, 2])
def test_divergence_in_a_later_block_keeps_its_step(stack):
    # 4,096 queries a step: blocks of 16 steps alone, 8 in a stack of two;
    # the per-step loop's first non-finite loss is at step 24 either way
    ds = random_sorted(100, seed=10)
    cfg = TrainConfig(steps=200, batch=4096, lr=1e6, momentum=0.99, seed=11)
    model = init_model(nn_s2(1), 11)
    with np.errstate(all="ignore"):
        _, trace = _reference_train(model, ds, OpKind.INDEX, cfg)
    step = int(np.argmin(np.isfinite(trace)))
    assert step == 24 and step >= models._BLOCK_QUERIES // (stack * cfg.batch)
    other = (init_model(nn_s2(1), 12), random_sorted(100, seed=12), replace(cfg, seed=12))
    jobs = [(model, ds, cfg), other][:stack]
    got = train_many(jobs, OpKind.INDEX)[0]
    assert isinstance(got, DivergenceDetected)
    assert str(got) == f"loss became {trace[step]} at step {step}"
