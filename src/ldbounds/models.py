"""Tiny learned models with from-scratch training and gradient checks.

Three kinds: an affine map, a one-hidden-layer ReLU network, and a stored
random sample of records (non-learned baseline).  Networks see queries as
feature vectors (the point for rank queries, the concatenated left edges
and widths for range queries) and emit answers normalized by the record
count; predictions scale back up by n.  Training is plain minibatch SGD
with momentum on squared error against normalized true answers, fully
deterministic given its seed.

`train_many` fits K models of one spec and setting in lockstep: their
parameters are the rows of one (K, P) array, and each step is one stacked
forward pass, backward pass and update for all K.  `train`, `predict_raw`
and `grad_check` run the same kernels with K = 1, and a model's numbers do
not depend on the stack it is trained in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import Dataset, make_dataset
from .errors import DivergenceDetected, FormatError, InvalidParams, InvalidRequest
from .queryfn import OpKind, eval_batch, query_dims, uniform_block
from .rng import make_generator

LINEAR = "linear"
MLP = "mlp"
SAMPLE = "sample"

# storage charged per parameter, and per coordinate of a stored record
PRECISION_BITS = 32

# each named model preset's kind and hidden width
PRESETS = {
    "linear": (LINEAR, 0), "nn-s1": (MLP, 3), "nn-s2": (MLP, 16), "sample": (SAMPLE, 0),
}

# queries a training stack draws and answers at once, over all its models;
# bounds a block's memory at any step count and stack size
_BLOCK_QUERIES = 65_536


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    hidden: int = 0
    m: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (LINEAR, MLP, SAMPLE):
            raise InvalidParams(f"unknown model kind {self.kind!r}")
        if self.kind != SAMPLE and self.input_dim < 1:
            raise InvalidParams("input_dim must be >= 1")
        if self.kind == MLP and self.hidden < 1:
            raise InvalidParams("mlp needs hidden >= 1")
        if self.kind == SAMPLE and self.m < 1:
            raise InvalidParams("sample needs m >= 1")
        if self.hidden and self.kind != MLP or self.m and self.kind != SAMPLE:
            raise InvalidParams(f"hidden sizes an mlp and m a sample, not a {self.kind}")


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 20_000
    batch: int = 256
    lr: float = 0.01
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise InvalidParams("steps must be >= 0")
        if self.batch < 1:
            raise InvalidParams("batch must be >= 1")
        # chained comparisons: nan fails both
        if not 0.0 <= self.lr < math.inf:
            raise InvalidParams("lr must be finite and >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidParams("momentum must lie in [0, 1)")


@dataclass(frozen=True)
class TrainedModel:
    spec: ModelSpec
    params: dict = field(default_factory=dict)
    records: np.ndarray | None = None
    n_train: int = 0
    loss_trace: tuple[float, ...] = ()

    @cached_property
    def sample_data(self) -> Dataset:
        """A sample model's records as a Dataset, so its query kernel is built once."""
        if self.records is None:
            raise InvalidRequest("sample model is untrained")
        return make_dataset(self.records)


def param_count(spec: ModelSpec) -> int:
    if spec.kind == SAMPLE:
        raise InvalidRequest("sample models store records, not parameters")
    return sum(math.prod(shape) for _, shape in _shapes(spec))


def model_bits(spec: ModelSpec, data_d: int = 1) -> int:
    """Storage footprint in bits at PRECISION_BITS per stored number."""
    if spec.kind == SAMPLE:
        return spec.m * data_d * PRECISION_BITS
    return param_count(spec) * PRECISION_BITS


def input_dim_for(op: OpKind, data_d: int) -> int:
    """1 feature for rank queries, 2 per predicate axis for range queries.

    Data of the wrong width for `op` raises DimensionMismatch (`query_dims`).
    """
    dq = query_dims(op, data_d)
    return 1 if op is OpKind.INDEX else 2 * dq


def matching_sample_m(op: OpKind, data_d: int) -> int:
    """Sample size whose storage matches the affine model's."""
    return max(1, math.ceil((input_dim_for(op, data_d) + 1) / data_d))


def nn_s1(input_dim: int) -> ModelSpec:
    return ModelSpec(MLP, input_dim, hidden=PRESETS["nn-s1"][1])


def nn_s2(input_dim: int) -> ModelSpec:
    return ModelSpec(MLP, input_dim, hidden=PRESETS["nn-s2"][1])


def init_model(spec: ModelSpec, seed: int) -> TrainedModel:
    """Zero/Xavier initialization; the affine bias starts at 0.5."""
    if spec.kind == SAMPLE:
        return TrainedModel(spec=spec)
    if spec.kind == LINEAR:
        params = {"w": np.zeros(spec.input_dim), "b": np.array([0.5])}
        return TrainedModel(spec=spec, params=params)
    gen = make_generator(seed)
    fan_in, h = spec.input_dim, spec.hidden
    lim1 = math.sqrt(6.0 / (fan_in + h))
    lim2 = math.sqrt(6.0 / (h + 1))
    params = {
        "W1": gen.uniform(-lim1, lim1, size=(h, fan_in)),
        "b1": np.zeros(h),
        "W2": gen.uniform(-lim2, lim2, size=(1, h)),
        "b2": np.zeros(1),
    }
    return TrainedModel(spec=spec, params=params)


def _features(op: OpKind, batch, out: np.ndarray | None = None) -> np.ndarray:
    """One row per query: its point, or its left edges then its widths."""
    if op is OpKind.INDEX:
        batch = (np.asarray(batch, dtype=np.float64).reshape(-1, 1),)
    return np.concatenate(batch, axis=1, out=out)


def _shapes(spec: ModelSpec) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Each parameter's name and shape, in flat-vector order."""
    if spec.kind == LINEAR:
        return (("w", (spec.input_dim,)), ("b", (1,)))
    h = spec.hidden
    return (("W1", (h, spec.input_dim)), ("b1", (h,)), ("W2", (1, h)), ("b2", (1,)))


def _flatten(spec: ModelSpec, params: dict) -> np.ndarray:
    return np.concatenate([params[name].ravel() for name, _ in _shapes(spec)])


def _views(spec: ModelSpec, flat: np.ndarray) -> dict:
    """Per-name views into a (K, P) stack of flat vectors, stack axis first."""
    out = {}
    pos = 0
    for name, shape in _shapes(spec):
        size = math.prod(shape)
        out[name] = flat[:, pos : pos + size].reshape(-1, *shape)
        pos += size
    return out


def _bind(spec: ModelSpec, flat: np.ndarray) -> dict:
    """The views of a (K, P) stack that the kernels read and write, bound once.

    Biases keep a unit axis where they broadcast over a batch; the weights
    that multiply from the right come transposed too.
    """
    v = _views(spec, flat)
    if spec.kind == LINEAR:
        return {"w": v["w"][:, :, None], "b": v["b"]}
    return {
        "W1": v["W1"], "W1T": v["W1"].transpose(0, 2, 1), "b1": v["b1"][:, None, :],
        "W2": v["W2"], "W2T": v["W2"].transpose(0, 2, 1), "b2": v["b2"],
    }


# The kernels below run K models at once: features X are (K, B, D), outputs
# and residuals (K, B), and the bound views `p` and `g` (`_bind`) have the
# stack as their leading axis.  Every stacked matmul and reduction makes, per
# model, the same BLAS call or summation as it would for that model alone,
# so a model's numbers do not depend on the stack it runs in.


def _forward(spec: ModelSpec, p: dict, X: np.ndarray):
    if spec.kind == LINEAR:
        out = (X @ p["w"])[:, :, 0]
        out += p["b"]
        return out, None
    Z1 = X @ p["W1T"]
    Z1 += p["b1"]
    A1 = np.maximum(Z1, 0.0)
    out = (A1 @ p["W2T"])[:, :, 0]
    out += p["b2"]
    return out, (Z1, A1)


def _backward(
    spec: ModelSpec, p: dict, X: np.ndarray, cache, residual: np.ndarray, g: dict
) -> None:
    """Gradients of mean squared error, written into the views `g`.

    `residual` is (out - target).
    """
    dout = 2.0 * residual
    dout /= X.shape[1]
    if spec.kind == LINEAR:
        np.matmul(X.transpose(0, 2, 1), dout[:, :, None], out=g["w"])
        np.add.reduce(dout, axis=1, keepdims=True, out=g["b"])
        return
    Z1, A1 = cache
    np.matmul(dout[:, None, :], A1, out=g["W2"])
    np.add.reduce(dout, axis=1, keepdims=True, out=g["b2"])
    dZ1 = dout[:, :, None] * p["W2"]
    dZ1 *= Z1 > 0.0
    np.matmul(dZ1.transpose(0, 2, 1), X, out=g["W1"])
    np.add.reduce(dZ1, axis=1, keepdims=True, out=g["b1"])


def predict_raw(model: TrainedModel, op: OpKind, batch) -> np.ndarray:
    """Normalized network output in answer-fraction units."""
    spec = model.spec
    if spec.kind == SAMPLE:
        raise InvalidRequest("sample models have no network output")
    flat = _flatten(spec, model.params)[None]
    out, _ = _forward(spec, _bind(spec, flat), _features(op, batch)[None])
    return out[0]


def predict(model: TrainedModel, op: OpKind, batch) -> np.ndarray:
    """Unnormalized predicted answers for a query batch."""
    if model.spec.kind == SAMPLE:
        scale = model.n_train / model.spec.m
        return scale * eval_batch(model.sample_data, op, batch)
    return model.n_train * predict_raw(model, op, batch)


def train(
    model: TrainedModel, dataset: Dataset, op: OpKind, cfg: TrainConfig
) -> TrainedModel:
    """Fit on uniformly sampled queries against exact normalized answers.

    Returns a new model carrying the per-step loss trace.  The sample
    baseline just draws its records (without replacement when m <= n) and
    has an empty trace; for rank data it draws them by position in the
    sorted column, so a shuffled dataset gives the model of its sorted copy.
    Data of the wrong width for `op` (`input_dim_for`) raises DimensionMismatch.
    This is `train_many` with one job; it raises the job's
    `DivergenceDetected`.
    """
    result = train_many([(model, dataset, cfg)], op)[0]
    if isinstance(result, DivergenceDetected):
        raise result
    return result


def train_many(jobs, op: OpKind) -> list:
    """Fit K (model, dataset, cfg) jobs in lockstep, one stacked step at a time.

    The jobs share one ModelSpec and one steps/batch/lr/momentum setting;
    they differ in seed and dataset.  Each job draws its queries from its
    own generator and answers them on its own dataset, in blocks of at most
    _BLOCK_QUERIES queries across the stack, and its parameters are one row
    of a (K, P) array that keeps all K rows to the end.  Returns, per job in
    order, the trained model, or the `DivergenceDetected` for the first step
    whose loss was not finite, found once the stack ends; a diverged job
    steps on meanwhile, and no kernel mixes its row into another's.  A job's
    result equals that of the same job trained alone, bit for bit.
    """
    if not jobs:
        return []
    spec, cfg = jobs[0][0].spec, jobs[0][2]
    for model, dataset, job_cfg in jobs:
        if model.spec != spec or replace(job_cfg, seed=cfg.seed) != cfg:
            raise InvalidParams("stacked jobs must share one model spec and setting")
        expected = input_dim_for(op, dataset.d)
        if spec.kind != SAMPLE and spec.input_dim != expected:
            raise InvalidParams(
                f"model input_dim {spec.input_dim} != {expected} required "
                f"for {op.value} over {dataset.d}-attribute data"
            )
    gens = [make_generator(job_cfg.seed) for _, _, job_cfg in jobs]
    results = []
    if spec.kind == SAMPLE:
        for (model, dataset, _), gen in zip(jobs, gens):
            n, m = dataset.n, spec.m
            idx = np.sort(gen.choice(n, size=m, replace=bool(m > n)))
            # rank records by position in the sorted column: the multiset decides
            pool = dataset.sorted_column[:, None] if op is OpKind.INDEX else dataset.values
            results.append(replace(model, records=pool[idx], n_train=n))
        return results
    B, steps, K = cfg.batch, cfg.steps, len(jobs)
    per_block = max(1, _BLOCK_QUERIES // (K * B))  # steps a block
    flat = np.stack([_flatten(spec, model.params) for model, _, _ in jobs])
    velocity = np.zeros_like(flat)
    grads = np.empty_like(flat)
    p, g = _bind(spec, flat), _bind(spec, grads)  # bound once: both change only in place
    losses = np.empty((K, steps))
    # overflow here is the signal the loss check turns into an error
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, steps, per_block):
            # a block's queries are the same stream as one draw per step
            k = min(per_block, steps - done)
            X = np.empty((K, k * B, spec.input_dim))
            T = np.empty((K, k * B))
            for row, (_, dataset, _) in enumerate(jobs):
                block = uniform_block(op, dataset.d, k, B, gens[row])
                _features(op, block, out=X[row])
                np.divide(eval_batch(dataset, op, block), dataset.n, out=T[row])
            for t in range(k):
                Xt, Tt = X[:, t * B : (t + 1) * B], T[:, t * B : (t + 1) * B]
                out, cache = _forward(spec, p, Xt)
                residual = np.subtract(out, Tt, out=Tt)  # targets become residuals
                _backward(spec, p, Xt, cache, residual, g)
                velocity *= cfg.momentum
                grads *= cfg.lr
                velocity -= grads
                flat += velocity
            # each step's loss from its residuals, squared in place
            squares = np.square(T, out=T).reshape(K, k, B)
            np.divide(np.add.reduce(squares, axis=2), B, out=losses[:, done : done + k])
    params = _views(spec, flat)
    for row, (model, dataset, _) in enumerate(jobs):
        bad = np.flatnonzero(~np.isfinite(losses[row]))
        if bad.size:
            t, v = int(bad[0]), float(losses[row, bad[0]])
            results.append(DivergenceDetected(f"loss became {v} at step {t}"))
        else:
            results.append(replace(
                model,
                params={name: view[row] for name, view in params.items()},
                n_train=dataset.n,
                loss_trace=tuple(losses[row].tolist()),
            ))
    return results


# -- gradient verification ---------------------------------------------------


def grad_check(
    model: TrainedModel,
    op: OpKind,
    batch,
    target: np.ndarray,
    h: float = 1e-5,
    kink_tol: float = 1e-8,
) -> tuple[float, bool]:
    """Compare analytic MSE gradients against central differences.

    Returns (max relative error, skipped).  skipped=True means a hidden
    unit's pre-activation sat within kink_tol of the ReLU corner, where
    the two-sided difference is not trustworthy; callers should redraw.
    """
    spec = model.spec
    if spec.kind == SAMPLE:
        raise InvalidRequest("gradient checks apply to differentiable kinds only")
    X = _features(op, batch)[None]
    target = np.asarray(target, dtype=np.float64)
    flat = _flatten(spec, model.params)[None]
    p = _bind(spec, flat)
    out, cache = _forward(spec, p, X)
    if spec.kind == MLP and bool(np.any(np.abs(cache[0]) < kink_tol)):
        return math.nan, True
    grads = np.empty_like(flat)
    _backward(spec, p, X, cache, out - target, _bind(spec, grads))
    analytic = grads[0]
    # every parameter nudged up, then down: one stack of 2P models
    P = flat.shape[1]
    nudged = np.concatenate([flat + h * np.eye(P), flat - h * np.eye(P)])
    r = _forward(spec, _bind(spec, nudged), X)[0] - target
    loss = np.mean(r * r, axis=1)
    numeric = (loss[:P] - loss[P:]) / (2.0 * h)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / scale).max()), False


# -- checkpoints -------------------------------------------------------------


def save_model(model: TrainedModel, path: str) -> None:
    """JSON checkpoint with parameters as full-precision decimal strings."""
    spec = model.spec
    doc = {
        "kind": spec.kind,
        "input_dim": spec.input_dim,
        "hidden": spec.hidden,
        "m": spec.m,
        "precision_bits": PRECISION_BITS,
        "n_train": model.n_train,
    }
    if spec.kind == SAMPLE:
        rec = model.records if model.records is not None else np.empty((0, 1))
        doc["records"] = [[repr(float(x)) for x in row] for row in rec]
    else:
        doc["params"] = {
            k: {"shape": list(v.shape), "data": [repr(float(x)) for x in v.ravel()]}
            for k, v in model.params.items()
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def load_model(path: str) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("precision_bits") != PRECISION_BITS:
        raise FormatError(f"checkpoint precision_bits must be {PRECISION_BITS}")
    spec = ModelSpec(
        kind=doc["kind"],
        input_dim=doc["input_dim"],
        hidden=doc["hidden"],
        m=doc["m"],
    )
    if spec.kind == SAMPLE:
        rows = [[float(x) for x in row] for row in doc["records"]]
        rec = make_dataset(rows).values if rows else None
        return TrainedModel(spec=spec, records=rec, n_train=doc["n_train"])
    params = {
        k: np.asarray([float(x) for x in v["data"]], dtype=np.float64).reshape(
            v["shape"]
        )
        for k, v in doc["params"].items()
    }
    return TrainedModel(spec=spec, params=params, n_train=doc["n_train"])
