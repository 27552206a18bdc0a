"""Tiny learned models with from-scratch training and gradient checks.

Three kinds: an affine map, a one-hidden-layer ReLU network, and a stored
random sample of records (non-learned baseline).  Networks see queries as
feature vectors (the point for rank queries, the concatenated left edges
and widths for range queries) and emit answers normalized by the record
count; predictions scale back up by n.  Training is plain minibatch SGD
with momentum on squared error against normalized true answers, fully
deterministic given its seed.
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

_PARAM_ORDER = {LINEAR: ("w", "b"), MLP: ("W1", "b1", "W2", "b2")}

# storage charged per parameter, and per coordinate of a stored record
PRECISION_BITS = 32

# hidden width of each named network preset
PRESET_HIDDEN = {"nn-s1": 3, "nn-s2": 16}

# queries `train` draws and answers at once; bounds a block's memory at any
# step count
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
    if spec.kind == LINEAR:
        return spec.input_dim + 1
    if spec.kind == MLP:
        return spec.hidden * spec.input_dim + 2 * spec.hidden + 1
    raise InvalidRequest("sample models store records, not parameters")


def model_bits(spec: ModelSpec, data_d: int = 1) -> int:
    """Storage footprint in bits at PRECISION_BITS per stored number."""
    if spec.kind == SAMPLE:
        return spec.m * data_d * PRECISION_BITS
    return param_count(spec) * PRECISION_BITS


def input_dim_for(op: OpKind, data_d: int) -> int:
    """1 feature for rank queries, 2 per predicate axis for range queries."""
    if op is OpKind.INDEX:
        return 1
    return 2 * query_dims(op, data_d)


def matching_sample_m(op: OpKind, data_d: int) -> int:
    """Sample size whose storage matches the affine model's."""
    return max(1, math.ceil((input_dim_for(op, data_d) + 1) / data_d))


def nn_s1(input_dim: int) -> ModelSpec:
    return ModelSpec(kind=MLP, input_dim=input_dim, hidden=PRESET_HIDDEN["nn-s1"])


def nn_s2(input_dim: int) -> ModelSpec:
    return ModelSpec(kind=MLP, input_dim=input_dim, hidden=PRESET_HIDDEN["nn-s2"])


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


def _features(op: OpKind, batch) -> np.ndarray:
    if op is OpKind.INDEX:
        return np.asarray(batch, dtype=np.float64).reshape(-1, 1)
    C, R = batch
    return np.hstack([C, R])


def _forward(spec: ModelSpec, params: dict, X: np.ndarray):
    if spec.kind == LINEAR:
        out = X @ params["w"] + params["b"][0]
        return out, None
    Z1 = X @ params["W1"].T + params["b1"]
    A1 = np.maximum(Z1, 0.0)
    out = (A1 @ params["W2"].T)[:, 0] + params["b2"][0]
    return out, (Z1, A1)


def _backward(
    spec: ModelSpec, params: dict, X: np.ndarray, cache, residual: np.ndarray
) -> dict:
    """Gradients of mean squared error; `residual` is (out - target)."""
    B = X.shape[0]
    dout = 2.0 * residual / B
    if spec.kind == LINEAR:
        return {"w": X.T @ dout, "b": np.array([dout.sum()])}
    Z1, A1 = cache
    dW2 = (dout[None, :] @ A1).reshape(1, -1)
    db2 = np.array([dout.sum()])
    dA1 = dout[:, None] * params["W2"][0][None, :]
    dZ1 = dA1 * (Z1 > 0.0)
    return {"W1": dZ1.T @ X, "b1": dZ1.sum(axis=0), "W2": dW2, "b2": db2}


def predict_raw(model: TrainedModel, op: OpKind, batch) -> np.ndarray:
    """Normalized network output in answer-fraction units."""
    if model.spec.kind == SAMPLE:
        raise InvalidRequest("sample models have no network output")
    X = _features(op, batch)
    out, _ = _forward(model.spec, model.params, X)
    return out


def predict(model: TrainedModel, op: OpKind, batch) -> np.ndarray:
    """Unnormalized predicted answers for a query batch."""
    if model.spec.kind == SAMPLE:
        scale = model.n_train / model.spec.m
        return scale * eval_batch(model.sample_data, op, batch)
    return model.n_train * predict_raw(model, op, batch)


def predictor(model: TrainedModel, op: OpKind):
    """Query-batch callable for the error measurements."""
    return lambda batch: predict(model, op, batch)


def _flatten(spec: ModelSpec, params: dict) -> np.ndarray:
    return np.concatenate([params[k].ravel() for k in _PARAM_ORDER[spec.kind]])


def _unflatten(spec: ModelSpec, flat: np.ndarray, like: dict) -> dict:
    """Views into `flat`, shaped as the arrays of `like`."""
    out = {}
    pos = 0
    for k in _PARAM_ORDER[spec.kind]:
        size = like[k].size
        out[k] = flat[pos : pos + size].reshape(like[k].shape)
        pos += size
    return out


def train(
    model: TrainedModel, dataset: Dataset, op: OpKind, cfg: TrainConfig
) -> TrainedModel:
    """Fit on uniformly sampled queries against exact normalized answers.

    Returns a new model carrying the per-step loss trace.  The sample
    baseline just draws its records (without replacement when m <= n) and
    has an empty trace.
    """
    n = dataset.n
    gen = make_generator(cfg.seed)
    if model.spec.kind == SAMPLE:
        m = model.spec.m
        idx = gen.choice(n, size=m, replace=bool(m > n))
        return replace(model, records=dataset.values[np.sort(idx)], n_train=n)
    expected = input_dim_for(op, dataset.d)
    if model.spec.input_dim != expected:
        raise InvalidParams(
            f"model input_dim {model.spec.input_dim} != {expected} required "
            f"for {op.value} over {dataset.d}-attribute data"
        )
    spec, B = model.spec, cfg.batch
    # one flat vector holds every parameter; `params` are views into it
    flat = _flatten(spec, model.params)
    params = _unflatten(spec, flat, model.params)
    velocity = np.zeros_like(flat)
    trace = []
    per_block = max(1, _BLOCK_QUERIES // B)
    while len(trace) < cfg.steps:
        # a block's queries are the same stream as one draw per step
        k = min(per_block, cfg.steps - len(trace))
        block = uniform_block(op, dataset.d, k, B, gen)
        targets = eval_batch(dataset, op, block) / n
        features = _features(op, block)
        # overflow here is the signal the loss check turns into an error
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(0, k * B, B):
                X = features[s : s + B]
                out, cache = _forward(spec, params, X)
                residual = out - targets[s : s + B]
                loss = float(np.add.reduce(residual * residual) / B)
                if not math.isfinite(loss):
                    raise DivergenceDetected(f"loss became {loss} at step {len(trace)}")
                trace.append(loss)
                grads = _backward(spec, params, X, cache, residual)
                velocity *= cfg.momentum
                velocity -= cfg.lr * _flatten(spec, grads)
                flat += velocity
    return replace(model, params=params, n_train=n, loss_trace=tuple(trace))


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
    X = _features(op, batch)
    target = np.asarray(target, dtype=np.float64)
    out, cache = _forward(spec, model.params, X)
    if spec.kind == MLP and bool(np.any(np.abs(cache[0]) < kink_tol)):
        return math.nan, True
    grads = _backward(spec, model.params, X, cache, out - target)
    analytic = _flatten(spec, grads)
    flat = _flatten(spec, model.params)
    def loss_at(vec: np.ndarray) -> float:
        p = _unflatten(spec, vec, model.params)
        o, _ = _forward(spec, p, X)
        r = o - target
        return float(np.mean(r * r))

    numeric = np.empty_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += h
        down = flat.copy()
        down[i] -= h
        numeric[i] = (loss_at(up) - loss_at(down)) / (2.0 * h)
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
