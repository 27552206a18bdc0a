"""Experiment grid: sample data, train models, measure errors, invert bounds.

A cell is one (operation, norm, distribution, n, model) combination.
Each cell gets its own seeds, derived by mixing the master seed with a
stable hash of the cell coordinates, so re-running a config reproduces
every number bit for bit and adding cells never perturbs existing ones.
Training seeds deliberately exclude the norm coordinate: the norm only
changes how a trained model is measured, so both norm rows of a cell
share one trained model.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import astuple, dataclass, field, fields, replace

from . import bounds as bnd
from .data import Dataset, GmmParams, sample_gmm, sample_uniform, sort_dataset_1d
from .errors import DimensionMismatch, InvalidParams, LdboundsError
from .models import (
    LINEAR,
    MLP,
    PRESET_HIDDEN,
    SAMPLE,
    ModelSpec,
    TrainConfig,
    init_model,
    input_dim_for,
    matching_sample_m,
    model_bits,
    predictor,
    train,
)
from .norms import EvalConfig, model_error
from .queryfn import OpKind, query_dims
from .rng import mix64, stable_text_hash

log = logging.getLogger(__name__)

DEFAULT_DOMAIN_U = 2**32


@dataclass(frozen=True)
class DistSpec:
    name: str
    gmm: GmmParams | None = None

    def sample(self, n: int, d: int, seed: int) -> Dataset:
        if self.gmm is None:
            return sample_uniform(n, d, seed)
        return sample_gmm(n, d, self.gmm, seed)


@dataclass(frozen=True)
class ModelTemplate:
    model_id: str
    kind: str
    hidden: int = 0
    m: int | None = None

    def resolve(self, op: OpKind, data_d: int) -> ModelSpec:
        input_dim = input_dim_for(op, data_d)
        if self.kind == SAMPLE:
            m = self.m if self.m is not None else matching_sample_m(op, data_d)
            return ModelSpec(kind=SAMPLE, input_dim=input_dim, m=m)
        if self.kind == MLP:
            return ModelSpec(kind=MLP, input_dim=input_dim, hidden=self.hidden)
        return ModelSpec(kind=LINEAR, input_dim=input_dim)


PRESET_MODELS = {
    "linear": ModelTemplate(model_id="linear", kind=LINEAR),
    "nn-s1": ModelTemplate(model_id="nn-s1", kind=MLP, hidden=PRESET_HIDDEN["nn-s1"]),
    "nn-s2": ModelTemplate(model_id="nn-s2", kind=MLP, hidden=PRESET_HIDDEN["nn-s2"]),
    "sample": ModelTemplate(model_id="sample", kind=SAMPLE),
}


@dataclass(frozen=True)
class ExperimentConfig:
    ops: tuple[OpKind, ...]
    norms: tuple[str, ...]
    distributions: tuple[DistSpec, ...]
    n_values: tuple[int, ...]
    d: int
    models: tuple[ModelTemplate, ...]
    datasets_per_cell: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    master_seed: int = 0
    domain_u: int = DEFAULT_DOMAIN_U


@dataclass(frozen=True)
class ResultRow:
    op: str
    norm: str
    distribution: str
    n: int
    d: int
    model_id: str
    model_bits: int
    observed_err: float
    eps_star: float
    seed: int
    exact: bool


@dataclass(frozen=True)
class ExperimentRun:
    rows: tuple[ResultRow, ...]
    failures: tuple[tuple[str, str], ...] = ()


def _prep_dataset(op: OpKind, dataset: Dataset) -> Dataset:
    if op is OpKind.INDEX:
        if dataset.d != 1:
            raise DimensionMismatch("rank cells require d = 1")
        return sort_dataset_1d(dataset)
    return dataset


def run_experiment(config: ExperimentConfig) -> ExperimentRun:
    """Execute every cell; failed cells are recorded, not fatal.

    A cell is fitted once (replicates sampled, prepared and trained) and
    then measured under each norm.  A fit failure is recorded under the
    cell's base key and skips all its norms; a measure failure is recorded
    under `base|norm` and drops only that row.
    """
    if config.datasets_per_cell < 1:
        raise InvalidParams("datasets_per_cell must be >= 1")
    rows: list[ResultRow] = []
    failures: list[tuple[str, str]] = []

    def seed(key: str) -> int:
        return mix64(config.master_seed, stable_text_hash(key))

    def attempt(key: str, work):
        try:
            return work()
        except LdboundsError as exc:
            log.warning("cell %s failed: %s", key, exc)
            failures.append((key, str(exc)))
            return None

    def fit(op, dist, n, tmpl, base):
        spec = tmpl.resolve(op, config.d)
        trained = []
        for rep in range(config.datasets_per_cell):
            data_seed = seed(f"{base}|{rep}|data")
            dataset = _prep_dataset(op, dist.sample(n, config.d, data_seed))
            train_seed = seed(f"{base}|{rep}|train")
            model = init_model(spec, train_seed)
            cfg = replace(config.train, seed=train_seed)
            trained.append((dataset, predictor(train(model, dataset, op, cfg), op)))
        return model_bits(spec, config.d), trained

    def measure(op, dist, n, tmpl, norm, cell, bits, trained):
        estimates = []
        for rep, (dataset, predict) in enumerate(trained):
            cfg = replace(config.eval, seed=seed(f"{cell}|{rep}|eval"))
            estimates.append(model_error(dataset, op, predict, norm, cfg))
        worst = max(estimates, key=lambda est: est.value)  # first of equal maxima
        norm_id = bnd.NORM_INF if norm == "linf" else bnd.NORM_L1
        dq = query_dims(op, config.d)
        floor = bnd.eps_star(bits, op, norm_id, n, dq, u=config.domain_u)  # u: inf only
        return ResultRow(
            op=op.value,
            norm=norm,
            distribution=dist.name,
            n=n,
            d=config.d,
            model_id=tmpl.model_id,
            model_bits=bits,
            observed_err=worst.value,
            eps_star=floor.eps,
            seed=seed(cell),
            exact=worst.exact,
        )

    for op, dist, n, tmpl in itertools.product(
        config.ops, config.distributions, config.n_values, config.models
    ):
        base = f"{op.value}|{dist.name}|{n}|{tmpl.model_id}"
        fitted = attempt(base, lambda: fit(op, dist, n, tmpl, base))
        if fitted is None:
            continue
        for norm in config.norms:
            cell = f"{base}|{norm}"
            row = attempt(cell, lambda: measure(op, dist, n, tmpl, norm, cell, *fitted))
            if row is not None:
                rows.append(row)
        fitted = None  # frees this cell's datasets and kernels before the next fit
    return ExperimentRun(rows=tuple(rows), failures=tuple(failures))


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


def _csv_field(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def emit_csv(rows, path: str) -> None:
    """Fixed header, repr-formatted floats: identical runs give identical bytes."""
    lines = [CSV_HEADER] + [",".join(map(_csv_field, astuple(r))) for r in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_plot_data(rows, path: str) -> None:
    """JSON array of {label, x, y}: one series per cell family and metric,
    x ascending in n."""
    series: dict[str, dict[int, ResultRow]] = {}
    for r in rows:
        key = f"{r.op}/{r.norm}/{r.distribution}/{r.model_id}"
        series.setdefault(key, {})[r.n] = r
    out = []
    for key in sorted(series):
        by_n = series[key]
        xs = sorted(by_n)
        for metric in ("observed_err", "eps_star"):
            out.append(
                {
                    "label": f"{key}/{metric}",
                    "x": xs,
                    "y": [getattr(by_n[x], metric) for x in xs],
                }
            )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


# -- config parsing ----------------------------------------------------------


def _parse_distribution(doc: dict) -> DistSpec:
    kind = doc.get("kind")
    if kind == "uniform":
        return DistSpec(name=doc.get("name", "uniform"))
    if kind == "gmm":
        comps = tuple(tuple(float(x) for x in c) for c in doc["components"])
        return DistSpec(
            name=doc.get("name", f"gmm{len(comps)}"), gmm=GmmParams(components=comps)
        )
    raise InvalidParams(f"unknown distribution kind {kind!r}")


def _parse_model(doc) -> ModelTemplate:
    if isinstance(doc, str):
        if doc not in PRESET_MODELS:
            raise InvalidParams(f"unknown model preset {doc!r}")
        return PRESET_MODELS[doc]
    kind = doc.get("kind")
    if kind not in (LINEAR, MLP, SAMPLE):
        raise InvalidParams(f"unknown model kind {kind!r}")
    return ModelTemplate(
        model_id=doc.get("id", kind),
        kind=kind,
        hidden=int(doc.get("hidden", 0)),
        m=doc.get("m"),
    )


def _overlay(default, doc: dict):
    """`default` with each field `doc` sets, cast to the type of its default."""
    return replace(
        default,
        **{
            f.name: type(getattr(default, f.name))(doc[f.name])
            for f in fields(default)
            if f.name in doc
        },
    )


def parse_config(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a plain JSON-style dict."""
    try:
        ops = tuple(OpKind(o) for o in doc["ops"])
        norms = tuple(doc["norms"])
        for norm in norms:
            if norm not in ("l1", "linf"):
                raise InvalidParams(f"unknown norm {norm!r}")
        dists = tuple(_parse_distribution(x) for x in doc["distributions"])
        models = tuple(_parse_model(x) for x in doc["models"])
        return ExperimentConfig(
            ops=ops,
            norms=norms,
            distributions=dists,
            n_values=tuple(int(x) for x in doc["n_values"]),
            d=int(doc.get("d", 1)),
            models=models,
            datasets_per_cell=int(doc.get("datasets_per_cell", 1)),
            train=_overlay(TrainConfig(), doc.get("train", {})),
            eval=_overlay(EvalConfig(), doc.get("eval", {})),
            master_seed=int(doc.get("master_seed", 0)),
            domain_u=int(doc.get("domain_u", doc.get("u", DEFAULT_DOMAIN_U))),
        )
    except KeyError as exc:
        raise InvalidParams(f"config missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed config: {exc}") from exc
