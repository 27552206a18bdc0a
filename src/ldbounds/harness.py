"""Experiment grid: sample data, train models, measure errors, invert bounds.

A cell is one (operation, norm, distribution, n, model) combination.
Each cell gets its own seeds, derived by mixing the master seed with a
stable hash of the cell coordinates, so re-running a config reproduces
every number bit for bit and adding cells never perturbs existing ones.
Training seeds deliberately exclude the norm coordinate: the norm only
changes how a trained model is measured, so both norm rows of a cell
share one trained model.

The cells of one (operation, model) pair train in lockstep, a few whole
cells at a time (`models.train_many`); a model trained in a stack equals
the one trained alone, so stacking changes no number.  The stacks, in
product order, are dealt round-robin over one process per available CPU,
forked from the caller; since each stack depends only on its cells' seeds,
every process count gives the same rows, failures and CSV bytes.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import pickle
import threading
import traceback
from dataclasses import astuple, dataclass, field, fields, replace

from . import bounds as bnd
from .data import Dataset, GmmParams, sample_gmm, sample_uniform, sort_dataset_1d
from .errors import DimensionMismatch, InvalidParams, LdboundsError, RuntimeFailure
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
    train_many,
)
from .norms import EvalConfig, model_error
from .queryfn import OpKind, query_dims
from .rng import mix64, stable_text_hash

log = logging.getLogger(__name__)

DEFAULT_DOMAIN_U = 2**32

# replicates per lockstep stack, or one cell's if more (a cell is measured
# over all of them at once).  Per model, 1,000 nn-s1 steps of 64 queries
# cost 32, 13, 10 and 9.3 ms at K = 1, 4, 8 and 16: 8 is the knee.
_STACK_JOBS = 8


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


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _in_processes(run, units: list) -> tuple[list, list]:
    """`run(units)` split round-robin over P = min(CPUs, units) processes.

    Rank r runs units r, r + P, ...: the caller runs rank 0 and forks the
    others, each of which pickles its `run` result, two lists of items keyed
    by product position, into its own pipe and leaves with `os._exit`.  The
    caller concatenates the lists, so sorting them gives the serial answer.
    P = 1 (one CPU or unit, no `os.fork`, or another thread alive, which a
    fork would not copy) runs `run(units)` here.  A child's error is raised
    again here; on any error every child still running is killed, and every
    child is reaped before this returns or raises.
    """
    procs = min(_cpu_count(), len(units))
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return run(units)
    live = {}  # child pid -> read end of its pipe, None once being read
    try:
        for rank in range(1, procs):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(w, run, units[rank::procs])
            live[pid] = r
            os.close(w)
        rows, failures = run(units[::procs])
        for pid in list(live):
            fd, live[pid] = live[pid], None
            with open(fd, "rb") as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del live[pid]
            more_rows, more_failures = _received(data, status)
            rows += more_rows
            failures += more_failures
        return rows, failures
    finally:
        for pid, fd in live.items():
            os.kill(pid, 9)  # SIGKILL; a zombie's pid is not reused before waitpid
            os.waitpid(pid, 0)
            if fd is not None:
                os.close(fd)


def _child(fd: int, run, units: list) -> None:
    """In a forked child: send `run(units)` or its error through `fd`, then exit."""
    code = 1
    try:
        try:
            outcome = (True, run(units))
        except BaseException as exc:
            text = "".join(traceback.format_exception(exc))
            try:
                outcome = (False, (text, pickle.dumps(exc)))
            except Exception:
                outcome = (False, (text, None))
        with open(fd, "wb") as fh:
            pickle.dump(outcome, fh)
        code = 0
    finally:
        os._exit(code)  # no atexit handlers or buffers of the parent's


def _received(data: bytes, status: int):
    """A child's `run` result from its pipe's bytes, or its error raised again."""
    try:
        ok, value = pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeFailure(
            f"an experiment worker process ended without its results ({how})"
        ) from None
    if ok:
        return value
    text, pickled = value
    cause = RuntimeFailure(f"raised in an experiment worker process:\n{text}")
    try:
        exc = pickle.loads(pickled)
    except Exception:
        raise cause from None
    raise exc from cause


def run_experiment(config: ExperimentConfig) -> ExperimentRun:
    """Execute every cell; failed cells are recorded, not fatal.

    Cells sharing an op and a model template form a group, whose models
    are trained in lockstep (`train_many`): up to _STACK_JOBS replicates,
    of as many whole cells as fit, per stack (a cell with more is a stack
    alone).  Each cell of a stack is then measured under each norm, and the
    stack is freed before the next is fitted.  A fit failure (sampling,
    preparing or training one replicate) is recorded under the cell's base
    key and skips all its norms; a measure failure is recorded under
    `base|norm` and drops only that row.  Rows and failures come out in
    `itertools.product` order of (op, distribution, n, model), then norm,
    and each failure is logged once, in that order, after all cells ran.

    A stack is one work unit.  The units, in product order, are dealt
    round-robin over one process per available CPU (`_in_processes`); each
    depends only on its cells' seeds, so rows, failures and CSV bytes are
    the same for every process count.  An error other than a cell's own
    `LdboundsError` ends the run, whichever process raised it.
    """
    if config.datasets_per_cell < 1:
        raise InvalidParams("datasets_per_cell must be >= 1")
    reps = config.datasets_per_cell

    def seed(key: str) -> int:
        return mix64(config.master_seed, stable_text_hash(key))

    def measure(op, dist, n, tmpl, norm, cell, bits, trained):
        estimates = []
        for rep, (dataset, model) in enumerate(trained):
            cfg = replace(config.eval, seed=seed(f"{cell}|{rep}|eval"))
            estimates.append(model_error(dataset, op, predictor(model, op), norm, cfg))
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

    def run_stack(op, tmpl, spec, cells, rows, failures):
        """Fit `cells` in lockstep, then measure each; all is freed on return.

        Each row or failure is appended keyed by its cell's index in the
        product, then its norm's index.
        """
        jobs, owner, errors = [], [], {}
        for c, (_, dist, n, base) in enumerate(cells):
            for rep in range(reps):
                try:
                    data_seed = seed(f"{base}|{rep}|data")
                    dataset = _prep_dataset(op, dist.sample(n, config.d, data_seed))
                except LdboundsError as exc:
                    errors[c] = exc  # unless an earlier replicate fails to train
                    break
                train_seed = seed(f"{base}|{rep}|train")
                cfg = replace(config.train, seed=train_seed)
                jobs.append((init_model(spec, train_seed), dataset, cfg))
                owner.append(c)
        trained = [[] for _ in cells]
        for c, (_, dataset, _), model in zip(owner, jobs, train_many(jobs, op)):
            trained[c].append((dataset, model))
        bits = model_bits(spec, config.d)
        for c, (pos, dist, n, base) in enumerate(cells):
            diverged = (m for _, m in trained[c] if isinstance(m, LdboundsError))
            error = next(diverged, errors.get(c))
            if error is not None:
                failures.append((pos, (base, str(error))))
                continue
            for k, norm in enumerate(config.norms):
                cell = f"{base}|{norm}"
                try:
                    row = measure(op, dist, n, tmpl, norm, cell, bits, trained[c])
                except LdboundsError as exc:
                    failures.append((pos + (k,), (cell, str(exc))))
                else:
                    rows.append((pos + (k,), row))

    def run_units(units):
        rows, failures = [], []
        for unit in units:
            run_stack(*unit, rows, failures)
        return rows, failures

    per_stack = max(1, _STACK_JOBS // reps)
    units, unresolved = [], []
    for (oi, op), (ti, tmpl) in itertools.product(
        enumerate(config.ops), enumerate(config.models)
    ):
        group = [
            ((oi, di, ni, ti), dist, n, f"{op.value}|{dist.name}|{n}|{tmpl.model_id}")
            for (di, dist), (ni, n) in itertools.product(
                enumerate(config.distributions), enumerate(config.n_values)
            )
        ]
        try:
            spec = tmpl.resolve(op, config.d)
        except LdboundsError as exc:
            unresolved += [(pos, (base, str(exc))) for pos, _, _, base in group]
            continue
        units += [
            (op, tmpl, spec, group[s : s + per_stack])
            for s in range(0, len(group), per_stack)
        ]
    rows, failures = _in_processes(run_units, units)
    failures = [f for _, f in sorted(unresolved + failures, key=lambda it: it[0])]
    for key, message in failures:
        log.warning("cell %s failed: %s", key, message)
    return ExperimentRun(
        rows=tuple(row for _, row in sorted(rows, key=lambda item: item[0])),
        failures=tuple(failures),
    )


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
    if not isinstance(doc, dict):
        raise InvalidParams(f"a distribution must be an object, got {doc!r}")
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
    if not isinstance(doc, dict):
        raise InvalidParams(f"a model must be a preset name or an object, got {doc!r}")
    kind = doc.get("kind")
    if kind not in (LINEAR, MLP, SAMPLE):
        raise InvalidParams(f"unknown model kind {kind!r}")
    return ModelTemplate(
        model_id=doc.get("id", kind),
        kind=kind,
        hidden=_integer(doc.get("hidden", 0), "hidden"),
        m=doc.get("m"),
    )


def _integer(value, name: str) -> int:
    """`int(value)`, refusing a number with a fractional part (1e4 is 10000)."""
    if isinstance(value, float) and not value.is_integer():
        raise InvalidParams(f"config field {name!r} must be an integer, got {value!r}")
    return int(value)


def _overlay(default, config: dict, key: str):
    """`default` with each field `config[key]` sets, cast to the type of its default."""
    doc = config.get(key, {})
    if not isinstance(doc, dict):
        raise InvalidParams(f"config field {key!r} must be an object")

    def cast(name: str, value):
        kind = type(getattr(default, name))
        return _integer(value, f"{key}.{name}") if kind is int else kind(value)

    return replace(
        default,
        **{f.name: cast(f.name, doc[f.name]) for f in fields(default) if f.name in doc},
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
            n_values=tuple(_integer(x, "n_values") for x in doc["n_values"]),
            d=_integer(doc.get("d", 1), "d"),
            models=models,
            datasets_per_cell=_integer(
                doc.get("datasets_per_cell", 1), "datasets_per_cell"
            ),
            train=_overlay(TrainConfig(), doc, "train"),
            eval=_overlay(EvalConfig(), doc, "eval"),
            master_seed=_integer(doc.get("master_seed", 0), "master_seed"),
            domain_u=_integer(
                doc.get("domain_u", doc.get("u", DEFAULT_DOMAIN_U)), "domain_u"
            ),
        )
    except KeyError as exc:
        raise InvalidParams(f"config missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed config: {exc}") from exc
