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
import numbers
import operator
import os
import pickle
import threading
import traceback
from dataclasses import dataclass, field, fields, replace
from functools import partial

from . import bounds as bnd
from .data import Dataset, GmmParams, sample_gmm, sample_uniform
from .errors import InvalidParams, LdboundsError, RuntimeFailure
from .models import (
    PRESETS,
    SAMPLE,
    ModelSpec,
    TrainConfig,
    init_model,
    input_dim_for,
    matching_sample_m,
    model_bits,
    predict,
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
    """A ModelSpec less its input width; `m` None sizes a sample to the affine model."""

    model_id: str
    kind: str
    hidden: int = 0
    m: int | None = None

    def __post_init__(self) -> None:
        self.resolve(OpKind.INDEX, 1)  # ModelSpec's checks, before any cell runs

    def resolve(self, op: OpKind, data_d: int) -> ModelSpec:
        m = self.m
        if m is None:
            m = matching_sample_m(op, data_d) if self.kind == SAMPLE else 0
        return ModelSpec(self.kind, input_dim_for(op, data_d), self.hidden, m)


PRESET_MODELS = {
    name: ModelTemplate(name, kind, hidden) for name, (kind, hidden) in PRESETS.items()
}


@dataclass(frozen=True)
class ExperimentConfig:
    ops: tuple[OpKind, ...]
    norms: tuple[str, ...]
    distributions: tuple[DistSpec, ...]
    n_values: tuple[int, ...]
    models: tuple[ModelTemplate, ...]
    d: int = 1
    datasets_per_cell: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    master_seed: int = 0
    domain_u: int = DEFAULT_DOMAIN_U

    def __post_init__(self) -> None:
        coordinates = {  # each list's entries tell its cells apart
            "ops": [op.value for op in self.ops], "norms": self.norms,
            "distributions": [dist.name for dist in self.distributions],
            "n_values": self.n_values, "models": [tmpl.model_id for tmpl in self.models],
        }
        for name, keys in coordinates.items():
            if not keys:
                raise InvalidParams(f"config field {name!r} must not be empty")
            repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
            if repeated:
                raise InvalidParams(f"config field {name!r} repeats {repeated[0]!r}")
        for label in coordinates["distributions"] + coordinates["models"]:
            # printed in unquoted CSV fields and joined by '|' into cell keys
            one_line = isinstance(label, str) and label == "".join(label.splitlines())
            if not one_line or "," in label or "|" in label:
                raise InvalidParams(
                    "a distribution name or model id must be a string without "
                    f"',', '|' or a line break, got {label!r}"
                )
        for norm in self.norms:
            if norm not in ("l1", "linf"):
                raise InvalidParams(f"unknown norm {norm!r}")
        if any(n < 1 for n in self.n_values):
            raise InvalidParams("every n_values entry must be >= 1")
        for name in ("d", "datasets_per_cell", "domain_u"):
            if getattr(self, name) < 1:
                raise InvalidParams(f"{name} must be >= 1")


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

    `config` checked its own fields when it was built, so a cell fails only
    by running.  Cells sharing an op and a model template form a group,
    whose models are trained in lockstep (`train_many`): up to _STACK_JOBS
    replicates, of as many whole cells as fit, per stack (a cell with more
    is a stack alone).  Each cell of a stack is then measured under each
    norm, and the stack is freed before the next is fitted.  A fit failure
    (data of the wrong width for the op: a rank cell on d != 1, a range-sum
    cell on d = 1; or sampling or training one replicate) is recorded under
    the cell's base key and skips all its norms; a measure failure is
    recorded under `base|norm` and drops only that row.  Rows and failures
    come out in `itertools.product` order of (op, distribution, n, model),
    then norm, and each failure is logged once, in that order, after all
    cells ran.

    A stack is one work unit.  The units, in product order, are dealt
    round-robin over one process per available CPU (`_in_processes`); each
    depends only on its cells' seeds, so rows, failures and CSV bytes are
    the same for every process count.  An error other than a cell's own
    `LdboundsError` ends the run, whichever process raised it.
    """
    reps = config.datasets_per_cell

    def seed(key: str) -> int:
        return mix64(config.master_seed, stable_text_hash(key))

    def measure(op, dist, n, tmpl, norm, cell, bits, trained):
        estimates = []
        for rep, (dataset, model) in enumerate(trained):
            cfg = replace(config.eval, seed=seed(f"{cell}|{rep}|eval"))
            estimates.append(model_error(dataset, op, partial(predict, model, op), norm, cfg))
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

    def run_stack(op, tmpl, cells, rows, failures):
        """Fit `cells` in lockstep, then measure each; all is freed on return.

        `tmpl` is resolved (which checks the data width) for each replicate
        before it is sampled.  Each row or failure is appended keyed by its
        cell's index in the product, then its norm's index.
        """
        jobs, owner, errors = [], [], {}
        for c, (_, dist, n, base) in enumerate(cells):
            for rep in range(reps):
                try:
                    spec = tmpl.resolve(op, config.d)  # rank needs d = 1, range-sum d >= 2
                    dataset = dist.sample(n, config.d, seed(f"{base}|{rep}|data"))
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
        for c, (pos, dist, n, base) in enumerate(cells):
            diverged = (m for _, m in trained[c] if isinstance(m, LdboundsError))
            error = next(diverged, errors.get(c))
            if error is not None:
                failures.append((pos, (base, str(error))))
                continue
            bits = model_bits(trained[c][0][1].spec, config.d)
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
    units = []
    for (oi, op), (ti, tmpl) in itertools.product(
        enumerate(config.ops), enumerate(config.models)
    ):
        group = [
            ((oi, di, ni, ti), dist, n, f"{op.value}|{dist.name}|{n}|{tmpl.model_id}")
            for (di, dist), (ni, n) in itertools.product(
                enumerate(config.distributions), enumerate(config.n_values)
            )
        ]
        units += [
            (op, tmpl, group[s : s + per_stack]) for s in range(0, len(group), per_stack)
        ]
    rows, failures = _in_processes(run_units, units)
    failures = [f for _, f in sorted(failures, key=lambda it: it[0])]
    for key, message in failures:
        log.warning("cell %s failed: %s", key, message)
    return ExperimentRun(
        rows=tuple(row for _, row in sorted(rows, key=lambda item: item[0])),
        failures=tuple(failures),
    )


_ROW_FIELDS = tuple(f.name for f in fields(ResultRow))
CSV_HEADER = ",".join(_ROW_FIELDS)


def _csv_field(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def emit_csv(rows, path: str) -> None:
    """Fixed header, repr-formatted floats: identical runs give identical bytes."""
    # a shallow tuple per row: dataclasses.astuple deep-copies every field
    row_values = operator.attrgetter(*_ROW_FIELDS)
    lines = [CSV_HEADER] + [",".join(map(_csv_field, row_values(r))) for r in rows]
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


def _object(doc, name: str, known) -> dict:
    """`doc`, a JSON object whose every key is in `known`; `name` says what it is."""
    if not isinstance(doc, dict):
        raise InvalidParams(f"{name} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        names = ", ".join(sorted(known))
        raise InvalidParams(f"unknown field {unknown[0]!r} in {name}; known: {names}")
    return doc


def _parse_distribution(doc) -> DistSpec:
    if not isinstance(doc, dict) or doc.get("kind") not in ("uniform", "gmm"):
        raise InvalidParams(f"a distribution must be a uniform or gmm object: {doc!r}")
    if doc["kind"] == "uniform":
        _object(doc, "a uniform distribution", ("kind", "name"))
        return DistSpec(name=doc.get("name", "uniform"))
    _object(doc, "a gmm distribution", ("kind", "name", "components"))
    comps = tuple(tuple(float(_number(x, "components")) for x in c) for c in doc["components"])
    return DistSpec(doc.get("name", f"gmm{len(comps)}"), GmmParams(components=comps))


def _parse_model(doc) -> ModelTemplate:
    if isinstance(doc, str):
        if doc not in PRESET_MODELS:
            raise InvalidParams(f"unknown model preset {doc!r}")
        return PRESET_MODELS[doc]
    _object(doc, "a model other than a preset", ("kind", "id", "hidden", "m"))
    kind, m = doc.get("kind"), doc.get("m")
    return ModelTemplate(
        model_id=doc.get("id", kind),
        kind=kind,
        hidden=_integer(doc.get("hidden", 0), "hidden"),
        m=None if m is None else _integer(m, "m"),
    )


def _number(value, name: str):
    """`value` if a JSON number: not true or false, which Python would read as
    1 and 0, nor a string such as "11", which int() and float() would read."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParams(f"config field {name!r} must be a number, got {value!r}")
    return value


def _integer(value, name: str) -> int:
    """`int(value)`, refusing a number with a fractional part (1e4 is 10000)."""
    if isinstance(_number(value, name), float) and not value.is_integer():
        raise InvalidParams(f"config field {name!r} must be an integer, got {value!r}")
    return int(value)


def _read(cls, doc, key: str = "", **readers):
    """A `cls` from the JSON object `doc` at config field `key` ("": the config).

    A config sets each field but a `seed` (a cell derives its seeds from
    `master_seed`).  An unset field keeps its default; a set one is read by
    `readers[field]` or cast to its default's type, an int refusing a fraction
    and either refusing a boolean or a string.
    """
    settable = [f for f in fields(cls) if f.name != "seed"]
    name = f"config field {key!r}" if key else "the config"
    doc = _object(doc, name, [f.name for f in settable])

    def cast(f, value):
        if f.name in readers:
            return readers[f.name](value)
        field_name = f"{key}.{f.name}" if key else f.name
        if type(f.default) is int:
            return _integer(value, field_name)
        return type(f.default)(_number(value, field_name))

    return cls(**{f.name: cast(f, doc[f.name]) for f in settable if f.name in doc})


def parse_config(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a plain JSON-style dict; every object in it
    must set only fields it has (`_read`, `_object`)."""
    try:
        return _read(
            ExperimentConfig, doc,
            ops=lambda v: tuple(OpKind(o) for o in v),
            norms=tuple,
            distributions=lambda v: tuple(_parse_distribution(x) for x in v),
            n_values=lambda v: tuple(_integer(x, "n_values") for x in v),
            models=lambda v: tuple(_parse_model(x) for x in v),
            train=lambda v: _read(TrainConfig, v, "train"),
            eval=lambda v: _read(EvalConfig, v, "eval"),
        )
    except KeyError as exc:
        raise InvalidParams(f"config missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"malformed config: {exc}") from exc
