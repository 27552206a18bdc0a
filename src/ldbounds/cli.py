"""Command-line front end.

Every subcommand prints one JSON object to stdout.  Exit codes: 0 on
success, 1 for invalid input (bad flags, malformed files, out-of-range
parameters), 2 for runtime failures (I/O, diverged training, starved
samplers).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import traceback

import numpy as np

from . import bounds as bnd
from .constructions import (
    certify,
    cover_decode,
    cover_encode,
    packing_l1_ce,
    packing_l1_index,
    packing_linf,
    packing_mu_index,
    read_cover,
    write_cover,
)
from .data import load_csv, save_csv
from .errors import InvalidRequest, LdboundsError, RuntimeFailure, ValidationError
from .harness import ModelTemplate, emit_csv, emit_plot_data, parse_config, run_experiment
from .models import (
    PRESETS, SAMPLE, TrainConfig, init_model, model_bits, param_count, save_model, train
)
from .queryfn import OpKind

CDF_PRESETS = {
    "square": np.square,
    "sqrt": np.sqrt,
    "identity": lambda x: x,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we owe 1 instead."""

    def error(self, message):
        raise InvalidRequest(message)


def _cmd_bounds(args) -> dict:
    req = bnd.BoundRequest(
        op=OpKind(args.op),
        norm=args.norm,
        side=args.side,
        n=args.n,
        d=args.d,
        eps=args.eps,
        u=args.u,
    )
    res = bnd.lower_bound_bits(req) if args.side == bnd.LOWER else bnd.upper_bound_bits(req)
    bits = res.bits if math.isfinite(res.bits) else None
    doc = {"bits": bits, "formula_id": res.formula_id, "validity": res.validity}
    if res.reason is not None:
        doc["reason"] = res.reason
    return doc


def _cmd_eps_star(args) -> dict:
    res = bnd.eps_star(args.bits, OpKind(args.op), args.norm, args.n, args.d, u=args.u)
    return {"eps_star": res.eps, "formula_id": res.formula_id, "validity": res.flag}


# construction -> (builder, the op it builds, the flags it takes in the
# builder's argument order); one that takes --op builds any op
_CONSTRUCTIONS = {
    "packing-linf": (packing_linf, "index", ("op", "n", "d", "eps", "u", "count", "seed")),
    "packing-l1-index": (packing_l1_index, "index", ("n", "eps", "count", "seed")),
    "packing-l1-ce": (packing_l1_ce, "ce", ("n", "d", "eps", "count", "seed")),
    "packing-mu": (packing_mu_index, "index", ("n", "eps", "cdf", "count", "seed")),
}


def _build_family(args):
    kind = args.construction
    build, built, takes = _CONSTRUCTIONS[kind]
    if "op" not in takes and args.op not in (None, built):
        raise InvalidRequest(f"{kind} builds {built} families, not --op {args.op}")
    for flag in ("d", "u", "cdf"):
        if flag not in takes and getattr(args, flag) is not None:
            raise InvalidRequest(f"{kind} takes no --{flag}")
    value = {"op": OpKind(args.op or built), "d": 1 if args.d is None else args.d,
             "cdf": CDF_PRESETS[args.cdf or "square"]}
    return build(*(value.get(flag, getattr(args, flag)) for flag in takes))


def _cmd_certify(args) -> dict:
    family = _build_family(args)
    cert = certify(family, args.pairs, args.seed, mc_samples=args.mc_samples)
    return {**dataclasses.asdict(cert), "members": len(family.datasets)}


def _code_doc(code, out: str) -> dict:
    return {
        "op": code.op.value,
        "n": code.n,
        "d": code.d,
        "resolution": code.resolution,
        "bit_length": code.bit_length,
        "out": out,
    }


def _cmd_encode(args) -> dict:
    dataset = load_csv(args.input)
    cdf = CDF_PRESETS[args.cdf] if args.cdf else None
    code = cover_encode(dataset, args.eps, OpKind(args.op), cdf=cdf)
    write_cover(code, args.out)
    return _code_doc(code, args.out)


def _cmd_decode(args) -> dict:
    code = read_cover(args.input)
    cdf = CDF_PRESETS[args.cdf] if args.cdf else None
    dataset = cover_decode(code, cdf=cdf)
    save_csv(dataset, args.out)
    return _code_doc(code, args.out)


def _cmd_train(args) -> dict:
    kind, hidden = PRESETS[args.model]
    if args.m is not None and kind != SAMPLE:
        raise InvalidRequest(f"--m sets a sample model's size, not a {args.model}'s")
    dataset = load_csv(args.data)
    op = OpKind(args.op)
    spec = ModelTemplate(args.model, kind, hidden, args.m).resolve(op, dataset.d)
    cfg = TrainConfig(
        steps=args.steps,
        batch=args.batch,
        lr=args.lr,
        momentum=args.momentum,
        seed=args.seed,
    )
    model = train(init_model(spec, args.seed), dataset, op, cfg)
    if args.out:
        save_model(model, args.out)
    doc = {
        "model": args.model,
        "op": op.value,
        "kind": spec.kind,
        "model_bits": model_bits(spec, dataset.d),
        "n": dataset.n,
        "d": dataset.d,
    }
    if spec.kind == SAMPLE:
        doc["m"] = spec.m
    else:
        doc["params"] = param_count(spec)
        doc["final_loss"] = model.loss_trace[-1] if model.loss_trace else None
    if args.out:
        doc["out"] = args.out
    return doc


def _cmd_experiment(args) -> dict:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    config = parse_config(doc)
    run = run_experiment(config)
    if not run.rows:
        raise RuntimeFailure("no experiment cell succeeded")
    emit_csv(run.rows, args.out)
    result = {
        "rows": len(run.rows),
        "failed_cells": len(run.failures),
        "out": args.out,
    }
    if args.plot:
        emit_plot_data(run.rows, args.plot)
        result["plot"] = args.plot
    if run.failures:
        result["failures"] = [{"cell": c, "error": e} for c, e in run.failures]
    return result


def _add_op(p, required=True):
    p.add_argument("--op", choices=["index", "ce", "rs"], required=required)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ldbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate a storage bound formula")
    _add_op(p)
    p.add_argument("--norm", choices=["inf", "l1", "mu"], required=True)
    p.add_argument("--side", choices=["lower", "upper"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--u", type=int, default=None, help="domain size (inf norm only)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("eps-star", help="invert a lower bound at a bit budget")
    p.add_argument("--bits", type=float, required=True)
    _add_op(p)
    p.add_argument("--norm", choices=["inf", "l1", "mu"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--u", type=int, default=None)
    p.set_defaults(func=_cmd_eps_star)

    p = sub.add_parser("certify", help="build a packing family and check separation")
    p.add_argument("--construction", choices=list(_CONSTRUCTIONS), required=True)
    _add_op(p, required=False)  # default: the op the construction builds
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None,
                   help="data attributes for packing-linf and packing-l1-ce (default 1)")
    p.add_argument("--eps", type=float, required=True,
                   help="separation to certify (the delta target for packing-l1-ce)")
    p.add_argument("--u", type=int, default=None, help="grid size for packing-linf")
    p.add_argument("--cdf", choices=sorted(CDF_PRESETS), default=None,
                   help="measure for packing-mu (default square)")
    p.add_argument("--count", type=int, required=True, help="family size")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mc-samples", type=int, default=50_000)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("encode", help="compress a dataset to a cover index file")
    _add_op(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--input", required=True, help="dataset CSV")
    p.add_argument("--out", required=True, help="output .ldbc container")
    p.add_argument("--cdf", choices=sorted(CDF_PRESETS), default=None,
                   help="quantile grid for indexing covers")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="expand a cover index file to a dataset")
    p.add_argument("--input", required=True, help=".ldbc container")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--cdf", choices=sorted(CDF_PRESETS), default=None)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("train", help="fit a model to a dataset's query function")
    p.add_argument("--model", choices=sorted(PRESETS), required=True)
    _add_op(p)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--steps", type=int, default=TrainConfig.steps)
    p.add_argument("--batch", type=int, default=TrainConfig.batch)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=None, help="sample size override")
    p.add_argument("--out", default=None, help="save trained model JSON here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("experiment", help="run a full measurement grid")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", required=True, help="results CSV")
    p.add_argument("--plot", default=None, help="optional plot-series JSON")
    p.set_defaults(func=_cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        print(json.dumps(args.func(args)))
        return 0
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (None, 0) else 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LdboundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
