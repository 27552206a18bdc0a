"""Distances between query functions: exact routes and Monte Carlo routes.

Distances are taken over the whole query space: the average-case distance
is the integral of |f_D - f_D'| over all legal queries (the query space
has volume 1, so the integral is also the uniform mean), the worst-case
distance is the supremum, and the distribution-weighted distance
integrates against a supplied measure.

Two independent routes exist wherever feasible (closed form vs piecewise
integration vs Monte Carlo) so each can check the other; callers should
not collapse them.  `distance` is the one place that picks a route for a
pair of datasets: exact where a closed form serves the pair, otherwise a
probe lower bound (worst case) or a Monte Carlo mean (average case).
Every other estimate, a mean or a maximum, is reduced here by one loop over
batches of about 65,536 queries, and each names its route in `method`.
Single-attribute routes read the cached sorted columns, records in any order,
and `_pair_columns` checks a pair.  A ce pair's gaps come from one signed count
kernel, a's records weighing +1 and b's -1, which `_signed` builds: at d = 1
a step table whose steps the exact routes read too, and at d >= 2 one BoxSum
over the distinct rows whose net count is not 0, which are also the probe's
points.  `_signed` keeps the last pair's counts, held by weak references to
the pair, so the routes on one pair build them once.
Range-sum pairs, and d >= 2 ce pairs whose signed kernel would be the
row-major mask, evaluate each dataset's own kernel.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import Callable, Iterable, Iterator

import numpy as np

from .data import Dataset
from .errors import (
    CdfNotMonotone,
    DimensionMismatch,
    InvalidParams,
    InvalidRequest,
    SizeMismatch,
)
from .queryfn import BoxSum, OpKind, eval_batch, query_dims, uniform_sampler
from .rng import make_generator

L1 = "l1"
LINF = "linf"
MU = "mu"

_MC_CHUNK = 65_536


@dataclass(frozen=True)
class DistanceEstimate:
    """A distance value plus the route that made it: `method` is "exact"
    (closed form or complete piecewise integration, std_error 0),
    "monte_carlo" (a sample mean and its standard error) or "probe" (a
    maximum over probe queries, a lower bound on the supremum, std_error 0).
    """

    value: float
    method: str
    std_error: float = 0.0
    samples: int = 0

    @property
    def exact(self) -> bool:
        return self.method == "exact"


@dataclass(frozen=True)
class EvalConfig:
    """Budget for model-vs-truth error measurement."""

    samples: int = 4096
    grid: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise InvalidParams("samples must be >= 1")
        if self.grid < 0:
            raise InvalidParams("grid must be >= 0")


def _pair_columns(a: Dataset, b: Dataset, equal: str = "") -> tuple[np.ndarray, np.ndarray]:
    """A single-attribute pair's sorted columns; route `equal` needs equal counts."""
    if a.d != 1 or b.d != 1:
        raise DimensionMismatch(f"a single-attribute route needs d = 1, got {a.d} and {b.d}")
    if equal and a.n != b.n:
        raise SizeMismatch(f"{equal} needs equal record counts")
    return a.sorted_column, b.sorted_column


def rank_l1(a: Dataset, b: Dataset) -> float:
    """Average-case rank distance = sum of gaps between the sorted columns."""
    xa, xb = _pair_columns(a, b, "rank_l1")
    return float(np.abs(xa - xb).sum())


# (weak a, weak b, counts): the last pair's signed counts.  Weak references
# keep neither dataset alive, and either one's death drops the entry.
_last_signed: tuple = ()


def _forget_signed(ref: weakref.ref) -> None:
    global _last_signed
    if any(r is ref for r in _last_signed[:2]):
        _last_signed = ()


def _signed(a: Dataset, b: Dataset) -> tuple[np.ndarray, BoxSum | None]:
    """(rows, kernel) of an equal-width pair, a's records +1 and b's -1.

    Built by `_merge_columns` (d = 1) or `_merge_rows` (d >= 2) and kept for
    the last pair while both datasets live; callers only read them.
    """
    global _last_signed
    if a.d != b.d:
        raise DimensionMismatch(f"datasets must share dimensionality, got {a.d} and {b.d}")
    memo = _last_signed  # one read: another thread may replace the entry
    if memo and memo[0]() is a and memo[1]() is b:
        return memo[2]
    counts = (_merge_columns if a.d == 1 else _merge_rows)(a, b)
    _last_signed = (weakref.ref(a, _forget_signed), weakref.ref(b, _forget_signed), counts)
    return counts


def _merge_columns(a: Dataset, b: Dataset) -> tuple[np.ndarray, BoxSum]:
    """A single-attribute pair's signed counts, merged from the sorted columns.

    The levels, returned as the rows too, are the breakpoints of the steps
    of f_a - f_b, table[1:] their values and table[0] = 0 the value before
    any data.  Whole-number sums are exact in any order.
    """
    x = np.concatenate([a.sorted_column, b.sorted_column])
    order = np.argsort(x, kind="stable")  # a merge of the two sorted runs
    x = x[order]
    last = np.diff(x, append=np.inf) != 0  # the last record at each level
    steps = np.cumsum(np.where(order < a.n, 1.0, -1.0))[last]
    levels = x[last]
    return levels[:, None], BoxSum.steps(levels, np.concatenate([[0.0], steps]))


def _merge_rows(a: Dataset, b: Dataset) -> tuple[np.ndarray, BoxSum | None]:
    """A d-attribute pair's signed counts: its rows of nonzero net count.

    The stacked records are lexsorted once and split into runs of equal
    rows, and each distinct row keeps its net count; rows netting 0 (a row
    both datasets hold equally often, such as packing members' padding) are
    dropped.  Returns those rows, ascending, and one BoxSum over them, or
    None where that kernel would be the row-major mask: each dataset's own
    cached kernel then answers faster.
    """
    rows = np.concatenate([a.values, b.values])
    order = np.lexsort(rows.T[::-1])  # column 0 first
    rows = rows[order]
    first = np.ones(rows.shape[0], dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    net = np.add.reduceat(np.where(order < a.n, 1.0, -1.0), np.flatnonzero(first))
    keep = net != 0
    rows, net = rows[first][keep], net[keep]
    return rows, None if BoxSum.row_major(rows) else BoxSum.distinct(rows, net)


def rank_l1_oracle(a: Dataset, b: Dataset) -> float:
    """Same distance by piecewise integration of |rank_a - rank_b| over [0, 1].

    Independent of rank_l1's positionwise identity; used to cross-check it.
    """
    _pair_columns(a, b, "rank_l1_oracle")
    t = _signed(a, b)[1]
    widths = np.clip(np.diff(np.append(t.lookups[0].levels, 1.0)), 0.0, None)
    return float((np.abs(t.table[1:]) * widths).sum())


def rank_linf(a: Dataset, b: Dataset) -> float:
    """Worst-case rank distance: max |rank_a - rank_b| over query points.

    The difference is a right-continuous step function changing only at
    data values, so the max over breakpoint evaluations is the supremum.
    """
    _pair_columns(a, b)
    return float(np.abs(_signed(a, b)[1].table).max())


def _check_cdf(cdf: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    vals = np.asarray(cdf(points), dtype=np.float64)
    if vals.shape != points.shape:
        raise CdfNotMonotone("cdf must map arrays to equal-shaped arrays")
    ends = np.asarray(cdf(np.array([0.0, 1.0])), dtype=np.float64)
    if abs(ends[0]) > 1e-9 or abs(ends[1] - 1.0) > 1e-9:
        raise CdfNotMonotone("cdf must satisfy cdf(0)=0 and cdf(1)=1")
    order = np.argsort(points, kind="stable")
    if np.any(np.diff(vals[order]) < -1e-12):
        raise CdfNotMonotone("cdf must be non-decreasing on [0, 1]")
    return vals


def rank_mu(a: Dataset, b: Dataset, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Distribution-weighted rank distance: sum of cdf gaps positionwise.

    Equals the integral of |rank_a - rank_b| against the measure whose
    distribution function is `cdf` (equal counts), checked on both datasets.
    """
    xa, xb = _pair_columns(a, b, "rank_mu")
    f = _check_cdf(cdf, np.concatenate([xa, xb]))
    return float(np.abs(f[: a.n] - f[a.n :]).sum())


# -- exact single-attribute cardinality distances ----------------------------
#
# Substituting a = c + r, b = c maps the legal query set bijectively (unit
# Jacobian) onto {a in [0, 1], b in [a - 1, a]}, and
#     count_D(c, r) - count_D'(c, r) = g(a) - g(b-)
# with g = rank_D - rank_D', right-continuous, 0 below 0, and constant g_k
# on the cells [0, bp_0), [bp_j, bp_{j+1}), ..., [bp_last, 1] (width w_k,
# midpoint mid_k).  Where b < 0, g(b-) = 0 and the band over a has length
# 1 - a; where b >= 0 the integral over b <= a is half the one over
# [0, 1]^2.  Hence
#     card1d_l1 = sum_k |g_k| w_k (1 - mid_k)
#               + sum_{k<l, sorted by g} w_k w_l (g_l - g_k),
# and the second sum, telescoped over consecutive sorted values, is
#     sum_j (g_(j+1) - g_(j)) * (weight up to j) * (weight after j).
# A zero-width first or last cell adds 0.


def card1d_l1(a: Dataset, b: Dataset) -> float:
    """Exact average-case cardinality distance for single-attribute data.

    Record counts may differ; either dataset may be empty.  O(n log n)
    time and O(n) memory by the identity above.
    """
    _pair_columns(a, b)
    t = _signed(a, b)[1]
    edges = np.concatenate([[0.0], t.lookups[0].levels, [1.0]])
    g = t.table  # table[0] = 0: before any data
    w = np.diff(edges)
    near = np.abs(g) * w * (1.0 - 0.5 * (edges[:-1] + edges[1:]))
    order = np.argsort(g)
    ws = w[order]
    below = np.cumsum(ws)[:-1]
    above = np.cumsum(ws[::-1])[::-1][1:]
    return float(near.sum() + (np.diff(g[order]) * below * above).sum())


def card1d_linf(a: Dataset, b: Dataset) -> float:
    """Exact worst-case cardinality distance for single-attribute data.

    With v_j the step values of rank_a - rank_b (v_0 = 0 before any data),
    the supremum is max over j of the spread between v_j and the running
    min/max of v_0..v_j: the right endpoint of a query picks v_j, the left
    endpoint independently picks any earlier value.
    """
    _pair_columns(a, b)
    vv = _signed(a, b)[1].table  # table[0] = 0: before any data
    run_min = np.minimum.accumulate(vv)
    run_max = np.maximum.accumulate(vv)
    return float(np.maximum(vv - run_min, run_max - vv).max())


# -- Monte Carlo routes ------------------------------------------------------


def quantile_points(cdf: Callable, targets: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Leftmost x with cdf(x) >= target, by bisection on [0, 1]."""
    t = np.asarray(targets, dtype=np.float64)
    lo = np.zeros_like(t)
    hi = np.ones_like(t)
    for _ in range(64):
        if float((hi - lo).max(initial=0.0)) <= tol:
            break
        mid = 0.5 * (lo + hi)
        below = np.asarray(cdf(mid), dtype=np.float64) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    out[t <= 0.0] = 0.0
    out[t >= 1.0] = 1.0
    return out


def _draws(draw: Callable, samples: int, gen) -> Iterator:
    """The sampled stream: `samples` queries of draw(m, gen), m <= _MC_CHUNK."""
    for start in range(0, samples, _MC_CHUNK):
        yield draw(min(_MC_CHUNK, samples - start), gen)


def _index_probes(col: np.ndarray, grid: int) -> Iterator[np.ndarray]:
    """model_error's rank probes in blocks of about _MC_CHUNK points.

    Position p of one ascending stream is the point edges[k] + t * width[k] of
    gap k = p // (grid + 1), t = (p % (grid + 1)) * (1 / (grid + 1)) as
    np.linspace makes it; t < 1 keeps it inside its gap, and the last position
    is 1.0.  A block is _MC_CHUNK positions plus the points 1e-12 left of data
    values, kept from its first point up to, not including, the next block's,
    so the blocks partition the probe set.
    """
    edges = np.unique(np.concatenate([[0.0], col, [1.0]]))
    width, left = np.append(np.diff(edges), 0.0), np.clip(col - 1e-12, 0.0, 1.0)
    per, unit, total = grid + 1, 1.0 / (grid + 1), (edges.size - 1) * (grid + 1) + 1
    for start in range(0, total, _MC_CHUNK):
        pos = np.arange(start, min(start + _MC_CHUNK + 1, total))  # and the next block's first
        k = pos // per
        pts = edges[k] + (pos % per * unit) * width[k]
        bottom, cap = pts[0], pts[-1] if start + _MC_CHUNK < total else np.inf
        own = left[np.searchsorted(left, bottom) : np.searchsorted(left, cap)]
        pts = np.unique(np.concatenate([pts, own]))
        yield pts[np.searchsorted(pts, bottom) : np.searchsorted(pts, cap)]


def _mc_estimate(gaps: Callable, batches: Iterable, norm: str = L1) -> DistanceEstimate:
    """Reduce gaps(batch) over batches of about _MC_CHUNK queries each.

    The mean and its standard error ("monte_carlo"), or for `norm` LINF the
    maximum ("probe").  Bounded batches keep memory bounded; fixed ones keep
    the result independent of execution order.
    """
    sums: list[float] = []
    sumsqs: list[float] = []
    maxima: list[float] = []
    count = 0
    for batch in batches:
        chunk = gaps(batch)
        if norm == LINF:
            maxima.append(float(chunk.max(initial=0.0)))  # gaps are >= 0
        else:
            sums.append(float(np.add.reduce(chunk)))
            sumsqs.append(float(np.add.reduce(chunk * chunk)))
        count += chunk.size
    if norm == LINF:
        return DistanceEstimate(float(np.max(maxima)), "probe", samples=count)
    mean = math.fsum(sums) / count
    var = max(0.0, (math.fsum(sumsqs) - count * mean * mean) / max(1, count - 1))
    return DistanceEstimate(mean, "monte_carlo", math.sqrt(var / count), count)


def _pair_gaps(a: Dataset, b: Dataset, op: OpKind) -> Callable:
    """batch -> |f_a - f_b| per query, checking that a and b share a width.

    A ce pair reads its one signed kernel, `_signed`'s, unless that would
    be the row-major mask.  Its answers are whole counts, so they equal the
    two evaluations' exactly.  Other pairs (range sums, whose signed sums
    would round differently) evaluate each dataset.
    """
    if op is not OpKind.INDEX and a.d != b.d:
        raise DimensionMismatch(f"datasets must share dimensionality, got {a.d} and {b.d}")
    if op is OpKind.CARD_EST and (signed := _signed(a, b)[1]) is not None:
        return lambda batch: np.abs(signed(*batch))
    return lambda batch: np.abs(eval_batch(a, op, batch) - eval_batch(b, op, batch))


def mc_l1(a: Dataset, b: Dataset, op: OpKind, samples: int, seed: int) -> DistanceEstimate:
    """Monte Carlo average-case distance under uniform queries.

    The query space has volume 1, so the sample mean estimates the
    integral directly.
    """
    draw = uniform_sampler(op, a.d)
    return mc_mu(a, b, op, draw, samples, seed)


def mc_mu(
    a: Dataset,
    b: Dataset,
    op: OpKind,
    query_sampler: Callable,
    samples: int,
    seed: int,
) -> DistanceEstimate:
    """Monte Carlo distance under the measure induced by `query_sampler`.

    `query_sampler(count, gen)` must return a query batch distributed as
    the target measure; the sample mean then estimates the weighted
    integral.
    """
    if samples < 2:
        raise InvalidParams("need at least 2 samples")
    batches = _draws(query_sampler, samples, make_generator(seed))
    return _mc_estimate(_pair_gaps(a, b, op), batches)


# -- model-vs-truth error ----------------------------------------------------


def model_error(
    dataset: Dataset,
    op: OpKind,
    predict: Callable,
    norm: str,
    cfg: EvalConfig,
    cdf: Callable[[np.ndarray], np.ndarray] | None = None,
) -> DistanceEstimate:
    """Error of a prediction function against the true query function.

    `predict` maps a query batch to unnormalized answers.  The average
    case (l1) is a Monte Carlo mean over `cfg.samples` uniform queries; the
    distribution-weighted case (mu, indexing only, needs `cdf`) is one over
    queries drawn from the measure whose distribution function is `cdf`.
    Both are "monte_carlo".  The worst case is a "probe": over rank queries
    the probes are 0, 1, every data value, a point 1e-12 left of it and
    `cfg.grid` points per gap (the truth is constant between data values,
    so probes bound the supremum from below), over range kinds
    `cfg.samples` uniform queries.  Queries come in _MC_CHUNK = 65,536-query
    chunks and rank probes in blocks of about as many points, so memory
    grows with neither `cfg.samples` nor `cfg.grid`.
    """
    if norm not in (L1, LINF, MU):
        raise InvalidRequest(f"model_error supports norms l1, linf and mu, got {norm!r}")
    if norm == MU and (cdf is None or op is not OpKind.INDEX):
        raise InvalidRequest("a mu error needs an indexing op and a cdf")
    batches = _draws(uniform_sampler(op, dataset.d), cfg.samples, make_generator(cfg.seed))
    if norm == MU:
        batches = (quantile_points(cdf, u, tol=1e-10) for u in batches)
    elif norm == LINF and op is OpKind.INDEX:
        batches = _index_probes(dataset.sorted_column, cfg.grid)
    truth = partial(eval_batch, dataset, op)
    gaps = lambda batch: np.abs(truth(batch) - np.asarray(predict(batch), dtype=np.float64))
    return _mc_estimate(gaps, batches, norm)


# -- the route table ---------------------------------------------------------


def distance(
    a: Dataset,
    b: Dataset,
    op: OpKind,
    norm: str,
    samples: int,
    seed: int,
    cdf: Callable[[np.ndarray], np.ndarray] | None = None,
) -> DistanceEstimate:
    """Distance between two datasets' query functions, by the first route serving it.

    Exact: rank_l1, rank_linf and rank_mu (needs `cdf`) for index, and
    card1d_l1 and card1d_linf for ce at d = 1.  Otherwise, worst case: a
    probe, the maximum over point queries at every distinct predicate
    projection of both datasets (closed intervals make a zero-width box a
    point; for ce, the rows of `_signed`, since every other point's gap is
    0), then over `samples` uniform queries from `seed` (`samples` counts
    these only).  Otherwise, average case: mc_l1.  The sampled routes read
    a ce pair's one signed kernel (see `_pair_gaps`).  A pair of unequal
    widths raises DimensionMismatch for every non-index op; anything else
    unserved raises InvalidRequest.  `method` names the route.  Each route
    is looked up in this module's globals at call time.
    """
    route = None
    if op is OpKind.INDEX and norm == MU:
        if cdf is None:
            raise InvalidRequest("a mu distance needs a cdf")
        route = partial(rank_mu, cdf=cdf)
    elif op is OpKind.INDEX:
        route = {L1: rank_l1, LINF: rank_linf}.get(norm)
    elif op is OpKind.CARD_EST and a.d == 1:
        route = {L1: card1d_l1, LINF: card1d_linf}.get(norm)
    if route is not None:
        return DistanceEstimate(route(a, b), "exact")
    if norm == LINF:
        gaps = _pair_gaps(a, b, op)  # first: it checks a range-sum pair's widths
        if op is OpKind.CARD_EST:  # a point's gap is its net count, 0 off these rows
            pts = _signed(a, b)[0]
        else:
            dq = query_dims(op, a.d)
            pts = np.unique(np.vstack([a.values[:, :dq], b.values[:, :dq]]), axis=0)
        draws = _draws(uniform_sampler(op, a.d), samples, make_generator(seed))
        est = _mc_estimate(gaps, chain([(pts, np.zeros_like(pts))], draws), LINF)
        return replace(est, samples=samples)
    if norm == L1:
        return mc_l1(a, b, op, samples, seed)
    raise InvalidRequest(f"no distance route for op={op.value} norm={norm}")
