"""Query semantics: rank, cardinality, range-sum, and query samplers.

Queries use closed intervals on every axis.  A range query is a pair
(c, r) with 0 <= r_j <= 1 and -r_j <= c_j <= 1 - r_j, matching points p
with c_j <= p_j <= c_j + r_j on every predicate axis; negative left edges
are legal and are never clamped.  When a point has more attributes than
the predicate, the extra trailing attributes are ignored.

Batched range queries share one weighted box-sum kernel (`BoxSum`;
cardinality weighs records by 1, range-sum by the last attribute).  Over
n records with u distinct predicate rows and u_j distinct values on axis
j, it is one of two structures, built once per dataset:

- a summed-area table: O(n log n + prod_j (u_j + 1)) to build, and an
  expected O(m * (dq + 2**dq)) for m queries (two cell lookups per axis,
  `SortedLookup`, with a log u binary search only for keys that fall back,
  then 2**dq table cells);
- a mask over the distinct rows: O(n log n) to build, O(m * u * dq) for m
  queries.

One predicate axis (ce at d = 1, rs at d = 2) always takes the table.
dq >= 2 axes take it when u > 32 and the table has at most _CHUNK_CELLS
cells, else the mask.  A count mask over at most 32 rows is laid out
query-major, (u, chunk), so numpy's inner loops run over the queries
rather than over the rows; range-sum masks and masks over more rows stay
row-major, (chunk, u), which keeps range-sum rounding fixed.  Whole weights
whose magnitudes sum below 2**24 (every count) are summed in float32, exact
since each partial sum is an integer below 2**24; others in float64.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import DimensionMismatch, EntryOutOfRange, InvalidParams


class OpKind(enum.Enum):
    INDEX = "index"
    CARD_EST = "ce"
    RANGE_SUM = "rs"


@dataclass(frozen=True)
class RankQuery:
    q: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise EntryOutOfRange("rank query point must lie in [0, 1]")


@dataclass(frozen=True)
class RangeQuery:
    c: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.c, dtype=np.float64))
        r = np.atleast_1d(np.asarray(self.r, dtype=np.float64))
        if c.shape != r.shape or c.ndim != 1:
            raise DimensionMismatch("c and r must be equal-length vectors")
        if np.any(r < 0.0) or np.any(r > 1.0):
            raise EntryOutOfRange("widths must lie in [0, 1]")
        if np.any(c < -r) or np.any(c > 1.0 - r):
            raise EntryOutOfRange("left edges must lie in [-r_j, 1 - r_j]")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r", r)

    @property
    def dims(self) -> int:
        return self.c.shape[0]


Query = RankQuery | RangeQuery


def query_dims(op: OpKind, data_d: int) -> int:
    """Predicate dimensionality for `op` over d-attribute data.

    The one place that checks data width for an op: rank data has exactly
    one attribute and range-sum data at least two; others raise
    DimensionMismatch.
    """
    if op is OpKind.INDEX:
        if data_d != 1:
            raise DimensionMismatch(f"rank data needs 1 attribute, got {data_d}")
        return 1
    if op is OpKind.CARD_EST:
        return data_d
    if data_d < 2:
        raise DimensionMismatch("range-sum data needs >= 2 attributes")
    return data_d - 1


def matches(point: np.ndarray, query: Query) -> bool:
    """Closed-interval membership; extra trailing point attributes ignored."""
    p = np.atleast_1d(np.asarray(point, dtype=np.float64))
    if isinstance(query, RankQuery):
        return bool(p[0] <= query.q)
    if p.shape[0] < query.dims:
        raise DimensionMismatch("point has fewer attributes than the predicate")
    head = p[: query.dims]
    return bool(np.all(query.c <= head) and np.all(head <= query.c + query.r))


def rank(dataset: Dataset, q: float | RankQuery) -> int:
    """#records <= q in a single-attribute dataset, stored in any order."""
    query_dims(OpKind.INDEX, dataset.d)
    q = q if isinstance(q, RankQuery) else RankQuery(q)
    return int(np.searchsorted(dataset.sorted_column, q.q, side="right"))


def cardinality(dataset: Dataset, query: RangeQuery) -> int:
    """#records inside the closed box [c, c + r]."""
    if query.dims != dataset.d:
        raise DimensionMismatch(
            f"predicate has {query.dims} axes, data has {dataset.d}"
        )
    v = dataset.values
    inside = np.all((v >= query.c) & (v <= query.c + query.r), axis=1)
    return int(np.count_nonzero(inside))


def range_sum(dataset: Dataset, query: RangeQuery) -> float:
    """Sum of the last attribute over records matching on the first d-1."""
    dq = query_dims(OpKind.RANGE_SUM, dataset.d)
    if query.dims != dq:
        raise DimensionMismatch(f"predicate has {query.dims} axes, expected {dq}")
    v = dataset.values
    head = v[:, :-1]
    inside = np.all((head >= query.c) & (head <= query.c + query.r), axis=1)
    return float(v[inside, -1].sum())


# -- batched evaluation ------------------------------------------------------
#
# Batches are the workhorse representation for Monte Carlo and training:
# rank queries as a (m,) array, range queries as a (C, R) pair of (m, dq)
# arrays.

_CHUNK_CELLS = 4_000_000
# Below this many keys a search is np.searchsorted on the keys as they come,
# with no cell table to build.  The lookup's dozen passes cost about 15 us a
# call; it overtakes np.searchsorted from about 512 random keys over 10,000
# levels, 768 over 1,000 and past 1,024 over 100 (2-vCPU x86-64, numpy 2.4.6).
_SMALL_BATCH = 512
# by search side: (a level counts for a key, a level lies above a key)
_LEVEL_TESTS = {"right": (np.less_equal, np.greater), "left": (np.less, np.greater_equal)}
# Up to this many distinct predicate rows a dq >= 2 box sum stays on the
# mask, query-major for counts: below it the row-major mask is faster at
# dq = 3 (the measured crossover, in the README's "Query kernel costs").
_TABLE_MIN_ROWS = 32
# From this many cells a slab (one level of axis 0), a count table may be
# filled orthant by orthant instead of by bincount and np.cumsum.  BoxSum
# builds over uniform records, orthant against cumsum, medians of 31 (2-vCPU
# x86-64, numpy 2.4.6): at d = 2, 0.80 against 0.59 ms over 256 records,
# 1.2 against 1.3 over 400, 3.5 against 7.9 over 1,000 and 9.2 against 41
# over 1,999; at d = 3, 3.9 against 42 ms over 150.
_SLAB_CELLS = 256


class BoxSum:
    """Weighted records prepared once for closed-box sums.

    Table: a summed-area table over rank-compressed coordinates.  Axis j
    has the sorted distinct values of column j as levels, searched through
    `lookups[j]`, a SortedLookup; table cell
    (i_0, .., i_{dq-1}) holds the weight of the records whose value on
    every axis j is at or below level i_j - 1 (row 0 on each axis is the
    zero pad), so a box sum is an inclusion-exclusion over 2**dq cells.
    It is the weights binned by cell and summed along each axis by
    np.cumsum, in float64, or, for whole weights on slabs of at least
    _SLAB_CELLS cells with one distinct row per axis-0 level, filled in
    int32 by `_orthant_table`; answers are float64 either way.
    Mask: distinct rows with summed weights, stored column by column.
    `distinct` builds the same kernel from rows already distinct, and
    `steps` a one-axis table from its levels and cells.

    One axis always uses the table.  More axes use it when there are over
    _TABLE_MIN_ROWS distinct rows and it has at most _CHUNK_CELLS cells, as
    many as one range-sum mask chunk, so it needs no more memory than that
    chunk's float64 product.

    The mask is laid out query-major, (u, chunk), for counts over at most
    _TABLE_MIN_ROWS rows: comparisons and ANDs then run a chunk of queries
    per inner loop instead of u rows.  Range sums stay row-major, (chunk,
    u), because BLAS rounds a product by how it blocks the rows, and so do
    masks over more rows, where row-major is faster.  Merged weights that
    are whole with magnitudes summing below 2**24 are kept as float32, so
    either layout's product casts the mask to 4 bytes a cell and sums in
    single precision; every partial sum is an integer float32 holds, so
    the answers equal the float64 product's.  Other weights stay float64.
    """

    def __init__(self, points: np.ndarray, weights: np.ndarray) -> None:
        self.dq = points.shape[1]
        self.table = None
        axes = [np.unique(col, return_inverse=True) for col in points.T]
        shape = tuple(levels.shape[0] + 1 for levels, _ in axes)
        size = math.prod(shape)
        if self.dq == 1 or size <= _CHUNK_CELLS:
            codes = tuple(code + 1 for _, code in axes)  # + 1: past the zero pad
            cell = np.ravel_multi_index(codes, shape)
            if self.dq > 1:
                cells, inverse = np.unique(cell, return_inverse=True)
            if self.dq == 1 or cells.shape[0] > _TABLE_MIN_ROWS:
                wide = size >= _SLAB_CELLS * shape[0]  # never at dq = 1
                if wide and cells.shape[0] == shape[0] - 1 and _whole(weights, 2.0**31):
                    self.table = _orthant_table(cells, inverse, weights, shape)
                else:
                    self.table = np.bincount(cell, weights=weights, minlength=size)
                    grid = self.table.reshape(shape)  # a view: sums in place
                    for j in range(self.dq):
                        np.cumsum(grid, axis=j, out=grid)
                self.lookups = [SortedLookup(levels) for levels, _ in axes]
                self.strides = [math.prod(shape[j + 1 :]) for j in range(self.dq)]
                return
        rows, inverse = np.unique(points, axis=0, return_inverse=True)
        self._mask(rows, np.bincount(inverse.ravel(), weights=weights, minlength=rows.shape[0]))

    @classmethod
    def distinct(cls, rows: np.ndarray, weights: np.ndarray) -> BoxSum:
        """The constructor's kernel for distinct `rows` over dq >= 2 axes,
        one weight each.

        At most _TABLE_MIN_ROWS rows take the mask as given, with none of
        the constructor's np.unique passes; more take the constructor.
        """
        if rows.shape[0] > _TABLE_MIN_ROWS:
            return cls(rows, weights)
        box = cls.__new__(cls)
        box.dq, box.table = rows.shape[1], None
        box._mask(rows, weights)
        return box

    @staticmethod
    def row_major(rows: np.ndarray) -> bool:
        """Whether a count kernel over distinct `rows` over dq >= 2 axes is
        the row-major mask: over _TABLE_MIN_ROWS rows, and a table over
        _CHUNK_CELLS cells."""
        if rows.shape[0] <= _TABLE_MIN_ROWS:
            return False
        return math.prod(np.unique(col).shape[0] + 1 for col in rows.T) > _CHUNK_CELLS

    def _mask(self, rows: np.ndarray, weights: np.ndarray) -> None:
        """The mask over distinct rows and their summed weights."""
        self.columns = np.ascontiguousarray(rows.T)
        self.weights = weights
        # The product casts a chunk's bool mask to the weights' type.  Whole
        # weights (counts) sum exactly in any grouping, so their chunks are
        # sized to hold a float64 copy too, 8 more bytes a cell; those whose
        # magnitudes sum below 2**24 are float32, so every partial sum is an
        # integer float32 holds and the copy takes 4 of those bytes.  Other
        # weights keep one byte a cell: BLAS rounds a row's product by how
        # its call blocks the rows, so other chunks would move range sums.
        self.cell_bytes = 9 if _whole(self.weights, 2.0**53) else 1
        if _whole(self.weights, 2.0**24):
            self.weights = self.weights.astype(np.float32)

    @classmethod
    def steps(cls, levels: np.ndarray, table: np.ndarray) -> BoxSum:
        """A one-axis table from its sorted distinct levels and its cells."""
        box = cls.__new__(cls)
        box.dq, box.lookups, box.table, box.strides = 1, [SortedLookup(levels)], table, [1]
        return box

    def _corners(self, edges: list, j: int, base: np.ndarray | None) -> np.ndarray:
        """Inclusion-exclusion over axes j.. at flat table offset `base`.

        Differenced axis by axis, so a box empty on any axis sums to
        exactly 0.
        """
        lo, top = edges[j]
        if j:
            lo, top = base + lo, base + top
        if j == self.dq - 1:
            return self.table[top] - self.table[lo]
        return self._corners(edges, j + 1, top) - self._corners(edges, j + 1, lo)

    def __call__(self, C: np.ndarray, R: np.ndarray) -> np.ndarray:
        if C.shape[1] != self.dq:
            raise DimensionMismatch("predicate width does not match the data")
        if self.table is not None:
            edges = []
            for j, search in enumerate(self.lookups):
                lo = search(C[:, j], "left")
                top = search(C[:, j] + R[:, j], "right")
                # the last axis has stride 1; skipping its multiply keeps a
                # one-axis call as cheap as a plain prefix-sum lookup
                if self.strides[j] != 1:
                    lo *= self.strides[j]
                    top *= self.strides[j]
                edges.append((lo, top))
            return self._corners(edges, 0, None).astype(np.float64, copy=False)
        # one mask per block of queries, AND-ed axis by axis, laid out and
        # summed as the class docstring says (counts are exact in any order)
        u = self.weights.shape[0]
        qmajor = self.cell_bytes == 9 and u <= _TABLE_MIN_ROWS
        cols = self.columns[:, :, None] if qmajor else self.columns[:, None, :]
        out = np.empty(C.shape[0], dtype=np.float64)
        step = max(1, _CHUNK_CELLS // (self.cell_bytes * max(1, u)))
        for s in range(0, C.shape[0], step):
            for j in range(self.dq):
                lo = C[s : s + step, j].copy()
                top = lo + R[s : s + step, j]
                if not qmajor:
                    lo, top = lo[:, None], top[:, None]
                if j:
                    mask &= cols[j] >= lo
                else:
                    mask = cols[j] >= lo
                mask &= cols[j] <= top
            out[s : s + step] = self.weights @ mask if qmajor else mask @ self.weights
        return out


def _whole(weights: np.ndarray, bound: float) -> bool:
    """Whether the weights are whole numbers whose magnitudes sum below `bound`."""
    whole = bool(np.all(np.floor(weights) == weights))
    return whole and float(np.abs(weights).sum()) < bound


def _orthant_table(
    cells: np.ndarray, inverse: np.ndarray, weights: np.ndarray, shape: tuple
) -> np.ndarray:
    """The int32 table of whole weights with one distinct row per axis-0 level.

    Slab 0 is zero, and slab i is slab i - 1 plus the weight of the row at
    axis-0 code i on the orthant at and past its codes on axes 1...  Every
    cell, and every difference `_corners` takes, is the sum over a set of
    records, so magnitudes summing below 2**31 keep them all exact.
    """
    table = np.zeros(math.prod(shape), dtype=np.int32)
    grid = table.reshape(shape)
    row_weights = np.bincount(inverse.ravel(), weights=weights).astype(np.int32)
    _, *codes = np.unravel_index(cells, shape)  # cells ascend: axis-0 codes 1, 2, ..
    for i, w, *at in zip(range(1, shape[0]), row_weights.tolist(), *codes):
        grid[i] = grid[i - 1]
        grid[(i, *(slice(c, None) for c in at))] += w
    return table


class SortedLookup:
    """`np.searchsorted(levels, keys, side)` over fixed sorted levels.

    [levels[0], levels[-1]] is cut into 4 equal cells a level, less one;
    `counts` (int32, 16 bytes a level) holds each cell's number of levels in
    earlier cells.  A key's answer is its cell's count, plus one if the next
    level passes (<= the key, < for side "left").  Keys whose following level
    passes too, and NaN, are searched again by np.searchsorted.  Levels and
    keys share one monotone map to cells, so the answers are exact (the
    README's "Query kernel costs").  Batches under _SMALL_BATCH keys, and
    fewer than two levels, skip the lookup; the first other search builds it.
    """

    def __init__(self, levels: np.ndarray) -> None:
        self.levels = np.asarray(levels, dtype=np.float64)
        self.counts = None

    def _scaled(self, x: np.ndarray) -> np.ndarray:
        """(clip(x, lo, hi) - lo) * scale, whose integer part is x's cell."""
        lo, hi, scale = self.cell_map
        t = np.fmin(x, hi, dtype=np.float64)  # clipped first: no inf or NaN is scaled
        np.fmax(t, lo, out=t)
        t -= lo
        t *= scale
        return t

    def _build(self) -> None:
        cells = 4 * self.levels.shape[0]
        lo, hi = float(self.levels[0]), float(self.levels[-1])
        scale = (cells - 1) / (hi - lo) if hi > lo else 0.0
        # equal levels, or a span too narrow or too wide to scale: one cell
        self.cell_map = (lo, hi, scale) if 0.0 < scale < math.inf else (0.0, 0.0, 0.0)
        counts = np.zeros(cells, dtype=np.int32)
        cell = self._scaled(self.levels).astype(np.intp)
        np.cumsum(np.bincount(cell, minlength=cells)[:-1], out=counts[1:])
        self.counts = counts  # last: a search that sees it sees the whole lookup

    def __call__(self, keys: np.ndarray, side: str) -> np.ndarray:
        if keys.shape[0] < _SMALL_BATCH or self.levels.shape[0] < 2:
            return np.searchsorted(self.levels, keys, side=side)
        if self.counts is None:
            self._build()
        passes, above = _LEVEL_TESTS[side]
        t = self._scaled(keys)
        out = t.astype(np.intp)
        at = self.counts.take(out)
        nxt = self.levels.take(at, out=t)
        hit = passes(nxt, keys)
        np.add(at, hit, out=out)
        self.levels.take(out, mode="clip", out=nxt)
        above(nxt, keys, out=hit)  # False where the following level passes, or on NaN
        if np.count_nonzero(hit) < keys.shape[0]:
            miss = np.flatnonzero(~hit)
            out[miss] = np.searchsorted(self.levels, keys[miss], side=side)
        return out


def search_sorted(levels: np.ndarray, keys: np.ndarray, side: str) -> np.ndarray:
    """`np.searchsorted(levels, keys, side=side)` through a one-off SortedLookup."""
    return SortedLookup(levels)(keys, side)


def box_sum(
    points: np.ndarray, weights: np.ndarray, C: np.ndarray, R: np.ndarray
) -> np.ndarray:
    """Sum of `weights` over the points inside each closed box [C, C + R]."""
    return BoxSum(points, weights)(C, R)


def rank_batch(sorted_values: np.ndarray, qs: np.ndarray) -> np.ndarray:
    return search_sorted(sorted_values, qs, "right").astype(np.float64)


def cardinality_batch(values: np.ndarray, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    return box_sum(values, np.ones(values.shape[0]), C, R)


def range_sum_batch(values: np.ndarray, C: np.ndarray, R: np.ndarray) -> np.ndarray:
    return box_sum(values[:, :-1], values[:, -1], C, R)


def eval_batch(dataset: Dataset, op: OpKind, batch) -> np.ndarray:
    """True answers for a query batch, from structures cached on `dataset`."""
    query_dims(op, dataset.d)
    if op is OpKind.INDEX:
        return dataset.rank_lookup(np.asarray(batch, dtype=np.float64), "right").astype(np.float64)
    if op is OpKind.CARD_EST:
        return dataset.count_index(*batch)
    return dataset.sum_index(*batch)


# -- samplers ----------------------------------------------------------------


def sample_rank_queries(count: int, gen: np.random.Generator) -> np.ndarray:
    return uniform_block(OpKind.INDEX, 1, 1, count, gen)


def sample_range_queries(
    count: int, dq: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """`count` uniform range queries over `dq` predicate axes (see uniform_block)."""
    return uniform_block(OpKind.CARD_EST, dq, 1, count, gen)


def uniform_sampler(op: OpKind, data_d: int) -> Callable:
    """(count, gen) -> a batch of uniform queries for `op` over d-attribute data."""
    return lambda count, gen: uniform_block(op, data_d, 1, count, gen)


def uniform_block(op: OpKind, data_d: int, k: int, count: int, gen: np.random.Generator):
    """k consecutive draws of `count` uniform queries, concatenated.

    A rank draw is `count` points in [0, 1].  A range draw is uniform on
    the legal query set: widths r_j ~ U[0,1], then left edges c_j | r_j ~
    U[-r_j, 1-r_j].  The conditional left-edge interval always has length
    1, so the joint density is 1 and sample means are unbiased integral
    estimates.  One call consumes the same stream as k calls with k = 1:
    each draw takes its widths R, then its left edges plus R.
    """
    if op is OpKind.INDEX:
        return gen.random(k * count)
    dq = query_dims(op, data_d)
    blk = gen.random((k, 2, count, dq))
    R, C = blk[:, 0], blk[:, 1]
    C -= R
    return C.reshape(k * count, dq), R.reshape(k * count, dq)


def sample_easy_queries(
    n: int, k: int, count: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Batch from the concentrated single-attribute query distribution.

    The unit query space is cut into n*k equal cells; a draw picks a cell
    uniformly and then a uniform point of the right triangle of queries
    whose interval [c, c+r] stays inside that cell.  Every width r is at
    most 1/(n*k).
    """
    if n < 1 or k < 1:
        raise InvalidParams("n and k must be >= 1")
    h = 1.0 / (n * k)
    cells = gen.integers(0, n * k, size=count)
    u = gen.random(count) * h
    v = gen.random(count) * h
    flip = u + v > h
    u[flip] = h - u[flip]
    v[flip] = h - v[flip]
    C = (cells * h + u).reshape(-1, 1)
    R = v.reshape(-1, 1)
    np.clip(C, 0.0, 1.0 - R, out=C)
    return C, R


def easy_query_density(n: int, k: int, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Density of the concentrated distribution at (c, r); 2nk on support.

    Support: r >= 0 and the interval [c, c + r] fits inside the cell of c.
    """
    if n < 1 or k < 1:
        raise InvalidParams("n and k must be >= 1")
    m = n * k
    c = np.asarray(c, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    cell = np.minimum(np.floor(c * m), m - 1)
    ok = (r >= 0.0) & (c >= 0.0) & (cell / m <= c) & (c + r <= (cell + 1) / m)
    return np.where(ok, 2.0 * m, 0.0)
