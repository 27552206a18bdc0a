from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_dataset, random_sorted
from ldbounds import queryfn
from ldbounds.data import empty_dataset, make_dataset
from ldbounds.errors import (
    DimensionMismatch,
    EntryOutOfRange,
)
from ldbounds.queryfn import (
    BoxSum,
    OpKind,
    RangeQuery,
    RankQuery,
    SortedLookup,
    box_sum,
    cardinality,
    cardinality_batch,
    easy_query_density,
    eval_batch,
    matches,
    query_dims,
    range_sum,
    range_sum_batch,
    rank,
    rank_batch,
    sample_easy_queries,
    sample_range_queries,
    sample_rank_queries,
    search_sorted,
)


def test_query_dims():
    assert query_dims(OpKind.INDEX, 1) == 1
    assert query_dims(OpKind.CARD_EST, 3) == 3
    assert query_dims(OpKind.RANGE_SUM, 3) == 2
    with pytest.raises(DimensionMismatch):
        query_dims(OpKind.RANGE_SUM, 1)


def test_rank_query_validation():
    with pytest.raises(EntryOutOfRange):
        RankQuery(q=1.5)


def test_range_query_validation():
    RangeQuery(c=np.array([-0.2]), r=np.array([0.5]))  # c in [-r, 1-r] is fine
    with pytest.raises(EntryOutOfRange):
        RangeQuery(c=np.array([0.6]), r=np.array([0.5]))
    with pytest.raises(EntryOutOfRange):
        RangeQuery(c=np.array([0.0]), r=np.array([1.5]))
    with pytest.raises(DimensionMismatch):
        RangeQuery(c=np.array([0.1, 0.2]), r=np.array([0.1]))


def test_rank_basic():
    ds = make_dataset(np.array([[0.1], [0.5], [0.5], [0.9]]))
    assert rank(ds, 0.5) == 3  # boundary included
    assert rank(ds, 0.49) == 1
    assert rank(ds, 0.0) == 0
    assert rank(ds, 1.0) == 4
    assert rank(ds, RankQuery(q=0.5)) == 3


def test_cardinality_closed_box():
    ds = make_dataset(np.array([[0.2, 0.2], [0.5, 0.5], [0.7, 0.9]]))
    q = RangeQuery(c=np.array([0.2, 0.2]), r=np.array([0.3, 0.3]))
    assert cardinality(ds, q) == 2  # both edges inclusive
    q = RangeQuery(c=np.array([0.21, 0.2]), r=np.array([0.3, 0.3]))
    assert cardinality(ds, q) == 1


def test_range_sum_last_attribute():
    ds = make_dataset(np.array([[0.2, 0.3], [0.5, 0.4], [0.9, 0.2]]))
    q = RangeQuery(c=np.array([0.1]), r=np.array([0.5]))
    assert range_sum(ds, q) == pytest.approx(0.7)
    with pytest.raises(DimensionMismatch):
        range_sum(make_dataset(np.array([0.5])), q)


def test_matches_ignores_trailing_attributes():
    q = RangeQuery(c=np.array([0.0]), r=np.array([0.5]))
    assert matches(np.array([0.3, 0.99]), q)
    assert not matches(np.array([0.6, 0.0]), q)
    assert matches(np.array([0.3]), RankQuery(q=0.5))


def test_batch_matches_scalar_ops(gen):
    ds = random_dataset(40, 2, seed=3)
    C, R = sample_range_queries(25, 2, gen)
    got = cardinality_batch(ds.values, C, R)
    want = [cardinality(ds, RangeQuery(c=C[i], r=R[i])) for i in range(25)]
    assert np.array_equal(got, want)

    ds3 = random_dataset(40, 3, seed=4)
    got = range_sum_batch(ds3.values, C, R)
    want = [range_sum(ds3, RangeQuery(c=C[i], r=R[i])) for i in range(25)]
    assert np.allclose(got, want, atol=1e-12)

    sorted_ds = random_sorted(40, seed=5)
    qs = gen.random(25)
    got = rank_batch(sorted_ds.column(0), qs)
    want = [rank(sorted_ds, float(q)) for q in qs]
    assert np.array_equal(got, want)


def test_batch_empty_dataset():
    C = np.array([[0.1], [0.2]])
    R = np.array([[0.3], [0.3]])
    assert np.array_equal(cardinality_batch(empty_dataset(1).values, C, R), [0.0, 0.0])
    assert np.array_equal(
        range_sum_batch(empty_dataset(2).values, C, R), [0.0, 0.0]
    )
    C2, R2 = np.hstack([C, C]), np.hstack([R, R])
    assert np.array_equal(cardinality_batch(empty_dataset(2).values, C2, R2), [0.0, 0.0])


def test_eval_batch_dispatch():
    ds = random_sorted(30, seed=6)
    qs = np.array([0.25, 0.75])
    assert eval_batch(ds, OpKind.INDEX, qs)[0] == rank(ds, 0.25)
    ds2 = random_dataset(30, 2, seed=7)
    C = np.array([[0.1, 0.1]])
    R = np.array([[0.5, 0.5]])
    assert eval_batch(ds2, OpKind.CARD_EST, (C, R))[0] == cardinality(
        ds2, RangeQuery(c=C[0], r=R[0])
    )
    with pytest.raises(DimensionMismatch):
        eval_batch(ds2, OpKind.CARD_EST, (np.array([[0.1]]), np.array([[0.2]])))


def test_sample_rank_queries_range(gen):
    qs = sample_rank_queries(1000, gen)
    assert qs.shape == (1000,)
    assert qs.min() >= 0.0 and qs.max() <= 1.0


def test_sample_range_queries_distribution(gen):
    C, R = sample_range_queries(5000, 2, gen)
    assert C.shape == (5000, 2) and R.shape == (5000, 2)
    assert np.all(R >= 0.0) and np.all(R <= 1.0)
    assert np.all(C >= -R - 1e-12) and np.all(C <= 1.0 - R + 1e-12)
    # marginal of c + r should be uniform on [0, 1]
    a = (C + R).ravel()
    assert abs(a.mean() - 0.5) < 0.01


def test_sample_easy_queries_support_and_density(gen):
    n, k = 5, 4
    C, R = sample_easy_queries(n, k, 2000, gen)
    m = n * k
    cell = np.minimum(np.floor(C * m), m - 1)
    # the triangle constraint: r below the cell's descending edge
    upper = (cell + 1) / m - C
    assert np.all(R <= upper + 1e-9)
    assert np.all(R >= 0.0)
    dens = easy_query_density(n, k, C[:, 0], R[:, 0])
    assert np.all(dens == pytest.approx(2.0 * m))
    assert easy_query_density(n, k, np.array([0.0]), np.array([0.9]))[0] == 0.0


def test_easy_query_density_integrates_to_one():
    n, k = 3, 5
    m = n * k
    # m triangles, each with area (1/m)^2 / 2, density 2m
    assert m * (2.0 * m) * 0.5 / m**2 == pytest.approx(1.0)


# -- the box-sum kernel against the scalar definitions ------------------------


@st.composite
def box_cases(
    draw, dqs=(1, 2, 3), levels=(1, 5), sizes=(0, 40),
    ops=(OpKind.CARD_EST, OpKind.RANGE_SUM),
):
    """Duplicate-heavy data and queries whose edges sit on data values.

    `levels` bounds the number of values per axis; widths include 0 and
    left edges may be negative.  n = 0 gives the empty dataset.
    """
    op = draw(st.sampled_from(ops))
    dq = draw(st.sampled_from(dqs))
    d = dq if op is OpKind.CARD_EST else dq + 1
    unit = st.floats(0.0, 1.0, allow_subnormal=False)
    lo, hi = levels
    levels = [
        draw(st.lists(unit, min_size=lo, max_size=hi, unique=True)) for _ in range(d)
    ]
    n = draw(st.integers(*sizes))
    rows = [[draw(st.sampled_from(levels[j])) for j in range(d)] for _ in range(n)]
    m = draw(st.integers(1, 12))
    C = np.empty((m, dq))
    R = np.empty((m, dq))
    for i in range(m):
        for j in range(dq):
            r = draw(st.sampled_from([0.0, *levels[j]]) | unit)
            edge = draw(st.sampled_from(levels[j]))
            c = draw(st.sampled_from([edge, edge - r, -r]))
            C[i, j], R[i, j] = (c, r) if c <= 1.0 - r else (edge - r, r)
    ds = make_dataset(rows) if n else empty_dataset(d)
    return op, ds, C, R


def check_box_kernel(op, ds, C, R):
    """eval_batch and the batch helpers against the scalar definitions."""
    queries = [RangeQuery(c=C[i], r=R[i]) for i in range(C.shape[0])]
    got = eval_batch(ds, op, (C, R))
    if op is OpKind.CARD_EST:
        want = [cardinality(ds, q) for q in queries]
        assert np.array_equal(got, want)
        assert np.array_equal(cardinality_batch(ds.values, C, R), want)
        return
    want = np.array([range_sum(ds, q) for q in queries])
    # prefix-sum differences vs. masked sums: rounding only
    tol = ds.n * 2.0**-50 * np.abs(ds.values[:, -1]).sum()
    assert np.all(np.abs(got - want) <= tol)
    assert np.all(np.abs(range_sum_batch(ds.values, C, R) - want) <= tol)


@settings(max_examples=300, deadline=None)
@given(box_cases())
def test_box_kernel_matches_scalar(case):
    check_box_kernel(*case)


@settings(max_examples=100, deadline=None)
@given(box_cases(dqs=(2, 3), levels=(8, 12), sizes=(60, 100)))
def test_box_table_matches_scalar(case):
    # over _TABLE_MIN_ROWS distinct predicate rows: the summed-area table
    op, ds, C, R = case
    dq = C.shape[1]
    assume(np.unique(ds.values[:, :dq], axis=0).shape[0] > queryfn._TABLE_MIN_ROWS)
    kernel = ds.count_index if op is OpKind.CARD_EST else ds.sum_index
    assert kernel.table is not None
    check_box_kernel(op, ds, C, R)


@settings(max_examples=200, deadline=None)
@given(box_cases(dqs=(2, 3), sizes=(1, 40), ops=(OpKind.CARD_EST,)))
def test_few_row_count_mask_matches_scalar(case):
    # 1 to _TABLE_MIN_ROWS distinct rows: the query-major count mask
    op, ds, C, R = case
    assume(np.unique(ds.values, axis=0).shape[0] <= queryfn._TABLE_MIN_ROWS)
    assert ds.count_index.table is None
    check_box_kernel(op, ds, C, R)


def _distinct_rows(count, repeat, gen):
    """`count` distinct 2-d rows on a 0.1 grid, each `repeat` times."""
    cells = gen.choice(100, size=count, replace=False)
    rows = np.column_stack([cells // 10, cells % 10]) / 10.0
    return np.repeat(rows, repeat, axis=0)


def test_box_route_boundary(gen):
    C, R = sample_range_queries(200, 2, gen)
    for extra, table in ((0, False), (1, True)):
        ds = make_dataset(_distinct_rows(queryfn._TABLE_MIN_ROWS + extra, 3, gen))
        assert (ds.count_index.table is not None) is table
        check_box_kernel(OpKind.CARD_EST, ds, C, R)


def test_box_table_over_cap_falls_back_to_mask(monkeypatch, gen):
    points = _distinct_rows(60, 2, gen)
    ones = np.ones(points.shape[0])
    weights = gen.random(points.shape[0])
    C, R = sample_range_queries(300, 2, gen)
    count_table, sum_table = BoxSum(points, ones), BoxSum(points, weights)
    assert sum_table.table is not None
    monkeypatch.setattr(queryfn, "_CHUNK_CELLS", sum_table.table.size - 1)
    count_mask, sum_mask = BoxSum(points, ones), BoxSum(points, weights)
    assert sum_mask.table is None
    assert np.array_equal(count_mask(C, R), count_table(C, R))
    assert np.allclose(sum_mask(C, R), sum_table(C, R), rtol=0.0, atol=1e-12)
    # one predicate axis keeps the table whatever its size
    assert BoxSum(points[:, :1], weights).table is not None


@pytest.mark.parametrize("count", [0, 1, 20, 32, 33, 60])
def test_distinct_rows_build_the_constructors_kernel(monkeypatch, gen, count):
    rows = np.unique(_distinct_rows(count, 1, gen), axis=0)
    C, R = sample_range_queries(300, 2, gen)
    for weights in (gen.integers(-3, 4, size=count).astype(np.float64), gen.random(count)):
        for cap in (4_000_000, 10):  # the table, then a table over its cap
            monkeypatch.setattr(queryfn, "_CHUNK_CELLS", cap)
            box, want = BoxSum.distinct(rows, weights), BoxSum(rows, weights)
            assert (box.table is None) == (want.table is None)
            assert np.array_equal(box(C, R), want(C, R))
            assert BoxSum.row_major(rows) == (count > 32 and cap == 10)


def _whole_row_weights(edge, rows, gen):
    """Whole weights for `rows` rows, some negative, on one side of float32's
    exact range."""
    weights = gen.integers(-1000, 1000, size=rows).astype(np.float64)
    if edge == "below-2**24":  # magnitudes summing to 2**24 - 1
        weights[-1] = -(2**24 - 1 - np.abs(weights[:-1]).sum())
    elif edge == "row-over-2**24":  # float32(2**24 + 1) is 2**24
        weights[-1] = 2**24 + 1
    else:  # even rows but one, summing to 2**24 + 1: no float32 sum order holds it
        weights *= 2
        weights[-3:] = 2**23, 2**23, 1 - weights[:-3].sum()
    return weights


@pytest.mark.parametrize("edge", ["below-2**24", "row-over-2**24", "sum-over-2**24"])
@pytest.mark.parametrize("layout", ["query-major", "row-major"])
def test_count_mask_sums_whole_weights_exactly(monkeypatch, gen, layout, edge):
    rows = 12 if layout == "query-major" else 60
    points = _distinct_rows(rows, 2, gen)  # each row twice: ties merge first
    row_weights = _whole_row_weights(edge, rows, gen)
    dtype = np.float32 if edge == "below-2**24" else np.float64
    weights = np.repeat(row_weights, 2)
    weights[::2] = np.floor(row_weights / 2)
    weights[1::2] = row_weights - weights[::2]
    if layout == "row-major":
        monkeypatch.setattr(queryfn, "_CHUNK_CELLS", BoxSum(points, weights).table.size - 1)
    kernel = BoxSum(points, weights)
    assert kernel.table is None and kernel.weights.dtype == dtype
    assert (kernel.columns.shape[1] <= queryfn._TABLE_MIN_ROWS) is (layout == "query-major")
    # every box on one row alone, the whole square, then uniform boxes
    C, R = sample_range_queries(200, 2, gen)
    C = np.concatenate([points[::2], [[0.0, 0.0]], C])
    R = np.concatenate([np.zeros((rows, 2)), [[1.0, 1.0]], R])
    inside = np.all((points >= C[:, None]) & (points <= (C + R)[:, None]), axis=2)
    want = inside.astype(np.float64) @ weights  # whole sums below 2**53: exact
    assert want[rows] == row_weights.sum()
    assert np.array_equal(kernel(C, R), want)


@pytest.mark.parametrize("dq", [2, 3])
@pytest.mark.parametrize("rows", [8, 45])
def test_count_mask_chunks_give_one_chunks_answers(monkeypatch, gen, dq, rows):
    # 8 distinct rows take the query-major mask; 45 rows take the table, or
    # with the table over the cap the row-major mask.  No chunk divides 101.
    points = np.repeat(np.unique(np.round(gen.random((rows, dq)), 2), axis=0), 3, axis=0)
    u = points.shape[0] // 3
    ones = np.ones(points.shape[0])
    C, R = sample_range_queries(101, dq, gen)
    ds = make_dataset(points)
    want = [cardinality(ds, RangeQuery(c=C[i], r=R[i])) for i in range(101)]
    whole = BoxSum(points, ones)
    assert (whole.table is not None) is (u > queryfn._TABLE_MIN_ROWS)
    assert np.array_equal(whole(C, R), want)
    cap = 9 * u * 7
    if whole.table is not None:
        cap = min(cap, whole.table.size - 1)
    monkeypatch.setattr(queryfn, "_CHUNK_CELLS", cap)
    chunked = BoxSum(points, ones)
    step = cap // (9 * u)
    assert chunked.table is None and step > 1 and 101 % step
    assert np.array_equal(chunked(C, R), want)


def test_mask_takes_an_empty_batch(gen):
    kernel = BoxSum(np.repeat(gen.random((8, 2)), 2, axis=0), np.ones(16))
    assert kernel.table is None
    assert kernel(np.empty((0, 2)), np.empty((0, 2))).shape == (0,)


def test_box_build_memory_within_cap(monkeypatch, gen):
    cap = 40_000
    monkeypatch.setattr(queryfn, "_CHUNK_CELLS", cap)
    BoxSum(gen.random((50, 2)), np.ones(50))  # first-call set-up outside the trace
    cases = ((199, 2, True), (33, 3, True), (3000, 2, False), (3000, 3, False))
    for n, dq, table in cases:
        points = gen.random((n, dq))
        weights = np.ones(n)
        tracemalloc.start()
        try:
            kernel = BoxSum(points, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (kernel.table is not None) is table
        assert peak <= 8 * cap + 256 * n, f"n={n} dq={dq}: peak {peak} bytes"


def test_mask_product_memory_within_cap(monkeypatch, gen):
    # a count kernel's chunk holds its bool mask and the product's float32
    # copy of it (float64 for larger whole weights) within the cap; the rest
    # is one chunk's per-axis edges, the (m,) answers and one chunk's product
    cap = 400_000
    monkeypatch.setattr(queryfn, "_CHUNK_CELLS", cap)
    BoxSum(gen.random((50, 2)), np.ones(50))(*sample_range_queries(5, 2, gen))
    for n, dq, m in ((200, 3, 20_000), (3000, 2, 5000), (20, 2, 50_000)):
        kernel = BoxSum(gen.random((n, dq)), np.ones(n))
        assert kernel.table is None
        C, R = sample_range_queries(m, dq, gen)
        tracemalloc.start()
        try:
            got = kernel(C, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap + 8 * (dq + 2) * m, f"n={n} dq={dq}: peak {peak} bytes"
        monkeypatch.setattr(queryfn, "_CHUNK_CELLS", 4_000_000)
        assert np.array_equal(got, kernel(C, R))  # chunking moves no count
        monkeypatch.setattr(queryfn, "_CHUNK_CELLS", cap)


def test_mask_sum_chunks_keep_one_byte_a_cell(monkeypatch, gen):
    # range sums round by how the product blocks its rows, so their chunks
    # stay at _CHUNK_CELLS // u rows: here 10 rows of 25 distinct points
    points = np.round(gen.random((300, 2)) * 4) / 4
    kernel = BoxSum(points, gen.random(300))
    assert kernel.table is None and kernel.weights.shape == (25,)
    monkeypatch.setattr(queryfn, "_CHUNK_CELLS", 25 * 10)
    C, R = sample_range_queries(995, 2, gen)
    rows = kernel.columns.T
    want = []
    for s in range(0, 995, 10):
        lo, hi = C[s : s + 10, None], C[s : s + 10, None] + R[s : s + 10, None]
        mask = np.all((rows >= lo) & (rows <= hi), axis=2)
        want.append(mask @ kernel.weights)
    assert np.array_equal(kernel(C, R), np.concatenate(want))


def test_box_sum_weights_collapsed_duplicates():
    points = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.9], [0.5, 0.5]])
    weights = np.array([1.0, 2.0, 4.0, 8.0])
    C = np.array([[0.5, 0.5], [0.0, 0.0], [0.6, 0.0]])
    R = np.array([[0.0, 0.0], [1.0, 1.0], [0.4, 1.0]])
    want = [11.0, 15.0, 0.0]
    assert np.array_equal(box_sum(points, weights, C, R), want)
    assert np.array_equal(box_sum(points[:, :1], weights, C[:, :1], R[:, :1]), want)


# a small pool of values, negative ones included, so that levels repeat
# and keys land exactly on levels
_POOL = st.sampled_from([-0.75, -0.5, -0.0, 0.0, 0.125, 0.25, 0.5, 1.0, 1.5])


_KEYS = _POOL | st.floats(-2.0, 2.0)


# level sets that stress the cell lookup: ties and -0.0 against 0.0, one
# level, all-equal levels, clusters that crowd a cell (so keys fall back),
# infinite levels, and spans too narrow or too wide to scale
_LEVELS = (
    st.lists(_POOL, max_size=40)
    | st.builds(lambda v, k: [v] * k, _POOL, st.integers(1, 40))
    | st.builds(
        lambda k, far: [i * 1e-9 for i in range(k)] + [far],
        st.integers(2, 40), st.sampled_from([1e-6, 1.0, 1e300]),
    )
    | st.lists(st.sampled_from([-5e-324, 0.0, 5e-324]), min_size=1, max_size=40)
    | st.lists(st.sampled_from([1e-300, 1e-10, 1.0, 1e300]), min_size=1, max_size=40)
    | st.lists(st.floats(allow_nan=False), min_size=1, max_size=40)
)


@settings(max_examples=300, deadline=None)
@given(
    _LEVELS,
    # keys on the levels, past both ends, +-inf, subnormals and NaN
    st.lists(_KEYS | st.floats() | st.sampled_from([5e-324, -5e-324, 1e-300, 1e300]),
             min_size=1, max_size=60),
    st.sampled_from(["left", "right"]),
)
def test_search_sorted_matches_numpy(levels, keys, side):
    levels = np.sort(np.array(levels, dtype=np.float64))
    keys = np.array(keys, dtype=np.float64)
    # as drawn (below the tiny-batch gate), then repeated past it (the lookup)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for batch in (keys, np.resize(keys, queryfn._SMALL_BATCH + keys.size)):
            got = search_sorted(levels, batch, side)
            assert got.dtype == np.intp and got.shape == batch.shape
            assert np.array_equal(got, np.searchsorted(levels, batch, side=side))


@pytest.mark.parametrize(
    "u, m, built",
    [(0, 0, False), (0, 600, False), (1, 600, False), (2, 600, True),
     (5, 0, False), (60, 0, False),
     (60, queryfn._SMALL_BATCH - 1, False), (60, queryfn._SMALL_BATCH, True),
     (200, 5000, True)],
)
def test_search_sorted_at_the_lookup_boundaries(u, m, built, gen):
    # empty levels, one level, empty key batches and batches below the gate go
    # to np.searchsorted; on one coarse grid, levels repeat (crowding cells, so
    # keys fall back), keys land on levels and -0.0 keys meet 0.0 levels
    levels = np.sort(np.round(gen.random(u) * 8) / 8)
    keys = np.round(gen.random(m) * 10 - 1) / 8
    keys[keys == 0.0] = -0.0
    lookup = SortedLookup(levels)
    for side in ("left", "right"):
        got = lookup(keys, side)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.searchsorted(levels, keys, side=side))
    assert (lookup.counts is not None) is built


@pytest.mark.parametrize("side", ["left", "right"])
def test_lookup_searches_again_only_keys_in_a_crowded_cell(side, monkeypatch):
    # 5 levels, so 20 cells of width 1/19; the first holds 4 levels
    levels = np.array([0.0, 1e-6, 2e-6, 3e-6, 1.0])
    keys = np.linspace(-0.5, 0.99, 600)
    want = np.searchsorted(levels, keys, side=side)
    crowded = np.count_nonzero((keys >= 1e-6) & (keys < 1 / 19))  # two levels pass
    searched = []
    search = np.searchsorted

    def counting(a, v, side):
        searched.append(v.size)
        return search(a, v, side=side)

    monkeypatch.setattr(np, "searchsorted", counting)
    assert np.array_equal(SortedLookup(levels)(keys, side), want)
    assert crowded > 0 and searched == [crowded]


def test_lookup_table_takes_16_bytes_a_level(gen):
    for u in (2, 3, 1000, 4096):
        lookup = SortedLookup(np.sort(gen.random(u)))
        lookup(gen.random(queryfn._SMALL_BATCH), "right")
        assert lookup.counts.dtype == np.int32 and lookup.counts.nbytes <= 16 * u


def _cumsum_table(points, weights):
    """The summed-area table by np.cumsum on every axis: the reference build."""
    axes = [np.unique(col, return_inverse=True) for col in points.T]
    shape = tuple(levels.shape[0] + 1 for levels, _ in axes)
    cell = np.ravel_multi_index(tuple(code + 1 for _, code in axes), shape)
    grid = np.bincount(cell, weights=weights, minlength=int(np.prod(shape))).reshape(shape)
    for j in range(len(shape)):
        np.cumsum(grid, axis=j, out=grid)
    return grid.ravel()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(1, 400),
    st.sampled_from([4, 32, 10**6]),  # grid steps per axis: ties, or nearly none
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, queryfn._SLAB_CELLS]),
)
def test_table_built_by_slabs_matches_cumsum_bit_for_bit(dq, n, steps, seed, slab):
    gen = np.random.default_rng(seed)
    points = np.round(gen.random((n, dq)) * steps) / steps
    weights = gen.random(n) * 3 - 1  # not whole, some negative
    weights[gen.random(n) < 0.3] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(queryfn, "_TABLE_MIN_ROWS", 0)
        patch.setattr(queryfn, "_SLAB_CELLS", slab)
        kernel = BoxSum(points, weights)
    assume(kernel.table is not None)  # within _CHUNK_CELLS
    assert np.array_equal(kernel.table, _cumsum_table(points, weights))
    C, R = sample_range_queries(200, dq, gen)
    want = [float(weights[np.all((points >= c) & (points <= c + r), axis=1)].sum())
            for c, r in zip(C, R)]
    assert np.allclose(kernel(C, R), want, rtol=1e-12, atol=1e-9)


def _brute_box_sums(points, weights, C, R):
    return np.array([weights[np.all((points >= c) & (points <= c + r), axis=1)].sum()
                     for c, r in zip(C, R)], dtype=np.float64)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(1, 40),  # distinct rows, one per axis-0 level
    st.integers(0, 40),  # repeats of them
    st.integers(0, 2**32 - 1),
)
def test_orthant_table_of_whole_weights_matches_cumsum(dq, levels, repeats, seed):
    gen = np.random.default_rng(seed)
    rows = np.round(gen.random((levels, dq)) * 4) / 4  # ties off axis 0, ends included
    rows[:, 0] = gen.permutation(np.linspace(0.0, 1.0, levels))
    points = np.concatenate([rows, rows[gen.integers(0, levels, repeats)]])
    points = points[gen.permutation(points.shape[0])]
    weights = gen.integers(-3, 4, points.shape[0]).astype(np.float64)  # 0 and < 0 too
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(queryfn, "_TABLE_MIN_ROWS", 0)
        patch.setattr(queryfn, "_SLAB_CELLS", 1)
        kernel = BoxSum(points, weights)
        patch.setattr(queryfn, "_SLAB_CELLS", 10**9)
        by_cumsum = BoxSum(points, weights)
    assert kernel.table.dtype == np.int32 and by_cumsum.table.dtype == np.float64
    assert np.array_equal(kernel.table, _cumsum_table(points, weights))
    C, R = sample_range_queries(100, dq, gen)
    C = np.concatenate([C, np.round(C * 4) / 4, np.zeros((1, dq))])  # edges on records
    R = np.concatenate([R, np.round(R * 4) / 4, np.ones((1, dq))])
    got = kernel(C, R)
    assert got.dtype == np.float64
    assert np.array_equal(got, by_cumsum(C, R))
    assert np.array_equal(got, _brute_box_sums(points, weights, C, R))


@pytest.mark.parametrize(
    "case, dtype",
    [
        ("distinct", np.int32),
        ("magnitudes just under 2**31", np.int32),
        ("tie on axis 0", np.float64),
        ("non-whole weight", np.float64),
        ("magnitudes at 2**31", np.float64),
        ("slabs under _SLAB_CELLS", np.float64),
    ],
)
def test_count_table_is_int32_only_on_its_route(case, dtype, gen):
    # 301 cells a slab reach _SLAB_CELLS = 256; 201 do not
    n = 200 if case == "slabs under _SLAB_CELLS" else 300
    points, weights = gen.random((n, 2)), np.ones(n)
    if case == "magnitudes just under 2**31":
        weights[0] = 2.0**31 - n  # the whole square sums to 2**31 - 1
    elif case == "tie on axis 0":
        points[1, 0] = points[0, 0]
    elif case == "non-whole weight":
        weights[5] = 0.5
    elif case == "magnitudes at 2**31":
        weights[:2] = 2.0**30, -(2.0**30) + n - 2  # magnitudes sum to 2**31
    kernel = BoxSum(points, weights)
    assert kernel.table.dtype == dtype
    assert np.array_equal(kernel.table, _cumsum_table(points, weights))
    C, R = sample_range_queries(300, 2, gen)
    C, R = np.concatenate([C, [[0.0, 0.0]]]), np.concatenate([R, [[1.0, 1.0]]])
    got = kernel(C, R)
    assert got.dtype == np.float64
    assert np.array_equal(got, _brute_box_sums(points, weights, C, R))


def test_count_table_build_peaks_near_four_bytes_a_cell(gen):
    BoxSum(gen.random((300, 2)), np.ones(300))  # first-call set-up outside the trace
    points, weights = gen.random((1000, 2)), np.ones(1000)
    tracemalloc.start()
    try:
        kernel = BoxSum(points, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.table.dtype == np.int32 and kernel.table.size == 1001**2
    assert peak <= 4 * kernel.table.size + 256 * 1000, f"peak {peak} bytes"


def test_key_order_lookups_take_an_empty_batch(gen):
    assert rank_batch(np.array([0.0, 0.5]), np.empty(0)).shape == (0,)
    for dq in (1, 2):
        kernel = BoxSum(gen.random((40, dq)), np.ones(40))
        assert kernel.table is not None
        assert kernel(np.empty((0, dq)), np.empty((0, dq))).shape == (0,)


def test_index_batches_reuse_sorted_column():
    ds = random_dataset(30, 1, seed=8)
    col = ds.sorted_column
    assert np.array_equal(col, np.sort(ds.values[:, 0]))
    assert ds.sorted_column is col
    qs = np.array([0.1, 0.5, 0.9])
    assert np.array_equal(eval_batch(ds, OpKind.INDEX, qs), rank_batch(col, qs))
    qs = np.linspace(-0.5, 1.5, 1000)  # past the gate: the dataset's one lookup
    assert np.array_equal(eval_batch(ds, OpKind.INDEX, qs), np.searchsorted(col, qs, "right"))
    lookup = ds.rank_lookup
    assert lookup.levels is col and lookup.counts is not None
    eval_batch(ds, OpKind.INDEX, qs)
    assert ds.rank_lookup is lookup
