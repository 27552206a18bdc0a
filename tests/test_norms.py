from __future__ import annotations

import gc
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset, random_sorted
from ldbounds import norms, queryfn
from ldbounds.constructions import PackingFamily, certify
from ldbounds.data import empty_dataset, make_dataset, sort_dataset_1d
from ldbounds.errors import (
    CdfNotMonotone,
    DimensionMismatch,
    InvalidParams,
    InvalidRequest,
    SizeMismatch,
)
from ldbounds.norms import (
    EvalConfig,
    card1d_l1,
    card1d_linf,
    distance,
    mc_l1,
    mc_mu,
    model_error,
    rank_l1,
    rank_l1_oracle,
    rank_linf,
    rank_mu,
)
from ldbounds.queryfn import (
    BoxSum,
    OpKind,
    SortedLookup,
    eval_batch,
    rank,
    uniform_block,
)
from ldbounds.rng import make_generator
from oracles import range_queries, sample_easy_queries


def _pair(n, seed):
    return random_sorted(n, seed), random_sorted(n, seed + 1000)


def test_rank_l1_hand_value():
    a = make_dataset(np.array([[0.1], [0.5]]))
    b = make_dataset(np.array([[0.2], [0.7]]))
    assert rank_l1(a, b) == pytest.approx(0.3, abs=1e-15)
    assert rank_l1_oracle(a, b) == pytest.approx(0.3, abs=1e-15)


def test_rank_routes_require_equal_counts():
    b = random_sorted(2, seed=1)
    for route in (rank_l1, rank_l1_oracle, partial(rank_mu, cdf=np.square)):
        with pytest.raises(SizeMismatch):
            route(random_sorted(3, seed=2), b)
        with pytest.raises(DimensionMismatch):
            route(random_dataset(2, 2, seed=3), b)


def test_rank_l1_matches_oracle():
    gen = make_generator(99)
    for trial in range(200):
        n = int(gen.integers(1, 65))
        a, b = _pair(n, seed=5000 + trial)
        assert rank_l1(a, b) == pytest.approx(rank_l1_oracle(a, b), abs=1e-12)


def test_rank_linf_hand_values():
    a = make_dataset(np.array([[0.1], [0.5]]))
    b = make_dataset(np.array([[0.2], [0.7]]))
    assert rank_linf(a, b) == 1.0
    assert rank_linf(a, a) == 0.0
    full = make_dataset(np.full((5, 1), 0.2))
    other = make_dataset(np.full((5, 1), 0.8))
    assert rank_linf(full, other) == 5.0


def test_rank_mu_reduces_to_l1_under_uniform():
    a, b = _pair(30, seed=4)
    ident = lambda x: np.asarray(x, dtype=np.float64)
    assert rank_mu(a, b, ident) == pytest.approx(rank_l1(a, b), abs=1e-12)


def test_rank_mu_hand_value():
    a = make_dataset(np.array([[0.25]]))
    b = make_dataset(np.array([[0.75]]))
    assert rank_mu(a, b, np.square) == pytest.approx(0.5, abs=1e-15)


def test_rank_mu_rejects_bad_cdf():
    a, b = _pair(5, seed=6)
    with pytest.raises(CdfNotMonotone):
        rank_mu(a, b, lambda x: 1.0 - np.asarray(x))


def test_rank_mu_checks_the_cdf_on_both_datasets():
    # decreasing on (0.4, 0.6) only, where b's records lie and a's do not
    cdf = lambda x: np.where((0.4 < x) & (x < 0.6), 1.0 - x, x)
    a, b = make_dataset([0.1, 0.9]), make_dataset([0.45, 0.55])
    for first, second in ((a, b), (b, a)):
        with pytest.raises(CdfNotMonotone):
            rank_mu(first, second, cdf)
        with pytest.raises(CdfNotMonotone):
            distance(first, second, OpKind.INDEX, "mu", 10, 0, cdf=cdf)


def test_card1d_l1_hand_values():
    one = make_dataset(np.array([[0.5]]))
    assert card1d_l1(one, empty_dataset(1)) == pytest.approx(0.375, abs=1e-15)
    a, _ = _pair(10, seed=7)
    assert card1d_l1(a, a) == 0.0


def test_card1d_l1_subset_bound():
    a = make_dataset(np.array([[0.3]]))
    b = make_dataset(np.array([[0.3], [0.6]]))
    v = card1d_l1(a, b)
    assert 0.0 < v <= 0.5


def test_card1d_l1_matches_mc():
    for trial in range(30):
        na = 1 + trial % 7
        nb = 1 + (trial * 3) % 7
        a = random_dataset(na, 1, seed=800 + trial)
        b = random_dataset(nb, 1, seed=900 + trial)
        exact = card1d_l1(a, b)
        est = mc_l1(a, b, OpKind.CARD_EST, 40_000, seed=trial)
        assert abs(exact - est.value) <= 3.0 * est.std_error + 1e-12, trial


def _band_oracle(a, b):
    """card1d_l1 by integrating |g(a) - g(b-)| over (a-cell x b-cell) bands.

    g = rank_a - rank_b.  On each product cell of breakpoint intervals the
    band length over b is linear in a, so midpoint-times-width is exact.
    O(K^2) in the number K of breakpoints.
    """
    xa, xb = np.sort(a.values[:, 0]), np.sort(b.values[:, 0])

    def g(x):
        return (np.searchsorted(xa, x, side="right")
                - np.searchsorted(xb, x, side="right")).astype(np.float64)

    bps = np.concatenate([xa, xb])
    a_edges = np.unique(np.concatenate([[0.0], bps, [1.0]]))
    b_edges = np.unique(np.concatenate([[-1.0], bps, [1.0]]))
    a_mid = 0.5 * (a_edges[:-1] + a_edges[1:])[:, None]
    b_lo, b_hi = b_edges[:-1], b_edges[1:]
    band = np.clip(np.minimum(b_hi, a_mid) - np.maximum(b_lo, a_mid - 1.0), 0.0, None)
    gap = np.abs(g(a_mid) - g(0.5 * (b_lo + b_hi)))
    return float((np.diff(a_edges)[:, None] * band * gap).sum())


@st.composite
def _column(draw, n=None):
    n = draw(st.integers(0, 30)) if n is None else n
    k = draw(st.integers(0, 6))  # 0: uniform values, else the grid {0, 1/k, .., 1}
    if k:
        x = np.array(draw(st.lists(st.integers(0, k), min_size=n, max_size=n))) / k
    else:
        x = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return make_dataset(x.reshape(-1, 1)) if n else empty_dataset(1)


@settings(max_examples=300, deadline=None)
@given(_column(), _column())
def test_card1d_l1_matches_band_oracle(a, b):
    assert card1d_l1(a, b) == pytest.approx(_band_oracle(a, b), rel=1e-12, abs=1e-12)


def test_card1d_l1_large_n():
    # O(n log n): the band matrix would have about 4e10 cells here
    a = random_dataset(200_000, 1, seed=33)
    b = random_dataset(200_000, 1, seed=34)
    exact = card1d_l1(a, b)
    assert exact <= card1d_linf(a, b)
    est = mc_l1(a, b, OpKind.CARD_EST, 20_000, seed=35)
    assert abs(exact - est.value) <= 4.0 * est.std_error


def test_card1d_linf_hand_values():
    a = make_dataset(np.full((3, 1), 0.5))
    b = make_dataset(np.full((3, 1), 0.6))
    assert card1d_linf(a, b) == 3.0
    assert card1d_linf(a, a) == 0.0
    # one point vs empty: the query covering the point isolates it
    assert card1d_linf(a, empty_dataset(1)) == 3.0


def test_card1d_linf_bounds_l1():
    for trial in range(20):
        a = random_dataset(5, 1, seed=300 + trial)
        b = random_dataset(8, 1, seed=400 + trial)
        assert card1d_l1(a, b) <= card1d_linf(a, b) + 1e-12


def test_mc_l1_deterministic_and_zero_at_equal():
    a, b = _pair(20, seed=8)
    e1 = mc_l1(a, b, OpKind.INDEX, 5000, seed=3)
    e2 = mc_l1(a, b, OpKind.INDEX, 5000, seed=3)
    assert e1.value == e2.value and e1.std_error == e2.std_error
    assert mc_l1(a, a, OpKind.INDEX, 1000, seed=4).value == 0.0


def test_mc_l1_matches_rank_l1():
    a, b = _pair(25, seed=9)
    exact = rank_l1(a, b)
    est = mc_l1(a, b, OpKind.INDEX, 100_000, seed=5)
    assert abs(exact - est.value) <= 3.0 * est.std_error


def test_mc_mu_uniform_sampler_matches_mc_l1():
    a = random_dataset(12, 1, seed=31)
    b = random_dataset(12, 1, seed=32)

    def uniform_sampler(count, gen):
        return range_queries(count, 1, gen)

    e_mu = mc_mu(a, b, OpKind.CARD_EST, uniform_sampler, 60_000, seed=6)
    e_l1 = mc_l1(a, b, OpKind.CARD_EST, 60_000, seed=7)
    assert abs(e_mu.value - e_l1.value) <= 3.0 * (e_mu.std_error + e_l1.std_error)


# -- inequality suite (small scale; the full acceptance run is separate) -----


def test_discretized_range_inequality():
    gen = make_generator(1234)
    for trial in range(50):
        n = int(gen.integers(1, 30))
        eps = float(gen.uniform(0.1, 4.0))
        base = gen.random(n)
        shift = gen.uniform(-eps / n, eps / n, size=n)
        a = make_dataset(np.clip(base, 0.0, 1.0))
        b = make_dataset(np.clip(base + shift, 0.0, 1.0))
        assert card1d_l1(a, b) <= 2.0 * eps + 1e-9, trial


def test_mask_inequality():
    gen = make_generator(4321)
    for trial in range(50):
        n = int(gen.integers(2, 30))
        base = gen.random(n)
        m1 = gen.integers(0, 2, size=n).astype(bool)
        m2 = gen.integers(0, 2, size=n).astype(bool)
        t = int(np.sum(m1 != m2))
        a = make_dataset(base[m1]) if m1.any() else empty_dataset(1)
        b = make_dataset(base[m2]) if m2.any() else empty_dataset(1)
        assert card1d_l1(a, b) <= 0.5 * t + 1e-9, trial


def test_subset_inequality():
    gen = make_generator(777)
    for trial in range(50):
        n = int(gen.integers(2, 30))
        base = gen.random(n)
        keep = gen.integers(0, 2, size=n).astype(bool)
        t = int(n - keep.sum())
        full = make_dataset(base)
        sub = make_dataset(base[keep]) if keep.any() else empty_dataset(1)
        assert card1d_l1(full, sub) <= 0.5 * t + 1e-9, trial


def test_range_sum_discretization_inequality():
    gen = make_generator(555)
    for trial in range(25):
        n = int(gen.integers(2, 20))
        eps = float(gen.uniform(0.2, 2.0))
        vals = gen.random((n, 2))
        pert = vals.copy()
        pert[:, 1] = np.clip(
            pert[:, 1] + gen.uniform(-eps / n, eps / n, size=n), 0.0, 1.0
        )
        a = make_dataset(vals)
        b = make_dataset(pert)
        est = mc_l1(a, b, OpKind.RANGE_SUM, 20_000, seed=trial)
        assert est.value <= eps + 3.0 * est.std_error, trial


def test_easy_distribution_bound():
    gen = make_generator(999)
    for trial in range(10):
        n = int(gen.integers(2, 15))
        k = int(gen.integers(2, 8))
        a = random_dataset(n, 1, seed=6000 + trial)
        b = random_dataset(n, 1, seed=7000 + trial)

        def sampler(count, g, n=n, k=k):
            return sample_easy_queries(n, k, count, g)

        est = mc_mu(a, b, OpKind.CARD_EST, sampler, 40_000, seed=trial)
        assert est.value <= 4.0 / k + 3.0 * est.std_error, (trial, n, k)


# -- metric axioms ----------------------------------------------------------


def test_metric_axioms_exact_ops():
    for trial in range(20):
        a, b = _pair(12, seed=100 + trial)
        c = random_sorted(12, seed=2100 + trial)
        for dist in (rank_l1, rank_linf):
            assert dist(a, b) >= 0.0
            assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)
            assert dist(a, a) == 0.0
            assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9
        ar = make_dataset(a.values)
        br = make_dataset(b.values)
        cr = make_dataset(c.values)
        for dist in (card1d_l1, card1d_linf):
            assert dist(ar, br) >= 0.0
            assert dist(ar, br) == pytest.approx(dist(br, ar), abs=1e-12)
            assert dist(ar, ar) == 0.0
            assert dist(ar, cr) <= dist(ar, br) + dist(br, cr) + 1e-9


# -- model_error ------------------------------------------------------------


def test_model_error_zero_for_exact_model():
    ds = random_sorted(30, seed=40)
    exact = lambda qs: eval_batch(ds, OpKind.INDEX, qs)
    for norm in ("l1", "linf"):
        est = model_error(ds, OpKind.INDEX, exact, norm, EvalConfig(samples=2000, seed=1))
        assert est.value == 0.0, norm


def test_model_error_constant_offset():
    ds = random_sorted(30, seed=41)
    off = lambda qs: eval_batch(ds, OpKind.INDEX, qs) + 1.0
    est = model_error(ds, OpKind.INDEX, off, "l1", EvalConfig(samples=4000, seed=2))
    assert est.value == pytest.approx(1.0, abs=3.0 * max(est.std_error, 1e-12))
    est = model_error(ds, OpKind.INDEX, off, "linf", EvalConfig(samples=1000, seed=3))
    assert est.value >= 1.0


def test_model_error_linf_catches_jump_misses():
    # a model that matches everywhere except just below one data value
    ds = sort_dataset_1d(make_dataset(np.array([0.25, 0.5, 0.75])))

    def pred(qs):
        truth = eval_batch(ds, OpKind.INDEX, qs)
        return np.where(np.abs(np.asarray(qs) - 0.5) < 1e-9, truth + 7.0, truth)

    est = model_error(ds, OpKind.INDEX, pred, "linf", EvalConfig(samples=100, seed=4))
    assert est.value >= 7.0


def test_model_error_range_norms():
    ds = random_dataset(25, 2, seed=42)
    exact = lambda batch: eval_batch(ds, OpKind.CARD_EST, batch)
    est = model_error(ds, OpKind.CARD_EST, exact, "linf", EvalConfig(samples=500, seed=5))
    assert est.value == 0.0 and not est.exact
    with pytest.raises(InvalidRequest):
        model_error(ds, OpKind.CARD_EST, exact, "mu", EvalConfig(samples=10, seed=6))


def _off_by_some(ds):
    """A count predictor that is wrong on most queries, by varying amounts."""
    truth = lambda batch: eval_batch(ds, OpKind.CARD_EST, batch)
    return lambda batch: 0.7 * truth(batch) + 3.0 * batch[1][:, 0]


@pytest.mark.parametrize("samples", [1, 1000, norms._MC_CHUNK])
def test_model_error_range_linf_is_a_single_draw_max_up_to_one_chunk(samples):
    ds = random_dataset(30, 2, seed=43)
    predict = _off_by_some(ds)
    est = model_error(ds, OpKind.CARD_EST, predict, "linf", EvalConfig(samples, seed=9))
    # the uniform query stream, drawn here in one piece
    gen = make_generator(9)
    R = gen.random((samples, 2))
    C = gen.random((samples, 2)) - R
    want = np.abs(eval_batch(ds, OpKind.CARD_EST, (C, R)) - predict((C, R))).max()
    assert (est.value, est.samples, est.std_error, est.exact) == (want, samples, 0.0, False)


def test_model_error_range_linf_memory_stays_within_chunks(monkeypatch):
    monkeypatch.setattr(norms, "_MC_CHUNK", 1000)
    ds = random_dataset(30, 2, seed=44)
    predict = _off_by_some(ds)
    predict((np.zeros((1, 2)), np.zeros((1, 2))))  # builds the dataset's count index

    def peak(samples):
        tracemalloc.start()
        try:
            model_error(ds, OpKind.CARD_EST, predict, "linf", EvalConfig(samples, seed=10))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk = peak(1000)
    # 50 chunks: drawn at once they would need about 50 times one chunk
    assert peak(50_000) < 2 * one_chunk


def _square(x):
    return np.asarray(x) ** 2


_INDEX_DS = random_sorted(20, seed=45)


@pytest.mark.parametrize(
    "ds, op, norm, cdf, method",
    [
        (_INDEX_DS, OpKind.INDEX, "l1", None, "monte_carlo"),
        (_INDEX_DS, OpKind.INDEX, "mu", _square, "monte_carlo"),
        (_INDEX_DS, OpKind.INDEX, "linf", None, "probe"),
        (random_dataset(20, 2, seed=46), OpKind.CARD_EST, "linf", None, "probe"),
    ],
)
def test_model_error_names_its_method(ds, op, norm, cdf, method):
    predict = lambda batch: 0.5 * eval_batch(ds, op, batch)
    est = model_error(ds, op, predict, norm, EvalConfig(samples=500, seed=11), cdf)
    assert (est.method, est.exact) == (method, False)


def _one_shot_index_probes(col, grid):
    """The rank probe set as one array, built over all gaps at once."""
    probes = [np.array([0.0, 1.0]), col, np.clip(col - 1e-12, 0.0, 1.0)]
    edges = np.unique(np.concatenate([[0.0], col, [1.0]]))
    if grid > 0 and edges.size >= 2:
        t = np.linspace(0.0, 1.0, grid + 2)[1:-1]
        lo, hi = edges[:-1], edges[1:]
        probes.append((lo[:, None] + t[None, :] * (hi - lo)[:, None]).ravel())
    return np.unique(np.concatenate(probes))


@st.composite
def _rank_column(draw):
    """Sorted values with ties, 0.0 and 1.0, and gaps under 1e-12."""
    base = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), max_size=30))
    nudges = st.sampled_from([0.0, 1e-13, -2e-13, 7e-13, 5e-324])
    near = draw(st.lists(st.tuples(st.sampled_from(base), nudges), max_size=15)) if base else []
    return np.sort(np.clip(np.array(base + [x + dx for x, dx in near]), 0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(_rank_column(), st.integers(0, 7), st.integers(7, 200))
def test_index_linf_probe_blocks_partition_the_one_shot_set(col, grid, chunk):
    ds = make_dataset(col) if col.size else empty_dataset(1)
    predict = lambda q: 3.0 * np.sin(40.0 * np.asarray(q)) + col.size * np.asarray(q)
    want = _one_shot_index_probes(ds.sorted_column, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_MC_CHUNK", chunk)
        blocks = list(norms._index_probes(ds.sorted_column, grid))
        est = model_error(ds, OpKind.INDEX, predict, "linf", EvalConfig(grid=grid))
    assert np.array_equal(np.concatenate(blocks), want)
    gaps = np.abs(eval_batch(ds, OpKind.INDEX, want) - predict(want))
    assert (est.value, est.samples, est.method) == (gaps.max(), want.size, "probe")


def test_index_linf_memory_does_not_grow_with_grid():
    ds = random_sorted(2000, seed=47)
    predict = lambda q: 0.9 * eval_batch(ds, OpKind.INDEX, q)
    tracemalloc.start()
    try:
        est = model_error(ds, OpKind.INDEX, predict, "linf", EvalConfig(grid=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # over 2 million probes: built at once they would need over 100 MiB
    assert est.samples > 2000 * 1000
    assert peak < 8 * 2**20


@settings(max_examples=100, deadline=None)
@given(_rank_column(), st.integers(8, 60), st.integers(7, 30))
def test_index_linf_probe_runs_split_a_gap_past_one_block(col, grid, chunk):
    # grid > chunk: a gap's grid points span several blocks
    ds = make_dataset(col) if col.size else empty_dataset(1)
    want = _one_shot_index_probes(ds.sorted_column, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "_MC_CHUNK", chunk)
        blocks = list(norms._index_probes(ds.sorted_column, grid))
    assert np.array_equal(np.concatenate(blocks), want)
    # a run of `chunk` grid points, two edges and the left probes it holds
    own = np.clip(ds.sorted_column - 1e-12, 0.0, 1.0)
    assert max(b.size for b in blocks) <= chunk + 2 + own.size


def test_index_linf_memory_is_bounded_past_one_block_per_gap():
    ds = make_dataset(np.array([0.2, 0.5, 0.7]))
    predict = lambda q: 0.9 * eval_batch(ds, OpKind.INDEX, q)
    tracemalloc.start()
    try:
        est = model_error(ds, OpKind.INDEX, predict, "linf", EvalConfig(grid=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 4,000,008 probes: gap by gap they would need about 40 MiB
    assert est.samples == 4 * 10**6 + 8
    assert peak < 8 * 2**20


def test_empty_pairs_are_zero_apart():
    empty = empty_dataset(1)
    assert rank_l1_oracle(empty, empty) == 0.0
    assert card1d_linf(empty, empty) == 0.0


# -- the signed pair table ----------------------------------------------------


def _separate_steps(a, b):
    """Breakpoints of rank_a - rank_b and its steps, one search per dataset."""
    xa, xb = np.sort(a.values[:, 0]), np.sort(b.values[:, 0])
    bps = np.unique(np.concatenate([xa, xb]))
    va = np.searchsorted(xa, bps, side="right")
    vb = np.searchsorted(xb, bps, side="right")
    return bps, (va - vb).astype(np.float64)


def _separate_distances(a, b):
    """card1d_l1, card1d_linf, rank_linf and rank_l1_oracle from _separate_steps."""
    bps, v = _separate_steps(a, b)
    edges = np.concatenate([[0.0], bps, [1.0]])
    g = np.concatenate([[0.0], v])
    w = np.diff(edges)
    near = np.abs(g) * w * (1.0 - 0.5 * (edges[:-1] + edges[1:]))
    order = np.argsort(g)
    ws = w[order]
    below = np.cumsum(ws)[:-1]
    above = np.cumsum(ws[::-1])[::-1][1:]
    l1 = float(near.sum() + (np.diff(g[order]) * below * above).sum())
    linf = float(np.maximum(g - np.minimum.accumulate(g), np.maximum.accumulate(g) - g).max())
    inside = bps <= 1.0
    rank_inf = float(np.abs(v[inside]).max()) if inside.any() else 0.0
    right = np.append(bps, 1.0)
    oracle = float((np.abs(v) * np.clip(right[1:] - right[:-1], 0.0, None)).sum())
    return l1, linf, rank_inf, oracle


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exact_steps_from_the_signed_table_match_separate_searches(data):
    a = data.draw(_column())
    b = data.draw(_column(n=a.n if data.draw(st.booleans()) else None))
    l1, linf, rank_inf, oracle = _separate_distances(a, b)
    assert (card1d_l1(a, b), card1d_linf(a, b)) == (l1, linf)
    a, b = (sort_dataset_1d(x) if x.n else x for x in (a, b))
    assert rank_linf(a, b) == rank_inf
    if a.n == b.n:
        assert rank_l1_oracle(a, b) == oracle


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_attribute_routes_ignore_record_order(data):
    # each route returns on shuffled records exactly what it returns on their
    # sorted copy; _column draws ties, 0.0, 1.0 and empty datasets
    a = data.draw(_column())
    b = data.draw(_column(n=a.n if data.draw(st.booleans()) else None))
    perms = [data.draw(st.permutations(range(x.n))) for x in (a, b)]
    shuffled = [make_dataset(x.values[p]) if x.n else x for x, p in zip((a, b), perms)]
    pairs = (shuffled, [sort_dataset_1d(x) for x in shuffled])
    qs = np.concatenate([[0.0, 1.0, 0.5], a.values[:, 0], b.values[:, 0] - 1e-9]).clip(0, 1)
    routes = [card1d_l1, card1d_linf, rank_linf,
              partial(distance, op=OpKind.INDEX, norm="linf", samples=10, seed=0)]
    if a.n == b.n:
        routes += [rank_l1, rank_l1_oracle, partial(rank_mu, cdf=np.square)]
        routes += [partial(distance, op=OpKind.INDEX, norm=norm, samples=10, seed=0,
                           cdf=np.square) for norm in ("l1", "mu")]
    for route in routes:
        got, want = (route(x, y) for x, y in pairs)
        assert got == want
    for x, y in zip(*pairs):
        assert [rank(x, q) for q in qs] == [rank(y, q) for q in qs]


def _edge_batch(a, b, gen):
    """Queries with edges on data values, zero widths and negative left edges."""
    v = np.concatenate([[0.0, 1.0], a.values[:, 0], b.values[:, 0]])
    r = gen.random(v.size)
    C = np.concatenate([v, v, v - r, -r, -r * gen.random(v.size), gen.random(v.size) - r])
    R = np.concatenate([np.zeros_like(v), (1.0 - v) * gen.random(v.size), r, r, r, r])
    return C[:, None], R[:, None]


@settings(max_examples=200, deadline=None)
@given(_column(), _column())
def test_signed_table_gaps_equal_the_two_evaluations(a, b):
    gen = make_generator(a.n * 31 + b.n)
    signed = norms._signed(a, b)[1]
    ones = np.repeat([1.0, -1.0], [a.n, b.n])
    stacked = BoxSum(np.concatenate([a.values, b.values]), ones)  # the generic build
    assert np.array_equal(signed.lookups[0].levels, stacked.lookups[0].levels)
    assert np.array_equal(signed.table, stacked.table)
    for batch in (_edge_batch(a, b, gen), uniform_block(OpKind.CARD_EST, 1, 1, 500, gen)):
        want = np.abs(eval_batch(a, OpKind.CARD_EST, batch) - eval_batch(b, OpKind.CARD_EST, batch))
        assert np.array_equal(np.abs(signed(*batch)), want)


def _count_evaluations(monkeypatch):
    calls = []

    def spy(dataset, op, batch):
        calls.append(dataset)
        return eval_batch(dataset, op, batch)

    monkeypatch.setattr(norms, "eval_batch", spy)
    return calls


def test_single_attribute_counts_search_one_table(monkeypatch):
    a, b = random_dataset(40, 1, seed=50), random_dataset(25, 1, seed=51)
    op = OpKind.CARD_EST
    gaps = lambda batch: np.abs(eval_batch(a, op, batch) - eval_batch(b, op, batch))
    draws = norms._draws(partial(uniform_block, op, 1, 1), 3000, make_generator(7))
    want = norms._mc_estimate(gaps, draws)
    calls = _count_evaluations(monkeypatch)
    assert mc_l1(a, b, op, 3000, seed=7) == want
    assert calls == []


@pytest.mark.parametrize(
    "op, a, b",
    [
        (OpKind.RANGE_SUM, random_dataset(30, 2, seed=54), random_dataset(30, 2, seed=55)),
        # a 0/1 measure: whole-number weights, still one evaluation per dataset
        (OpKind.RANGE_SUM, make_dataset(np.array([[0.2, 1.0], [0.6, 0.0]])),
         make_dataset(np.array([[0.4, 1.0]]))),
    ],
)
def test_other_pairs_keep_two_evaluations(monkeypatch, op, a, b):
    calls = _count_evaluations(monkeypatch)
    est = mc_l1(a, b, op, 1000, seed=8)
    assert est.samples == 1000
    assert [id(ds) for ds in calls] == [id(a), id(b)]
    calls.clear()
    distance(a, b, op, "linf", 1000, 8)
    assert [id(ds) for ds in calls] == [id(a), id(b)] * 2  # the point probes, then the draws


def _two_evaluation_estimates(a, b, samples, seed):
    """mc_l1 and the linf probe of a d >= 2 ce pair, from each dataset's own kernel."""
    op = OpKind.CARD_EST
    gaps = lambda batch: np.abs(eval_batch(a, op, batch) - eval_batch(b, op, batch))
    draws = lambda: norms._draws(partial(uniform_block, op, a.d, 1), samples, make_generator(seed))
    pts = np.unique(np.vstack([a.values, b.values]), axis=0)
    probe = norms._mc_estimate(gaps, chain([(pts, np.zeros_like(pts))], draws()), "linf")
    return norms._mc_estimate(gaps, draws()), replace(probe, samples=samples)


@pytest.mark.parametrize(
    "a, b",
    [
        # 50 distinct rows: the signed table
        (random_dataset(30, 2, seed=56), random_dataset(20, 2, seed=57)),
        # 7 distinct rows, 2 of them shared: the query-major mask
        (make_dataset(np.array([[0.2, 0.4], [0.2, 0.4], [0.5, 0.1], [1.0, 1.0], [0.0, 0.7]])),
         make_dataset(np.array([[0.2, 0.4], [0.5, 0.5], [1.0, 1.0], [0.3, 0.9], [0.6, 0.0]]))),
    ],
)
def test_two_attribute_counts_read_one_signed_kernel(monkeypatch, a, b):
    calls = _count_evaluations(monkeypatch)
    got = (mc_l1(a, b, OpKind.CARD_EST, 3000, seed=8),
           distance(a, b, OpKind.CARD_EST, "linf", 3000, 8))
    assert calls == []
    assert all("count_index" not in vars(ds) for ds in (a, b))
    assert got == _two_evaluation_estimates(a, b, 3000, 8)


def test_an_over_cap_signed_kernel_keeps_two_evaluations(monkeypatch):
    # each member's table has 41 * 41 cells, the pair's 81 * 81
    a, b = random_dataset(40, 2, seed=58), random_dataset(40, 2, seed=59)
    monkeypatch.setattr(queryfn, "_CHUNK_CELLS", 41 * 41)
    rows, kernel = norms._signed(a, b)
    assert kernel is None and rows.shape == (80, 2)
    calls = _count_evaluations(monkeypatch)
    got = (mc_l1(a, b, OpKind.CARD_EST, 1000, seed=8),
           distance(a, b, OpKind.CARD_EST, "linf", 1000, 8))
    assert [id(ds) for ds in calls] == [id(a), id(b)] * 3  # the draws, then the probe's two batches
    assert a.count_index.table is not None and b.count_index.table is not None
    assert got == _two_evaluation_estimates(a, b, 1000, 8)


# a few values, so that rows tie on an axis and the two datasets share rows
_COORD = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


def _rows(d, max_size=40):
    rows = st.lists(st.lists(_COORD, min_size=d, max_size=d), max_size=max_size)
    return rows.map(lambda r: make_dataset(r) if r else empty_dataset(d))


def _box_edge_batch(a, b, gen):
    """Boxes with edges on data values, zero widths and negative left edges.

    Each data row gives its edges on every axis, and a column-shuffled copy
    mixes edges from different rows.
    """
    v = np.vstack([np.zeros(a.d), np.ones(a.d), a.values, b.values])
    v = np.vstack([v, np.column_stack([gen.permutation(col) for col in v.T])])
    r = gen.random(v.shape)
    C = np.concatenate([v, v, v - r, -r, -r * gen.random(v.shape), gen.random(v.shape) - r])
    R = np.concatenate([np.zeros_like(v), (1.0 - v) * gen.random(v.shape), r, r, r, r])
    return C, R


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_signed_rows_answer_as_the_two_evaluations(data):
    d = data.draw(st.sampled_from([2, 3]))
    a = data.draw(_rows(d))
    pick = data.draw(st.sampled_from(["own", "same", "reversed"]))
    if pick == "own":
        b = data.draw(_rows(d))
    else:  # the same records: every row cancels
        b = a if pick == "same" or not a.n else make_dataset(a.values[::-1])
    op = OpKind.CARD_EST
    two = lambda batch: np.abs(eval_batch(a, op, batch) - eval_batch(b, op, batch))
    rows, kernel = norms._signed(a, b)
    held = np.unique(np.vstack([a.values, b.values]), axis=0)
    net = np.array([np.all(a.values == row, axis=1).sum() - np.all(b.values == row, axis=1).sum()
                    for row in held]).reshape(-1)
    assert np.array_equal(rows, held[net != 0])
    assert pick == "own" or rows.shape == (0, d)
    assert np.array_equal(kernel(rows, np.zeros_like(rows)), net[net != 0])
    gen = make_generator(a.n * 31 + b.n)
    for batch in (_box_edge_batch(a, b, gen), uniform_block(op, d, 1, 300, gen)):
        assert np.array_equal(np.abs(kernel(*batch)), two(batch))
    # the probe's points: the nonzero rows find what every distinct row finds
    want = norms._mc_estimate(two, [(held, np.zeros_like(held))], "linf")
    assert distance(a, b, op, "linf", 0, 1) == replace(want, samples=0)


@pytest.mark.parametrize("norm", ["l1", "linf"])
@pytest.mark.parametrize(
    "op, widths",
    [
        (OpKind.CARD_EST, (3, 2)),
        (OpKind.CARD_EST, (1, 2)),
        (OpKind.RANGE_SUM, (3, 2)),
        # one column against two predicate axes: checked before the probe stacks them
        (OpKind.RANGE_SUM, (3, 1)),
    ],
)
def test_distance_needs_equal_widths(op, widths, norm):
    for da, db in (widths, widths[::-1]):
        a, b = random_dataset(8, da, seed=da), random_dataset(6, db, seed=10 + db)
        with pytest.raises(DimensionMismatch):
            distance(a, b, op, norm, 100, 0)


def test_signed_counts_check_the_widths_before_either_merge(monkeypatch):
    def merge(a, b):
        raise AssertionError("merged a pair of unequal widths")

    monkeypatch.setattr(norms, "_merge_columns", merge)
    monkeypatch.setattr(norms, "_merge_rows", merge)
    monkeypatch.setattr(norms, "_last_signed", ())
    for da, db in ((1, 2), (2, 1), (2, 3), (3, 2)):
        a, b = random_dataset(8, da, seed=da), random_dataset(6, db, seed=10 + db)
        with pytest.raises(DimensionMismatch, match=f"got {da} and {db}"):
            norms._signed(a, b)
    assert norms._last_signed == ()  # and nothing kept


@pytest.mark.parametrize("route", [rank_linf, card1d_l1, card1d_linf])
@pytest.mark.parametrize("widths", [(2, 2), (1, 2), (2, 1)])
def test_single_attribute_routes_refuse_wider_pairs(route, widths):
    a, b = (random_dataset(6, d, seed=80 + i) for i, d in enumerate(widths))
    with pytest.raises(DimensionMismatch, match="a single-attribute route needs d = 1"):
        route(a, b)


def test_one_pair_builds_its_signed_table_once(monkeypatch):
    # card1d_l1, card1d_linf and mc_l1 on one pair, as a separation distance
    # operation calls them, then the rank routes on the same pair
    builds = []
    steps = BoxSum.steps

    def counting_steps(cls, *args):
        builds.append(args)
        return steps(*args)

    monkeypatch.setattr(BoxSum, "steps", classmethod(counting_steps))
    lookups = []  # and mc_l1's two searches a batch build one lookup
    build = SortedLookup._build
    monkeypatch.setattr(SortedLookup, "_build", lambda self: lookups.append(self) or build(self))
    a, b = _pair(300, seed=60)
    values = (card1d_l1(a, b), card1d_linf(a, b), mc_l1(a, b, OpKind.CARD_EST, 4000, seed=9),
              rank_linf(a, b), rank_l1_oracle(a, b))
    assert len(builds) == 1 and len(lookups) == 1
    monkeypatch.setattr(norms, "_last_signed", ())  # forget it: the same numbers
    assert (card1d_l1(a, b), card1d_linf(a, b), mc_l1(a, b, OpKind.CARD_EST, 4000, seed=9),
            rank_linf(a, b), rank_l1_oracle(a, b)) == values
    assert len(builds) == 2 and len(lookups) == 2


def test_signed_tables_are_kept_per_ordered_pair():
    a, b, c = (random_dataset(n, 1, seed=61 + n) for n in (30, 20, 25))

    def built(x, y):  # the generic build of the same signed counts
        return BoxSum(np.concatenate([x.values, y.values]), np.repeat([1.0, -1.0], [x.n, y.n]))

    for x, y in ((a, b), (b, a), (a, c), (a, b)):
        got, want = norms._signed(x, y)[1], built(x, y)
        assert np.array_equal(got.lookups[0].levels, want.lookups[0].levels)
        assert np.array_equal(got.table, want.table)
        assert norms._signed(x, y)[1] is got


def test_the_signed_table_memo_keeps_no_dataset_alive():
    a, b = random_dataset(30, 1, seed=70), random_dataset(20, 1, seed=71)
    norms._signed(a, b)[1]
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None
    assert norms._last_signed == ()  # its table went with it


def test_signed_table_gaps_check_the_predicate_width():
    a, b = random_dataset(5, 1, seed=56), random_dataset(5, 1, seed=57)
    with pytest.raises(DimensionMismatch):
        mc_mu(a, b, OpKind.CARD_EST, lambda count, gen: (np.zeros((count, 2)),) * 2, 10, 0)


@pytest.mark.parametrize("samples", [0, -3])
def test_eval_config_rejects_nonpositive_samples(samples):
    with pytest.raises(InvalidParams):
        EvalConfig(samples=samples)


# -- the route table ---------------------------------------------------------


_INDEX_PAIR = _pair(12, seed=21)
_CE1_PAIR = (random_dataset(15, 1, seed=22), random_dataset(11, 1, seed=23))
_CE2_PAIR = (random_dataset(30, 2, seed=1), random_dataset(30, 2, seed=2))


@pytest.mark.parametrize(
    "pair, op, norm, samples, cdf, want",
    [
        # exact rows: the function's own value
        (_INDEX_PAIR, OpKind.INDEX, "l1", 0, None, rank_l1(*_INDEX_PAIR)),
        (_INDEX_PAIR, OpKind.INDEX, "linf", 0, None, rank_linf(*_INDEX_PAIR)),
        (_INDEX_PAIR, OpKind.INDEX, "mu", 0, _square, rank_mu(*_INDEX_PAIR, _square)),
        (_CE1_PAIR, OpKind.CARD_EST, "l1", 0, None, card1d_l1(*_CE1_PAIR)),
        (_CE1_PAIR, OpKind.CARD_EST, "linf", 0, None, card1d_linf(*_CE1_PAIR)),
        # the probe row: point queries alone, then with the sampled probe
        (_CE2_PAIR, OpKind.CARD_EST, "linf", 0, None, ("probe", 1.0, 0.0)),
        (_CE2_PAIR, OpKind.CARD_EST, "linf", 2000, None, ("probe", 10.0, 0.0)),
        # the Monte Carlo row
        (
            _CE2_PAIR, OpKind.CARD_EST, "l1", 2000, None,
            ("monte_carlo", 1.998, 0.046787739272945605),
        ),
    ],
)
def test_distance_routes(pair, op, norm, samples, cdf, want):
    est = distance(*pair, op, norm, samples, 5, cdf)
    assert est.exact == (est.method == "exact")
    if isinstance(want, tuple):  # probe and Monte Carlo rows: (method, value, std_error)
        assert (est.method, est.value, est.std_error, est.samples) == (*want, samples)
    else:  # exact rows
        assert (est.method, est.value, est.std_error, est.samples) == ("exact", want, 0.0, 0)


@pytest.mark.parametrize("norm", ["l1", "linf"])
@pytest.mark.parametrize("op, d", [(OpKind.CARD_EST, 2), (OpKind.RANGE_SUM, 2), (OpKind.RANGE_SUM, 3)])
def test_distance_between_empty_datasets_is_zero(op, d, norm):
    est = distance(empty_dataset(d), empty_dataset(d), op, norm, 100, 0)
    assert (est.value, est.samples) == (0.0, 100)


@pytest.mark.parametrize(
    "pair, op, cdf",
    [(_INDEX_PAIR, OpKind.INDEX, None), (_CE1_PAIR, OpKind.CARD_EST, _square)],
)
def test_distance_mu_needs_index_and_cdf(pair, op, cdf):
    with pytest.raises(InvalidRequest):
        distance(*pair, op, "mu", 100, 5, cdf)
    family = PackingFamily(op=op, norm="mu", datasets=pair, claimed_separation=0.1, cdf=cdf)
    with pytest.raises(InvalidRequest):
        certify(family, pairs=1, seed=5, mc_samples=100)
