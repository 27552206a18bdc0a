from __future__ import annotations

import itertools
import math
import os
import random
import time
import tracemalloc
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_dataset, random_sorted
from ldbounds import constructions
from ldbounds.bounds import (
    LOWER,
    NORM_INF,
    NORM_L1,
    NORM_MU,
    OUT_OF_RANGE,
    BoundRequest,
    covering_count_log2,
    log2_binomial,
    log_falling,
    lower_bound_bits,
)
from ldbounds.constructions import (
    CoverCode,
    certify,
    cover_decode,
    cover_encode,
    cover_error_bound,
    multiset_count,
    multiset_rank,
    multiset_unrank,
    packing_l1_ce,
    packing_l1_index,
    packing_linf,
    packing_mu_index,
    pigeonhole_witness,
    quantile_points,
    read_cover,
    write_cover,
)
from ldbounds.data import GridSpec, make_dataset, quantize, sort_dataset_1d
from ldbounds.errors import (
    FamilyTooLarge,
    FormatError,
    IndexOutOfRange,
    InvalidParams,
    InvalidRequest,
)
from ldbounds.norms import (
    DistanceEstimate,
    EvalConfig,
    card1d_l1,
    card1d_linf,
    mc_l1,
    rank_l1,
    rank_linf,
    rank_mu,
)
from ldbounds.queryfn import OpKind, query_dims
from ldbounds.rng import make_generator, rand_below


# -- multiset codec ----------------------------------------------------------


def test_multiset_codec_documented_order():
    # colex order over multisets of size 2 from a 3-symbol alphabet
    want = [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]
    assert multiset_count(2, 3) == 6
    for i, ms in enumerate(want):
        assert multiset_unrank(i, 2, 3) == ms
        assert multiset_rank(ms, 3) == i


def test_multiset_rank_formula():
    # rank of a sorted multiset is the sum of C(x_i + i - 1, i)
    ms = (1, 1)
    assert multiset_rank(ms, 3) == math.comb(1, 1) + math.comb(2, 2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_multiset_roundtrip(data):
    m = data.draw(st.integers(1, 8))
    alphabet = data.draw(st.integers(1, 12))
    total = multiset_count(m, alphabet)
    index = data.draw(st.integers(0, total - 1))
    ms = multiset_unrank(index, m, alphabet)
    assert len(ms) == m
    assert all(0 <= x < alphabet for x in ms)
    assert list(ms) == sorted(ms)
    assert multiset_rank(ms, alphabet) == index


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8))
def test_multiset_rank_is_bijection(m, alphabet):
    total = multiset_count(m, alphabet)
    seen = {multiset_rank(multiset_unrank(i, m, alphabet), alphabet) for i in range(min(total, 200))}
    assert seen == set(range(min(total, 200)))


def test_multiset_codec_huge_index():
    # far beyond 64-bit territory
    m, alphabet = 64, 10**6
    total = multiset_count(m, alphabet)
    assert total.bit_length() > 900
    for index in (0, total // 3, total - 1):
        ms = multiset_unrank(index, m, alphabet)
        assert multiset_rank(ms, alphabet) == index


def _colex_rank_oracle(items) -> int:
    """The defining sum: rank = sum_i C(x_i + i - 1, i), one math.comb per term."""
    return sum(math.comb(x + i - 1, i) for i, x in enumerate(items, start=1))


def _clustered(m: int, width: int, alphabet: int, seed: int) -> list[int]:
    """m sorted symbols from `width` cells at a random offset: a dense run."""
    gen = random.Random(seed)
    start = gen.randrange(alphabet - width + 1)
    return sorted(start + gen.randrange(width) for _ in range(m))


def _alternating(m: int, short: int, long: int, seed: int) -> list[int]:
    """m sorted symbols whose gaps come in runs of one to four, alternating
    between runs of at most `short` cells and runs of _WALK + 1 to `long`
    cells, so the walk moves in and out of the falling-factorial scale."""
    gen = random.Random(seed)
    x, out, jump = 0, [], True
    while len(out) < m:
        for _ in range(gen.randint(1, 4)):
            x += gen.randint(constructions._WALK + 1, long) if jump else gen.randint(0, short)
            out.append(x)
        jump = not jump
    return out[:m]


@st.composite
def _multisets(draw):
    """(alphabet, sorted multiset): a zero prefix, then values drawn from the
    whole alphabet or from a pool of at most three symbols (long equal runs);
    or a dense run clustered in a wide alphabet; or runs of short and long
    gaps in turn."""
    shape = draw(st.sampled_from(["spread", "clustered", "alternating"]))
    m = draw(st.integers(0, 300))
    seed = draw(st.integers(0, 2**32))
    if shape == "clustered":
        alphabet = draw(st.integers(10**5, 10**9))
        return alphabet, _clustered(m, draw(st.integers(1, 2 * m + 1)), alphabet, seed)
    if shape == "alternating":
        items = _alternating(m, draw(st.integers(0, 2 * constructions._WALK)),
                             draw(st.integers(constructions._WALK + 1, 10**6)), seed)
        return draw(st.integers(items[-1] + 1 if items else 1, 10**9)), items
    alphabet = draw(st.integers(1, 140) | st.integers(10**5, 10**9))
    zeros = draw(st.integers(0, m))
    gen = random.Random(seed)
    pool = [gen.randrange(alphabet) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        rest = [gen.randrange(alphabet) for _ in range(m - zeros)]
    else:
        rest = [gen.choice(pool) for _ in range(m - zeros)]
    return alphabet, sorted([0] * zeros + rest)


@settings(max_examples=150, deadline=None)
@given(_multisets(), st.data())
def test_multiset_codec_matches_oracle(case, data):
    alphabet, items = case
    m = len(items)
    rank = multiset_rank(items, alphabet)
    assert rank == _colex_rank_oracle(items)
    assert multiset_unrank(rank, m, alphabet) == tuple(items)
    total = multiset_count(m, alphabet)
    other = data.draw(st.sampled_from([0, total - 1]) | st.integers(0, total - 1))
    assert multiset_rank(multiset_unrank(other, m, alphabet), alphabet) == other


@pytest.mark.parametrize(
    "items, alphabet",
    [
        ([], 1),
        ([], 10**9),
        ([0] * 300, 1),
        ([0] * 250 + [1, 7], 10**9),  # a long run in the zero region
        ([0] * 100 + [5] * 100 + [10**8] * 100, 10**9),  # equal runs, long gaps
        ([3] * 200, 4),
        (list(range(300)), 300),
        ([10**9 - 1] * 300, 10**9),  # the last rank
        ([0, 5, 2**1099, 2**1100 - 1], 2**1100),  # past float range: no lgamma guess
        (_clustered(2000, 2500, 10**6, 0), 10**6),  # one jump, then a dense walk
        (_alternating(400, 30, 10**5, 0), 10**9),  # scale switches both ways
        ([0] * 150 + _alternating(150, 64, 65, 1), 10**9),  # gaps at the walk's edge
    ],
)
def test_multiset_codec_edge_cases(items, alphabet):
    m = len(items)
    rank = multiset_rank(items, alphabet)
    assert rank == _colex_rank_oracle(items)
    assert multiset_unrank(rank, m, alphabet) == tuple(items)
    total = multiset_count(m, alphabet)
    assert multiset_unrank(0, m, alphabet) == (0,) * m
    assert multiset_unrank(total - 1, m, alphabet) == (alphabet - 1,) * m
    for out_of_space in (-1, total):
        with pytest.raises(IndexOutOfRange):
            multiset_unrank(out_of_space, m, alphabet)


@pytest.mark.parametrize(
    "items, alphabet",
    [([0.5, 1.7], 3), ([1.0], 3), ([np.float64(2.0)], 3), ([], 0), ([0], 0), ([2, 1], 3)],
)
def test_multiset_rank_rejects_bad_input(items, alphabet):
    with pytest.raises(InvalidParams):
        multiset_rank(items, alphabet)


def test_multiset_rank_accepts_numpy_integers():
    items = np.array([1, 1, 4], dtype=np.int64)
    assert multiset_rank(items, 5) == _colex_rank_oracle([1, 1, 4])


def test_cover_codec_scale():
    # alphabet 5001; a per-record math.comb search needs over a minute, the walk
    # well under the 2 s budget, which leaves room for slow or noisy hosts
    ds = random_dataset(5000, 1, seed=5000)
    start = time.perf_counter()
    code = cover_encode(ds, 1.0, OpKind.INDEX)
    dec = cover_decode(code)
    elapsed = time.perf_counter() - start
    q = quantize(ds, GridSpec(resolution=code.resolution))
    assert code.resolution == 5000
    assert np.array_equal(dec.values, np.sort(q.values, axis=0))
    assert elapsed < 2.0, f"encode + decode took {elapsed:.2f} s"


def test_crossing_guess_lands_near_the_crossing(monkeypatch):
    # at y near 2**32 and small k a guess from lgamma(y + 1) - lgamma(y - k + 1)
    # cancels, misses by thousands of cells and ends in bisection: about 19
    # math.comb or math.perm calls per crossing
    calls = {"term": 0, "crossing": 0}
    comb, perm, crossing = math.comb, math.perm, constructions._crossing

    def counting(term):
        def count(*args):
            calls["term"] += 1
            return term(*args)
        return count

    def counting_crossing(*args):
        calls["crossing"] += 1
        return crossing(*args)

    monkeypatch.setattr(math, "comb", counting(comb))
    monkeypatch.setattr(math, "perm", counting(perm))
    monkeypatch.setattr(constructions, "_crossing", counting_crossing)
    packing_linf(OpKind.INDEX, 100, 1, 1.0, 2**32, 2, 1)
    assert calls["crossing"] >= 50
    assert calls["term"] <= 5 * calls["crossing"]


def _crossing_oracle(rem: int, k: int, hi: int, scaled: bool) -> tuple[int, int]:
    """Largest y in [k, hi] with T(y, k) <= rem, and T(y, k), by bisection;
    T is math.perm if scaled, else math.comb."""
    term = math.perm if scaled else math.comb
    lo = k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if term(mid, k) <= rem:
            lo = mid
        else:
            hi = mid - 1
    return lo, term(lo, k)


@st.composite
def _crossing_cases(draw):
    """(rem, k, hi, scaled), rem a remaining rank, times k! if scaled: the
    answer at k, at hi, or strictly between, with hi up to 2^64 and past the
    float guess at _FLOAT_SAFE (small k only, where the terms stay cheap)."""
    scaled = draw(st.booleans())
    term = math.perm if scaled else math.comb
    huge = draw(st.integers(0, 5)) == 0
    k = draw(st.integers(1, 3)) if huge else draw(st.integers(1, 3) | st.integers(1, 300))
    if huge:
        hi = draw(st.integers(constructions._FLOAT_SAFE, 2 * constructions._FLOAT_SAFE))
    else:
        hi = k + draw(st.integers(0, 70) | st.integers(0, 2**32) | st.integers(0, 2**64 - k))
    where = draw(st.sampled_from(["k", "hi", "between"]))
    if where == "k" or hi == k:
        return draw(st.integers(term(k, k), term(k + 1, k) - 1)), k, hi, scaled
    if where == "hi":
        low = term(hi, k)
        return draw(st.integers(low, 3 * low)), k, hi, scaled
    y = draw(st.integers(k, hi - 1))
    return draw(st.integers(term(y, k), term(y + 1, k) - 1)), k, hi, scaled


@settings(max_examples=300, deadline=None)
@given(_crossing_cases())
@example((1, 1, 1, False))
@example((1, 1, 2**64, True))
@example((2**64, 1, 2**64, False))
@example((1, 5, 2**40, False))
@example((math.factorial(5), 5, 2**40, True))
@example((7, 3, 3, False))
@example((7 * math.factorial(3), 3, 3, True))
def test_crossing_matches_bisection_oracle(case):
    rem, k, hi, scaled = case
    assert constructions._crossing(rem, k, hi, scaled) == _crossing_oracle(rem, k, hi, scaled)


@pytest.mark.parametrize("k, y", [(5000, 10000), (20000, 60000)])
def test_crossing_newton_steps_fix_a_far_start(monkeypatch, k, y):
    # at y = 2k or 3k the closed-form start lies 85-570 cells low, past the
    # unit steps; Newton's steps bring it within one, so one math.perm (or
    # math.comb for an unscaled rank) confirms it instead of a bisection
    rest = math.comb(y, k) + 12345
    for scaled, term in ((True, math.perm), (False, math.comb)):
        calls = {"term": 0}

        def counting(*args):
            calls["term"] += 1
            return term(*args)

        rem = rest * math.factorial(k) if scaled else rest
        with monkeypatch.context() as patch:
            patch.setattr(math, term.__name__, counting)
            assert constructions._crossing(rem, k, 2 * y, scaled) == (y, term(y, k))
        assert calls["term"] == 1


@pytest.mark.parametrize("e", [50, 54, 56, 58, 64])
@pytest.mark.parametrize("k", [1, 3, 40])
def test_crossing_past_float_precision_starts_from_an_exact_root(monkeypatch, k, e):
    # from 2^53 up a float start drifts past the unit steps: 56-66 math.comb
    # calls per crossing at 2^54-2^64 went to bisection
    y = 2**e + 12345
    for scaled, term in ((True, math.perm), (False, math.comb)):
        low, high = term(y, k), term(y + 1, k)
        calls = {"term": 0}

        def counting(*args):
            calls["term"] += 1
            return term(*args)

        for rem in (low, low + (high - low) // 3, high - 1):
            want = _crossing_oracle(rem, k, 2 * y, scaled)
            calls["term"] = 0
            with monkeypatch.context() as patch:
                patch.setattr(math, term.__name__, counting)
                assert constructions._crossing(rem, k, 2 * y, scaled) == want == (y, low)
            assert calls["term"] <= 2


@st.composite
def _walk_states(draw):
    """(c, rem, y, i, scale) with c = C(y, i) scale > rem >= scale and the
    crossing t cells down, t drawn around _WALK so both answers of the reach
    check occur; scale is 1 or i!, the walk's falling-factorial scale."""
    i = draw(st.integers(1, 400))
    y = i + draw(st.integers(1, 200) | st.integers(1, 10**6) | st.integers(1, 2**48))
    t = draw(st.integers(1, 3 * constructions._WALK))
    c = math.comb(y, i)  # >= i + 1 >= 2
    rem = min(max(1, math.comb(max(y - t, 0), i) + draw(st.integers(0, 3))), c - 1)
    scale = math.factorial(i) if draw(st.booleans()) else 1
    return c * scale, rem * scale, y, i, scale


@settings(max_examples=300, deadline=None)
@given(_walk_states())
def test_reach_check_never_skips_a_walk_that_reaches(state):
    c, rem, y, i, scale = state
    if not constructions._walk_reaches(c, rem, y, i):
        # the walk it skips would have ended above rem: C(y - _WALK, i) > rem
        assert math.comb(max(y - constructions._WALK, 0), i) * scale > rem


def test_sparse_crossings_skip_the_walk_and_guess_in_few_steps(monkeypatch):
    # alphabet far above m: almost every record lies hundreds of thousands of
    # cells below the last, so each crossing should come straight from the
    # reach check and cost at most 4 log_falling calls (a float bisection
    # over y < 2^30 makes about 30) and one math.perm
    calls = {"log_falling": 0, "crossing": 0, "skipped": 0, "perm": 0}
    falling, crossing, reaches, perm = (
        constructions.log_falling, constructions._crossing, constructions._walk_reaches,
        math.perm,
    )

    def counting_falling(*args):
        calls["log_falling"] += 1
        return falling(*args)

    def counting_crossing(*args):
        calls["crossing"] += 1
        return crossing(*args)

    def counting_reaches(*args):
        out = reaches(*args)
        calls["skipped"] += not out
        return out

    def counting_perm(*args):
        calls["perm"] += 1
        return perm(*args)

    m, alphabet = 200, 10**9
    gen = random.Random(3)
    items = sorted(gen.randrange(alphabet) for _ in range(m))
    rank = multiset_rank(items, alphabet)
    monkeypatch.setattr(constructions, "log_falling", counting_falling)
    monkeypatch.setattr(constructions, "_crossing", counting_crossing)
    monkeypatch.setattr(constructions, "_walk_reaches", counting_reaches)
    monkeypatch.setattr(math, "perm", counting_perm)
    assert multiset_unrank(rank, m, alphabet) == tuple(items)
    assert calls["crossing"] >= 0.9 * m
    assert calls["skipped"] >= 0.9 * calls["crossing"]
    assert calls["log_falling"] <= 4 * calls["crossing"]
    assert calls["perm"] <= calls["crossing"]


def _long_gaps(items) -> int:
    """Records more than _WALK cells above the one before (the first from 0)."""
    return sum(b - a > constructions._WALK for a, b in zip([0, *items], items))


def _term_calls(monkeypatch, items, alphabet) -> dict[str, int]:
    """math.comb, math.perm and math.factorial calls of one rank and one
    unrank of `items`, leaving out unrank's code-space size."""
    calls = {"comb": -1, "perm": 0, "factorial": 0}
    with monkeypatch.context() as patch:
        for name in calls:
            def count(*args, name=name, term=getattr(math, name)):
                calls[name] += 1
                return term(*args)

            patch.setattr(math, name, count)
        rank = multiset_rank(items, alphabet)
        assert multiset_unrank(rank, len(items), alphabet) == tuple(items)
    return calls


def test_a_dense_run_walks_without_falling_factorials(monkeypatch):
    # 2,000 records in 2,500 cells of a 10^6 alphabet: the one jump into the
    # run is a lone jump, so no record costs a math.perm; a term per record
    # as a falling factorial took about 30 times as long (math.perm calls of
    # up to 37,000 bits)
    items = _clustered(2000, 2500, 10**6, 0)
    assert _term_calls(monkeypatch, items, 10**6)["perm"] == 0


@pytest.mark.parametrize("every", [2, 3, 5])
def test_only_runs_of_jumps_take_falling_factorials(monkeypatch, every):
    # a lone jump keeps binomials: a switch to falling factorials and back
    # costs a multiplication and two divisions by i! for one cheaper term;
    # jumps in pairs switch at the second of each pair, and back (dividing
    # by i!) once two records have walked
    gen = random.Random(every)

    def gaps(long):
        return [gen.randint(constructions._WALK + 1, 10**4) if long(k) else gen.randint(0, 3)
                for k in range(600)]

    lone = list(itertools.accumulate(gaps(lambda k: k % every == 0)))
    calls = _term_calls(monkeypatch, lone, 10**7)
    assert calls["perm"] == 0 and calls["comb"] >= 2 * 600 // every
    paired = list(itertools.accumulate(gaps(lambda k: k % (2 * every) < 2)))
    calls = _term_calls(monkeypatch, paired, 10**7)
    pairs = 600 // (2 * every)
    assert calls["perm"] >= 2 * pairs - 2 and calls["factorial"] >= 2 * pairs - 2


def test_mixed_radix_digits_match_integer_loop():
    # ids past 64 bits must keep every digit exact
    base, d = 2**30 + 3, 4
    gen = random.Random(11)
    ids = tuple(sorted(gen.randrange(base**d) for _ in range(300))) + (base**d - 1, 0)
    want = [[(v // base**j) % base for j in range(d)] for v in ids]
    got = constructions._mixed_radix_digits(ids, d, base)
    assert got.dtype == np.int64 and got.tolist() == want
    assert constructions._mixed_radix_digits((), 2, 5).shape == (0, 2)


@pytest.mark.parametrize("e", [4, 20, 32, 45])
def test_log_falling_matches_mpmath(e):
    # within a tenth of one step in y, for small and large k
    y = 2**e + 5
    for k in (1, 2, 7, 2 ** (e - 2), y - 20, y - 3, y):
        with mpmath.workdps(60):
            want = mpmath.loggamma(y + 1) - mpmath.loggamma(y - k + 1)
            step = mpmath.log(mpmath.mpf(y + 1) / (y - k + 1))  # d/dy of the log
            assert abs(log_falling(y, k) - want) <= 0.1 * step


# -- packing families --------------------------------------------------------


def test_packing_linf_family_shape():
    fam = packing_linf(OpKind.INDEX, 10, 1, 1.0, 4, 6, seed=1)
    assert len(fam.datasets) == 6
    assert fam.claimed_separation == 1.0
    assert fam.params["eps_bar"] == 2
    for ds in fam.datasets:
        assert ds.n == 10 and ds.d == 1
    # members are pairwise distinct
    keys = {ds.values.tobytes() for ds in fam.datasets}
    assert len(keys) == 6


def test_family_members_compare_by_identity():
    fam = packing_linf(OpKind.INDEX, 10, 1, 1.0, 4, 6, seed=1)
    for i, ds in enumerate(fam.datasets):
        assert ds in fam.datasets and fam.datasets.index(ds) == i
    twin = make_dataset(fam.datasets[-1].values)  # equal records, another dataset
    assert twin not in fam.datasets and len(set(fam.datasets) | {twin}) == 7


def test_packing_linf_separation_exact():
    fam = packing_linf(OpKind.INDEX, 10, 1, 1.0, 4, 6, seed=1)
    members = [sort_dataset_1d(ds) for ds in fam.datasets]
    eb = fam.params["eps_bar"]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            assert rank_linf(members[i], members[j]) >= eb


def test_packing_linf_range_ops():
    fam = packing_linf(OpKind.CARD_EST, 12, 2, 1.0, 3, 5, seed=2)
    for ds in fam.datasets:
        assert ds.d == 2
    fam = packing_linf(OpKind.RANGE_SUM, 12, 1, 1.0, 3, 5, seed=3)
    for ds in fam.datasets:
        assert ds.d == 2  # predicate attribute plus the summed column
        assert np.all(ds.values[:, -1] == 1.0)
    cert = certify(fam, pairs=10, seed=4)
    assert cert.passed


def test_packing_linf_rejects_bad_eps():
    with pytest.raises(InvalidParams):
        packing_linf(OpKind.INDEX, 10, 1, 0.5, 4, 3, seed=1)  # eps < 1
    with pytest.raises(InvalidParams):
        packing_linf(OpKind.INDEX, 10, 1, 5.0, 4, 3, seed=1)  # eps >= n/2


def test_packing_family_too_large():
    # alphabet so small that 10 distinct members cannot exist
    with pytest.raises(FamilyTooLarge):
        packing_linf(OpKind.INDEX, 4, 1, 1.0, 1, 10, seed=1)


PACKINGS = [
    pytest.param(10, lambda: packing_linf(OpKind.INDEX, 10, 1, 1.0, 4, 20, 41), id="linf-index"),
    pytest.param(100, lambda: packing_linf(OpKind.CARD_EST, 100, 2, 1.0, 4, 20, 61), id="linf-ce-d2"),
    pytest.param(12, lambda: packing_linf(OpKind.RANGE_SUM, 12, 1, 1.0, 3, 5, 3), id="linf-rs"),
    pytest.param(100, lambda: packing_l1_index(100, 0.5, 20, 43), id="l1-index"),
    pytest.param(100, lambda: packing_l1_ce(100, 1, 0.05, 20, 45), id="l1-ce-d1"),
    pytest.param(100, lambda: packing_l1_ce(100, 2, 0.05, 8, 49), id="l1-ce-d2"),
    pytest.param(100, lambda: packing_mu_index(100, 0.5, np.square, 20, 47), id="mu-index"),
]


@pytest.mark.parametrize("n, build", PACKINGS)
def test_packing_member_structure(n, build):
    # every member: `copies` copies of an m-point multiset, `pad` all-ones
    # rows, canonical lexsort order over the predicate columns
    fam = build()
    copies = fam.params.get("eps_bar", fam.params.get("k"))
    pad = fam.params["pad"]
    for ds in fam.datasets:
        assert ds.n == n
        pred = ds.values[:, : query_dims(fam.op, ds.d)]
        assert np.array_equal(pred, pred[np.lexsort(pred.T[::-1])])
        rows, mult = np.unique(pred, axis=0, return_counts=True)
        ones = np.all(rows == 1.0, axis=1)
        assert ones.any() or pad == 0
        mult[ones] -= pad  # a grid symbol may itself be all ones
        assert np.all(mult >= 0) and np.all(mult % copies == 0)
        assert mult.sum() == fam.params["multiset_size"] * copies
    assert len({ds.values.tobytes() for ds in fam.datasets}) == len(fam.datasets)


@pytest.mark.parametrize(
    "build",
    [
        partial(packing_l1_index, 100, 1e-9, 2, 1),  # 1e10 grid points
        partial(packing_linf, OpKind.INDEX, 100, 1, 1.0, 2**32, 2, 1),
        partial(packing_l1_ce, 100, 1, 1e-9, 2, 1),  # 1.4e9 grid points
    ],
)
def test_packing_memory_independent_of_grid(build):
    # a member maps only its m = n // copies drawn symbols to coordinates
    tracemalloc.start()
    start = time.perf_counter()
    try:
        fam = build()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fam.datasets) == 2
    assert elapsed < 2.0, f"built in {elapsed:.2f} s"
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _edge_eps(*edges: float) -> list[float]:
    """Interior eps values plus each window edge and the floats beside it."""
    out = {0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0}
    for e in edges:
        out.update((e, math.nextafter(e, 0.0), math.nextafter(e, math.inf)))
    return sorted(out)


def _backed_requests():
    """(bound request, family constructor, family -> alphabet size)."""
    for n in (100, 400, 1000):
        rn = math.sqrt(n)
        for eps in _edge_eps(rn / 2):
            yield (
                BoundRequest(OpKind.INDEX, NORM_L1, LOWER, n, 1, eps),
                partial(packing_l1_index, n, eps, 2, 1),
                lambda fam: fam.params["grid_points"],
            )
            yield (
                BoundRequest(OpKind.INDEX, NORM_MU, LOWER, n, 1, eps),
                partial(packing_mu_index, n, eps, np.square, 2, 1),
                lambda fam: fam.params["grid_points"],
            )
        for d in (1, 2):
            for delta in _edge_eps(rn / 4.0**d):
                yield (
                    BoundRequest(OpKind.CARD_EST, NORM_L1, LOWER, n, d, delta),
                    partial(packing_l1_ce, n, d, delta, 2, 1),
                    lambda fam: (fam.params["u"] // 2 + 1) ** fam.params["d"],
                )
            for op in OpKind:
                if op is OpKind.INDEX and d != 1:
                    continue
                for u in (10, 100):
                    for eps in _edge_eps(1.0, n / 2.0):
                        yield (
                            BoundRequest(op, NORM_INF, LOWER, n, d, eps, u),
                            partial(packing_linf, op, n, d, eps, u, 2, 1),
                            lambda fam: (fam.params["u"] + 1) ** fam.params["d"],
                        )


def test_every_lower_bound_is_backed_by_a_family():
    # a construction accepts exactly its bound's eps window, and where the
    # bound is positive the family it builds has at least 2**bits members
    in_range = 0
    for req, build, alphabet in _backed_requests():
        bound = lower_bound_bits(req)
        if bound.validity == OUT_OF_RANGE:
            with pytest.raises(InvalidParams):
                build()
            continue
        if bound.bits > 0.0:
            fam = build()
            m = fam.params["multiset_size"]
            assert log2_binomial(m + alphabet(fam) - 1, m) >= bound.bits, req
            in_range += 1
    assert in_range == 219


def test_packing_l1_index_certificate():
    fam = packing_l1_index(100, 0.5, 8, seed=5)
    cert = certify(fam, pairs=28, seed=6)
    assert cert.passed and cert.method == "exact"
    assert cert.min_observed > fam.claimed_separation


def test_certify_reports_the_method_its_estimates_name(monkeypatch):
    # an average-case family whose pairs come back as probes: the certificate
    # names the estimates' route, not one read off the family's norm
    fam = packing_l1_index(100, 0.5, 4, seed=5)
    monkeypatch.setattr(
        constructions, "distance", lambda *args: DistanceEstimate(9.0, "probe", samples=3)
    )
    cert = certify(fam, pairs=6, seed=6)
    assert (cert.method, cert.confidence, cert.samples) == ("probe", 1.0, 3)
    assert cert.passed and cert.min_observed == 9.0


def _walked_pair(members, flat):
    """flat -> (i, j) by walking the rows of the strict upper triangle."""
    i, row = 0, members - 1
    while flat >= row:
        flat -= row
        i += 1
        row -= 1
    return i, i + 1 + flat


def _pairs_at(monkeypatch, members, flats):
    monkeypatch.setattr(constructions, "_distinct_below", lambda total, count, gen: flats)
    return constructions._pair_indices(members, 1, None)


def test_pair_indices_match_the_row_walk(monkeypatch):
    for members in range(3, 61):
        flats = list(range(members * (members - 1) // 2))
        want = [_walked_pair(members, f) for f in flats]
        assert _pairs_at(monkeypatch, members, flats) == want, members


def test_pair_indices_land_on_their_flat_offset_in_huge_families(monkeypatch):
    rnd = random.Random(48)
    for _ in range(2000):
        m = rnd.randint(3, 2**40)
        total = m * (m - 1) // 2
        flats = [rnd.randrange(total), 0, total - 1]
        for flat, (i, j) in zip(flats, _pairs_at(monkeypatch, m, flats)):
            assert 0 <= i < j < m
            assert i * (2 * m - i - 1) // 2 + (j - i - 1) == flat


@pytest.mark.parametrize("words", [1, 2, 3, 17])
def test_raw_words_are_the_full_range_integer_draws(words):
    # rand_below reads raw words: numpy fills a full-range uint64 `integers`
    # call with the same words and leaves the generator in the same state
    for seed in range(200):
        a, b = make_generator(seed), make_generator(seed)
        want = a.integers(0, 1 << 64, size=words, dtype=np.uint64)
        got = b.bit_generator.random_raw(words)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert b.integers(0, 10**9) == a.integers(0, 10**9)


def _rand_below_by_integers(gen, bound: int) -> int:
    """rand_below spelled with full-range `integers` words."""
    k = bound.bit_length()
    words = (k + 63) // 64
    while True:
        draw = 0
        for w in gen.integers(0, 1 << 64, size=words, dtype=np.uint64):
            draw = (draw << 64) | int(w)
        draw >>= words * 64 - k
        if draw < bound:
            return draw


@pytest.mark.parametrize("bound", [1, 2, 3, 2**63 + 1, 2**64, 2**64 + 1, 3**100, 10**400])
def test_rand_below_keeps_its_stream(bound):
    for seed in range(50):
        a, b = make_generator(seed), make_generator(seed)
        got = [rand_below(a, bound) for _ in range(5)]
        assert got == [_rand_below_by_integers(b, bound) for _ in range(5)]
        assert all(0 <= x < bound for x in got)
        assert a.integers(0, 10**9) == b.integers(0, 10**9)


@pytest.mark.parametrize("pairs", [0, -3])
def test_certify_rejects_nonpositive_pairs(pairs):
    fam = packing_l1_index(100, 0.5, 3, seed=5)
    with pytest.raises(InvalidParams):
        certify(fam, pairs=pairs, seed=6)


def test_packing_l1_index_separation_by_hand():
    fam = packing_l1_index(100, 0.5, 6, seed=7)
    members = [sort_dataset_1d(ds) for ds in fam.datasets]
    worst = min(
        rank_l1(members[i], members[j])
        for i in range(6)
        for j in range(i + 1, 6)
    )
    assert worst > 0.5


def test_packing_l1_ce_certificate_d1():
    fam = packing_l1_ce(100, 1, 0.05, 8, seed=8)
    cert = certify(fam, pairs=28, seed=9)
    assert cert.passed and cert.method == "exact"
    # claimed separation is the delta target
    assert fam.claimed_separation == 0.05
    for ds in fam.datasets:
        used = ds.values[ds.values < 1.0]
        assert np.all(used <= 0.5)


def test_packing_l1_ce_certificate_d2_mc():
    fam = packing_l1_ce(100, 2, 0.05, 5, seed=10)
    cert = certify(fam, pairs=10, seed=11, mc_samples=40_000)
    assert cert.passed and cert.method == "monte_carlo"
    assert cert.confidence > 0.99


def test_packing_l1_ce_rejects_unbuildable_grid():
    with pytest.raises(InvalidParams):
        packing_l1_ce(100, 3, 1.0, 3, seed=1)


def test_packing_mu_index_certificate():
    fam = packing_mu_index(100, 0.5, np.square, 8, seed=12)
    cert = certify(fam, pairs=28, seed=13)
    assert cert.passed and cert.method == "exact"
    members = [sort_dataset_1d(ds) for ds in fam.datasets]
    worst = min(
        rank_mu(members[i], members[j], np.square)
        for i in range(8)
        for j in range(i + 1, 8)
    )
    assert worst > 0.5


def test_certify_fails_on_close_family():
    base = random_sorted(20, seed=14)
    near = make_dataset(np.clip(base.values + 1e-6, 0.0, 1.0))
    fam_type = type(packing_l1_index(16, 0.5, 2, seed=15))
    fam = fam_type(
        op=OpKind.INDEX,
        norm="l1",
        datasets=(base, sort_dataset_1d(near)),
        claimed_separation=1.0,
        params={},
    )
    cert = certify(fam, pairs=1, seed=16)
    assert not cert.passed


def test_quantile_points_inverts_cdf():
    targets = np.linspace(0.0, 1.0, 11)
    xs = quantile_points(np.square, targets)
    assert np.allclose(np.square(xs), targets, atol=1e-10)
    assert xs[0] == 0.0 and xs[-1] == 1.0


# -- cover codec -------------------------------------------------------------


def test_cover_documented_example():
    ds = make_dataset(np.array([[0.1], [0.3], [0.62], [0.99]]))
    code = cover_encode(ds, 1.0, OpKind.INDEX)
    assert code.resolution == 4
    assert code.bit_length == 7
    dec = cover_decode(code)
    assert np.allclose(dec.values.ravel(), [0.0, 0.25, 0.5, 0.75])
    assert rank_l1(sort_dataset_1d(ds), dec) == pytest.approx(0.51, abs=1e-12)


def test_cover_fixed_point_on_grid():
    ds = make_dataset(np.array([[0.0], [0.25], [0.5], [0.75]]))
    code = cover_encode(ds, 1.0, OpKind.INDEX)
    dec = cover_decode(code)
    assert np.array_equal(dec.values, ds.values)


def test_cover_decode_encode_is_quantize():
    for seed in range(25):
        op, d = [(OpKind.INDEX, 1), (OpKind.CARD_EST, 2), (OpKind.RANGE_SUM, 2)][
            seed % 3
        ]
        n = 5 + seed
        ds = random_dataset(n, d, seed=100 + seed)
        eps = 0.25 + (seed % 4)
        code = cover_encode(ds, eps, op)
        dec = cover_decode(code)
        q = quantize(ds, GridSpec(resolution=code.resolution))
        want = np.array(sorted(map(tuple, q.values)))
        got = np.array(sorted(map(tuple, dec.values)))
        assert np.array_equal(got, want), seed


def test_cover_bit_length_matches_count():
    for seed in range(10):
        n = 4 + seed
        ds = random_dataset(n, 1, seed=200 + seed)
        eps = 0.5 + seed % 3
        code = cover_encode(ds, eps, OpKind.INDEX)
        assert code.bit_length == math.ceil(
            covering_count_log2(OpKind.INDEX, n, 1, eps)
        )
        assert code.index < multiset_count(n, code.resolution + 1)


def test_cover_error_guarantee_index_exact():
    for seed in range(40):
        n = 3 + seed % 20
        eps = 0.3 + (seed % 5)
        if eps > n:
            continue
        ds = random_sorted(n, seed=300 + seed)
        code = cover_encode(ds, eps, OpKind.INDEX)
        dec = cover_decode(code)
        assert rank_l1(ds, dec) <= cover_error_bound(OpKind.INDEX, eps, 1) + 1e-12


def test_cover_error_guarantee_ce_exact_d1():
    for seed in range(40):
        n = 3 + seed % 20
        eps = 0.3 + (seed % 3)
        ds = random_dataset(n, 1, seed=400 + seed)
        code = cover_encode(ds, eps, OpKind.CARD_EST)
        dec = cover_decode(code)
        bound = cover_error_bound(OpKind.CARD_EST, eps, 1)
        assert bound == 2.0 * eps
        assert card1d_l1(ds, dec) <= bound + 1e-12


def test_cover_error_guarantee_mc_d2():
    for seed in range(5):
        n = 10 + seed
        eps = 1.0
        ds = random_dataset(n, 2, seed=500 + seed)
        code = cover_encode(ds, eps, OpKind.CARD_EST)
        dec = cover_decode(code)
        est = mc_l1(ds, dec, OpKind.CARD_EST, 30_000, seed=seed)
        bound = cover_error_bound(OpKind.CARD_EST, eps, 2)
        assert bound == 3.0 * eps
        assert est.value <= bound + 3.0 * est.std_error

        ds3 = random_dataset(n, 2, seed=600 + seed)
        code = cover_encode(ds3, eps, OpKind.RANGE_SUM)
        dec = cover_decode(code)
        est = mc_l1(ds3, dec, OpKind.RANGE_SUM, 30_000, seed=seed)
        bound = cover_error_bound(OpKind.RANGE_SUM, eps, 2)
        assert bound == 3.0 * eps  # one predicate attribute plus the summed one
        assert est.value <= bound + 3.0 * est.std_error


def test_cover_quantile_variant():
    ds = random_sorted(30, seed=700)
    code = cover_encode(ds, 2.0, OpKind.INDEX, cdf=np.square)
    dec = cover_decode(code, cdf=np.square)
    assert rank_mu(ds, dec, np.square) <= 2.0 + 1e-9
    # decoding with the wrong measure gives different values
    dec_wrong = cover_decode(code)
    assert not np.array_equal(dec.values, dec_wrong.values)


def test_cover_rejects_bad_eps():
    ds = random_sorted(10, seed=800)
    with pytest.raises(InvalidParams):
        cover_encode(ds, 0.0, OpKind.INDEX)
    with pytest.raises(InvalidParams):
        cover_encode(ds, 11.0, OpKind.INDEX)


# -- container format --------------------------------------------------------


def test_container_roundtrip(tmp_path):
    for seed, (op, d) in enumerate(
        [(OpKind.INDEX, 1), (OpKind.CARD_EST, 2), (OpKind.RANGE_SUM, 3)]
    ):
        ds = random_dataset(12, d, seed=900 + seed)
        code = cover_encode(ds, 1.5, op)
        path = str(tmp_path / f"c{seed}.ldbc")
        write_cover(code, path)
        assert read_cover(path) == code


def test_container_layout(tmp_path):
    ds = make_dataset(np.array([[0.1], [0.3], [0.62], [0.99]]))
    code = cover_encode(ds, 1.0, OpKind.INDEX)
    path = str(tmp_path / "c.ldbc")
    write_cover(code, path)
    blob = open(path, "rb").read()
    assert blob[:4] == b"LDBC"
    assert blob[4] == 1
    assert blob[5] == 0  # op byte for indexing
    assert int.from_bytes(blob[6:14], "little") == 4  # n
    assert int.from_bytes(blob[14:16], "little") == 1  # d
    assert int.from_bytes(blob[16:24], "little") == 4  # resolution
    assert int.from_bytes(blob[24:28], "little") == 1  # payload bytes
    assert blob[28:] == code.index.to_bytes(1, "big")


def test_container_rejects_corruption(tmp_path):
    ds = random_sorted(8, seed=1000)
    code = cover_encode(ds, 1.0, OpKind.INDEX)
    path = str(tmp_path / "c.ldbc")
    write_cover(code, path)
    blob = bytearray(open(path, "rb").read())

    bad = bytes(b"XXXX") + bytes(blob[4:])
    open(path, "wb").write(bad)
    with pytest.raises(FormatError):
        read_cover(path)

    blob2 = bytearray(blob)
    blob2[4] = 9  # unknown version
    open(path, "wb").write(bytes(blob2))
    with pytest.raises(FormatError):
        read_cover(path)

    blob3 = bytearray(blob)
    blob3[5] = 7  # unknown op
    open(path, "wb").write(bytes(blob3))
    with pytest.raises(FormatError):
        read_cover(path)

    open(path, "wb").write(bytes(blob[:10]))  # truncated
    with pytest.raises(FormatError):
        read_cover(path)


def test_container_rejects_out_of_space_index(tmp_path):
    ds = make_dataset(np.array([[0.0], [0.0]]))
    code = cover_encode(ds, 2.0, OpKind.INDEX)  # resolution 1, C(3,2)=3 codes
    path = str(tmp_path / "c.ldbc")
    write_cover(code, path)
    blob = bytearray(open(path, "rb").read())
    blob[-1] = 255  # index 255 >= 3
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FormatError):
        read_cover(path)


def test_container_rejects_header_too_big_for_its_payload(tmp_path):
    # n = u = 2,000,000 needs about 4e6 bits; the payload holds 8
    path = str(tmp_path / "huge.ldbc")
    write_cover(CoverCode(OpKind.INDEX, 2_000_000, 1, 2_000_000, 0, 8), path)
    assert os.path.getsize(path) == 29
    with pytest.raises(FormatError):
        read_cover(path)
    with pytest.raises(IndexOutOfRange):
        cover_decode(CoverCode(OpKind.INDEX, 2_000_000, 1, 2_000_000, 0, 8))


def test_width_check_accepts_every_exact_width():
    for n in range(1, 13):
        for u in range(1, 7):
            for op, d in ((OpKind.INDEX, 1), (OpKind.CARD_EST, 2)):
                total = multiset_count(n, (u + 1) ** d)
                bits = (total - 1).bit_length()
                code = CoverCode(op, n, d, u, total - 1, bits)
                assert cover_decode(code).n == n


# -- pigeonhole --------------------------------------------------------------


def test_pigeonhole_finds_collision():
    fam = packing_l1_index(100, 0.5, 5, seed=20)

    def encoder(ds):
        return cover_encode(ds, 50.0, OpKind.INDEX).index % 4  # 2 bits

    def decoder_eval(code):
        return lambda batch: np.full(np.asarray(batch).shape[0], 50.0)

    w = pigeonhole_witness(fam, 2, encoder, decoder_eval)
    assert w.first != w.second
    assert encoder(fam.datasets[w.first]) == encoder(fam.datasets[w.second]) == w.code
    assert w.worst == max(w.err_first.value, w.err_second.value)
    assert w.worst > fam.claimed_separation / 2


def test_pigeonhole_mu_witness():
    # criterion 6's 2-bit truncated cover index, on a family weighted by
    # cdf(x) = x^2; each member's error is a mean over cdf-distributed queries
    fam = packing_mu_index(100, 0.5, np.square, 5, seed=47)

    def encoder(ds):
        return cover_encode(ds, 0.5, OpKind.INDEX).index & 0b11

    def decoder_eval(code):
        return lambda qs: np.full(len(np.atleast_1d(qs)), 50.0)

    w = pigeonhole_witness(fam, 2, encoder, decoder_eval)
    assert (w.first, w.second) == (0, 4)
    assert w.err_first.value == 34.7255
    assert w.err_first.std_error == 0.06989260859587963
    assert w.err_first.samples == 20000
    assert w.err_second.value == 19.9875
    with pytest.raises(InvalidRequest):
        pigeonhole_witness(replace(fam, cdf=None), 2, encoder, decoder_eval)


def test_pigeonhole_requires_oversubscription():
    fam = packing_l1_index(100, 0.5, 4, seed=21)
    with pytest.raises(InvalidParams):
        pigeonhole_witness(fam, 2, lambda ds: 0, lambda code: (lambda b: b))
