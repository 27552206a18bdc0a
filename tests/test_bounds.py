from __future__ import annotations

import math

import mpmath as mp
import pytest

from ldbounds import bounds as bnd
from ldbounds.bounds import (
    BoundRequest,
    ceil_ratio,
    covering_count_log2,
    eps_star,
    log2_binomial,
    lower_bound_bits,
    upper_bound_bits,
)
from ldbounds.errors import InvalidRequest
from ldbounds.queryfn import OpKind

mp.mp.dps = 60


def _mp_log2(x):
    return mp.log(x) / mp.log(2)


def mp_inf_lower(n, eps, u, d=1):
    n, eps, u = mp.mpf(n), mp.mpf(eps), mp.mpf(u)
    eb = 2 * eps + 1
    return n / eb * _mp_log2(1 + eb * u**d / n)


def mp_l1_index_lower(n, eps):
    n, eps = mp.mpf(n), mp.mpf(eps)
    return (mp.sqrt(n) - 2) * _mp_log2(1 + 1 / (2 * eps) - 1 / mp.sqrt(n))


def mp_l1_ce_lower(n, d, eps):
    n, eps = mp.mpf(n), mp.mpf(eps)
    return (mp.sqrt(n) - 2) * _mp_log2(
        1 + mp.sqrt(n) ** (d - 1) / (mp.mpf(4) ** (d * (d + 1)) * eps**d)
        - 1 / mp.sqrt(n)
    )


def mp_index_upper(n, eps):
    n, eps = mp.mpf(n), mp.mpf(eps)
    return n * _mp_log2(mp.e + mp.e / eps + mp.e / n)


def mp_ce_upper(n, d, eps):
    n, eps = mp.mpf(n), mp.mpf(eps)
    return n * _mp_log2(
        mp.e * 2**d * (d + 1) ** d * n ** (d - 1) / eps**d + mp.e - mp.e / n
    )


def mp_rs_upper(n, d, eps):
    n, eps = mp.mpf(n), mp.mpf(eps)
    return n * _mp_log2(
        mp.e * (2 * (d + 2) / eps) ** (d + 1) * n**d + mp.e - mp.e / n
    )


def _lower(op, norm, n, d, eps, u=None):
    return lower_bound_bits(
        BoundRequest(op=op, norm=norm, side="lower", n=n, d=d, eps=eps, u=u)
    )


def _upper(op, norm, n, d, eps):
    return upper_bound_bits(
        BoundRequest(op=op, norm=norm, side="upper", n=n, d=d, eps=eps)
    )


def test_golden_values_against_high_precision():
    cases = [
        (_lower(OpKind.INDEX, "inf", 100, 1, 1.0, u=1000), mp_inf_lower(100, 1, 1000)),
        (_lower(OpKind.INDEX, "l1", 10_000, 1, 1.0), mp_l1_index_lower(10_000, 1)),
        (_lower(OpKind.CARD_EST, "l1", 10_000, 2, 1.0), mp_l1_ce_lower(10_000, 2, 1)),
        (_upper(OpKind.INDEX, "l1", 100, 1, 1.0), mp_index_upper(100, 1)),
        (_upper(OpKind.CARD_EST, "l1", 100, 1, 1.0), mp_ce_upper(100, 1, 1)),
        (_upper(OpKind.RANGE_SUM, "l1", 100, 1, 1.0), mp_rs_upper(100, 1, 1)),
    ]
    for res, want in cases:
        assert res.validity == "in_range"
        assert res.bits == pytest.approx(float(want), rel=1e-9)


def test_frozen_golden_constants():
    # values frozen from an independent 60-digit evaluation
    assert _lower(OpKind.INDEX, "inf", 100, 1, 1.0, u=1000).bits == pytest.approx(
        165.13987701289584, rel=1e-12
    )
    assert _lower(OpKind.INDEX, "l1", 10_000, 1, 1.0).bits == pytest.approx(
        56.380608407368813, rel=1e-12
    )
    assert _lower(OpKind.CARD_EST, "l1", 10_000, 2, 1.0).bits == pytest.approx(
        2.023371734474162, rel=1e-12
    )
    assert _upper(OpKind.INDEX, "l1", 100, 1, 1.0).bits == pytest.approx(
        244.98905422931673, rel=1e-12
    )


def test_inf_lower_across_ops_and_dims():
    # the worst-case formula covers all three ops; d enters via u**d
    for op, d in ((OpKind.INDEX, 1), (OpKind.CARD_EST, 3), (OpKind.RANGE_SUM, 2)):
        res = _lower(op, "inf", 500, d, 2.0, u=64)
        assert res.validity == "in_range"
        assert res.bits == pytest.approx(float(mp_inf_lower(500, 2, 64, d)), rel=1e-9)


def test_validity_windows():
    assert _lower(OpKind.INDEX, "inf", 100, 1, 0.5, u=10).validity == "out_of_range"
    assert _lower(OpKind.INDEX, "inf", 100, 1, 50.0, u=10).validity == "out_of_range"
    assert _lower(OpKind.INDEX, "inf", 100, 1, 49.99, u=10).validity == "in_range"
    assert _lower(OpKind.INDEX, "l1", 100, 1, 5.0).validity == "in_range"  # eps <= sqrt(n)/2
    assert _lower(OpKind.INDEX, "l1", 100, 1, 5.01).validity == "out_of_range"
    assert _lower(OpKind.CARD_EST, "l1", 100, 1, 2.5).validity == "in_range"  # eps <= sqrt(n)/4
    assert _lower(OpKind.CARD_EST, "l1", 100, 1, 2.51).validity == "out_of_range"
    assert _upper(OpKind.INDEX, "l1", 100, 1, 100.0).validity == "in_range"
    assert _upper(OpKind.INDEX, "l1", 100, 1, 100.5).validity == "out_of_range"
    assert _upper(OpKind.INDEX, "l1", 100, 1, 0.0).validity == "out_of_range"


def test_mu_norm_bounds():
    # indexing under a free measure reuses the average-case formulas
    res = _lower(OpKind.INDEX, "mu", 10_000, 1, 1.0)
    assert res.bits == pytest.approx(float(mp_l1_index_lower(10_000, 1)), rel=1e-9)
    # no measure-free lower bound exists for the range ops
    res = _lower(OpKind.CARD_EST, "mu", 10_000, 1, 1.0)
    assert res.bits == 0.0
    assert "no_bound" in res.formula_id
    res = _lower(OpKind.RANGE_SUM, "mu", 10_000, 2, 1.0)
    assert res.bits == 0.0


def test_lower_clamped_at_zero():
    # near the top of its window the raw range formula goes negative
    res = _lower(OpKind.CARD_EST, "l1", 10_000, 2, 6.0)
    assert res.validity == "in_range"
    assert res.bits == 0.0


def test_wrong_side_raises():
    req = BoundRequest(op=OpKind.INDEX, norm="l1", side="upper", n=10, d=1, eps=1.0)
    with pytest.raises(InvalidRequest):
        lower_bound_bits(req)


def test_monotonicity_in_eps_and_n():
    # lower bounds fall as eps grows and rise with n
    prev = math.inf
    for eps in (0.1, 0.5, 1.0, 2.0, 4.0):
        bits = _lower(OpKind.INDEX, "l1", 10_000, 1, eps).bits
        assert bits < prev
        prev = bits
    prev = 0.0
    for n in (100, 1_000, 10_000, 100_000):
        bits = _lower(OpKind.INDEX, "l1", n, 1, 1.0).bits
        assert bits > prev
        prev = bits
    prev = math.inf
    for eps in (0.5, 1.0, 2.0, 5.0):
        bits = _upper(OpKind.INDEX, "l1", 1000, 1, eps).bits
        assert bits < prev
        prev = bits


def test_upper_exceeds_lower_on_shared_window():
    for n in (100, 10_000):
        for eps in (0.25, 1.0, 2.0):
            lo = _lower(OpKind.INDEX, "l1", n, 1, eps).bits
            hi = _upper(OpKind.INDEX, "l1", n, 1, eps).bits
            assert hi > lo


def test_huge_parameters_stay_finite():
    res = _lower(OpKind.INDEX, "inf", 10**9, 1, 1.0, u=2**63)
    assert math.isfinite(res.bits) and res.bits > 0
    assert res.bits == pytest.approx(float(mp_inf_lower(10**9, 1, 2**63)), rel=1e-9)
    res = _lower(OpKind.CARD_EST, "inf", 10**6, 8, 1.0, u=2**32)
    assert math.isfinite(res.bits)
    assert res.bits == pytest.approx(float(mp_inf_lower(10**6, 1, 2**32, 8)), rel=1e-9)


def test_ce_l1_window_past_float_range():
    # 4**d overflows a double at d = 512; the window is then empty, not an error
    res = _lower(OpKind.CARD_EST, "l1", 100, 600, 0.1)
    assert res.validity == "out_of_range" and res.reason is not None
    with pytest.raises(InvalidRequest):
        eps_star(64.0, OpKind.CARD_EST, "l1", 100, 600)


# -- eps_star ---------------------------------------------------------------


def test_eps_star_forward_backward():
    grid = [
        (OpKind.INDEX, "l1", None),
        (OpKind.CARD_EST, "l1", None),
        (OpKind.INDEX, "inf", 2**32),
    ]
    for op, norm, u in grid:
        for n in (1_000, 10_000):
            for sigma in (32.0, 64.0, 320.0, 1568.0):
                res = eps_star(sigma, op, norm, n, 1, u=u)
                if res.flag != "interior":
                    continue
                back = _lower(op, norm, n, 1, res.eps, u=u).bits
                assert back == pytest.approx(sigma, rel=1e-6), (op, norm, n, sigma)


def test_eps_star_monotone_in_sigma():
    prev = math.inf
    for sigma in (16.0, 32.0, 64.0, 128.0, 256.0):
        res = eps_star(sigma, OpKind.INDEX, "l1", 10_000, 1)
        assert res.flag == "interior"
        assert res.eps < prev
        prev = res.eps


def test_eps_star_monotone_in_n():
    prev = 0.0
    for n in (1_000, 10_000, 100_000):
        res = eps_star(64.0, OpKind.INDEX, "l1", n, 1)
        assert res.eps > prev
        prev = res.eps


def test_eps_star_clamp_flags():
    # astronomically many bits: even the smallest eps in the window suffices
    res = eps_star(1e9, OpKind.INDEX, "l1", 1_000, 1)
    assert res.flag == "clamped_low"
    # the rank formula decays to exactly zero at the window top, so any
    # positive budget is interior and tiny budgets land near the top
    res = eps_star(1e-9, OpKind.INDEX, "l1", 1_000, 1)
    assert res.flag == "interior"
    assert res.eps == pytest.approx(math.sqrt(1_000) / 2, rel=1e-3)
    # the worst-case formula stays positive at the top: too few bits clamps
    res = eps_star(1e-9, OpKind.INDEX, "inf", 1_000, 1, u=2**32)
    assert res.flag == "clamped_high"
    res = eps_star(1e9, OpKind.INDEX, "inf", 1_000, 1, u=2**32)
    assert res.flag == "clamped_low"
    res = eps_star(64.0, OpKind.CARD_EST, "mu", 1_000, 1)
    assert res.flag == "no_bound" and res.eps == 0.0


def test_eps_star_inf_needs_u():
    with pytest.raises(InvalidRequest):
        eps_star(64.0, OpKind.INDEX, "inf", 1_000, 1)


# -- counting helpers -------------------------------------------------------


def test_log2_binomial_exact_small():
    assert log2_binomial(8, 4) == pytest.approx(math.log2(70), abs=1e-12)
    assert log2_binomial(4, 2) == pytest.approx(math.log2(6), abs=1e-12)
    assert log2_binomial(5, 0) == 0.0
    assert log2_binomial(5, 5) == 0.0


def test_log2_binomial_dual_route_agreement():
    # sum-of-logs route vs exact integer route
    for a, b in ((2_000, 700), (30_000, 17), (123_456, 3)):
        exact = math.log2(math.comb(a, b))
        assert log2_binomial(a, b) == pytest.approx(exact, rel=1e-12), (a, b)


def test_log2_binomial_huge_no_cancellation():
    # b << a where lgamma differences lose all precision
    a, b = 10**30, 10_000
    # independent route: sum of log2((a - i)/(b - i))
    want = sum(math.log2(a - i) - math.log2(b - i) for i in range(b))
    assert log2_binomial(a, b) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a, b", [(10**15, 3 * 10**6), (10**18, 10**9)])
def test_log2_binomial_matches_mpmath(a, b):
    # min(b, a - b) past any enumerable range, yet b << a: a log-gamma
    # difference cancels here
    want = (mp.loggamma(a + 1) - mp.loggamma(b + 1) - mp.loggamma(a - b + 1)) / mp.log(2)
    assert log2_binomial(a, b) == pytest.approx(float(want), rel=1e-12)


def test_ceil_ratio():
    assert ceil_ratio(10, 3) == 4
    assert ceil_ratio(10, 2.5) == 4
    assert ceil_ratio(10, 2.0) == 5
    assert ceil_ratio(4, 1.0) == 4


def test_covering_count_log2_vs_upper_bound():
    # the upper-bound formulas majorize the exact cover counts at matched eps:
    # a step-1/u' cover guarantees (d+1)eps for cardinality over d attributes
    # and (d+2)eps for range-sum over d predicate attributes
    for n in (50, 200):
        for eps in (0.5, 1.0, 2.0):
            cover = covering_count_log2(OpKind.INDEX, n, 1, eps)
            assert cover <= _upper(OpKind.INDEX, "l1", n, 1, eps).bits
            for d in (1, 2):
                cover = covering_count_log2(OpKind.CARD_EST, n, d, eps)
                assert cover <= _upper(OpKind.CARD_EST, "l1", n, d, (d + 1) * eps).bits
            d = 1  # predicate dims; the counting alphabet spans d + 1 attributes
            cover = covering_count_log2(OpKind.RANGE_SUM, n, d, eps)
            assert cover <= _upper(OpKind.RANGE_SUM, "l1", n, d, (d + 2) * eps).bits


def test_covering_count_log2_values():
    # indexing: multisets of n values from a (u'+1)-point grid
    n, eps = 4, 1.0
    want = math.log2(math.comb(4 + 4, 4))
    assert covering_count_log2(OpKind.INDEX, n, 1, eps) == pytest.approx(want, abs=1e-12)
    # cardinality d=2: cell alphabet (u'+1)^2
    want = math.log2(math.comb(5**2 + 4 - 1, 4))
    assert covering_count_log2(OpKind.CARD_EST, n, 2, eps) == pytest.approx(
        want, abs=1e-12
    )
