"""Model-size bounds in bits, and their inversion to error floors.

Lower bounds come from packing arguments (a model smaller than the bound
cannot distinguish enough datasets to answer within eps on all of them);
upper bounds come from quantize-and-encode covers.  All formulas are
evaluated in log space wherever an argument could overflow double
precision: once log2(x) exceeds 50, log2(1 + x) is taken as log2(x) with
relative error below 1e-15.

`d` follows predicate dimensionality: 1 for indexing, the data dimension
for cardinality estimation, and the predicate dimension for range-sum
(whose data then has d + 1 attributes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRequest
from .queryfn import OpKind

LOWER = "lower"
UPPER = "upper"

NORM_INF = "inf"
NORM_L1 = "l1"
NORM_MU = "mu"

IN_RANGE = "in_range"
OUT_OF_RANGE = "out_of_range"

INTERIOR = "interior"
CLAMPED_LOW = "clamped_low"
CLAMPED_HIGH = "clamped_high"
NO_BOUND = "no_bound"

_LN2 = math.log(2.0)
_LOG2E = math.log2(math.e)
_EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundRequest:
    op: OpKind
    norm: str
    side: str
    n: int
    d: int
    eps: float
    u: int | None = None


@dataclass(frozen=True)
class BoundResult:
    bits: float
    formula_id: str
    validity: str
    reason: str | None = None


@dataclass(frozen=True)
class EpsStarResult:
    eps: float
    flag: str
    formula_id: str


def _log2_1p_exp2(log2x: float) -> float:
    """log2(1 + 2**log2x), stable for any magnitude of log2x."""
    if log2x > 50.0:
        return log2x + math.log1p(2.0 ** (-log2x)) / _LN2
    if log2x < -50.0:
        return (2.0**log2x) / _LN2
    return math.log1p(2.0**log2x) / _LN2


def _log2_sum_exp2(terms: list[float]) -> float:
    """log2 of a sum of non-negative quantities given as log2 values."""
    finite = [t for t in terms if t != -math.inf]
    if not finite:
        return -math.inf
    m = max(finite)
    return m + math.log2(sum(2.0 ** (t - m) for t in finite))


# -- raw formula evaluators (unclamped; strictly decreasing in eps) ----------


def _inf_lower_raw(n: int, d: int, eps: float, u: int) -> float:
    coeff = n / (2.0 * eps + 1.0)
    log2x = math.log2(2.0 * eps + 1.0) + d * math.log2(u) - math.log2(n)
    return coeff * _log2_1p_exp2(log2x)


def _l1_index_lower_raw(n: int, eps: float) -> float:
    rn = math.sqrt(n)
    t = 1.0 / (2.0 * eps) - 1.0 / rn
    if t > 2.0**50:
        inner = math.log2(t)
    else:
        inner = math.log1p(t) / _LN2
    return (rn - 2.0) * inner


def _l1_ce_lower_raw(n: int, d: int, eps: float) -> float:
    rn = math.sqrt(n)
    log2a = (d - 1) * math.log2(rn) - 2.0 * d * (d + 1) - d * math.log2(eps)
    if log2a > 50.0:
        inner = log2a
    else:
        inner = math.log1p(2.0**log2a - 1.0 / rn) / _LN2
    return (rn - 2.0) * inner


def _index_upper_raw(n: int, eps: float) -> float:
    inner = _log2_sum_exp2(
        [_LOG2E, _LOG2E - math.log2(eps), _LOG2E - math.log2(n)]
    )
    return n * inner


def _ce_upper_raw(n: int, d: int, eps: float) -> float:
    t1 = _LOG2E + d + d * math.log2(d + 1.0) + (d - 1) * math.log2(n) - d * math.log2(eps)
    rest = math.e - math.e / n
    t2 = math.log2(rest) if rest > 0.0 else -math.inf
    return n * _log2_sum_exp2([t1, t2])


def _rs_upper_raw(n: int, d: int, eps: float) -> float:
    t1 = _LOG2E + (d + 1) * (math.log2(2.0 * (d + 2.0)) - math.log2(eps)) + d * math.log2(n)
    rest = math.e - math.e / n
    t2 = math.log2(rest) if rest > 0.0 else -math.inf
    return n * _log2_sum_exp2([t1, t2])


# -- request validation ------------------------------------------------------


def _basic_check(req: BoundRequest) -> str | None:
    if req.side not in (LOWER, UPPER):
        raise InvalidRequest(f"side must be {LOWER!r} or {UPPER!r}")
    if req.norm not in (NORM_INF, NORM_L1, NORM_MU):
        raise InvalidRequest(f"unknown norm {req.norm!r}")
    if req.n < 1:
        return "n must be >= 1"
    if req.d < 1:
        return "d must be >= 1"
    if req.op is OpKind.INDEX and req.d != 1:
        return "indexing is single-attribute; d must be 1"
    if not math.isfinite(req.eps) or req.eps <= 0.0:
        return "eps must be positive and finite"
    return None


def _validity_reason(req: BoundRequest) -> str | None:
    """None when the request is inside its formula's validity range."""
    basic = _basic_check(req)
    if basic is not None:
        return basic
    n, d, eps = req.n, req.d, req.eps
    if req.side == LOWER:
        if req.norm == NORM_INF:
            if req.u is None or req.u < 1:
                return "worst-case bound needs a finite domain resolution u >= 1"
            if not 1.0 <= eps < n / 2.0:
                return "worst-case bound needs 1 <= eps < n/2"
            return None
        if req.norm == NORM_MU and req.op is not OpKind.INDEX:
            return None  # defined no-bound result, handled by caller
        if req.op is OpKind.INDEX:
            if eps > math.sqrt(n) / 2.0:
                return "average-case index bound needs 0 < eps <= sqrt(n)/2"
            return None
        if eps > math.sqrt(n) / (4.0**d):
            return "average-case bound needs 0 < eps <= sqrt(n)/4^d"
        return None
    # upper side
    if req.norm == NORM_INF:
        return "no worst-case upper-bound formula is provided"
    if req.norm == NORM_MU and req.op is not OpKind.INDEX:
        return (
            "no distribution-weighted upper bound exists for cardinality or "
            "range-sum in this toolkit"
        )
    if eps > n:
        return "upper bounds need 0 < eps <= n"
    return None


def _formula_id(req: BoundRequest) -> str:
    return f"{req.op.value}_{req.norm}_{req.side}"


def _lower_raw(req: BoundRequest) -> float:
    n, d, eps = req.n, req.d, req.eps
    if req.norm == NORM_INF:
        return _inf_lower_raw(n, d, eps, req.u)
    if req.op is OpKind.INDEX:
        return _l1_index_lower_raw(n, eps)
    return _l1_ce_lower_raw(n, d, eps)


def lower_bound_bits(req: BoundRequest) -> BoundResult:
    """Minimum model bits needed to guarantee error <= eps on all datasets.

    The average-case cardinality/range-sum formula turns negative near the
    top of its validity interval (where it asserts nothing); the public
    value is clamped at zero there, since zero bits is always a true lower
    bound.  Under a free choice of query distribution there is no
    cardinality/range-sum floor at all (a concentrated distribution makes
    every dataset easy), which is reported as a defined zero-bit result
    rather than an error.
    """
    if req.side != LOWER:
        raise InvalidRequest("lower_bound_bits needs side='lower'")
    fid = _formula_id(req)
    if req.norm == NORM_MU and req.op is not OpKind.INDEX:
        basic = _basic_check(req)
        if basic is not None:
            return BoundResult(math.nan, fid, OUT_OF_RANGE, basic)
        return BoundResult(
            0.0,
            f"{fid}_no_bound",
            IN_RANGE,
            "a concentrated query distribution admits arbitrarily small error "
            "at any size, so no distribution-free floor exists",
        )
    reason = _validity_reason(req)
    if reason is not None:
        return BoundResult(math.nan, fid, OUT_OF_RANGE, reason)
    return BoundResult(max(0.0, _lower_raw(req)), fid, IN_RANGE)


def upper_bound_bits(req: BoundRequest) -> BoundResult:
    """Bits sufficient for some model to reach error <= eps on any dataset."""
    if req.side != UPPER:
        raise InvalidRequest("upper_bound_bits needs side='upper'")
    fid = _formula_id(req)
    reason = _validity_reason(req)
    if reason is not None:
        return BoundResult(math.nan, fid, OUT_OF_RANGE, reason)
    n, d, eps = req.n, req.d, req.eps
    if req.op is OpKind.INDEX:
        bits = _index_upper_raw(n, eps)
    elif req.op is OpKind.CARD_EST:
        bits = _ce_upper_raw(n, d, eps)
    else:
        bits = _rs_upper_raw(n, d, eps)
    return BoundResult(bits, fid, IN_RANGE)


# -- inversion ---------------------------------------------------------------


def _search_interval(op: OpKind, norm: str, n: int, d: int) -> tuple[float, float]:
    if norm == NORM_INF:
        return 1.0, (n / 2.0) * (1.0 - 1e-12)
    if op is OpKind.INDEX:
        return _EPS_FLOOR, math.sqrt(n) / 2.0
    return _EPS_FLOOR, math.sqrt(n) / (4.0**d)


def eps_star(
    sigma_bits: float,
    op: OpKind,
    norm: str,
    n: int,
    d: int,
    u: int | None = None,
) -> EpsStarResult:
    """Largest eps whose lower bound still meets or exceeds sigma_bits.

    Any model of sigma_bits bits must err by at least this much on some
    dataset.  The matching lower-bound formula is strictly decreasing in
    eps, so a bracketed geometric bisection to 1e-9 relative width finds
    the crossing; results at the ends of the validity interval are flagged
    as clamped.
    """
    if not math.isfinite(sigma_bits) or sigma_bits <= 0.0:
        raise InvalidRequest("sigma_bits must be positive and finite")
    if norm == NORM_MU and op is not OpKind.INDEX:
        return EpsStarResult(0.0, NO_BOUND, f"{op.value}_mu_lower_no_bound")
    lo, hi = _search_interval(op, norm, n, d)
    if norm == NORM_INF and hi <= lo:
        raise InvalidRequest("worst-case inversion needs n >= 3")
    probe = BoundRequest(op, norm, LOWER, n, d, lo, u)
    reason = _validity_reason(probe)
    if reason is not None:
        raise InvalidRequest(reason)
    fid = _formula_id(probe)
    g_lo = _lower_raw(probe)
    g_hi = _lower_raw(BoundRequest(op, norm, LOWER, n, d, hi, u))
    if sigma_bits > g_lo:
        return EpsStarResult(lo, CLAMPED_LOW, fid)
    if sigma_bits < g_hi:
        return EpsStarResult(hi, CLAMPED_HIGH, fid)
    for _ in range(200):
        if hi - lo <= 1e-9 * lo:
            break
        mid = math.sqrt(lo * hi)
        if _lower_raw(BoundRequest(op, norm, LOWER, n, d, mid, u)) >= sigma_bits:
            lo = mid
        else:
            hi = mid
    return EpsStarResult(lo, INTERIOR, fid)


# -- combinatorial counts ----------------------------------------------------


def log2_binomial(a: int, b: int) -> float:
    """log2 of C(a, b) by three mutually checking routes.

    Exact integer arithmetic up to a = 1e4; a log2-term sum while
    min(b, a-b) stays enumerable (the log-gamma difference cancels badly
    when b << a); the log-gamma identity for the huge symmetric cases.
    """
    if b < 0 or b > a:
        raise InvalidRequest("need 0 <= b <= a")
    if b == 0 or b == a:
        return 0.0
    if a <= 10_000:
        return math.log2(math.comb(a, b))
    m = min(b, a - b)
    if m <= 2_000_000:
        i = np.arange(1, m + 1, dtype=np.float64)
        return float(np.log2((a - m) + i).sum() - np.log2(i).sum())
    return (
        math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
    ) / _LN2


def ceil_ratio(n: int, eps: float) -> int:
    """Quantizer resolution ceil(n / eps) used by every cover."""
    if eps <= 0.0:
        raise InvalidRequest("eps must be positive")
    return max(1, math.ceil(n / eps))


def covering_count_log2(op: OpKind, n: int, d: int, eps: float) -> float:
    """log2 of the number of quantized datasets the cover distinguishes.

    Indexing: multisets of n values on a (u'+1)-point grid; cardinality:
    multisets of n cells of the d-dim grid; range-sum: the same with
    d + 1 attributes.
    """
    if n < 1 or d < 1:
        raise InvalidRequest("n and d must be >= 1")
    if not 0.0 < eps <= n:
        raise InvalidRequest("covers need 0 < eps <= n")
    u = ceil_ratio(n, eps)
    if op is OpKind.INDEX:
        return log2_binomial(n + u, n)
    power = d if op is OpKind.CARD_EST else d + 1
    cells = (u + 1) ** power
    return log2_binomial(cells + n - 1, n)
