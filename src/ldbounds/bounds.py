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
from functools import partial
from typing import Callable, NamedTuple

from .errors import InvalidParams, InvalidRequest
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


# -- the formula table -------------------------------------------------------


def _formula_id(req: BoundRequest) -> str:
    return f"{req.op.value}_{req.norm}_{req.side}"


class _Formula(NamedTuple):
    """One bound formula: its unclamped evaluator in eps and its eps window."""

    raw: Callable[[float], float]
    hi: float
    window: str  # the reason for an eps outside [lo, hi], or [lo, hi) if hi_open
    lo: float = 0.0
    hi_open: bool = False


def _formula(req: BoundRequest) -> _Formula | str | BoundResult:
    """The formula serving `req`, the reason none does, or the no-bound result.

    Each bound's eps window is stated here once.  `req.eps` is only checked
    for being positive and finite; whether it lies in the window is left to
    the caller, so `eps_star` can search the same window.
    """
    if req.side not in (LOWER, UPPER):
        raise InvalidRequest(f"side must be {LOWER!r} or {UPPER!r}")
    if req.norm not in (NORM_INF, NORM_L1, NORM_MU):
        raise InvalidRequest(f"unknown norm {req.norm!r}")
    op, n, d, u = req.op, req.n, req.d, req.u
    if n < 1:
        return "n must be >= 1"
    if d < 1:
        return "d must be >= 1"
    if op is OpKind.INDEX and d != 1:
        return "indexing is single-attribute; d must be 1"
    if not math.isfinite(req.eps) or req.eps <= 0.0:
        return "eps must be positive and finite"
    if req.side == UPPER:
        if req.norm == NORM_INF:
            return "no worst-case upper-bound formula is provided"
        if req.norm == NORM_MU and op is not OpKind.INDEX:
            return (
                "no distribution-weighted upper bound exists for cardinality or "
                "range-sum in this toolkit"
            )
        if op is OpKind.INDEX:
            raw = partial(_index_upper_raw, n)
        else:
            raw = partial(_ce_upper_raw if op is OpKind.CARD_EST else _rs_upper_raw, n, d)
        return _Formula(raw, n, "upper bounds need 0 < eps <= n")
    if req.norm == NORM_INF:
        if u is None or u < 1:
            return "worst-case bound needs a finite domain resolution u >= 1"
        window = "worst-case bound needs 1 <= eps < n/2"
        return _Formula(lambda e: _inf_lower_raw(n, d, e, u), n / 2.0, window, 1.0, True)
    if op is OpKind.INDEX:
        window = "average-case index bound needs 0 < eps <= sqrt(n)/2"
        return _Formula(partial(_l1_index_lower_raw, n), math.sqrt(n) / 2.0, window)
    if req.norm == NORM_MU:
        return BoundResult(
            0.0,
            f"{_formula_id(req)}_no_bound",
            IN_RANGE,
            "a concentrated query distribution admits arbitrarily small error "
            "at any size, so no distribution-free floor exists",
        )
    window = "average-case bound needs 0 < eps <= sqrt(n)/4^d"
    # times 4.0**-d, not over 4.0**d, which overflows a double from d = 512
    return _Formula(partial(_l1_ce_lower_raw, n, d), math.sqrt(n) * 4.0**-d, window)


def _bound(req: BoundRequest, side: str) -> BoundResult:
    if req.side != side:
        raise InvalidRequest(f"{side}_bound_bits needs side={side!r}")
    f = _formula(req)
    if isinstance(f, BoundResult):
        return f
    if isinstance(f, str):
        return BoundResult(math.nan, _formula_id(req), OUT_OF_RANGE, f)
    if not f.lo <= req.eps <= f.hi or (f.hi_open and req.eps == f.hi):
        return BoundResult(math.nan, _formula_id(req), OUT_OF_RANGE, f.window)
    # only lower bounds are ever clamped: upper formulas are positive on their windows
    return BoundResult(max(0.0, f.raw(req.eps)), _formula_id(req), IN_RANGE)


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
    return _bound(req, LOWER)


def upper_bound_bits(req: BoundRequest) -> BoundResult:
    """Bits sufficient for some model to reach error <= eps on any dataset."""
    return _bound(req, UPPER)


def require_in_range(req: BoundRequest) -> None:
    """Raise InvalidParams with the bound's reason when `req` is out of range.

    A construction calls this with the bound it realizes, so it accepts
    exactly the requests that bound is stated for.
    """
    result = _bound(req, req.side)
    if result.validity == OUT_OF_RANGE:
        raise InvalidParams(result.reason)


# -- inversion ---------------------------------------------------------------


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
    eps, so a bracketed geometric bisection to 1e-9 relative width over its
    window finds the crossing; results at the ends of the window are
    flagged as clamped.
    """
    if not math.isfinite(sigma_bits) or sigma_bits <= 0.0:
        raise InvalidRequest("sigma_bits must be positive and finite")
    # any positive eps passes _formula's eps check; only the window is read
    req = BoundRequest(op, norm, LOWER, n, d, _EPS_FLOOR, u)
    f = _formula(req)
    if isinstance(f, BoundResult):
        return EpsStarResult(0.0, NO_BOUND, f.formula_id)
    if isinstance(f, str):
        raise InvalidRequest(f)
    lo = max(f.lo, _EPS_FLOOR)
    hi = f.hi * (1.0 - 1e-12) if f.hi_open else f.hi
    if hi <= lo:
        raise InvalidRequest(f"the eps window is empty: {f.window}")
    fid = _formula_id(req)
    if sigma_bits > f.raw(lo):
        return EpsStarResult(lo, CLAMPED_LOW, fid)
    if sigma_bits < f.raw(hi):
        return EpsStarResult(hi, CLAMPED_HIGH, fid)
    for _ in range(200):
        if hi - lo <= 1e-9 * lo:
            break
        mid = math.sqrt(lo * hi)
        if f.raw(mid) >= sigma_bits:
            lo = mid
        else:
            hi = mid
    return EpsStarResult(lo, INTERIOR, fid)


# -- combinatorial counts ----------------------------------------------------


def log_falling(y: int, k: int) -> float:
    """log(y! / (y - k)!) for 1 <= k <= y, without cancellation.

    lgamma(y + 1) - lgamma(y - k + 1) loses the difference when k is small
    against y.  With a = y + 1 and b = y - k + 1 >= 16, Stirling's series
    gives it from terms of size about k: (a - 1/2) log1p(k / b)
    + k (log b - 1) + (1/a - 1/b) / 12, within 1 / (360 b^3).
    """
    b = y - k + 1
    if b < 16:
        return math.lgamma(y + 1) - math.lgamma(b)
    stirling = (y + 0.5) * math.log1p(k / b) + k * (math.log(b) - 1)
    return stirling + (1 / (y + 1) - 1 / b) / 12


def log2_binomial(a: int, b: int) -> float:
    """log2 of C(a, b).

    Exact integer arithmetic up to a = 1e4; above it log_falling(a, m) -
    lgamma(m + 1) with m = min(b, a - b), which keeps full precision when
    m << a, where a difference of log-gammas cancels.
    """
    if b < 0 or b > a:
        raise InvalidRequest("need 0 <= b <= a")
    if b == 0 or b == a:
        return 0.0
    if a <= 10_000:
        return math.log2(math.comb(a, b))
    m = min(b, a - b)
    return (log_falling(a, m) - math.lgamma(m + 1)) / _LN2


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
    require_in_range(BoundRequest(op, NORM_L1, UPPER, n, d, eps))
    u = ceil_ratio(n, eps)
    power = d + 1 if op is OpKind.RANGE_SUM else d  # indexing has d = 1
    cells = (u + 1) ** power
    return log2_binomial(cells + n - 1, n)
