"""Constructive witnesses behind the bounds.

Packing generators build families of datasets that are pairwise far apart
in a chosen distance, so no small code can tell them all apart; the cover
codec realizes the matching upper bound by quantizing a dataset and
encoding it as one integer index over all quantized possibilities; the
pigeonhole witness turns an undersized encoder plus a packing family into
a concrete collision with a large measured error.  `certify` checks a
family's separation on sampled pairs, each measured by `norms.distance`.

Multisets are encoded in colexicographic order: a sorted tuple
x_1 <= ... <= x_m over {0..A-1} maps to rank sum_i C(x_i + i - 1, i),
a bijection onto {0 .. C(m + A - 1, m) - 1}.  Rank and unrank walk that
sum with one running term, updated exactly in integers: the binomial
C(y, i), or the falling factorial P(y, i) = y!/(y-i)! = C(y, i) i!.  From
one record to the next C(y+1, i+1) = C(y, i) (y+1) / (i+1) and
P(y+1, i+1) = P(y, i) (y+1); along a gap both move by (y+1) / (y+1-i)
(downward when unranking).  A gap longer than _WALK, or leaving the zero
region (x_i = 0, so C(y, i) = 0 carries nothing to update from), is a
jump: one `math.comb` (rank) or a float guess checked exactly (unrank).
A jump right after another jump moves the walk to falling factorials
instead, which `math.perm` builds with no division: rank sums their terms
by Horner's rule, S <- S i + P(y, i), and unrank keeps its remaining rank
times i!, dividing it by i at each record.  After two consecutive records
reached by unit steps the walk divides by i! and goes back to binomials.
So a run of jumps divides by i! once, and dense runs, lone jumps among
them included, never carry the i! factor.  Unrank does not wait for
_WALK steps to fail: after two, a bound on how fast the term can fall
(`_walk_reaches`) tells whether the rest could reach the crossing, and if
not it jumps there at once.  The guess is closed-form, refined by at most
three Newton steps on `bounds.log_falling`.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import (
    LOWER,
    NORM_INF,
    NORM_L1,
    NORM_MU,
    UPPER,
    BoundRequest,
    ceil_ratio,
    log_falling,
    require_in_range,
)
from .data import Dataset, grid_digits, make_dataset
from .errors import (
    FamilyTooLarge,
    FormatError,
    IndexOutOfRange,
    InvalidParams,
    InvalidRequest,
    NoCollision,
)
from .norms import (
    EvalConfig,
    L1,
    LINF,
    MU,
    DistanceEstimate,
    distance,
    model_error,
    quantile_points,
)
from .queryfn import OpKind, query_dims
from .rng import make_generator, rand_below

_OP_BYTE = {OpKind.INDEX: 0, OpKind.CARD_EST: 1, OpKind.RANGE_SUM: 2}
_BYTE_OP = {v: k for k, v in _OP_BYTE.items()}

MAGIC = b"LDBC"
VERSION = 1
# .ldbc header: magic, version, op byte, n, d, resolution, payload length
_HEADER = struct.Struct("<4sBBQHQI")
# longest gap in y the codec crosses by exact unit steps; a longer one costs
# one math.comb or math.perm (rank) or a float-guided search (unrank)
_WALK = 64
_FLOAT_SAFE = 2**1000  # the guess takes y as a float
_FLOAT_EXACT = 2**53  # floats hold every integer below this, and no finer


# -- multiset codec ----------------------------------------------------------


def multiset_count(m: int, alphabet: int) -> int:
    if m < 0 or alphabet < 1:
        raise InvalidParams("need m >= 0 and alphabet >= 1")
    return math.comb(m + alphabet - 1, m)


def multiset_rank(items, alphabet: int) -> int:
    """Colex rank of a sorted multiset over {0..alphabet-1}.

    c = C(y, i), or P(y, i) while `run` holds the Horner sum of the
    falling-factorial terms; y = x_i + i - 1, walked upward as the module
    describes.
    """
    if alphabet < 1:
        raise InvalidParams("need alphabet >= 1")
    rank = c = y = prev = 0
    jumped, run = -1, None  # the last record that jumped
    for i, x in enumerate(items, start=1):
        try:
            x = operator.index(x)
        except TypeError:
            raise InvalidParams(f"items must be integers, got {x!r}") from None
        if x < prev or x >= alphabet:
            raise InvalidParams("items must be sorted ascending within the alphabet")
        prev = x
        target = x + i - 1
        if c:
            y += 1
            # C(y, i) = C(y-1, i-1) y / i, or P(y, i) = P(y-1, i-1) y
            c = c * y // i if run is None else c * y
        if c and target - y <= _WALK:
            while y < target:
                y += 1
                c = c * y // (y - i)  # C(y, i) = C(y-1, i) y / (y - i), and so P
        elif x:  # a long gap, or leaving the zero region where C(y, i) = 0
            if run is None and jumped < i - 1:  # a lone jump keeps binomials
                c = math.comb(target, i)
            else:  # a second jump in a row: falling factorials from here
                c, run = math.perm(target, i), 0 if run is None else run
            y, jumped = target, i
        if run is None:
            rank += c
        else:
            run = run * i + c  # i! times the terms summed since the switch
            if i - jumped == 2:  # two records walked in a row
                scale = math.factorial(i)
                rank, c, run = rank + run // scale, c // scale, None
    if run is not None:
        rank += run // math.factorial(i)
    return rank


def _walk_reaches(c: int, rem: int, y: int, i: int) -> bool:
    """False only if _WALK unit steps down from c = C(y, i) cannot reach rem.

    A step from y' divides by y' / (y' - i), at most a / (a - i) with
    a = y - _WALK + 1, so the walk lowers log2 c by at most
    drop = -_WALK log2(1 - i/a) >= _WALK i / a bits.  It surely misses when
    log2 c - log2 rem > drop: bit lengths settle most cases, `math.log2`
    the rest.  Only c / rem enters, so c = P(y, i) against rem i! reads the
    same.
    """
    a = y - _WALK + 1
    gap = c.bit_length() - rem.bit_length()  # log2 c - log2 rem lies in (gap-1, gap+1)
    if a <= i or (gap + 1) * a <= _WALK * i:  # the zero region, or a steep walk
        return True
    drop = -_WALK * math.log1p(-i / a) / math.log(2) + 1e-6  # margin for rounding
    return gap - 1 < drop and math.log2(c) - math.log2(rem) <= drop


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 1 whose root a float can hold.

    Newton's steps in integers from the float root: by AM-GM each lands at
    or above the integer root, and from above they fall strictly until they
    reach it.
    """
    r = int(math.exp(math.log(x) / k)) + 1
    r = ((k - 1) * r + x // r ** (k - 1)) // k  # now at or above the root
    while (s := ((k - 1) * r + x // r ** (k - 1)) // k) < r:
        r = s
    return r


def _crossing(rem: int, k: int, hi: int, scaled: bool) -> tuple[int, int]:
    """(y, T(y, k)) for the largest y <= hi with T(y, k) <= rem, given T(k, k) <= rem.

    T is C (`math.comb`), against the remaining rank, or if `scaled` P
    (`math.perm`), against the remaining rank times k!.  A float guess,
    then exact unit steps from it; y is returned only once
    T(y, k) <= rem < T(y+1, k) holds exactly.  With R = rem k! (or rem
    when scaled) the guess starts at y0 = exp(log(R) / k) + (k-1)/2, where
    (y - (k-1)/2)^k, an upper bound on P(y, k), equals R, so y0 lies at or
    below the crossing; at most 3 Newton steps on `log_falling(y, k) =
    log(R)` follow, with slope log1p(k / (y - k + 1/2)).  From _FLOAT_EXACT
    up, where a float is coarser than a cell, the start is that y0 in
    integers instead: the exact k-th root of R plus (k-1)/2 rounded down,
    still at or below the crossing.  A guess more than _WALK steps off
    falls back to bisection over what the steps left open.
    """
    term = math.perm if scaled else math.comb
    y = k
    if hi < _FLOAT_SAFE:  # the guess takes y as a float
        log_r = math.log(rem) + (0.0 if scaled else math.lgamma(k + 1))
        g = math.exp(min(log_r / k, math.log(hi))) + (k - 1) / 2
        for _ in range(3):
            g = min(max(g, k), hi)
            step = (log_falling(g, k) - log_r) / math.log1p(k / (g - k + 0.5))
            g -= step
            if abs(step) < 0.5:
                break
        y = int(min(max(g, k), hi))
        if _FLOAT_EXACT <= y < hi:  # y < hi: a float holds the root of R
            r = rem if scaled else rem * math.factorial(k)
            y = min(_iroot(r, k) + (k - 1) // 2, hi)
    lo, c = k, term(y, k)
    for _ in range(_WALK):
        if c > rem:
            hi, c, y = y - 1, c * (y - k) // y, y - 1
        elif y == hi or (up := c * (y + 1) // (y + 1 - k)) > rem:
            return y, c
        else:
            lo, c, y = y + 1, up, y + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if term(mid, k) <= rem:
            lo = mid
        else:
            hi = mid - 1
    return lo, term(lo, k)


def multiset_unrank(rank: int, m: int, alphabet: int) -> tuple[int, ...]:
    """Inverse of multiset_rank; returns the sorted multiset.

    The same walk downward from C(alphabet + m - 1, m), the code-space
    size: record i takes the largest y with C(y, i) <= rem, the remaining
    rank, by unit steps down y, or by `_crossing` once _WALK steps have not
    reached it, or at once when two steps have not and `_walk_reaches`
    shows the rest cannot.  A second crossing in a row moves the walk to
    P(y, i) against rem i!, which each record divides by i.
    """
    total = multiset_count(m, alphabet)
    if not 0 <= rank < total:
        # the bound by its binomial: str() refuses ints past 4300 digits
        raise IndexOutOfRange(f"rank outside [0, C({alphabet + m - 1}, {m}))")
    out = [0] * m
    rem = rank
    y = alphabet + m - 1
    c = total  # C(y, m)
    crossed, scaled = m + 2, False  # the last record that crossed
    for i in range(m, 0, -1):
        if not rem:
            break  # every record left is symbol 0
        steps = 0
        while c > rem:
            if steps == _WALK or steps == 2 and not _walk_reaches(c, rem, y, i):
                if not scaled and crossed == i + 1:  # the record before crossed too
                    rem, scaled = rem * math.factorial(i), True
                y, c = _crossing(rem, i, y - 1, scaled)
                crossed = i
                break
            c, y = c * (y - i) // y, y - 1  # C(y-1, i) = C(y, i) (y - i) / y, and so P
            steps += 1
        rem -= c
        out[i - 1] = y - (i - 1)
        if not scaled:
            c, y = c * i // y, y - 1  # C(y-1, i-1) = C(y, i) i / y
        else:
            c, y, rem = c // y, y - 1, rem // i  # P(y-1, i-1) = P(y, i) / y
            if crossed - i == 2:  # two records walked in a row
                scale = math.factorial(i - 1)
                c, rem, scaled = c // scale, rem // scale, False
    return tuple(out)


def _distinct_below(total: int, count: int, gen) -> list[int]:
    """`count` distinct uniform draws from range(total), in first-draw order."""
    drawn: dict[int, None] = {}
    while len(drawn) < count:
        drawn[rand_below(gen, total)] = None
    return list(drawn)


# -- packing families --------------------------------------------------------


@dataclass(frozen=True)
class PackingFamily:
    op: OpKind
    norm: str
    datasets: tuple[Dataset, ...]
    claimed_separation: float
    params: dict = field(default_factory=dict)
    cdf: Callable | None = None


def _mixed_radix_digits(values, d: int, base: int) -> np.ndarray:
    """Decode alphabet symbols into d base-`base` digits (axis 0 least significant).

    Pure-int arithmetic on an object array: cell ids may exceed 64 bits
    even though every digit is small.
    """
    rem = np.array(values, dtype=object)
    digits = np.empty((len(rem), d), dtype=np.int64)
    for j in range(d):
        digits[:, j] = rem % base
        rem //= base
    return digits


def _packing_members(
    n: int, copies: int, levels: int, grid: Callable, d: int, count: int, seed: int
) -> tuple[list[np.ndarray], int, int]:
    """The one packing construction: (member row matrices, m, pad).

    Each member is `copies` copies of a distinct multiset of m = n // copies
    symbols over the alphabet of levels**d grid points (a symbol's
    mixed-radix digits j become the coordinates grid(j)), padded with
    n - copies * m all-ones rows and sorted in the canonical record order:
    lexicographic from axis 0 outward.  Only the drawn digits are mapped,
    so no member costs memory in proportion to the grid.
    """
    m = n // copies
    if m < 1:
        raise InvalidParams(f"n too small: need n >= {copies} copies of one point")
    if count < 2:
        raise InvalidParams("a packing family needs at least 2 members")
    alphabet = levels**d
    total = multiset_count(m, alphabet)
    if count > total:
        raise FamilyTooLarge(
            f"requested {count} members but only {total} distinct multisets exist"
        )
    pad = n - copies * m
    members = []
    for r in _distinct_below(total, count, make_generator(seed)):
        ms = multiset_unrank(r, m, alphabet)
        points = grid(_mixed_radix_digits(ms, d, levels))
        rows = np.vstack([np.repeat(points, copies, axis=0), np.ones((pad, d))])
        members.append(rows[np.lexsort(rows.T[::-1])])
    return members, m, pad


def packing_linf(
    op: OpKind, n: int, d: int, eps: float, u: int, count: int, seed: int
) -> PackingFamily:
    """Family pairwise > eps apart in the worst-case distance.

    Members are multisets of floor(n/eb) grid points (grid {0, 1/u, .., 1}
    per predicate axis, eb = floor(eps)+1 copies of each, all-ones
    padding).  Two distinct members disagree on some point's multiplicity,
    and the query isolating that point changes the answer by at least eb.
    Range-sum members carry a constant 1.0 measure attribute, making their
    sums equal to the underlying counts.
    """
    require_in_range(BoundRequest(op, NORM_INF, LOWER, n, d, eps, u))
    eb = int(math.floor(eps)) + 1
    members, m, pad = _packing_members(
        n, eb, u + 1, lambda j: j / float(u), d, count, seed
    )
    if op is OpKind.RANGE_SUM:
        members = [np.hstack([rows, np.ones((n, 1))]) for rows in members]
    return PackingFamily(
        op=op,
        norm=LINF,
        datasets=tuple(map(make_dataset, members)),
        claimed_separation=float(eps),
        params={"eps_bar": eb, "u": u, "multiset_size": m, "pad": pad, "d": d},
    )


def packing_l1_index(n: int, eps: float, count: int, seed: int) -> PackingFamily:
    """Family pairwise > eps apart in the average-case rank distance.

    k = ceil(sqrt(n)) copies of each of floor(n/k) values from an
    equispaced grid of ceil(k/eps) points; distinct members differ in at
    least k sorted positions by at least one grid step, so their rank
    distance is at least k over (ceil(k/eps) - 1) > eps.
    """
    return _index_packing(n, eps, None, count, seed)


def packing_l1_ce(n: int, d: int, delta: float, count: int, seed: int) -> PackingFamily:
    """Family pairwise > delta apart in the average-case cardinality distance.

    Internally works at eps = delta * 4**d: k = ceil(sqrt(n)) + 1 copies
    of floor(n/k) grid points with all coordinates at most 1/2, plus
    all-ones padding.  Keeping the used corner away from 1 guarantees each
    extra axis keeps at least a 1/4 fraction of the isolating queries, so
    the d-dimensional distance is still > 2 * delta.
    """
    require_in_range(BoundRequest(OpKind.CARD_EST, NORM_L1, LOWER, n, d, delta))
    eps = delta * (4.0**d)
    k = math.ceil(math.sqrt(n)) + 1
    half = math.ceil(k / (2.0 * eps)) - 1
    u = 2 * half
    if u < 2:
        raise InvalidParams(
            f"grid collapses: derived resolution u = {u} < 2 "
            f"(delta * 4^d = {eps:g} is too close to sqrt(n))"
        )
    members, m, pad = _packing_members(
        n, k, half + 1, lambda j: j / float(u), d, count, seed
    )
    return PackingFamily(
        op=OpKind.CARD_EST,
        norm=L1,
        datasets=tuple(map(make_dataset, members)),
        claimed_separation=float(delta),
        params={
            "internal_eps": eps,
            "k": k,
            "u": u,
            "multiset_size": m,
            "pad": pad,
            "d": d,
        },
    )


def packing_mu_index(
    n: int, eps: float, cdf: Callable, count: int, seed: int
) -> PackingFamily:
    """Average-case rank packing, weighted by the measure with cdf `cdf`.

    Same block structure as the unweighted construction, but the grid is
    the equal-mass quantile grid of the measure, so consecutive grid
    values are exactly one mass unit apart and the weighted distance
    between distinct members exceeds eps.
    """
    return _index_packing(n, eps, cdf, count, seed)


def _index_packing(
    n: int, eps: float, cdf: Callable | None, count: int, seed: int
) -> PackingFamily:
    """Rank packing on the equispaced grid, or on cdf's quantile grid."""
    norm = NORM_L1 if cdf is None else NORM_MU
    require_in_range(BoundRequest(OpKind.INDEX, norm, LOWER, n, 1, eps))
    k = math.ceil(math.sqrt(n))
    levels = math.ceil(k / eps)
    if cdf is None:
        def grid(j):  # np.linspace(0.0, 1.0, levels)[j], bit for bit
            return np.where(j == levels - 1, 1.0, j * (1.0 / (levels - 1)))
    else:
        # bisection narrows every target alike, so a subset gets the same points
        def grid(j):
            return quantile_points(cdf, j / (levels - 1))
    members, m, pad = _packing_members(n, k, levels, grid, 1, count, seed)
    return PackingFamily(
        op=OpKind.INDEX,
        norm=L1 if cdf is None else MU,
        datasets=tuple(map(make_dataset, members)),
        claimed_separation=float(eps),
        params={"k": k, "grid_points": levels, "multiset_size": m, "pad": pad},
        cdf=cdf,
    )


# -- separation certificates -------------------------------------------------


@dataclass(frozen=True)
class SeparationCertificate:
    passed: bool
    pairs_checked: int
    pairs_total: int
    min_observed: float
    claimed: float
    method: str
    samples: int = 0
    confidence: float = 1.0


def _pair_indices(members: int, pairs: int, gen) -> list[tuple[int, int]]:
    total = members * (members - 1) // 2
    if pairs >= total:
        return [(i, j) for i in range(members) for j in range(i + 1, members)]
    out: list[tuple[int, int]] = []
    for flat in _distinct_below(total, pairs, gen):
        # row-major over the strict upper triangle, row i starts at i(2m - i - 1)/2
        disc = (2 * members - 1) ** 2 - 8 * flat
        s = math.isqrt(disc)
        i = (2 * members - 1 - s - (s * s != disc)) // 2
        out.append((i, flat - i * (2 * members - i - 1) // 2 + i + 1))
    return out


def certify(
    family: PackingFamily, pairs: int, seed: int, mc_samples: int = 50_000
) -> SeparationCertificate:
    """Check pairwise separation on up to `pairs` random distinct pairs.

    `norms.distance` measures each pair: exactly where it can, otherwise
    by a probe (worst case) or a Monte Carlo mean, taken here minus three
    standard errors (average case).  Both only under-report, so a passing
    certificate is sound either way.  `method` and `samples` are the ones
    `distance` reports for the checked pairs.  `passed` covers only the
    `pairs_checked` pairs drawn, out of the family's `pairs_total`
    (members * (members - 1) / 2); the pairs not drawn are not checked.
    """
    members = len(family.datasets)
    if members < 2:
        raise InvalidParams("need at least two members to certify")
    if pairs < 1:
        raise InvalidParams("pairs must be >= 1")
    if mc_samples < 0:
        raise InvalidParams("mc_samples must be >= 0")
    chosen = _pair_indices(members, pairs, make_generator(seed))
    worst = math.inf
    for t, (i, j) in enumerate(chosen):
        est = distance(
            family.datasets[i], family.datasets[j], family.op, family.norm,
            mc_samples, seed + t + 1, family.cdf,
        )
        worst = min(worst, est.value - 3.0 * est.std_error)
    return SeparationCertificate(
        passed=bool(worst > family.claimed_separation),
        pairs_checked=len(chosen),
        pairs_total=members * (members - 1) // 2,
        min_observed=float(worst),
        claimed=family.claimed_separation,
        method=est.method,
        samples=est.samples,
        confidence=0.99865 if est.method == "monte_carlo" else 1.0,
    )


# -- cover codec -------------------------------------------------------------


@dataclass(frozen=True)
class CoverCode:
    op: OpKind
    n: int
    d: int
    resolution: int
    index: int
    bit_length: int


def _code_space(n: int, alphabet: int) -> tuple[int, int]:
    """(count of n-multisets over the alphabet, bit width indexing them all)."""
    total = multiset_count(n, alphabet)
    return total, (total - 1).bit_length()


def _width_holds_count(n: int, alphabet: int, bits: int) -> bool:
    """False if `bits` surely cannot index every n-multiset; O(1) float work.

    The count is C(N, k), N = n + alphabet - 1 >= 2k, k = min(n, alphabet - 1),
    and (N/k)^k <= C(N, k) <= (eN/k)^k, so a width that passes this floor
    also bounds the exact big-integer work that follows.
    """
    k = min(n, alphabet - 1)
    if k < 1:
        return True
    floor_bits = k * (math.log2(n + alphabet - 1) - math.log2(k))
    return floor_bits * (1.0 - 1e-9) <= bits


def _quantile_digits(values: np.ndarray, resolution: int, cdf: Callable) -> np.ndarray:
    mass = np.asarray(cdf(values), dtype=np.float64)
    return np.clip(np.floor(mass * resolution).astype(np.int64), 0, resolution)


def cover_encode(
    dataset: Dataset, eps: float, op: OpKind, cdf: Callable | None = None
) -> CoverCode:
    """Quantize to the eps-cover grid and encode as one multiset index.

    The grid step is 1/ceil(n/eps) per axis (equal-mass quantile cells
    instead when a cdf is supplied, indexing only); records become cell
    ids, the id multiset becomes its colex rank.  Decoding returns the
    quantized dataset exactly, whose distance to the original is at most
    eps for indexing, (d+1) eps for cardinality, (d+2) eps for range-sum.
    """
    n, data_d = dataset.n, dataset.d
    # the upper-bound window does not depend on d; d = 1 leaves a mismatched
    # dataset to the dimension errors below
    require_in_range(BoundRequest(op, NORM_L1, UPPER, n, 1, eps))
    query_dims(op, data_d)  # index covers need 1 attribute, range-sum ones >= 2
    if cdf is not None and op is not OpKind.INDEX:
        raise InvalidRequest("quantile covers are defined for indexing only")
    u = ceil_ratio(n, eps)
    if cdf is None:
        digits = grid_digits(dataset.values, u)
    else:
        digits = _quantile_digits(dataset.values, u, cdf)
    base = u + 1
    # ascending cell id is lexicographic order, most significant axis first;
    # the ids themselves are built in Python ints, exact at any width
    digits = digits[np.lexsort(digits.T)]
    ids = digits[:, -1].astype(object)
    for j in range(data_d - 2, -1, -1):
        ids = ids * base + digits[:, j]
    ids = ids.tolist()
    alphabet = base**data_d
    index = multiset_rank(ids, alphabet)
    _, bits = _code_space(n, alphabet)
    if index >> bits:
        raise InvalidParams("internal: index exceeds its advertised bit length")
    return CoverCode(op=op, n=n, d=data_d, resolution=u, index=index, bit_length=bits)


def cover_decode(code: CoverCode, cdf: Callable | None = None) -> Dataset:
    """Rebuild the quantized dataset from a cover index.

    Records come back in ascending cell-id order (sorted ascending for
    indexing); pass the same cdf used at encode time for quantile covers.
    """
    base = code.resolution + 1
    alphabet = base**code.d
    if not _width_holds_count(code.n, alphabet, code.bit_length):
        raise IndexOutOfRange(
            f"bit_length {code.bit_length} cannot hold the code space of the header"
        )
    if cdf is not None and code.op is not OpKind.INDEX:
        raise InvalidRequest("quantile covers are defined for indexing only")
    ids = multiset_unrank(code.index, code.n, alphabet)
    coords = _mixed_radix_digits(ids, code.d, base)
    if cdf is None:
        values = coords / float(code.resolution)
    else:
        values = quantile_points(cdf, coords[:, 0] / float(code.resolution)).reshape(-1, 1)
    return make_dataset(values)


def cover_error_bound(op: OpKind, eps: float, data_d: int) -> float:
    """Guaranteed distance between a dataset and its decoded cover."""
    if op is OpKind.INDEX:
        return eps
    # (d+1) eps for cardinality, (d+2) eps for range-sum over its d = data_d - 1
    # predicate axes: both are (data_d + 1) eps
    return (data_d + 1) * eps


# -- container format --------------------------------------------------------


def write_cover(code: CoverCode, path: str) -> None:
    """Binary container: magic, version, op, n, d, resolution, payload.

    Integers little-endian; the index itself big-endian, zero-padded to
    ceil(bit_length/8) bytes.
    """
    payload = code.index.to_bytes((code.bit_length + 7) // 8, "big")
    header = _HEADER.pack(
        MAGIC, VERSION, _OP_BYTE[code.op], code.n, code.d, code.resolution, len(payload)
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)


def read_cover(path: str) -> CoverCode:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError("container truncated")
    magic, version, op_byte, n, d, u, plen = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError("bad magic")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if op_byte not in _BYTE_OP:
        raise FormatError(f"unknown operation byte {op_byte}")
    op = _BYTE_OP[op_byte]
    if len(blob) != _HEADER.size + plen:
        raise FormatError("payload length mismatch")
    if n < 1 or d < 1 or u < 1:
        raise FormatError("header fields out of range")
    alphabet = (u + 1) ** d
    if not _width_holds_count(n, alphabet, 8 * plen):
        raise FormatError("payload too short for the header's code space")
    total, bits = _code_space(n, alphabet)
    if plen != (bits + 7) // 8:
        raise FormatError("payload width inconsistent with header")
    index = int.from_bytes(blob[_HEADER.size :], "big")
    if index >= total:
        raise FormatError("index outside the code space")
    return CoverCode(op=op, n=n, d=d, resolution=u, index=index, bit_length=bits)


# -- pigeonhole witness ------------------------------------------------------


@dataclass(frozen=True)
class PigeonholeWitness:
    first: int
    second: int
    code: object
    err_first: DistanceEstimate
    err_second: DistanceEstimate

    @property
    def worst(self) -> float:
        return max(self.err_first.value, self.err_second.value)


def pigeonhole_witness(
    family: PackingFamily,
    sigma_bits: int,
    encoder: Callable[[Dataset], object],
    decoder_eval: Callable[[object], Callable],
    cfg: EvalConfig | None = None,
) -> PigeonholeWitness:
    """Find two family members an undersized encoder cannot separate.

    Needs strictly more members than 2**sigma_bits codes, which forces a
    collision; the shared decoded answer function is then measured against
    both members by `norms.model_error` in the family's norm (a mu family
    passes its cdf).  By the triangle inequality its error must exceed half
    the family's separation on at least one of them.

    `encoder` maps a dataset to a hashable code; `decoder_eval(code)`
    returns a prediction function over query batches.
    """
    members = len(family.datasets)
    if sigma_bits < 0:
        raise InvalidParams("sigma_bits must be non-negative")
    if members <= 2**sigma_bits:
        raise InvalidParams(
            f"pigeonhole needs more than 2^{sigma_bits} = {2**sigma_bits} members, "
            f"got {members}"
        )
    cfg = cfg or EvalConfig(samples=20_000, grid=16, seed=7)
    by_code: dict[object, int] = {}
    pair = None
    code = None
    for idx, ds in enumerate(family.datasets):
        c = encoder(ds)
        if c in by_code:
            pair = (by_code[c], idx)
            code = c
            break
        by_code[c] = idx
    if pair is None:
        raise NoCollision(
            "encoder produced distinct codes; its width must exceed sigma_bits"
        )
    predict = decoder_eval(code)
    err_a, err_b = (
        model_error(family.datasets[i], family.op, predict, family.norm, cfg, family.cdf)
        for i in pair
    )
    return PigeonholeWitness(
        first=pair[0], second=pair[1], code=code, err_first=err_a, err_second=err_b
    )
