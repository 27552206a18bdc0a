"""Test-only query distributions and oracles, shared by the test modules.

The package draws only uniform queries (`queryfn.uniform_block`); the
concentrated single-attribute distribution here feeds the tests of the
distribution-weighted distance and its bound.
"""

from __future__ import annotations

import numpy as np

from ldbounds.errors import InvalidParams
from ldbounds.queryfn import OpKind, uniform_block


def range_queries(
    count: int, dq: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """`count` uniform range queries over `dq` predicate axes (see uniform_block)."""
    return uniform_block(OpKind.CARD_EST, dq, 1, count, gen)


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
