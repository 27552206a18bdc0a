"""Datasets on the unit cube: containers, samplers, quantization, CSV I/O.

A dataset is an immutable n-by-d matrix with every entry in [0, 1].
Multiplicity matters throughout the package (datasets are multisets of
records), so nothing here deduplicates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EntryOutOfRange, FormatError, InvalidParams, RejectionStarvation, ShapeMismatch
from .rng import make_generator


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable record matrix, shape (n, d), entries in [0, 1].

    Datasets compare and hash by identity.  Records may come in any order:
    `sorted_column`, column 0 sorted ascending on first use, is the one sort
    that every single-attribute (rank) route reads.
    """

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]

    # query structures, built on first use (the values are read-only)

    @cached_property
    def sorted_column(self) -> np.ndarray:
        col = np.sort(self.values[:, 0])
        col.setflags(write=False)  # read-only like `values`: a write would change ranks
        return col

    @cached_property
    def rank_lookup(self):
        from .queryfn import SortedLookup  # queryfn imports this module

        return SortedLookup(self.sorted_column)

    @cached_property
    def count_index(self):
        from .queryfn import BoxSum

        return BoxSum(self.values, np.ones(self.n))

    @cached_property
    def sum_index(self):
        from .queryfn import BoxSum

        return BoxSum(self.values[:, :-1], self.values[:, -1])


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid {0, 1/resolution, ..., 1} on each axis."""

    resolution: int

    def __post_init__(self) -> None:
        if self.resolution < 1:
            raise InvalidParams("grid resolution must be >= 1")


@dataclass(frozen=True)
class GmmParams:
    """Gaussian mixture restricted to [0, 1] by rejection.

    One component list, applied independently per dimension.  Weights must
    be positive and sum to 1.
    """

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise InvalidParams("mixture needs at least one component")
        total = 0.0
        for w, _mean, sigma in self.components:
            if w <= 0.0:
                raise InvalidParams("component weights must be positive")
            if sigma <= 0.0:
                raise InvalidParams("component sigmas must be positive")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise InvalidParams(f"component weights sum to {total}, expected 1")

    def unit_interval_mass(self) -> float:
        """Probability that one mixture draw lands inside [0, 1]."""
        mass = 0.0
        for w, mean, sigma in self.components:
            hi = 0.5 * (1.0 + math.erf((1.0 - mean) / (sigma * math.sqrt(2.0))))
            lo = 0.5 * (1.0 + math.erf((0.0 - mean) / (sigma * math.sqrt(2.0))))
            mass += w * (hi - lo)
        return mass


def make_dataset(matrix: np.ndarray | list) -> Dataset:
    """Validate a matrix into a Dataset.  Entries must lie in [0, 1]."""
    values = np.asarray(matrix, dtype=np.float64)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise ShapeMismatch(f"expected a non-empty 2-d matrix, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise EntryOutOfRange("entries must be finite")
    if values.min() < 0.0 or values.max() > 1.0:
        raise EntryOutOfRange("entries must lie in [0, 1]")
    values = values.copy()
    values.setflags(write=False)
    return Dataset(values=values)


def empty_dataset(d: int) -> Dataset:
    """Zero-record dataset; legal input to the cardinality distances."""
    if d < 1:
        raise ShapeMismatch("d must be >= 1")
    values = np.empty((0, d), dtype=np.float64)
    values.setflags(write=False)
    return Dataset(values=values)


def sample_uniform(n: int, d: int, seed: int) -> Dataset:
    if n < 1 or d < 1:
        raise InvalidParams("n and d must be >= 1")
    gen = make_generator(seed)
    return make_dataset(gen.random((n, d)))


def sample_gmm(n: int, d: int, params: GmmParams, seed: int) -> Dataset:
    """Mixture-of-Gaussians records, rejected into [0, 1] per coordinate.

    The acceptance probability is computed in closed form up front; below
    1e-6 the sampler refuses to run rather than loop without progress.
    """
    if n < 1 or d < 1:
        raise InvalidParams("n and d must be >= 1")
    accept = params.unit_interval_mass()
    if accept < 1e-6:
        raise RejectionStarvation(
            f"mixture mass inside [0, 1] is {accept:.3e}; refusing to sample"
        )
    gen = make_generator(seed)
    weights = np.array([w for w, _m, _s in params.components])
    means = np.array([m for _w, m, _s in params.components])
    sigmas = np.array([s for _w, _m, s in params.components])
    needed = n * d
    out = np.empty(needed, dtype=np.float64)
    filled = 0
    while filled < needed:
        batch = max(1024, int((needed - filled) / accept * 1.2))
        comp = gen.choice(len(weights), size=batch, p=weights)
        draws = gen.normal(means[comp], sigmas[comp])
        kept = draws[(draws >= 0.0) & (draws <= 1.0)]
        take = min(kept.size, needed - filled)
        out[filled : filled + take] = kept[:take]
        filled += take
    return make_dataset(out.reshape(n, d))


def sort_dataset_1d(dataset: Dataset) -> Dataset:
    """A single-attribute dataset's records in ascending order."""
    from .queryfn import OpKind, query_dims  # queryfn imports this module

    query_dims(OpKind.INDEX, dataset.d)
    return Dataset(values=dataset.sorted_column.reshape(-1, 1))


def grid_digits(values: np.ndarray, resolution: int) -> np.ndarray:
    """Floor-quantizer digit max{j : j/resolution <= x} per entry.

    floor(resolution * x) alone can be off by one at grid boundaries
    because resolution * (j/resolution) may round below j; the correction
    passes compare against j/resolution in the same float system, which
    makes the digit map idempotent on its own output grid.
    """
    u = resolution
    x = np.asarray(values, dtype=np.float64)
    digits = np.floor(u * x).astype(np.int64)
    np.clip(digits, 0, u, out=digits)
    for _ in range(2):
        bump = (digits + 1 <= u) & ((digits + 1) / u <= x)
        if not bump.any():
            break
        digits[bump] += 1
    for _ in range(2):
        drop = (digits >= 1) & (digits / u > x)
        if not drop.any():
            break
        digits[drop] -= 1
    return digits


def quantize(dataset: Dataset, grid: GridSpec) -> Dataset:
    """Snap every entry down to the nearest grid multiple j/resolution.

    Entries equal to 1.0 stay 1.0.  Per-entry error is < 1/resolution.
    """
    digits = grid_digits(dataset.values, grid.resolution)
    return make_dataset(digits / grid.resolution)


def save_csv(dataset: Dataset, path: str) -> None:
    """One record per line, comma-separated %.17g decimals, no header.

    The bytes of np.savetxt(fmt="%.17g", delimiter=","), from one format
    string over every row and one write.
    """
    n, d = dataset.values.shape
    line = ",".join(["%.17g"] * d) + "\n"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write((line * n) % tuple(dataset.values.ravel().tolist()))


def load_csv(path: str) -> Dataset:
    """A CSV of numbers only; anything else there (a header, ragged rows, a
    non-number, undecodable bytes) raises FormatError, a missing file OSError.
    """
    try:
        with warnings.catch_warnings():  # an empty file: make_dataset refuses it
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return make_dataset(values)
