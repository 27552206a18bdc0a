from __future__ import annotations

import math

import numpy as np
import pytest

from ldbounds.data import (
    Dataset,
    GmmParams,
    GridSpec,
    empty_dataset,
    grid_digits,
    load_csv,
    make_dataset,
    quantize,
    sample_gmm,
    sample_uniform,
    save_csv,
    sort_dataset_1d,
)
from ldbounds.errors import (
    DimensionMismatch,
    EntryOutOfRange,
    InvalidParams,
    RejectionStarvation,
)
from ldbounds.queryfn import RangeQuery, range_sum, rank


def test_make_dataset_shapes_and_flags():
    ds = make_dataset(np.array([0.1, 0.9, 0.5]))
    assert (ds.n, ds.d) == (3, 1)
    ds = make_dataset(np.array([[0.1], [0.5], [0.9]]))
    ds = make_dataset(np.array([[0.1, 0.2], [0.5, 0.4]]))
    assert (ds.n, ds.d) == (2, 2)


def test_make_dataset_rejects_out_of_range():
    with pytest.raises(EntryOutOfRange):
        make_dataset(np.array([0.5, 1.2]))
    with pytest.raises(EntryOutOfRange):
        make_dataset(np.array([-0.01]))
    with pytest.raises(EntryOutOfRange):
        make_dataset(np.array([np.nan]))


def test_dataset_values_are_immutable():
    ds = make_dataset(np.array([0.3, 0.7]))
    with pytest.raises(ValueError):
        ds.values[0, 0] = 0.0


def test_empty_dataset():
    ds = empty_dataset(2)
    assert (ds.n, ds.d) == (0, 2)


def test_sort_dataset_1d():
    ds = sort_dataset_1d(make_dataset(np.array([0.9, 0.1, 0.5])))
    assert np.array_equal(ds.column(0), [0.1, 0.5, 0.9])


def test_sorted_copy_is_read_only():
    ds = make_dataset([0.9, 0.1, 0.5])
    assert rank(ds, 0.2) == 1
    with pytest.raises(ValueError):
        ds.sorted_column[0] = 0.3
    assert np.array_equal(ds.sorted_column, [0.1, 0.5, 0.9])
    assert rank(ds, 0.2) == 1


def test_sample_uniform_deterministic():
    a = sample_uniform(100, 3, seed=7)
    b = sample_uniform(100, 3, seed=7)
    c = sample_uniform(100, 3, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values.min() >= 0.0 and a.values.max() <= 1.0


def test_gmm_params_validation():
    with pytest.raises(InvalidParams):
        GmmParams(components=((0.5, 0.5, 0.1),))  # weights must sum to 1
    with pytest.raises(InvalidParams):
        GmmParams(components=((1.0, 0.5, 0.0),))  # sigma must be positive
    with pytest.raises(InvalidParams):
        GmmParams(components=())


def test_sample_gmm_in_range_and_deterministic():
    params = GmmParams(components=((0.5, 0.25, 0.1), (0.5, 0.75, 0.1)))
    a = sample_gmm(500, 2, params, seed=3)
    b = sample_gmm(500, 2, params, seed=3)
    assert np.array_equal(a.values, b.values)
    assert a.values.min() >= 0.0 and a.values.max() <= 1.0
    # both modes should attract mass
    col = a.column(0)
    assert np.mean(col < 0.5) > 0.2 and np.mean(col > 0.5) > 0.2


def test_sample_gmm_starves_when_mass_outside():
    params = GmmParams(components=((1.0, 50.0, 0.001),))
    with pytest.raises(RejectionStarvation):
        sample_gmm(10, 1, params, seed=1)


def test_grid_digits_basic():
    x = np.array([0.0, 0.24, 0.25, 0.5, 0.99, 1.0])
    assert np.array_equal(grid_digits(x, 4), [0, 0, 1, 2, 3, 4])


def test_grid_digits_idempotent_on_own_grid():
    gen = np.random.default_rng(0)
    for u in (1, 3, 7, 10, 97, 1000):
        x = gen.random(500)
        digits = grid_digits(x, u)
        snapped = digits / u
        assert np.array_equal(grid_digits(snapped, u), digits), u


def test_grid_digits_boundary_floats():
    # j/u values must map to digit j even when u*x rounds below j
    for u in (3, 7, 49, 1000):
        j = np.arange(u + 1)
        assert np.array_equal(grid_digits(j / u, u), j), u


def test_quantize_roundtrip():
    ds = sample_uniform(200, 2, seed=5)
    q = quantize(ds, GridSpec(resolution=10))
    assert np.all(np.abs(q.values - ds.values) < 1.0 / 10)
    assert np.array_equal(quantize(q, GridSpec(resolution=10)).values, q.values)


def test_csv_roundtrip(tmp_path):
    ds = sample_uniform(50, 3, seed=9)
    path = str(tmp_path / "d.csv")
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.values, ds.values)


def test_csv_roundtrip_1d(tmp_path):
    ds = sort_dataset_1d(sample_uniform(20, 1, seed=2))
    path = str(tmp_path / "d.csv")
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.values, ds.values)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_save_csv_bytes_match_savetxt(tmp_path, d):
    special = [0.0, 1.0, 1 / 3, 5e-324, 1 - 2.0**-53]
    rows = np.resize(np.array(special), (len(special) * 2, d))
    cases = [
        make_dataset(rows),
        make_dataset(np.vstack([rows, sample_uniform(40, d, seed=d).values])),
        empty_dataset(d),
    ]
    for ds in cases:
        ours, oracle = str(tmp_path / "ours.csv"), str(tmp_path / "oracle.csv")
        save_csv(ds, ours)
        np.savetxt(oracle, ds.values, fmt="%.17g", delimiter=",")
        with open(ours, "rb") as a, open(oracle, "rb") as b:
            assert a.read() == b.read()


def test_unit_interval_mass_matches_quadrature():
    params = GmmParams(components=((0.7, 0.3, 0.2), (0.3, 0.9, 0.05)))
    xs = np.linspace(0.0, 1.0, 200_001)
    pdf = np.zeros_like(xs)
    for w, mu, sigma in params.components:
        pdf += w * np.exp(-0.5 * ((xs - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    numeric = np.trapezoid(pdf, xs)
    assert params.unit_interval_mass() == pytest.approx(numeric, rel=1e-6)


def test_a_wrong_data_width_is_one_error_type():
    # sort_dataset_1d and the scalar range_sum check widths through query_dims
    two = make_dataset(np.array([[0.1, 0.2], [0.5, 0.4]]))
    with pytest.raises(DimensionMismatch, match="rank data needs 1 attribute, got 2"):
        sort_dataset_1d(two)
    one = make_dataset(np.array([0.5]))
    with pytest.raises(DimensionMismatch, match="range-sum data needs >= 2 attributes"):
        range_sum(one, RangeQuery(c=[0.0], r=[1.0]))
