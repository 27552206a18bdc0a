"""Release gate: one test per shipped guarantee, each printing a PASS line
with its runtime so a log scan shows every criterion explicitly.

Numbered criteria:
  1 frozen bound values       2 closed-form vs oracle     3 inequality suite
  4 packing certificates      5 cover codec               6 pigeonhole demos
  7 error-floor inversion     8 model layer               9 experiment pipeline
"""

from __future__ import annotations

import math
import time

import numpy as np

import ldbounds.bounds as bnd
from conftest import random_dataset, random_sorted
from ldbounds.bounds import covering_count_log2
from ldbounds.constructions import (
    PackingFamily,
    certify,
    cover_decode,
    cover_encode,
    cover_error_bound,
    packing_l1_ce,
    packing_l1_index,
    packing_linf,
    packing_mu_index,
    pigeonhole_witness,
)
from ldbounds.data import GridSpec, make_dataset, quantize, sort_dataset_1d
from ldbounds.harness import emit_csv, parse_config, run_experiment
from ldbounds.models import (
    ModelSpec,
    TrainConfig,
    grad_check,
    init_model,
    input_dim_for,
    nn_s1,
    nn_s2,
    param_count,
    predict,
    train,
)
from ldbounds.norms import (
    card1d_l1,
    mc_l1,
    mc_mu,
    rank_l1,
    rank_l1_oracle,
    rank_linf,
)
from ldbounds.queryfn import OpKind, eval_batch
from ldbounds.rng import make_generator
from oracles import range_queries, sample_easy_queries


class Budget:
    """Context manager asserting wall-clock stays under the stated cap."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.1f}s, budget {self.seconds:.0f}s"
            )
            print(f"criterion {self.name}: PASS ({elapsed:.2f}s)", flush=True)
        return False


def test_criterion_1_frozen_bound_values():
    with Budget("1 frozen bound values", 1.0):
        cases = [
            (
                bnd.BoundRequest(OpKind.INDEX, bnd.NORM_INF, bnd.LOWER, 100, 1, 1.0, 1000),
                165.13987701289584,
            ),
            (
                bnd.BoundRequest(OpKind.INDEX, bnd.NORM_L1, bnd.LOWER, 10_000, 1, 1.0),
                56.380608407368813,
            ),
            (
                bnd.BoundRequest(OpKind.CARD_EST, bnd.NORM_L1, bnd.LOWER, 10_000, 2, 1.0),
                2.023371734474162,
            ),
            (
                bnd.BoundRequest(OpKind.INDEX, bnd.NORM_L1, bnd.UPPER, 100, 1, 1.0),
                244.98905422931673,
            ),
        ]
        for req, frozen in cases:
            res = (
                bnd.lower_bound_bits(req)
                if req.side == bnd.LOWER
                else bnd.upper_bound_bits(req)
            )
            assert abs(res.bits - frozen) <= 1e-9 * abs(frozen), (req, res.bits)


def test_criterion_2_closed_form_vs_oracle():
    with Budget("2 closed-form vs oracle", 30.0):
        gen = make_generator(20_001)
        for trial in range(1000):
            n = int(gen.integers(1, 65))
            a = random_sorted(n, seed=30_000 + trial)
            b = random_sorted(n, seed=60_000 + trial)
            fast, slow = rank_l1(a, b), rank_l1_oracle(a, b)
            assert abs(fast - slow) <= 1e-12 * max(1.0, slow), trial
        for trial in range(100):
            n = int(gen.integers(2, 40))
            a = random_dataset(n, 1, seed=90_000 + trial)
            b = random_dataset(n, 1, seed=91_000 + trial)
            exact = card1d_l1(a, b)
            est = mc_l1(a, b, OpKind.CARD_EST, 100_000, seed=trial)
            assert abs(est.value - exact) <= 3.0 * est.std_error + 1e-9, trial


def test_criterion_3_inequality_suite():
    with Budget("3 inequality suite", 60.0):
        gen = make_generator(333)
        # range discretization: per-entry shifts of eps/n cost at most 2 eps
        for trial in range(200):
            n = int(gen.integers(1, 30))
            eps = float(gen.uniform(0.1, 4.0))
            base = gen.random(n)
            shift = gen.uniform(-eps / n, eps / n, size=n)
            a = make_dataset(np.clip(base, 0.0, 1.0))
            b = make_dataset(np.clip(base + shift, 0.0, 1.0))
            assert card1d_l1(a, b) <= 2.0 * eps + 1e-9, trial
        # masked subsets differ by at most half the mask disagreement
        from ldbounds.data import empty_dataset

        for trial in range(200):
            n = int(gen.integers(2, 30))
            base = gen.random(n)
            m1 = gen.integers(0, 2, size=n).astype(bool)
            m2 = gen.integers(0, 2, size=n).astype(bool)
            t = int(np.sum(m1 != m2))
            a = make_dataset(base[m1]) if m1.any() else empty_dataset(1)
            b = make_dataset(base[m2]) if m2.any() else empty_dataset(1)
            assert card1d_l1(a, b) <= 0.5 * t + 1e-9, trial
        # dropping t records moves the cardinality function by at most t/2
        for trial in range(200):
            n = int(gen.integers(2, 30))
            base = gen.random(n)
            keep = gen.integers(0, 2, size=n).astype(bool)
            t = int(n - keep.sum())
            full = make_dataset(base)
            sub = make_dataset(base[keep]) if keep.any() else empty_dataset(1)
            assert card1d_l1(full, sub) <= 0.5 * t + 1e-9, trial
        # range-sum: shifting the summed attribute by eps/n costs at most eps
        for trial in range(200):
            n = int(gen.integers(2, 20))
            eps = float(gen.uniform(0.2, 2.0))
            vals = gen.random((n, 2))
            pert = vals.copy()
            pert[:, 1] = np.clip(
                pert[:, 1] + gen.uniform(-eps / n, eps / n, size=n), 0.0, 1.0
            )
            est = mc_l1(
                make_dataset(vals), make_dataset(pert), OpKind.RANGE_SUM, 20_000,
                seed=trial,
            )
            assert est.value <= eps + 3.0 * est.std_error, trial
        # concentrated query distribution blinds every pair of datasets
        for trial in range(200):
            n = int(gen.integers(2, 15))
            k = int(gen.integers(2, 8))
            a = random_dataset(n, 1, seed=96_000 + trial)
            b = random_dataset(n, 1, seed=97_000 + trial)

            def sampler(count, g, n=n, k=k):
                return sample_easy_queries(n, k, count, g)

            est = mc_mu(a, b, OpKind.CARD_EST, sampler, 30_000, seed=trial)
            assert est.value <= 4.0 / k + 3.0 * est.std_error, (trial, n, k)


def test_criterion_4_packing_certificates():
    with Budget("4 packing certificates", 120.0):
        fam = packing_linf(OpKind.INDEX, 10, 1, 1.0, 4, 20, seed=41)
        cert = certify(fam, pairs=50, seed=42)
        assert cert.passed and cert.method == "exact", "worst-case family"

        fam = packing_l1_index(100, 0.5, 20, seed=43)
        cert = certify(fam, pairs=50, seed=44)
        assert cert.passed and cert.method == "exact", "average-case rank family"

        fam = packing_l1_ce(100, 1, 0.05, 20, seed=45)
        cert = certify(fam, pairs=50, seed=46)
        assert cert.passed and cert.method == "exact", "1-attribute range family"

        fam = packing_mu_index(100, 0.5, np.square, 20, seed=47)
        cert = certify(fam, pairs=50, seed=48)
        assert cert.passed and cert.method == "exact", "weighted rank family"

        fam = packing_l1_ce(100, 2, 0.05, 8, seed=49)
        cert = certify(fam, pairs=28, seed=50, mc_samples=40_000)
        assert cert.passed and cert.method == "monte_carlo", "2-attribute family"
        assert cert.confidence > 0.99


def test_criterion_5_cover_codec():
    with Budget("5 cover codec", 120.0):
        gen = make_generator(555)
        shapes = [
            (OpKind.INDEX, 1),
            (OpKind.CARD_EST, 1),
            (OpKind.CARD_EST, 2),
            (OpKind.RANGE_SUM, 2),
            (OpKind.RANGE_SUM, 3),
        ]
        eps_choices = (0.5, 1.0, 2.0, 3.0)
        for trial in range(1000):
            op, d = shapes[trial % len(shapes)]
            n = int(gen.integers(4, 29))
            eps = eps_choices[trial % len(eps_choices)]
            ds = random_dataset(n, d, seed=50_000 + trial)
            code = cover_encode(ds, eps, op)
            dec = cover_decode(code)
            q = quantize(ds, GridSpec(resolution=code.resolution))
            got = np.array(sorted(map(tuple, dec.values)))
            want = np.array(sorted(map(tuple, q.values)))
            assert np.array_equal(got, want), (trial, op, d)
            count_d = {OpKind.INDEX: 1, OpKind.CARD_EST: d, OpKind.RANGE_SUM: d - 1}[op]
            assert code.bit_length == math.ceil(
                covering_count_log2(op, n, count_d, eps)
            ), (trial, op, d)

        # guarantees: exact distances for 1-attribute data, sampled above
        for trial in range(200):
            n = int(gen.integers(3, 24))
            eps = eps_choices[trial % 4] / 2.0
            ds = random_sorted(n, seed=70_000 + trial)
            code = cover_encode(ds, eps, OpKind.INDEX)
            dec = cover_decode(code)
            assert rank_l1(ds, dec) <= cover_error_bound(OpKind.INDEX, eps, 1) + 1e-12

        for trial in range(200):
            n = int(gen.integers(3, 24))
            eps = eps_choices[trial % 4] / 2.0
            d = 1 if trial < 120 else (2 if trial < 160 else 3)
            ds = random_dataset(n, d, seed=72_000 + trial)
            code = cover_encode(ds, eps, OpKind.CARD_EST)
            dec = cover_decode(code)
            bound = cover_error_bound(OpKind.CARD_EST, eps, d)
            if d == 1:
                assert card1d_l1(ds, dec) <= bound + 1e-12, trial
            else:
                est = mc_l1(ds, dec, OpKind.CARD_EST, 20_000, seed=trial)
                assert est.value <= bound + 3.0 * est.std_error, trial

        for trial in range(200):
            n = int(gen.integers(3, 24))
            eps = eps_choices[trial % 4] / 2.0
            d = 2 if trial < 100 else 3
            ds = random_dataset(n, d, seed=74_000 + trial)
            code = cover_encode(ds, eps, OpKind.RANGE_SUM)
            dec = cover_decode(code)
            bound = cover_error_bound(OpKind.RANGE_SUM, eps, d)
            est = mc_l1(ds, dec, OpKind.RANGE_SUM, 20_000, seed=trial)
            assert est.value <= bound + 3.0 * est.std_error, trial


def test_criterion_6_pigeonhole_demos():
    with Budget("6 pigeonhole demos", 10.0):
        # 2-bit truncation of the cover index collides on a 5-member family
        fam = packing_l1_index(100, 0.5, 5, seed=61)
        assert certify(fam, pairs=10, seed=62).passed

        def encoder(ds):
            return cover_encode(ds, 0.5, OpKind.INDEX).index & 0b11

        def decoder_eval(code):
            return lambda qs: np.full(len(np.atleast_1d(qs)), 50.0)

        wit = pigeonhole_witness(fam, 2, encoder, decoder_eval)
        assert wit.first != wit.second
        assert wit.worst > fam.claimed_separation / 2.0

        # constant-dataset ladder: 2 bits cannot tell 5 levels apart, and the
        # shared answer is off by more than n/2 in the worst-case norm
        n, k = 10, 4
        levels = [i / k for i in range(k + 1)]
        ladder = PackingFamily(
            op=OpKind.INDEX,
            norm="linf",
            datasets=tuple(make_dataset(np.full((n, 1), v)) for v in levels),
            claimed_separation=float(n),
        )
        for i, a in enumerate(ladder.datasets):
            for b in ladder.datasets[i + 1 :]:
                assert rank_linf(a, b) == float(n)

        def level_encoder(ds):
            return int(round(float(ds.values[0, 0]) * k)) & 0b11

        def level_decoder(code):
            member = make_dataset(np.full((n, 1), code / k))
            return lambda qs: eval_batch(member, OpKind.INDEX, np.atleast_1d(qs))

        wit = pigeonhole_witness(ladder, 2, level_encoder, level_decoder)
        assert {wit.first, wit.second} == {0, k}
        assert wit.worst > n / 2.0


def test_criterion_7_error_floor_inversion():
    with Budget("7 error-floor inversion", 5.0):
        ns = [64, 256, 1024, 4096, 16384]
        for n in ns:
            # stay below what the formula can demand above the numeric floor
            ceiling = bnd.lower_bound_bits(
                bnd.BoundRequest(OpKind.INDEX, bnd.NORM_L1, bnd.LOWER, n, 1, 1e-12)
            ).bits
            sigmas = list(np.geomspace(1.0, 0.5 * ceiling, 10))
            prev = None
            for sigma in sigmas:
                res = bnd.eps_star(sigma, OpKind.INDEX, bnd.NORM_L1, n, 1)
                assert res.flag == bnd.INTERIOR, (n, sigma)
                req = bnd.BoundRequest(
                    OpKind.INDEX, bnd.NORM_L1, bnd.LOWER, n, 1, res.eps
                )
                back = bnd.lower_bound_bits(req).bits
                assert abs(back - sigma) <= 1e-6 * sigma, (n, sigma, back)
                if prev is not None:
                    assert res.eps <= prev  # more bits, lower floor
                prev = res.eps
        for sigma in np.geomspace(1.0, 500.0, 10):
            small = bnd.eps_star(sigma, OpKind.INDEX, bnd.NORM_L1, 256, 1).eps
            large = bnd.eps_star(sigma, OpKind.INDEX, bnd.NORM_L1, 4096, 1).eps
            assert large >= small  # harder problem, higher floor
        # interval ends
        res = bnd.eps_star(1e9, OpKind.INDEX, bnd.NORM_INF, 1000, 1, u=2**32)
        assert res.flag == bnd.CLAMPED_LOW and res.eps == 1.0
        res = bnd.eps_star(1.0, OpKind.INDEX, bnd.NORM_INF, 1000, 1, u=2**32)
        assert res.flag == bnd.CLAMPED_HIGH
        res = bnd.eps_star(1e9, OpKind.INDEX, bnd.NORM_L1, 1000, 1)
        assert res.flag == bnd.CLAMPED_LOW
        res = bnd.eps_star(64.0, OpKind.CARD_EST, bnd.NORM_MU, 1000, 2)
        assert res.flag == bnd.NO_BOUND and res.eps == 0.0


def test_criterion_8_model_layer():
    with Budget("8 model layer", 60.0):
        assert param_count(nn_s1(1)) == 10
        gen = make_generator(888)
        worst = 0.0
        checked = 0
        trial = 0
        while checked < 100:
            kind = trial % 4
            if kind == 0:
                spec, op, dq = ModelSpec(kind="linear", input_dim=1), OpKind.INDEX, 0
            elif kind == 1:
                spec, op, dq = nn_s1(1), OpKind.INDEX, 0
            elif kind == 2:
                spec, op, dq = nn_s2(4), OpKind.CARD_EST, 2
            else:
                spec, op, dq = nn_s1(4), OpKind.RANGE_SUM, 2
            model = init_model(spec, seed=800 + trial)
            batch = gen.random(8) if dq == 0 else range_queries(8, dq, gen)
            target = gen.random(8)
            err, skipped = grad_check(model, op, batch, target)
            trial += 1
            if skipped:
                continue
            worst = max(worst, err)
            checked += 1
        assert worst < 1e-4, worst

        for op, d in (
            (OpKind.INDEX, 1),
            (OpKind.CARD_EST, 2),
            (OpKind.RANGE_SUM, 2),
        ):
            n = 80
            ds = (
                random_sorted(n, seed=81)
                if op is OpKind.INDEX
                else random_dataset(n, d, seed=81)
            )
            spec = ModelSpec(kind="sample", input_dim=input_dim_for(op, d), m=n)
            model = train(
                init_model(spec, 82), ds, op,
                TrainConfig(steps=0, batch=1, lr=0.0, momentum=0.0, seed=82),
            )
            qgen = make_generator(83)
            if op is OpKind.INDEX:
                batch = qgen.random(1000)
            else:
                batch = range_queries(1000, d if op is OpKind.CARD_EST else d - 1, qgen)
            assert np.array_equal(
                predict(model, op, batch), eval_batch(ds, op, batch)
            ), op


EXPERIMENT_CONFIG = {
    "ops": ["index", "ce"],
    "norms": ["l1", "linf"],
    "distributions": [
        {"kind": "uniform"},
        {"kind": "gmm", "name": "gmm2",
         "components": [[0.25, 0.05, 0.5], [0.75, 0.1, 0.5]]},
    ],
    "n_values": [1000, 10_000],
    "d": 1,
    "models": ["linear", "nn-s1", "sample"],
    "train": {"steps": 1000, "batch": 64, "lr": 0.05, "momentum": 0.9},
    "eval": {"samples": 2048, "grid": 4},
    "master_seed": 99,
}


def test_criterion_9_experiment_pipeline(tmp_path):
    with Budget("9 experiment pipeline", 300.0):
        config = parse_config(EXPERIMENT_CONFIG)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.failures == () and second.failures == ()
        # 2 ops x 2 dists x 2 n x 3 models x 2 norms
        assert len(first.rows) == 48

        p1, p2 = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
        emit_csv(first.rows, p1)
        emit_csv(second.rows, p2)
        b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
        assert b1 == b2, "repeat run must be byte-identical"

        lines = b1.decode().strip().split("\n")
        assert lines[0] == (
            "op,norm,distribution,n,d,model_id,model_bits,"
            "observed_err,eps_star,seed,exact"
        )
        assert len(lines) == 49
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 11
            float(fields[7]), float(fields[8])  # parse check
            assert fields[10] in ("true", "false")

        series = {}
        for r in first.rows:
            series.setdefault((r.op, r.norm, r.distribution, r.model_id), {})[
                r.n
            ] = r.eps_star
        for key, by_n in series.items():
            assert by_n[10_000] >= by_n[1000], key
