import numpy as np
import pytest

import mixedcorr as mc
from mixedcorr import estimator, simulation
from mixedcorr.errors import (
    AllReplicationsFailed,
    EmptyCategory,
    NotPositiveDefinite,
    UnknownPair,
)

import oracles
from conftest import design1, design2


def _sparse_design():
    # at n=40 the top category (P = 0.029) is often unobserved
    return mc.SimDesign(
        continuous=("Y1",),
        ordinal=(("X1", [-0.3, 1.9]),),
        r_true=np.array([[1.0, 0.4], [0.4, 1.0]]),
        n=40,
        replications=12,
        seed=5,
    )


def _binary_dataset(counts):
    rows = []
    for k in (1, 2):
        for l in (1, 2):
            rows += [[k, l]] * counts[k - 1][l - 1]
    specs = [mc.VariableSpec("X1", categories=2), mc.VariableSpec("X2", categories=2)]
    return mc.ingest(np.asarray(rows, dtype=float), specs)


class TestGenerate:
    def test_deterministic_in_seed_and_replication(self):
        d = design1(n=200, replications=3, seed=99)
        a = mc.generate(d, 1)
        b = mc.generate(d, 1)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)
        c = mc.generate(d, 2)
        assert not np.array_equal(a.x, c.x)

    def test_binary_margins_even(self):
        data = mc.generate(design1(n=5000, replications=2, seed=12), 0)
        for j in range(2):
            share = np.mean(data.x[:, j] == 1)
            assert abs(share - 0.5) < 0.03

    def test_independence_design(self):
        design = mc.SimDesign(
            continuous=("Y1", "Y2"),
            ordinal=(("X1", [0.0]),),
            r_true=np.eye(3),
            n=4000,
            replications=2,
            seed=5,
        )
        data = mc.generate(design, 0)
        corr = np.corrcoef(
            np.column_stack([data.y, data.x.astype(float)]), rowvar=False
        )
        off = corr[np.triu_indices(3, 1)]
        assert np.max(np.abs(off)) < 4 / np.sqrt(4000) * 1.5

    def test_not_positive_definite(self):
        r = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        design = mc.SimDesign(
            continuous=("Y1", "Y2"),
            ordinal=(("X1", [0.0]),),
            r_true=r,
            n=100,
            replications=2,
            seed=5,
        )
        with pytest.raises(NotPositiveDefinite):
            mc.generate(design, 0)

    def test_a_replication_does_not_depend_on_its_stack(self):
        # a stack that starts mid-study: each replication's draw and
        # dataset, or its error, are those it gets alone
        design = _sparse_design()
        reps = range(5, design.replications)
        draws = simulation._draw(design, reps)
        for rep, draw, data in zip(reps, draws, simulation._generate_batch(design, reps)):
            assert np.array_equal(draw, simulation._draw(design, [rep])[0])
            try:
                alone = mc.generate(design, rep)
            except EmptyCategory as exc:
                assert isinstance(data, EmptyCategory) and str(data) == str(exc)
                continue
            assert np.array_equal(data.y, alone.y) and np.array_equal(data.x, alone.x)
            assert np.array_equal(data.counts, alone.counts)

    def test_continuous_block_used_as_drawn(self):
        data = mc.generate(design1(n=300, replications=2, seed=31), 0)
        assert not data.standardized
        assert abs(data.y[:, 0].mean()) > 1e-8  # raw draws, not recentred


class TestRunStudy:
    def test_smoke_two_replications(self):
        report = mc.run_study(design1(n=150, replications=2, seed=7), workers=1)
        k = 6
        assert report.mean.shape == (k,)
        assert report.covr.shape == (k, k)
        assert report.mcov.shape == (k, k)
        assert report.failures == 0
        assert report.n_used == 2
        assert len(report.labels) == k

    def test_aggregation_identity(self):
        report = mc.run_study(
            design1(n=150, replications=6, seed=8), workers=1, keep_estimates=True
        )
        series = report.estimates
        assert np.allclose(series.mean(axis=0), report.mean, atol=1e-12)
        assert np.allclose(np.cov(series, rowvar=False, ddof=1), report.covr, atol=1e-12)

    def test_parallel_matches_serial(self):
        d = design1(n=150, replications=8, seed=9)
        serial = mc.run_study(d, workers=1)
        parallel = mc.run_study(d, workers=2)
        assert np.array_equal(serial.mean, parallel.mean)
        assert np.array_equal(serial.covr, parallel.covr)
        assert np.array_equal(serial.mcov, parallel.mcov)
        assert serial.failures == parallel.failures

    def test_covr_shrinks_with_n(self):
        small = mc.run_study(design1(n=100, replications=150, seed=10), workers=1)
        big = mc.run_study(design1(n=500, replications=150, seed=10), workers=1)
        ratio = np.diag(small.covr).mean() / np.diag(big.covr).mean()
        assert 3.5 < ratio < 7.0

    def test_all_failed(self, monkeypatch):
        # a one-iteration solve converges on no replication
        monkeypatch.setattr(estimator, "MAX_ITER", 1)
        bad = design1(n=150, replications=2, seed=11)
        with pytest.raises(AllReplicationsFailed):
            mc.run_study(bad, workers=1)

    def test_empty_category_replications_counted(self):
        design = _sparse_design()
        empty = 0
        for rep in range(design.replications):
            try:
                mc.generate(design, rep)
            except EmptyCategory:
                empty += 1
        report = mc.run_study(design, workers=1)
        assert 0 < empty < design.replications
        assert report.failures == empty
        assert report.n_used == design.replications - empty
        assert report.failure_kinds == (("EmptyCategory", empty),)

    def test_a_failed_replication_leaves_its_batch_alone(self):
        # in one batch of the 12 replications, each EmptyCategory is counted
        # against its own replication, and every other replication gets the
        # fit it gets alone, bit for bit
        design = _sparse_design()
        system = mc.build_system(design.specs, design.fit.system_mode)
        block = simulation._run_block(design, 0, design.replications)
        assert sorted(rep for rep, *_ in block) == list(range(design.replications))
        failed = 0
        for rep, r_hat, var_r, kind in block:
            try:
                data = mc.generate(design, rep)
            except EmptyCategory:
                assert (r_hat, var_r, kind) == (None, None, "EmptyCategory")
                failed += 1
                continue
            res = mc.fit(data, system, design.fit)
            assert kind is None
            assert np.array_equal(r_hat, res.r_hat.values) and np.array_equal(var_r, res.var_r)
        assert 0 < failed < design.replications

    def test_programming_error_propagates(self, monkeypatch):
        def broken_fit(datasets, system, cfg):
            raise TypeError("broken")

        monkeypatch.setattr(simulation, "fit_batch", broken_fit)
        with pytest.raises(TypeError, match="broken"):
            mc.run_study(design1(n=150, replications=2, seed=7), workers=1)

    def test_reports_do_not_depend_on_the_worker_count(self):
        # 70 replications: one full batch and a short one, split over 1, 2
        # or 3 workers (capped at the 2 batches)
        d = design1(n=150, replications=simulation.STUDY_BATCH + 6, seed=12)
        reports = [mc.run_study(d, workers=w, keep_estimates=True) for w in (1, 2, 3)]
        for other in reports[1:]:
            assert np.array_equal(other.estimates, reports[0].estimates)
            assert np.array_equal(other.se_estimates, reports[0].se_estimates)
            assert np.array_equal(other.mcov, reports[0].mcov)
            assert np.array_equal(other.covr, reports[0].covr)
            assert (other.failures, other.failure_kinds) == (
                reports[0].failures, reports[0].failure_kinds)

    def test_batch_size_does_not_change_the_report(self, monkeypatch):
        # a byte budget that allows 3 datasets per batch: 5 batches in
        # place of 1, the same report. A dataset of the 4 variables takes
        # two q x q matrices and DATA_COPIES n x 4 arrays
        d = design1(n=150, replications=14, seed=14)
        default = mc.run_study(d, workers=1, keep_estimates=True)
        q = mc.build_system(d.specs, d.fit.system_mode).q
        per_dataset = 8 * (2 * q * q + simulation.DATA_COPIES * d.n * 4)
        monkeypatch.setattr(simulation, "BATCH_BYTES", 3 * per_dataset)
        sizes = []
        fit_batch = simulation.fit_batch

        def recorded(datasets, system, cfg):
            sizes.append(len(datasets))
            return fit_batch(datasets, system, cfg)

        monkeypatch.setattr(simulation, "fit_batch", recorded)
        small = mc.run_study(d, workers=1, keep_estimates=True)
        assert sizes == [3, 3, 3, 3, 2]
        assert np.array_equal(small.estimates, default.estimates)
        assert np.array_equal(small.mcov, default.mcov)

    def test_large_n_designs_take_smaller_batches(self, monkeypatch):
        # the budget counts each dataset's n x 4 data as well as its q x q
        # matrices: a budget of 2 datasets at n=1500 takes 17 at n=150, and
        # the smaller batches leave the report unchanged
        small = design1(n=150, replications=20, seed=15)
        large = design1(n=1500, replications=5, seed=15)
        default = mc.run_study(large, workers=1, keep_estimates=True)
        q = mc.build_system(large.specs, large.fit.system_mode).q

        def per_dataset(n):
            return 8 * (2 * q * q + simulation.DATA_COPIES * n * 4)

        monkeypatch.setattr(simulation, "BATCH_BYTES", 2 * per_dataset(1500))
        sizes = []
        fit_batch = simulation.fit_batch

        def recorded(datasets, system, cfg):
            sizes.append(len(datasets))
            return fit_batch(datasets, system, cfg)

        monkeypatch.setattr(simulation, "fit_batch", recorded)
        mc.run_study(small, workers=1)
        assert 2 * per_dataset(1500) // per_dataset(150) == 17
        assert sizes == [17, 3]
        sizes.clear()
        batched = mc.run_study(large, workers=1, keep_estimates=True)
        assert sizes == [2, 2, 1]
        assert np.array_equal(batched.estimates, default.estimates)
        assert np.array_equal(batched.mcov, default.mcov)

    def test_one_system_build_per_process(self, monkeypatch):
        # a serial study of two batches builds its equation system once
        builds = []
        build_system = simulation.build_system

        def counted(specs, mode):
            builds.append(mode)
            return build_system(specs, mode)

        simulation._system.cache_clear()
        monkeypatch.setattr(simulation, "build_system", counted)
        mc.run_study(design1(n=150, replications=simulation.STUDY_BATCH + 2, seed=16), workers=1)
        assert builds == [mc.MAX_SET]

    def test_a_replication_does_not_depend_on_its_batch(self):
        # replication 70 is fitted in the second batch by the study and
        # alone by fit: the same estimate and variance, bit for bit
        d = design1(n=150, replications=simulation.STUDY_BATCH + 8, seed=13)
        report = mc.run_study(d, workers=1, keep_estimates=True)
        system = mc.build_system(d.specs, d.fit.system_mode)
        rep = simulation.STUDY_BATCH + 6
        res = mc.fit(mc.generate(d, rep), system, d.fit)
        assert report.failures == 0
        assert np.array_equal(report.estimates[rep], res.r_hat.values)
        assert np.array_equal(report.se_estimates[rep], res.se())

    def test_non_convergence_is_a_failure_kind(self, monkeypatch):
        # these replications take 5 to 8 steps: a 6-step cap stops 3 of 6
        monkeypatch.setattr(estimator, "MAX_ITER", 6)
        report = mc.run_study(design1(n=150, replications=6, seed=11), workers=1)
        assert report.failures == 3
        assert report.failure_kinds == (("max_iter", 3),)

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_worker_count_below_one_is_rejected(self, workers, monkeypatch):
        monkeypatch.setattr(simulation, "fit_batch", None)  # no fit may run
        with pytest.raises(ValueError, match="workers"):
            mc.run_study(design1(n=150, replications=2, seed=7), workers=workers)

    def test_default_workers_use_the_usable_cores(self, monkeypatch):
        seen = []

        class Pool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: 64)
        mc.run_study(design1(n=150, replications=2 * simulation.STUDY_BATCH + 1, seed=7))
        assert seen == [3]  # 3 usable cores, 3 batches
        seen.clear()
        mc.run_study(design1(n=150, replications=simulation.STUDY_BATCH + 1, seed=7))
        assert seen == [2]  # capped at the 2 batches

    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            mc.run_study(design1(n=150, replications=1, seed=3), workers=1)


class TestMlPairOracle:
    def test_balanced_diagonal_table(self):
        data = _binary_dataset([[40, 10], [10, 40]])
        rho_ml = oracles.ml_pair_oracle(data, ("polychoric", 2, 1))
        res = mc.fit(
            data, mc.build_system(data.specs, mc.MAX_SET), mc.FitConfig(method=mc.TWO_STEP)
        )
        assert abs(rho_ml - res.r_hat.values[0]) < 0.02

    def test_independence_table(self):
        data = _binary_dataset([[25, 25], [25, 25]])
        assert abs(oracles.ml_pair_oracle(data, ("polychoric", 2, 1))) < 1e-4

    def test_near_perfect_agreement(self):
        data = _binary_dataset([[49, 1], [1, 49]])
        rho_ml = oracles.ml_pair_oracle(data, ("polychoric", 2, 1))
        res = mc.fit(
            data, mc.build_system(data.specs, mc.MAX_SET), mc.FitConfig(method=mc.TWO_STEP)
        )
        assert rho_ml > 0.9
        assert abs(rho_ml - res.r_hat.values[0]) < 0.05

    def test_polyserial_pair(self):
        data = mc.generate(design1(n=2000, replications=2, seed=44), 0)
        rho_ml = oracles.ml_pair_oracle(data, ("polyserial", 1, 1))
        assert abs(rho_ml - 0.4) < 0.08

    def test_rejects_pearson_pair(self):
        data = mc.generate(design1(n=200, replications=2, seed=44), 0)
        with pytest.raises(UnknownPair):
            oracles.ml_pair_oracle(data, ("pearson", 2, 1))


class TestSimDesignIO:
    def test_dict_roundtrip(self):
        d = design2(n=321, replications=4, seed=1234)
        doc = d.to_dict()
        back = mc.SimDesign.from_dict(doc)
        assert back.n == d.n and back.seed == 1234
        assert np.allclose(back.r_true, d.r_true)
        assert back.fit.method == d.fit.method
        assert back.ordinal[2][0] == "X3"
        assert np.allclose(back.ordinal[0][1], d.ordinal[0][1])

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.SimDesign(
                continuous=("Y1",),
                ordinal=(("X1", [0.3, 0.1]),),  # not increasing
                r_true=np.eye(2),
                n=100,
                replications=2,
                seed=1,
            )
        bad = np.array([[1.0, 0.2], [0.3, 1.0]])  # asymmetric
        with pytest.raises(ValueError):
            mc.SimDesign(
                continuous=("Y1", "Y2"),
                ordinal=(),
                r_true=bad,
                n=100,
                replications=2,
                seed=1,
            )
