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

from conftest import design1, design2


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
        # at n=40 the top category (P = 0.029) is often unobserved
        design = mc.SimDesign(
            continuous=("Y1",),
            ordinal=(("X1", [-0.3, 1.9]),),
            r_true=np.array([[1.0, 0.4], [0.4, 1.0]]),
            n=40,
            replications=12,
            seed=5,
        )
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

    def test_programming_error_propagates(self, monkeypatch):
        def broken_fit(data, system, cfg):
            raise TypeError("broken")

        monkeypatch.setattr(simulation, "fit", broken_fit)
        with pytest.raises(TypeError, match="broken"):
            mc.run_study(design1(n=150, replications=2, seed=7), workers=1)

    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            mc.run_study(design1(n=150, replications=1, seed=3), workers=1)


class TestMlPairOracle:
    def test_balanced_diagonal_table(self):
        data = _binary_dataset([[40, 10], [10, 40]])
        rho_ml = mc.ml_pair_oracle(data, ("polychoric", 2, 1))
        res = mc.fit(
            data, mc.build_system(data.specs, mc.MAX_SET), mc.FitConfig(method=mc.TWO_STEP)
        )
        assert abs(rho_ml - res.r_hat.values[0]) < 0.02

    def test_independence_table(self):
        data = _binary_dataset([[25, 25], [25, 25]])
        assert abs(mc.ml_pair_oracle(data, ("polychoric", 2, 1))) < 1e-4

    def test_near_perfect_agreement(self):
        data = _binary_dataset([[49, 1], [1, 49]])
        rho_ml = mc.ml_pair_oracle(data, ("polychoric", 2, 1))
        res = mc.fit(
            data, mc.build_system(data.specs, mc.MAX_SET), mc.FitConfig(method=mc.TWO_STEP)
        )
        assert rho_ml > 0.9
        assert abs(rho_ml - res.r_hat.values[0]) < 0.05

    def test_polyserial_pair(self):
        data = mc.generate(design1(n=2000, replications=2, seed=44), 0)
        rho_ml = mc.ml_pair_oracle(data, ("polyserial", 1, 1))
        assert abs(rho_ml - 0.4) < 0.08

    def test_rejects_pearson_pair(self):
        data = mc.generate(design1(n=200, replications=2, seed=44), 0)
        with pytest.raises(UnknownPair):
            mc.ml_pair_oracle(data, ("pearson", 2, 1))


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
