import dataclasses

import numpy as np
import pytest

import mixedcorr as mc
from mixedcorr import estimator, moments
from mixedcorr.estimator import _initial_theta, _minimize
from mixedcorr.moments import CompiledMoments, weight_matrix

import oracles
from conftest import TRUE1, design1, design2, design243, wide_design

ONE_STEP = mc.FitConfig(method=mc.ONE_STEP)
TWO_STEP = mc.FitConfig(method=mc.TWO_STEP)


def _minimize_one(compiled, K, x0, free_idx, cfg):
    """``_minimize`` of the one dataset ``compiled`` holds, as a batch of
    one: its (x, _InnerInfo), or the exception that ended its solve raised."""
    (out,) = _minimize(compiled, K[None], x0[None], free_idx, cfg)
    if isinstance(out, Exception):
        raise out
    return out


def _solve(data, system, W, theta0, free):
    """Minimize the loss under a fixed W over the parameters flagged in ``free``."""
    compiled = CompiledMoments([data], system)
    x, _ = _minimize_one(compiled, W, theta0, np.flatnonzero(free), mc.FitConfig())
    return x


def _binary_dataset(counts, names=("X1", "X2")):
    """Bivariate binary dataset from a 2x2 contingency table of counts."""
    rows = []
    for k in (1, 2):
        for l in (1, 2):
            rows += [[k, l]] * counts[k - 1][l - 1]
    specs = [mc.VariableSpec(names[0], categories=2), mc.VariableSpec(names[1], categories=2)]
    return mc.ingest(np.asarray(rows, dtype=float), specs)


class TestEstimateThresholds:
    def test_even_binary_split(self):
        data = _binary_dataset([[25, 25], [25, 25]])
        cuts = mc.estimate_thresholds(data)
        assert cuts[0][0] == pytest.approx(0.0, abs=1e-14)
        assert cuts[1][0] == pytest.approx(0.0, abs=1e-14)

    def test_ternary_equal_thirds(self):
        codes = np.repeat([1, 2, 3], 100)
        specs = [mc.VariableSpec("Y"), mc.VariableSpec("X", categories=3)]
        table = np.column_stack([np.linspace(-2, 2, 300), codes.astype(float)])
        cuts = mc.estimate_thresholds(mc.ingest(table, specs))
        assert cuts[0][0] == pytest.approx(-0.43072729929545756, abs=1e-12)
        assert cuts[0][1] == pytest.approx(+0.43072729929545756, abs=1e-12)
        # the reference value quoted for equal thirds
        assert cuts[0][1] == pytest.approx(0.431, abs=5e-4)

    def test_75_25_split(self):
        codes = np.concatenate([np.ones(75), np.full(25, 2.0)])
        specs = [mc.VariableSpec("Y"), mc.VariableSpec("X", categories=2)]
        table = np.column_stack([np.linspace(-2, 2, 100), codes])
        cuts = mc.estimate_thresholds(mc.ingest(table, specs))
        assert cuts[0][0] == pytest.approx(0.6744897501960817, abs=1e-12)

    def test_strictly_increasing(self):
        data = mc.generate(design2(n=500, replications=2, seed=1), 0)
        cuts = mc.estimate_thresholds(data)
        for j in range(3):
            assert np.all(np.diff(cuts[j]) > 0)


class TestPearsonStart:
    @pytest.mark.parametrize("n", [1000, 2 * moments.CHUNK_ROWS + 17])
    def test_equals_corrcoef(self, n):
        # the chunked sums give the correlations of the stacked coded data
        data = mc.generate(design2(n=n, replications=2, seed=4), 0)
        system = mc.build_system(data.specs, mc.MAX_SET)
        corr = np.corrcoef(np.column_stack([data.y, data.x.astype(float)]), rowvar=False)
        want = mc.CorrelationParams.from_matrix(corr, system.c, system.d).values
        got = _initial_theta(data, system)[system.n_thr :]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_holds_no_row_copy(self):
        import tracemalloc

        data = mc.generate(design2(n=50_000, replications=2, seed=4), 0)
        system = mc.build_system(data.specs, mc.MAX_SET)
        rows = np.concatenate((np.arange(system.q_h), system.weighted_rows(False)))
        # the start alone, and the fit's data pass, whose coded covariance
        # the fit's start reads
        for start in (lambda: _initial_theta(data, system),
                      lambda: CompiledMoments([data], system, rows)):
            tracemalloc.start()
            start()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            # a few copies of one chunk of the c + d = 5 columns (the cell
            # ids, the Y columns and the monomials held), far below the 2 MB
            # of one n-row copy
            assert peak < 4 * moments.CHUNK_ROWS * 5 * 8

    @pytest.mark.parametrize("n", [215, 1000, 2 * moments.CHUNK_ROWS + 17])
    def test_batch_equals_alone(self, n):
        # the start of each dataset of a batch, from the batch's data pass
        # over the fit's rows or over none, is its start alone bit for bit,
        # by either route (design 2 at n = 215 is past the switch to the
        # product route)
        data = [mc.generate(design2(n=n, replications=4, seed=4), rep) for rep in range(4)]
        system = mc.build_system(data[0].specs, mc.MAX_SET)
        assert moments._cells_serve(system, n) is (n > 215)
        rows = system.weighted_rows(False)
        starts = estimator._initial_thetas(data, CompiledMoments(data, system, rows))
        bare = estimator._initial_thetas(data, CompiledMoments(data, system, slice(0)))
        for b, one in enumerate(data):
            alone = _initial_theta(one, system)
            assert np.array_equal(starts[b], alone)
            assert np.array_equal(bare[b], alone)


class TestMinimizeLoss:
    def test_just_identified_solves_moments(self, design1_data):
        data = design1_data
        system = mc.build_system(data.specs, mc.MIN_SET)
        theta0 = _initial_theta(data, system)
        free = np.ones(system.p, dtype=bool)
        sol = _solve(data, system, np.eye(system.q), theta0, free)
        ev = oracles.eval_moments(data, sol, system)
        assert np.max(np.abs(ev.m)) < 1e-8
        # the Pearson equation is linear: rho = E_n[Y1 Y2]
        assert sol[system.n_thr] == pytest.approx(
            float(np.mean(data.y[:, 0] * data.y[:, 1])), abs=1e-9
        )

    def test_start_at_optimum_stops_immediately(self, design1_data, four_var_system):
        data = design1_data
        system = four_var_system
        compiled = CompiledMoments([data], system)
        cfg = mc.FitConfig()
        W = np.eye(system.q)
        free = np.flatnonzero(system.active)
        x1, info1 = _minimize_one(compiled, W, _initial_theta(data, system), free, cfg)
        x2, info2 = _minimize_one(compiled, W, x1, free, cfg)
        assert info2.iterations <= 2
        assert np.allclose(x1, x2, atol=1e-9)

    def test_two_step_freeze_matches_full_on_just_identified(self, design1_data):
        # with thresholds pinned at their closed-form values, the frozen-
        # threshold and full minimizations both zero the moments
        data = design1_data
        system = mc.build_system(data.specs, mc.MIN_SET)
        theta0 = _initial_theta(data, system)
        free_all = np.ones(system.p, dtype=bool)
        free_r = system.active.copy()
        free_r[: system.n_thr] = False
        W = np.eye(system.q)
        sol_full = _solve(data, system, W, theta0, free_all)
        sol_frozen = _solve(data, system, W, theta0, free_r)
        m_full = oracles.eval_moments(data, sol_full, system).m
        m_frozen = oracles.eval_moments(data, sol_frozen, system).m
        assert np.max(np.abs(m_full)) < 1e-8
        assert np.max(np.abs(m_frozen)) < 1e-8

    def test_loss_never_increases(self, design1_data, four_var_system):
        data = design1_data
        system = four_var_system
        compiled = CompiledMoments(data, system)
        theta0 = _initial_theta(data, system)
        W = np.eye(system.q)

        def loss(x):
            m = compiled.m(x)
            return 0.5 * m @ W @ m

        free = np.ones(system.p, dtype=bool)
        sol = _solve(data, system, W, theta0, free)
        assert loss(sol) <= loss(theta0) + 1e-15


class TestComputeSigma:
    def test_four_variable_values(self, four_var_system):
        theta = np.array([0.0, 0.0, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        sigma = mc.compute_sigma(theta, four_var_system)
        assert sigma.shape == (2, 2)
        assert sigma[0, 0] == pytest.approx(0.25, abs=1e-14)
        assert sigma[1, 1] == pytest.approx(0.25, abs=1e-14)
        # Phi(0,0;0.8) - 1/4 via the arcsine identity, approximation error
        # bounded by the third-order accuracy
        assert sigma[0, 1] == pytest.approx(0.14758361765043326, abs=5e-4)

    def test_independent_ordinals(self, four_var_system):
        theta = np.array([0.0, 0.0, 0.3, 0.4, 0.5, 0.6, 0.7, 0.0])
        sigma = mc.compute_sigma(theta, four_var_system)
        assert sigma[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_matches_monte_carlo(self, c2d3_system):
        from mixedcorr.moments import model_terms
        from oracles import data_products

        data = mc.generate(design2(n=100_000, replications=2, seed=77), 0)
        theta = np.concatenate(
            [[-0.431, 0.431]] * 3 + [[-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5]]
        )
        sigma = mc.compute_sigma(theta, c2d3_system)
        A = data_products(data, c2d3_system)
        b = model_terms(theta, c2d3_system)
        U = (A - b)[:, : c2d3_system.q_h]
        emp = U.T @ U / U.shape[0]
        assert np.max(np.abs(emp - sigma)) < 0.01


class TestFitTwoStep:
    def test_design1_recovers_truth(self, design1_data, four_var_system):
        res = mc.fit(design1_data, four_var_system, TWO_STEP)
        assert res.diagnostics.converged
        assert np.max(np.abs(res.r_hat.values - TRUE1)) < 0.12  # ~3.5 SE
        se = res.se()
        assert np.all(se > 0)
        assert np.allclose(res.var_r, res.var_r.T, atol=1e-12)
        assert res.var_theta.shape == (four_var_system.p, four_var_system.p)
        assert np.allclose(res.a_hat.to_array(), [0.0, 0.0], atol=0.1)

    def test_covariance_variants_both_psd(self, design1_data, four_var_system):
        res_c = mc.fit(
            design1_data,
            four_var_system,
            mc.FitConfig(method=mc.TWO_STEP, covariance=mc.COV_CORRECTED),
        )
        res_p = mc.fit(
            design1_data,
            four_var_system,
            mc.FitConfig(method=mc.TWO_STEP, covariance=mc.COV_PAPER),
        )
        assert np.allclose(res_c.r_hat.values, res_p.r_hat.values, atol=1e-12)
        for res in (res_c, res_p):
            assert np.all(np.linalg.eigvalsh(res.var_r) > -1e-15)
        # the correction term differs between variants
        assert not np.allclose(res_c.var_r, res_p.var_r, atol=0)

    def test_relabeling_symmetry(self, design1_data, four_var_system):
        data = design1_data
        swapped = mc.MixedDataset(
            specs=(data.specs[1], data.specs[0]) + data.specs[2:],
            y=np.ascontiguousarray(data.y[:, ::-1]),
            x=data.x,
            standardized=data.standardized,
        )
        res = mc.fit(data, mc.build_system(data.specs, mc.MAX_SET), TWO_STEP)
        res_sw = mc.fit(swapped, mc.build_system(swapped.specs, mc.MAX_SET), TWO_STEP)
        # yy pair, Y1<->Y2 polyserials swapped, xx pair unchanged
        perm = [0, 3, 4, 1, 2, 5]
        assert np.allclose(res_sw.r_hat.values[perm], res.r_hat.values, atol=1e-6)

    def test_pure_ordinal(self):
        data = _binary_dataset([[40, 10], [10, 40]])
        system = mc.build_system(data.specs, mc.MAX_SET)
        res = mc.fit(data, system, TWO_STEP)
        assert res.diagnostics.converged
        assert 0.5 < res.r_hat.values[0] < 0.95

    def test_custom_pairs_fit(self, design1_data):
        system = mc.build_system(
            design1_data.specs, mc.CUSTOM, pairs=[("polyserial", 1, 2), ("polychoric", 2, 1)]
        )
        res = mc.fit(design1_data, system, TWO_STEP)
        vals = res.r_hat.values
        assert np.isnan(vals[0]) and np.isnan(vals[1]) and np.isnan(vals[3]) and np.isnan(vals[4])
        assert abs(vals[2] - 0.5) < 0.15 and abs(vals[5] - 0.8) < 0.15
        se = res.se()
        assert np.isfinite(se[2]) and np.isfinite(se[5])
        assert np.isnan(se[0])


class TestFitOneStep:
    def test_design1_recovers_truth(self, design1_data, four_var_system):
        res = mc.fit(design1_data, four_var_system, ONE_STEP)
        assert res.diagnostics.converged
        assert np.max(np.abs(res.r_hat.values - TRUE1)) < 0.12
        assert res.var_theta is not None
        assert res.var_theta.shape == (8, 8)
        assert np.all(np.diag(res.var_r) > 0)

    def test_cross_method_consistency(self, four_var_system):
        worst = 0.0
        for rep in range(3):
            data = mc.generate(design1(n=2000, replications=4, seed=314), rep)
            r1 = mc.fit(data, four_var_system, ONE_STEP)
            r2 = mc.fit(data, four_var_system, TWO_STEP)
            worst = max(worst, float(np.max(np.abs(r1.r_hat.values - r2.r_hat.values))))
        assert worst < 1e-3

    def test_continuous_only_reduces_to_pearson(self):
        rng = np.random.default_rng(5)
        L = np.linalg.cholesky(np.array([[1.0, 0.55], [0.55, 1.0]]))
        table = rng.standard_normal((800, 2)) @ L.T
        specs = [mc.VariableSpec("Y1"), mc.VariableSpec("Y2")]
        data = mc.ingest(table, specs)
        system = mc.build_system(specs, mc.MAX_SET)
        res = mc.fit(data, system, ONE_STEP)
        rho = float(np.mean(data.y[:, 0] * data.y[:, 1]))
        assert res.r_hat.values[0] == pytest.approx(rho, abs=1e-8)
        # classical asymptotics of the sample product moment
        omega = float(np.mean((data.y[:, 0] * data.y[:, 1] - rho) ** 2))
        assert res.var_r[0, 0] == pytest.approx(omega / data.n, rel=1e-6)
        res2 = mc.fit(data, system, TWO_STEP)
        assert res2.r_hat.values[0] == pytest.approx(rho, abs=1e-8)

    def test_one_step_weight_needs_no_pseudo_inverse(self, design1_data, four_var_system):
        res = mc.fit(design1_data, four_var_system, ONE_STEP)
        assert not res.diagnostics.weight_pseudo_inverse


class TestWiderSystems:
    def test_one_step_on_ternary_triple(self, c2d3_system):
        # three ternary ordinals share their margins among the polychoric
        # blocks; each method weights only its independent rows, so both run
        # on direct inverses
        data = mc.generate(design2(n=1000, replications=2, seed=88), 0)
        r1 = mc.fit(data, c2d3_system, ONE_STEP)
        r2 = mc.fit(data, c2d3_system, TWO_STEP)
        assert r1.diagnostics.converged and r2.diagnostics.converged
        assert not (r1.diagnostics.weight_pseudo_inverse or r2.diagnostics.weight_pseudo_inverse)
        assert np.max(np.abs(r1.r_hat.values - r2.r_hat.values)) < 0.01

    def test_five_category_ordinal(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((800, 2))
        z[:, 1] = 0.6 * z[:, 0] + 0.8 * z[:, 1]
        codes = np.searchsorted([-1.2, -0.4, 0.4, 1.2], z[:, 1]) + 1
        specs = [mc.VariableSpec("Y"), mc.VariableSpec("X", categories=5)]
        data = mc.ingest(np.column_stack([z[:, 0], codes.astype(float)]), specs)
        system = mc.build_system(specs, mc.MAX_SET)
        assert system.q == 4 + 5  # h block plus the complete polyserial set
        res = mc.fit(data, system, TWO_STEP)
        assert res.diagnostics.converged
        assert abs(res.r_hat.values[0] - 0.6) < 0.1
        assert np.all(np.diff(res.a_hat[0]) > 0)

    def test_second_order_fit_close_to_third(self, design1_data, four_var_system):
        ra = mc.fit(
            design1_data,
            four_var_system,
            mc.FitConfig(method=mc.TWO_STEP, order=mc.LegendreOrder.SECOND),
        )
        rb = mc.fit(
            design1_data,
            four_var_system,
            mc.FitConfig(method=mc.TWO_STEP, order=mc.LegendreOrder.THIRD),
        )
        diff = np.max(np.abs(ra.r_hat.values - rb.r_hat.values))
        assert 0 < diff < 0.01


class TestErrorPaths:
    def test_non_finite_start_raises(self, design1_data, four_var_system):
        from mixedcorr.errors import NonFiniteLoss

        system = four_var_system
        theta0 = np.concatenate([[0.0, 0.0], [np.nan, 0.3, 0.3, 0.3, 0.3, 0.3]])
        with pytest.raises(NonFiniteLoss):
            _solve(design1_data, system, np.eye(system.q), theta0, np.ones(system.p, dtype=bool))

    def test_dataset_must_match_system(self, design1_data):
        renamed = [mc.VariableSpec(sp.name.lower(), sp.categories) for sp in design1_data.specs]
        with pytest.raises(ValueError, match="do not match"):
            mc.fit(design1_data, mc.build_system(renamed, mc.MAX_SET))
        rng = np.random.default_rng(2)
        table = np.column_stack(
            [rng.normal(size=200), rng.integers(1, 4, 200), rng.integers(1, 5, 200)]
        )
        specs = [mc.VariableSpec("Y"), mc.VariableSpec("X1", 3), mc.VariableSpec("X2", 4)]
        swapped = [mc.VariableSpec("Y"), mc.VariableSpec("X1", 4), mc.VariableSpec("X2", 3)]
        with pytest.raises(ValueError, match="do not match"):
            mc.fit(mc.ingest(table, specs), mc.build_system(swapped, mc.MAX_SET))

    @pytest.mark.parametrize("mode", [mc.MAX_SET, mc.MIN_SET])
    @pytest.mark.parametrize("counts", [[[0, 30], [30, 40]], [[30, 0], [30, 40]]],
                             ids=["empty_11", "empty_12"])
    def test_singular_covariance_is_typed(self, counts, mode):
        # a 2x2 table with an empty cell leaves the one-step weight no row
        # that depends on rho, so G'WG is singular wherever the solve goes:
        # no covariance exists, and the fit says so before any step
        data = _binary_dataset(counts)
        with pytest.raises(mc.errors.SingularCovariance, match="singular"):
            mc.fit(data, mc.build_system(data.specs, mode), ONE_STEP)

    def test_estimate_thresholds_empty_category(self):
        specs = (mc.VariableSpec("X", categories=3),)
        x = np.array([[1], [1], [3], [3]], dtype=np.int64)
        data = mc.MixedDataset(specs=specs, y=np.empty((4, 0)), x=x)
        with pytest.raises(mc.errors.EmptyCategory):
            mc.estimate_thresholds(data)


class TestDiagnostics:
    def test_no_convergence_flagged_not_raised(self, design1_data, four_var_system, monkeypatch):
        monkeypatch.setattr(estimator, "MAX_ITER", 1)
        res = mc.fit(design1_data, four_var_system, TWO_STEP)
        assert not res.diagnostics.converged
        assert res.diagnostics.stop == "max_iter"
        assert res.diagnostics.outer_iterations == 1
        assert np.all(np.isfinite(res.r_hat.values))

    def test_converged_stop_is_stationary(self, design1_data, four_var_system):
        for cfg in (TWO_STEP, ONE_STEP):
            d = mc.fit(design1_data, four_var_system, cfg).diagnostics
            assert d.converged and not d.weight_pseudo_inverse
            assert d.stop in ("decrement", "step_floor")

    def test_psd_flag_present(self, design1_data, four_var_system):
        res = mc.fit(design1_data, four_var_system, TWO_STEP)
        assert res.diagnostics.r_matrix_psd in (True, False)

    @pytest.mark.parametrize("method", [mc.TWO_STEP, mc.ONE_STEP])
    def test_design2_reaches_stationarity(self, c2d3_system, method):
        # a design-2 dataset on which a search along the exact-CDF gradient
        # stalled at |grad| ~ 1e-7: following the gradient of the
        # Legendre loss itself gets within 1e-8
        data = mc.generate(design2(), 3)
        d = mc.fit(data, c2d3_system, mc.FitConfig(method=method)).diagnostics
        assert d.converged
        assert d.final_grad_norm <= 1e-8

    def test_inner_stop_and_loss_evaluations(self, design1_data, four_var_system):
        for method in (mc.TWO_STEP, mc.ONE_STEP):
            d = mc.fit(design1_data, four_var_system, mc.FitConfig(method=method)).diagnostics
            assert d.stop in {"decrement", "step_floor", "max_iter"}
            assert isinstance(d.weight_condition, float) and d.weight_condition >= 1.0
            # the solve evaluates its start and at least one trial point per
            # step taken
            assert d.loss_evaluations >= d.inner_iterations + 1

    @pytest.mark.parametrize("method", [mc.TWO_STEP, mc.ONE_STEP])
    def test_one_ulp_start_keeps_the_stop(self, c2d3_system, method):
        # the gradient, not the rounding of the loss, decides where the solve
        # ends: a start moved by one ulp ends on the same test after the same
        # number of steps, at the same point up to rounding
        cfg = mc.FitConfig(method=method)
        one_step = method == mc.ONE_STEP
        free = np.flatnonzero(c2d3_system.active) if one_step else c2d3_system.coef_cols
        for rep in range(10):
            data = mc.generate(design2(), rep)
            compiled = CompiledMoments([data], c2d3_system, c2d3_system.weighted_rows(one_step))
            K = weight_matrix(compiled.cov[0]).whitener
            x0 = _initial_theta(data, c2d3_system)
            x, info = _minimize_one(compiled, K, x0, free, cfg)
            xu, info_u = _minimize_one(compiled, K, np.nextafter(x0, np.inf), free, cfg)
            assert (info_u.stop, info_u.iterations) == (info.stop, info.iterations)
            assert np.max(np.abs(xu - x)) <= 1e-12

    def test_inner_stop_max_iter(self, design1_data, four_var_system, monkeypatch):
        monkeypatch.setattr(estimator, "MAX_ITER", 1)
        d = mc.fit(design1_data, four_var_system, TWO_STEP).diagnostics
        assert d.stop == "max_iter"
        assert d.inner_iterations == 1


class TestModelEvaluations:
    @pytest.mark.parametrize("method", [mc.TWO_STEP, mc.ONE_STEP])
    def test_one_density_evaluation_per_theta(self, c2d3_system, method, monkeypatch):
        # only a loss evaluation at a new theta, or compute_sigma at a
        # solution the solve's last loss evaluation did not leave, evaluates
        # the Legendre densities; the gradient at an accepted step and
        # compute_sigma reuse the evaluation at their theta, and the exact G
        # evaluates none
        calls = []
        densities = moments.legendre_densities

        def counted(*args, **kwargs):
            calls.append(1)
            return densities(*args, **kwargs)

        monkeypatch.setattr(moments, "legendre_densities", counted)
        for rep in range(3):
            data = mc.generate(design2(), rep)
            calls.clear()
            d = mc.fit(data, c2d3_system, mc.FitConfig(method=method)).diagnostics
            assert 0 < len(calls) <= d.loss_evaluations + d.outer_iterations


    @pytest.mark.parametrize("method", [mc.TWO_STEP, mc.ONE_STEP])
    def test_second_order_fit_evaluates_no_third_order_point(self, c2d3_system, method,
                                                             monkeypatch):
        # the exact G evaluates no Legendre densities, and compute_sigma reads
        # the point at the fit's order: the one the solve's last loss
        # evaluation left, or, where the solve ended on a rejected trial step
        # (design-2 rep 2), a new one at the solution
        orders = []
        densities = moments.legendre_densities

        def recorded(x, y, rho, order):
            orders.append(order)
            return densities(x, y, rho, order)

        monkeypatch.setattr(moments, "legendre_densities", recorded)
        cfg = mc.FitConfig(method=method, order=mc.LegendreOrder.SECOND)
        for rep in range(3):
            d = mc.fit(mc.generate(design2(), rep), c2d3_system, cfg).diagnostics
            assert d.converged
        assert orders and set(orders) == {mc.LegendreOrder.SECOND}

    def test_exact_kinds_evaluate_no_densities(self, monkeypatch):
        # a freshly built system: no model point is cached for it
        system = mc.build_system(design2().specs, mc.MAX_SET)
        theta = _initial_theta(mc.generate(design2(), 0), system)
        calls = []
        densities = moments.legendre_densities

        def counted(*args, **kwargs):
            calls.append(1)
            return densities(*args, **kwargs)

        monkeypatch.setattr(moments, "legendre_densities", counted)
        mc.assemble_gradient(theta, system)
        assert calls == []


def _empty_cell_data():
    """A design-2/4/3 dataset at n=300 whose (X2=1, X3=3) cell is empty."""
    return mc.generate(design243(n=300, replications=300), 136)


class TestRankOneRefresh:
    """The centred weight W_c = S^-1, whose stationary point the paper's
    rank-one refresh W_c - u u'/(1 + m'u) would not move, is the fit's one
    factorization and the W of its covariance."""

    def _count_weight_matrix(self, monkeypatch):
        calls = []
        original = estimator.weight_matrix

        def counted(omega):
            calls.append(omega.shape[0])
            return original(omega)

        monkeypatch.setattr(estimator, "weight_matrix", counted)
        return calls

    @pytest.mark.parametrize("method", [mc.TWO_STEP, mc.ONE_STEP])
    def test_one_factorization_per_fit(self, method, monkeypatch):
        calls = self._count_weight_matrix(monkeypatch)
        cfg = mc.FitConfig(method=method)
        fits = [(mc.generate(design2(), rep), False) for rep in range(2)]
        fits.append((mc.generate(wide_design(), 0), False))
        # an empty cell makes the weight drop rows, still one weight_matrix call
        fits.append((_empty_cell_data(), True))
        for data, pseudo in fits:
            system = mc.build_system(data.specs, mc.MAX_SET)
            calls.clear()
            d = mc.fit(data, system, cfg).diagnostics
            assert d.weight_pseudo_inverse is pseudo and d.converged
            assert d.outer_iterations == 1
            assert calls == [system.weighted_rows(method == mc.ONE_STEP).size]

    @pytest.mark.parametrize("dataset", ["design2", "empty_cell"])
    def test_one_step_covariance_is_the_centred_sandwich(self, dataset):
        # Var(theta) is the GMM sandwich of the solve under W_c, direct or
        # pseudo-inverse: (G'W_cG)^-1 G'W_c S W_c G (G'W_cG)^-1 / n
        data = mc.generate(design2(), 0) if dataset == "design2" else _empty_cell_data()
        system = mc.build_system(data.specs, mc.MAX_SET)
        res = mc.fit(data, system, ONE_STEP)
        rows = system.weighted_rows(True)
        compiled = CompiledMoments(data, system, rows)
        K = weight_matrix(compiled.cov).whitener
        W = K.T @ K
        theta = np.concatenate([res.a_hat.to_array(), res.r_hat.values])
        free = np.flatnonzero(system.active)
        G = moments.assemble_gradient(theta, system)[rows][:, free]
        bread = np.linalg.inv(G.T @ W @ G)
        sandwich = bread @ G.T @ W @ compiled.cov @ W @ G @ bread / compiled.n
        var_theta = res.var_theta[np.ix_(free, free)]
        assert np.max(np.abs(var_theta - sandwich)) <= 1e-10 * np.max(np.abs(sandwich))

    @pytest.mark.parametrize("dataset", ["design2", "empty_cell"])
    def test_two_step_covariance_is_the_stacked_sandwich(self, dataset):
        # the two-step estimate is the root of [h; G22'W g] = 0 over the
        # threshold rows h and the two-step weighted rows g, W = K'K from the
        # g block of S alone: Var(R_hat) is the coefficient block of
        # D^-1 A S_R A' D^-T / n with A = blockdiag(I, G22'W), D = A G_R
        data = mc.generate(design2(), 0) if dataset == "design2" else _empty_cell_data()
        system = mc.build_system(data.specs, mc.MAX_SET)
        res = mc.fit(data, system, TWO_STEP)
        nh = system.q_h
        rows = np.concatenate([np.arange(nh), system.weighted_rows(False)])
        compiled = CompiledMoments(data, system, rows)
        K = weight_matrix(compiled.cov[nh:, nh:]).whitener
        theta = np.concatenate([res.a_hat.to_array(), res.r_hat.values])
        free = np.flatnonzero(system.active)
        G = moments.assemble_gradient(theta, system)[rows][:, free]
        A = np.zeros((free.size, rows.size))
        A[:nh, :nh] = np.eye(nh)
        A[nh:, nh:] = G[nh:, nh:].T @ K.T @ K
        D_inv = np.linalg.inv(A @ G)
        sandwich = D_inv @ A @ compiled.cov @ A.T @ D_inv.T / compiled.n
        expected = sandwich[nh:, nh:]
        assert np.max(np.abs(res.var_r - expected)) <= 1e-10 * np.max(np.abs(expected))
        var_theta = res.var_theta[np.ix_(free, free)]
        assert np.max(np.abs(var_theta - sandwich)) <= 1e-10 * np.max(np.abs(sandwich))
        # the thresholds' block is the closed-form thresholds' own sandwich
        G11_inv = np.linalg.inv(G[:nh, :nh])
        thresholds = G11_inv @ compiled.cov[:nh, :nh] @ G11_inv.T / compiled.n
        assert np.max(np.abs(var_theta[:nh, :nh] - thresholds)) <= 1e-10 * np.max(
            np.abs(thresholds)
        )

    @pytest.mark.parametrize("design", [design1, design2], ids=["design1", "design2"])
    def test_paper_covariance_is_the_papers_formula(self, design):
        # the "paper" variant: Var(R_hat) = (Lambda + Lambda Gamma Sigma
        # Gamma' Lambda) / n with Lambda = (G22'W G22)^-1, Gamma = G22'W G21
        # and Sigma the model-implied Var h, W = K'K from the g block of S
        data = mc.generate(design(), 0)
        system = mc.build_system(data.specs, mc.MAX_SET)
        cfg = mc.FitConfig(covariance=mc.COV_PAPER)
        res = mc.fit(data, system, cfg)
        rows = system.weighted_rows(False)
        compiled = CompiledMoments(data, system, rows)
        K = weight_matrix(compiled.cov).whitener
        W = K.T @ K
        theta = np.concatenate([res.a_hat.to_array(), res.r_hat.values])
        G = moments.assemble_gradient(theta, system)[rows]
        G21, G22 = G[:, system.thr_cols], G[:, system.coef_cols]
        lam = np.linalg.inv(G22.T @ W @ G22)
        gamma = G22.T @ W @ G21
        sigma = moments.compute_sigma(theta, system, cfg.order)
        expected = (lam + lam @ gamma @ sigma @ gamma.T @ lam) / compiled.n
        assert np.max(np.abs(res.var_r - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("design", [design1, design2], ids=["design1", "design2"])
    def test_min_set_two_step_covariance_is_the_one_step_one(self, design):
        # on a min set both methods solve the same just-identified equations,
        # so the two-step sandwich is the one-step covariance
        for rep in range(2):
            data = mc.generate(design(), rep)
            system = mc.build_system(data.specs, mc.MIN_SET)
            two = mc.fit(data, system, mc.FitConfig(system_mode=mc.MIN_SET))
            one = mc.fit(data, system, mc.FitConfig(method=mc.ONE_STEP, system_mode=mc.MIN_SET))
            assert np.max(np.abs(two.var_r - one.var_r)) <= 1e-6 * np.max(np.abs(one.var_r))


def _paper_loop(compiled, cfg, theta0, free_idx):
    """The paper's iterative GMM from the identity weight: an inner solve,
    then the refresh W = Omega_hat(theta)^-1, until a solve under a refresh
    moves theta by less than 1e-8 (at most 100 solves). Returns theta and
    whether it stopped on that test."""
    K = np.eye(compiled.a_mean.shape[-1])
    theta = theta0.copy()
    for solve in range(100):
        theta_new, _ = _minimize_one(compiled, K, theta, free_idx, cfg)
        diff = np.linalg.norm(theta_new[free_idx] - theta[free_idx])
        theta = theta_new
        if solve > 0 and diff < 1e-8:
            return theta, True
        (m,) = compiled.m(theta[None], cfg.order)
        K = weight_matrix(compiled.cov[0] + np.outer(m, m)).whitener
    return theta, False


class TestCentredStart:
    @pytest.mark.parametrize("method", [mc.TWO_STEP, mc.ONE_STEP])
    @pytest.mark.parametrize("design", [design1, design2], ids=["design1", "design2"])
    def test_fit_reaches_the_paper_fixed_point(self, design, method):
        # the paper's loop from the identity ends where the fit's one solve
        # under the centred weight ends
        cfg = mc.FitConfig(method=method)
        for rep in range(2):
            data = mc.generate(design(), rep)
            system = mc.build_system(data.specs, mc.MAX_SET)
            res = mc.fit(data, system, cfg)
            assert res.diagnostics.converged
            assert res.diagnostics.outer_iterations == 1
            one_step = method == mc.ONE_STEP
            free_idx = np.flatnonzero(system.active) if one_step else system.coef_cols
            compiled = CompiledMoments([data], system, system.weighted_rows(one_step))
            theta0 = _initial_theta(data, system)
            theta, settled = _paper_loop(compiled, cfg, theta0, free_idx)
            assert settled
            assert np.max(np.abs(theta[system.coef_cols] - res.r_hat.values)) <= 1e-8


class TestEmptyCell:
    @pytest.mark.parametrize("method", [mc.TWO_STEP, mc.ONE_STEP])
    def test_empty_cell_weight_drops_rows_and_converges(self, method):
        # a design-2/4/3 dataset at n=300 whose (X2=1, X3=3) cell is empty:
        # S is singular, the weight drops the rows that depend on the rows
        # before them, and the solve under the rest converges near
        # pairwise ML
        data = _empty_cell_data()
        x2, x3 = data.x[:, 1], data.x[:, 2]
        assert not np.any((x2 == 1) & (x3 == 3))
        system = mc.build_system(data.specs, mc.MAX_SET)
        res = mc.fit(data, system, mc.FitConfig(method=method))
        d = res.diagnostics
        assert d.converged is True
        assert d.weight_pseudo_inverse
        assert d.outer_iterations == 1
        for lab, pos in zip(res.coefficients, system.coef_cols - system.n_thr):
            if lab[0] == "polychoric":
                assert abs(res.r_hat.values[pos] - oracles.ml_pair_oracle(data, lab)) <= 0.1

    @pytest.mark.parametrize("method", [mc.TWO_STEP, mc.ONE_STEP])
    def test_fewer_rows_than_weighted_rows_is_degenerate(self, method, monkeypatch):
        # n = 500 data rows give S rank at most 499 over 618 weighted rows,
        # so the last blocks' rows are all dropped and no kept row depends
        # on their coefficients: the fit raises before any step
        data = mc.generate(wide_design(n=500), 0)
        system = mc.build_system(data.specs, mc.MAX_SET)
        assert system.weighted_rows(method == mc.ONE_STEP).size > data.n
        gradients = []

        def counted(*args, **kwargs):
            gradients.append(1)
            return moments.assemble_gradient(*args, **kwargs)

        monkeypatch.setattr(estimator, "assemble_gradient", counted)
        with pytest.raises(mc.errors.DegenerateWeight, match="covariance is singular"):
            mc.fit(data, system, mc.FitConfig(method=method))
        assert gradients == [1]  # the start's only


def _fit_record(res):
    """Every output of a fit but its wall time."""
    diag = dataclasses.asdict(res.diagnostics)
    del diag["wall_time"]
    return res.r_hat.values, res.var_r, res.a_hat.to_array(), res.var_theta, diag


class TestFitBatch:
    @pytest.mark.parametrize("method", [mc.TWO_STEP, mc.ONE_STEP])
    @pytest.mark.parametrize("design", [design1, design2], ids=["design1", "design2"])
    def test_batch_equals_each_fit(self, design, method):
        # one lockstep solve over 40 datasets gives each dataset its own
        # fit, bit for bit
        datasets = [mc.generate(design(n=400, replications=2, seed=21), rep) for rep in range(40)]
        system = mc.build_system(datasets[0].specs, mc.MAX_SET)
        cfg = mc.FitConfig(method=method)
        batch = estimator.fit_batch(datasets, system, cfg)
        for data, res in zip(datasets, batch):
            alone = _fit_record(mc.fit(data, system, cfg))
            for a, b in zip(_fit_record(res), alone):
                if isinstance(a, dict):
                    assert a == b
                else:
                    assert np.array_equal(a, b, equal_nan=True)

    def test_failures_leave_the_batch_unchanged(self, monkeypatch):
        # one-step fits of 2x2 tables: one with an empty cell, which leaves
        # the weight no row that depends on rho (DegenerateWeight before any
        # step), and one that takes 7 steps, cut at 6. The other datasets,
        # which take 6, 4 and 3 steps, get the results they get alone
        good = [_binary_dataset(t) for t in ([[40, 10], [10, 40]], [[30, 20], [15, 35]],
                                             [[25, 25], [20, 30]])]
        slow = _binary_dataset([[45, 5], [12, 38]])
        empty = _binary_dataset([[40, 0], [10, 40]])
        system = mc.build_system(slow.specs, mc.MAX_SET)
        expected = [_fit_record(mc.fit(data, system, ONE_STEP)) for data in good]
        assert mc.fit(slow, system, ONE_STEP).diagnostics.inner_iterations == 7
        monkeypatch.setattr(estimator, "MAX_ITER", 6)
        out = estimator.fit_batch([good[0], empty, good[1], slow, good[2]], system, ONE_STEP)
        assert isinstance(out[1], mc.errors.DegenerateWeight)
        assert (out[3].diagnostics.stop, out[3].diagnostics.converged) == ("max_iter", False)
        for res, want in zip((out[0], out[2], out[4]), expected):
            for a, b in zip(_fit_record(res), want):
                if isinstance(a, dict):
                    assert a == b
                else:
                    assert np.array_equal(a, b, equal_nan=True)

    def test_nan_direction_resets_its_dataset_only(self, monkeypatch):
        # an inverse Hessian seed of NaNs, as an overflowed H would be,
        # gives the first dataset a NaN direction: its H is reset to the
        # identity and its solve converges from the steepest descent, and
        # the other dataset gets the fit it gets alone
        data = [mc.generate(design1(n=400, replications=2, seed=5), rep) for rep in (0, 1)]
        system = mc.build_system(data[0].specs, mc.MAX_SET)
        alone = _fit_record(mc.fit(data[1], system))
        inv, calls = np.linalg.inv, []

        def seeded(a):
            # the first stack of 6 x 6 inverses is the batch's seeds of H,
            # the first dataset's first
            calls.append(a.shape)
            out = inv(a)
            if calls.count((2, 6, 6)) == 1 and a.shape == (2, 6, 6):
                out[0] = np.nan
            return out

        monkeypatch.setattr(np.linalg, "inv", seeded)
        out = estimator.fit_batch(data, system)
        assert calls.count((2, 6, 6)) == 1
        assert out[0].diagnostics.converged
        for a, b in zip(_fit_record(out[1]), alone):
            if isinstance(a, dict):
                assert a == b
            else:
                assert np.array_equal(a, b, equal_nan=True)

    def test_non_finite_start_leaves_the_batch_unchanged(self):
        # a lockstep solve of two design-1 datasets, the first started at a
        # NaN Pearson coefficient: that row ends at the first test with
        # NonFiniteLoss, and the other gets its solve alone, bit for bit
        data = [mc.generate(design1(n=400, replications=2, seed=9), rep) for rep in (0, 1)]
        system = mc.build_system(data[0].specs, mc.MAX_SET)
        rows = system.weighted_rows(True)
        free = np.flatnonzero(system.active)
        compiled = CompiledMoments(data, system, rows)
        K = np.array([weight_matrix(S).whitener for S in compiled.cov])
        x0 = np.array([_initial_theta(one, system) for one in data])
        x0[0, system.n_thr] = np.nan
        out = _minimize(compiled, K, x0, free, ONE_STEP)
        assert isinstance(out[0], mc.errors.NonFiniteLoss)
        alone = CompiledMoments(data[1:], system, rows)
        x, info = _minimize_one(alone, K[1], x0[1], free, ONE_STEP)
        assert np.array_equal(out[1][0], x)
        assert out[1][1] == info
        assert info.iterations > 0

    def test_fit_raises_the_batch_exception(self):
        data = _binary_dataset([[40, 0], [10, 40]])
        system = mc.build_system(data.specs, mc.MAX_SET)
        (res,) = estimator.fit_batch([data], system, ONE_STEP)
        assert isinstance(res, mc.errors.DegenerateWeight)
        with pytest.raises(mc.errors.DegenerateWeight):
            mc.fit(data, system, ONE_STEP)

    def test_datasets_of_different_sizes(self):
        # each dataset's own n scales its decrement and covariance
        system = mc.build_system(design1().specs, mc.MAX_SET)
        data = [mc.generate(design1(n=n, replications=2, seed=8), 0) for n in (300, 900)]
        assert estimator.fit_batch([], system) == []
        for res, one in zip(estimator.fit_batch(data, system), data):
            for a, b in zip(_fit_record(res), _fit_record(mc.fit(one, system))):
                if isinstance(a, dict):
                    assert a == b
                else:
                    assert np.array_equal(a, b, equal_nan=True)

    def test_mismatched_dataset_rejects_the_batch(self):
        data = mc.generate(design1(n=150, replications=2, seed=3), 0)
        other = mc.build_system(design2().specs, mc.MAX_SET)
        with pytest.raises(ValueError, match="do not match"):
            estimator.fit_batch([data], other)


def _g_blocks(datasets, system, one_step=False):
    """The weighted (g) blocks S_gg of the datasets' covariances, stacked,
    and nh, as ``fit_batch`` whitens them."""
    nh = 0 if one_step else system.q_h
    rows = np.concatenate((np.arange(nh), system.weighted_rows(one_step)))
    return CompiledMoments(datasets, system, rows).cov[:, nh:, nh:], nh


class TestBatchWhitening:
    """A batch's weights, whitened as a stack, are each dataset's own
    ``weight_matrix`` result, bit for bit."""

    def _check(self, S, nh):
        weights, K = estimator._weights(S, nh)
        assert K.shape == (len(S), S.shape[1], nh + S.shape[1])
        for S_b, w, K_b in zip(S, weights, K):
            alone = weight_matrix(S_b)
            assert np.array_equal(w.whitener, alone.whitener)
            assert w.condition == alone.condition
            assert w.pseudo_inverse is alone.pseudo_inverse
            kept = len(alone.whitener)
            assert np.array_equal(K_b[:kept, nh:], alone.whitener)
            assert not K_b[kept:].any() and not K_b[:, :nh].any()
        return weights

    @pytest.mark.parametrize("design", [design1, design2], ids=["design1", "design2"])
    def test_batches_of_64_are_one_stack(self, design):
        datasets = [mc.generate(design(replications=64, seed=41), rep) for rep in range(64)]
        system = mc.build_system(datasets[0].specs, mc.MAX_SET)
        S, nh = _g_blocks(datasets, system)
        assert moments._stacked_whiteners(S)[0].tolist() == list(range(64))
        self._check(S, nh)

    def test_a_dropped_row_leaves_the_stack_to_the_others(self):
        # the empty-cell dataset's S drops rows: its factor has a pivot
        # under the floor, and the other datasets keep their stacked
        # weights, or rounding makes it indefinite and numpy refuses the
        # stack (on one x86-64 machine the one-step S took the first way,
        # the two-step S the second)
        empty = _empty_cell_data()
        datasets = [mc.generate(design243(n=300, replications=300), rep) for rep in range(3)]
        datasets.insert(1, empty)
        system = mc.build_system(empty.specs, mc.MAX_SET)
        for one_step in (False, True):
            S, nh = _g_blocks(datasets, system, one_step)
            assert moments._stacked_whiteners(S)[0].tolist() in ([], [0, 2, 3])
            pseudo = [w.pseudo_inverse for w in self._check(S, nh)]
            assert pseudo == [False, True, False, False]

    def test_an_indefinite_s_is_whitened_alone_with_the_rest(self):
        # numpy refuses the Cholesky factorization of a stack that holds an
        # indefinite S, so every dataset takes its own weight_matrix call
        datasets = [mc.generate(design1(replications=4, seed=42), rep) for rep in range(4)]
        system = mc.build_system(datasets[0].specs, mc.MAX_SET)
        S, nh = _g_blocks(datasets, system)
        S = S.copy()
        S[2] -= 2.0 * np.eye(len(S[2])) * np.linalg.eigvalsh(S[2]).max()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(S)
        assert moments._stacked_whiteners(S)[0].size == 0
        self._check(S, nh)

    def test_wide_weights_are_whitened_alone(self):
        # 618-row weights are halved on their Schur complement by
        # weight_matrix, never factored whole in a stack
        datasets = [mc.generate(wide_design(), rep) for rep in range(2)]
        system = mc.build_system(datasets[0].specs, mc.MAX_SET)
        S, nh = _g_blocks(datasets, system)
        assert S.shape[1] == 618
        assert moments._stacked_whiteners(S)[0].size == 0
        self._check(S, nh)


class TestBatchedStart:
    def test_failed_and_refused_starts_leave_the_batch_unchanged(self, monkeypatch):
        # one-step solves of 2x2 tables started together: a NaN start
        # (NonFiniteLoss), an empty cell (DegenerateWeight), a J'J + ridge
        # that np.linalg.inv refuses (its H seeded by the identity) and
        # normal datasets. Each ends as its lone solve, bit for bit
        tables = ([[40, 10], [10, 40]], [[30, 20], [15, 35]], [[40, 0], [10, 40]],
                  [[45, 5], [12, 38]], [[25, 25], [20, 30]])
        data = [_binary_dataset(t) for t in tables]
        system = mc.build_system(data[0].specs, mc.MAX_SET)
        rows = system.weighted_rows(True)
        free = np.flatnonzero(system.active)
        K = estimator._weights(CompiledMoments(data, system, rows).cov, 0)[1]
        x0 = np.array([_initial_theta(one, system) for one in data])
        x0[0, 0] = np.nan
        inv, refused = np.linalg.inv, []

        def refuse_first(a):
            refused.append(a[0].copy())
            raise np.linalg.LinAlgError("refused")

        def refuse_seed(a):
            if any(np.array_equal(m, refused[0]) for m in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("refused")
            return inv(a)

        def alone(b):
            compiled = CompiledMoments(data[b : b + 1], system, rows)
            return _minimize(compiled, K[b : b + 1], x0[b : b + 1], free, ONE_STEP)[0]

        def same(res, want):
            if isinstance(want, Exception):
                return (type(res), res.args) == (type(want), want.args)
            return np.array_equal(res[0], want[0]) and res[1] == want[1]

        # the seed of dataset 3, which its lone solve is refused
        monkeypatch.setattr(np.linalg, "inv", refuse_first)
        refused_alone = alone(3)
        monkeypatch.setattr(np.linalg, "inv", refuse_seed)
        expected = [alone(b) for b in range(len(data))]
        assert same(expected[3], refused_alone)
        out = _minimize(CompiledMoments(data, system, rows), K, x0, free, ONE_STEP)
        assert isinstance(out[0], mc.errors.NonFiniteLoss)
        assert isinstance(out[2], mc.errors.DegenerateWeight)
        assert all(same(res, want) for res, want in zip(out, expected))
        # the identity seed takes another path than the refused J'J would
        monkeypatch.setattr(np.linalg, "inv", inv)
        assert not same(alone(3), refused_alone)


class TestFitConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            mc.FitConfig(method="three-step")

    @pytest.mark.parametrize("order", [3, 2, "third"])
    def test_order_must_be_a_legendre_order(self, order):
        with pytest.raises(ValueError):
            mc.FitConfig(order=order)

    def test_bad_covariance(self):
        with pytest.raises(ValueError):
            mc.FitConfig(covariance="bootstrap")

    def test_paper_covariance_is_two_step_only(self):
        with pytest.raises(ValueError):
            mc.FitConfig(method=mc.ONE_STEP, covariance=mc.COV_PAPER)


def test_normality_screen(study1_n1000):
    # studentized estimates (rho_hat - rho_0) / SE over replications pass a
    # coarse normality check at n=1000
    series = study1_n1000.estimates
    ses = study1_n1000.se_estimates
    z = (series - TRUE1) / ses
    zc = z - z.mean(axis=0)
    m2 = np.mean(zc**2, axis=0)
    skew = np.mean(zc**3, axis=0) / m2**1.5
    kurt = np.mean(zc**4, axis=0) / m2**2 - 3.0
    assert np.all(np.abs(skew) < 0.2)
    assert np.all(np.abs(kurt) < 0.5)
