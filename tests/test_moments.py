import numpy as np
import pytest

import mixedcorr as mc
from mixedcorr.errors import DegenerateWeight, UnknownPair
from mixedcorr.moments import CompiledMoments, data_products, model_terms
from mixedcorr.normal import LegendreOrder, binorm_cdf_legendre

from conftest import design1, design2, design243


def _theta(system, thresholds, rhos):
    arr = np.concatenate([np.asarray(thresholds, dtype=float), np.asarray(rhos, dtype=float)])
    assert arr.size == system.p
    return arr


class TestBuildSystem:
    def test_max_set_structure_design1(self, four_var_system):
        system = four_var_system
        assert system.q_full == 17
        assert system.q == 12
        assert system.q_h == 2
        kinds = [b.kind for b in system.blocks]
        assert kinds == [
            "threshold",
            "threshold",
            "pearson",
            "polyserial",
            "polyserial",
            "polyserial",
            "polyserial",
            "polychoric",
        ]
        # one complete polyserial set per continuous variable, on its
        # lowest-indexed ordinal partner
        ps_kept = {b.index: b.retained for b in system.blocks if b.kind == "polyserial"}
        assert ps_kept[(1, 1)] == (True, True)
        assert ps_kept[(1, 2)] == (True, False)
        assert ps_kept[(2, 1)] == (True, True)
        assert ps_kept[(2, 2)] == (True, False)
        # the polychoric block drops the last cell
        pc = next(b for b in system.blocks if b.kind == "polychoric")
        assert pc.equations[-1][3:] == (2, 2)
        assert pc.retained == (True, True, True, False)

    def test_min_set_design1(self):
        system = mc.build_system(design1().specs, mc.MIN_SET)
        assert system.q_h == 2
        assert system.q == 2 + 6  # one equation per coefficient

    def test_max_set_c2d3(self, c2d3_system):
        assert c2d3_system.q_h == 6
        assert c2d3_system.q == 6 + 39
        assert c2d3_system.q_full == 55

    def test_custom_subset(self):
        specs = design1().specs
        system = mc.build_system(
            specs, mc.CUSTOM, pairs=[("polyserial", 1, 2), ("polychoric", 2, 1)]
        )
        assert system.included_coefficients == (
            ("polyserial", 1, 2),
            ("polychoric", 2, 1),
        )
        assert system.included_ordinals == (1, 2)  # both thresholds needed
        # with X1 absent from polyserial pairs, the X2 block keeps the full set
        ps = next(b for b in system.blocks if b.kind == "polyserial")
        assert ps.retained == (True, True)

    def test_custom_positions(self):
        system = mc.build_system(design1().specs, mc.CUSTOM, pairs=[0, 5])
        assert system.included_coefficients == (("pearson", 2, 1), ("polychoric", 2, 1))
        assert system.included_ordinals == (1, 2)

    @pytest.mark.parametrize(
        "pairs, expected",
        [
            ([np.int64(0)], (("pearson", 2, 1),)),
            (np.array([0, 5]), (("pearson", 2, 1), ("polychoric", 2, 1))),
            ([np.int32(5), ("pearson", 2, 1)], (("pearson", 2, 1), ("polychoric", 2, 1))),
            ([True], None),
            ([np.True_], None),
        ],
        ids=["int64", "array", "int32_and_label", "bool", "numpy_bool"],
    )
    def test_custom_integer_positions(self, pairs, expected):
        # any integer type names a position; a bool is not a position
        if expected is None:
            with pytest.raises(UnknownPair):
                mc.build_system(design1().specs, mc.CUSTOM, pairs=pairs)
        else:
            system = mc.build_system(design1().specs, mc.CUSTOM, pairs=pairs)
            assert system.included_coefficients == expected

    def test_unknown_pair(self):
        with pytest.raises(UnknownPair):
            mc.build_system(design1().specs, mc.CUSTOM, pairs=[("polychoric", 3, 1)])

    def test_custom_requires_pairs(self):
        with pytest.raises(ValueError):
            mc.build_system(design1().specs, mc.CUSTOM)
        with pytest.raises(ValueError):
            mc.build_system(design1().specs, mc.MAX_SET, pairs=[0])
        with pytest.raises(ValueError):
            mc.build_system(design1().specs, mc.CUSTOM, pairs=np.array([], dtype=int))
        with pytest.raises(ValueError):
            mc.build_system(design1().specs, mc.MAX_SET, pairs=np.array([0]))


class TestEvalU:
    def test_independence_row_values(self, four_var_system):
        system = four_var_system
        theta = _theta(system, [0.0, 0.0], np.zeros(6))
        u = mc.eval_u([1.0, 1.0, 1, 1], theta, system)
        # order: h1 h2 | yy | yx11k1 yx11k2 yx12k1 | yx21k1 yx21k2 yx22k1 | xx
        assert u[0] == pytest.approx(0.5)  # I1(X1) - Phi(0)
        assert u[2] == pytest.approx(1.0)  # Y1 Y2 - 0
        assert u[3] == pytest.approx(1.0)  # Y1 I1(X1) - 0
        assert u[9] == pytest.approx(0.75)  # I11 - 0.25

    def test_xi_enters_polyserial_terms(self, four_var_system):
        system = four_var_system
        # binary at a=0: xi_1 = -phi(0), xi_2 = +phi(0)
        theta = _theta(system, [0.0, 0.0], [0.0, 0.5, 0.0, 0.0, 0.0, 0.0])
        b = model_terms(theta, system)
        phi0 = 0.3989422804014327
        assert b[3] == pytest.approx(0.5 * -phi0, abs=1e-12)
        assert b[4] == pytest.approx(0.5 * +phi0, abs=1e-12)

    def test_population_moments_vanish_at_truth(self, four_var_system):
        data = mc.generate(design1(n=200_000, replications=2, seed=55), 0)
        theta = _theta(four_var_system, [0.0, 0.0], [0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        ev = mc.eval_moments(data, theta, four_var_system)
        assert np.max(np.abs(ev.m)) < 0.02

    def test_degenerate_average(self, four_var_system):
        row = np.array([0.7, -0.2, 1, 2], dtype=float)
        y = np.tile(row[:2], (8, 1))
        x = np.tile(row[2:].astype(np.int64), (8, 1))
        data = mc.MixedDataset(specs=tuple(design1().specs), y=y, x=x)
        theta = _theta(four_var_system, [0.1, -0.2], np.full(6, 0.25))
        ev = mc.eval_moments(data, theta, four_var_system)
        u = mc.eval_u(row, theta, four_var_system)
        assert np.allclose(ev.m, u, atol=1e-14)
        assert np.allclose(ev.omega_hat, np.outer(u, u), atol=1e-13)


class TestPolychoricCells:
    @pytest.mark.parametrize("mode", [mc.MAX_SET, mc.MIN_SET, mc.CUSTOM])
    def test_cells_are_corner_rectangles(self, mode):
        # unequal category counts and cut points, so a lo/hi transposition
        # of the bounds or the wrong pair's rho changes every cell
        pairs = [("polychoric", 3, 2), ("polychoric", 2, 1)] if mode == mc.CUSTOM else None
        system = mc.build_system(design243().specs, mode, pairs=pairs)
        rng = np.random.default_rng(8)
        theta = np.concatenate(
            [np.sort(rng.uniform(-1.0, 1.0, s - 1)) for s in system.s]
            + [rng.uniform(-0.8, 0.8, len(system.all_coefficients))]
        )
        cuts = mc.ThresholdSet.from_array(theta[: system.n_thr], [s - 1 for s in system.s])
        b = model_terms(theta, system, include_removed=True)
        cells = [(pos, eq) for pos, eq in enumerate(system.equations) if eq[0] == "xx"]
        assert len(cells) == (20 if pairs else 26)
        for pos, (_, lo, hi, k, l) in cells:
            b_lo, b_hi = cuts.with_bounds(lo - 1), cuts.with_bounds(hi - 1)
            rho = theta[system.coef_pos[("polychoric", hi, lo)]]

            def cdf(i, j):
                return binorm_cdf_legendre(b_lo[i], b_hi[j], rho)

            rect = cdf(k, l) - cdf(k, l - 1) - cdf(k - 1, l) + cdf(k - 1, l - 1)
            assert b[pos] == pytest.approx(rect, rel=0, abs=1e-15)


class TestRedundancyIdentities:
    def test_per_sample_identities(self, four_var_system):
        system = four_var_system
        data = mc.generate(design1(n=400, replications=2, seed=3), 0)
        theta = _theta(system, [0.05, -0.1], np.full(6, 0.3))
        A = data_products(data, system, include_removed=True)
        b = model_terms(theta, system, include_removed=True)
        U = A - b
        eqs = system.equations
        # threshold equations of each variable sum to zero
        for i2 in (1, 2):
            rows = [k for k, e in enumerate(eqs) if e[0] == "h" and e[1] == i2]
            assert np.max(np.abs(U[:, rows].sum(axis=1))) < 1e-12
        # the complete polyserial set of pair (i1, i2) sums to Y_i1
        for i1 in (1, 2):
            for i2 in (1, 2):
                rows = [
                    k
                    for k, e in enumerate(eqs)
                    if e[0] == "yx" and e[1] == i1 and e[2] == i2
                ]
                assert (
                    np.max(np.abs(U[:, rows].sum(axis=1) - data.y[:, i1 - 1])) < 1e-12
                )
        # the complete polychoric cell set sums to zero
        rows = [k for k, e in enumerate(eqs) if e[0] == "xx"]
        assert np.max(np.abs(U[:, rows].sum(axis=1))) < 1e-12

    def test_unpruned_omega_rank_deficient(self, four_var_system):
        system = four_var_system
        data = mc.generate(design1(n=400, replications=2, seed=3), 0)
        theta = _theta(system, [0.05, -0.1], np.full(6, 0.3))
        A = data_products(data, system, include_removed=True)
        b = model_terms(theta, system, include_removed=True)
        U = A - b
        omega = U.T @ U / U.shape[0]
        evals = np.linalg.eigvalsh(omega)
        rank = int(np.sum(evals > 1e-10 * evals[-1]))
        removed = system.q_full - system.q
        assert system.q_full - rank >= removed


class TestCompiledMoments:
    @pytest.mark.parametrize("rows", ["all", "g_rows"])
    def test_omega_is_centred_covariance_plus_mm(self, c2d3_system, rows):
        # Omega_hat(theta) = E_n[(a - b)(a - b)'] = S + m m' with S the
        # centred covariance of the products: the identity the centred
        # weight of the fit rests on, at a theta off the optimum
        system = c2d3_system
        rows = slice(None) if rows == "all" else system.g_rows
        data = mc.generate(design2(n=500, replications=2, seed=11), 0)
        theta = _theta(system, [-0.3, 0.5] * 3, np.linspace(-0.2, 0.4, 10))
        compiled = CompiledMoments(data, system)
        A = data_products(data, system)
        U = A - model_terms(theta, system)
        direct = U.T @ U / U.shape[0]
        m = compiled.m(theta)[rows]
        assert np.max(np.abs(m)) > 0.01
        omega = compiled.omega(theta)[rows, rows]
        assert np.max(np.abs(omega - direct[rows, rows])) <= 1e-12
        S = np.cov(A[:, rows], rowvar=False, bias=True)
        assert np.max(np.abs(compiled.cov[rows, rows] - S)) <= 1e-12
        assert np.max(np.abs(omega - (S + np.outer(m, m)))) <= 1e-12


def _specs(c, s):
    return [mc.VariableSpec(f"Y{i + 1}") for i in range(c)] + [
        mc.VariableSpec(f"X{j + 1}", categories=sj) for j, sj in enumerate(s)
    ]


def _rank(cov):
    evals = np.linalg.eigvalsh(cov)
    return int(np.sum(evals > 1e-9 * evals[-1]))


class TestWeightedRows:
    # (c, s, mode, pairs): designs 1 and 2, wider ordinal sets, the wide
    # benchmark system, systems with no or one continuous column, min sets
    # and custom pair subsets whose polychoric blocks share ordinals
    SYSTEMS = {
        "design1": (2, (2, 2), mc.MAX_SET, None),
        "design2": (2, (3, 3, 3), mc.MAX_SET, None),
        "s3333": (2, (3, 3, 3, 3), mc.MAX_SET, None),
        "s435": (2, (4, 3, 5), mc.MAX_SET, None),
        "wide": (4, (5,) * 8, mc.MAX_SET, None),
        "c0_s342": (0, (3, 4, 2), mc.MAX_SET, None),
        "c0_s342_min": (0, (3, 4, 2), mc.MIN_SET, None),
        "c1_s43": (1, (4, 3), mc.MAX_SET, None),
        "design2_min": (2, (3, 3, 3), mc.MIN_SET, None),
        "s435_min": (2, (4, 3, 5), mc.MIN_SET, None),
        "s435_custom": (
            2,
            (4, 3, 5),
            mc.CUSTOM,
            [("polychoric", 3, 1), ("polychoric", 3, 2), ("polyserial", 1, 2)],
        ),
        "s3333_custom": (
            2,
            (3, 3, 3, 3),
            mc.CUSTOM,
            [("polychoric", 2, 1), ("polychoric", 4, 3), ("polychoric", 4, 1), ("pearson", 2, 1)],
        ),
    }

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_full_rank_and_complete(self, name):
        # on a table in which every pair of codes occurs, the weighted rows
        # of each method are independent and span every row the method
        # could weight: what they drop is an exact linear combination
        c, s, mode, pairs = self.SYSTEMS[name]
        specs = _specs(c, s)
        system = mc.build_system(specs, mode, pairs)
        rng = np.random.default_rng(3)
        n = 4000
        x = np.column_stack([rng.integers(1, sj + 1, n) for sj in s])
        data = mc.MixedDataset(specs=tuple(specs), y=rng.standard_normal((n, c)), x=x)
        cov = CompiledMoments(data, system).cov
        every = np.arange(system.q)
        for one_step, candidates in ((True, every), (False, every[system.g_rows])):
            rows = system.weighted_rows(one_step)
            assert np.all(np.diff(rows) > 0)
            assert set(rows) <= set(candidates)
            assert _rank(cov[np.ix_(rows, rows)]) == rows.size
            assert _rank(cov[np.ix_(candidates, candidates)]) == rows.size
        if name == "wide":
            assert system.weighted_rows(True).size == system.weighted_rows(False).size == 618

    def test_design2_two_step_drops_the_repeated_margins(self, c2d3_system):
        system = c2d3_system
        kept = set(system.weighted_rows(False))
        dropped = [
            system.retained_equations[r]
            for r in range(system.q_h, system.q)
            if r not in kept
        ]
        assert dropped == [
            ("xx", 1, 3, 1, 3),
            ("xx", 1, 3, 2, 3),
            ("xx", 2, 3, 1, 3),
            ("xx", 2, 3, 2, 3),
            ("xx", 2, 3, 3, 1),
            ("xx", 2, 3, 3, 2),
        ]


class TestGradient:
    def test_g12_block_is_zero(self, four_var_system):
        system = four_var_system
        theta = _theta(system, [0.2, -0.3], np.full(6, 0.4))
        G = mc.assemble_gradient(theta, system)
        assert np.all(G[: system.q_h, system.n_thr :] == 0.0)

    def test_every_active_parameter_covered(self, c2d3_system):
        system = c2d3_system
        rng = np.random.default_rng(11)
        theta = np.concatenate(
            [
                np.sort(rng.uniform(-0.8, 0.8, 2)),
                np.sort(rng.uniform(-0.8, 0.8, 2)),
                np.sort(rng.uniform(-0.8, 0.8, 2)),
                rng.uniform(-0.5, 0.5, 10),
            ]
        )
        G = mc.assemble_gradient(theta, system)
        col_norms = np.abs(G).max(axis=0)
        assert np.all(col_norms[system.active] > 1e-12)

    @pytest.mark.parametrize(
        "seed, design",
        [pytest.param(seed, design1, id=str(seed)) for seed in range(5)]
        + [pytest.param(0, design243, id="s243")],
    )
    def test_matches_finite_differences_exact_cdf(self, seed, design):
        system = mc.build_system(design().specs, mc.MAX_SET)
        rng = np.random.default_rng(seed)
        theta = np.concatenate(
            [np.sort(rng.uniform(-0.7, 0.7, s - 1)) for s in system.s]
            + [rng.uniform(-0.85, 0.85, len(system.all_coefficients))]
        )
        data = mc.generate(design(n=60, replications=2, seed=seed + 100), 0)
        G = mc.assemble_gradient(theta, system)
        h = 1e-5
        fd = np.empty_like(G)
        for j in range(system.p):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd[:, j] = (
                mc.eval_moments(data, up, system, exact_cdf=True).m
                - mc.eval_moments(data, dn, system, exact_cdf=True).m
            ) / (2 * h)
        scale = np.maximum(np.abs(G), 1e-4)
        assert np.max(np.abs(G - fd) / scale) < 1e-6

    def test_legendre_path_close_to_analytic(self, c2d3_system):
        # production CDF approximation: gradient wiring still consistent at
        # a loose tolerance (the approximation's rho-derivative differs from
        # the analytic density by more than 1e-6)
        system = c2d3_system
        rng = np.random.default_rng(42)
        theta = np.concatenate(
            [
                np.sort(rng.uniform(-0.9, 0.9, 2)),
                np.sort(rng.uniform(-0.9, 0.9, 2)),
                np.sort(rng.uniform(-0.9, 0.9, 2)),
                rng.uniform(-0.6, 0.6, 10),
            ]
        )
        data = mc.generate(design2(n=60, replications=2, seed=9), 0)
        G = mc.assemble_gradient(theta, system)
        h = 1e-5
        fd = np.empty_like(G)
        for j in range(system.p):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd[:, j] = (
                mc.eval_moments(data, up, system).m - mc.eval_moments(data, dn, system).m
            ) / (2 * h)
        scale = np.maximum(np.abs(G), 1e-3)
        assert np.max(np.abs(G - fd) / scale) < 5e-3


    @pytest.mark.parametrize(
        "order", [LegendreOrder.SECOND, LegendreOrder.THIRD], ids=["o2", "o3"]
    )
    @pytest.mark.parametrize("mode", [mc.MAX_SET, mc.MIN_SET, mc.CUSTOM])
    @pytest.mark.parametrize("design", [design1, design2, design243], ids=["d1", "d2", "d243"])
    def test_legendre_gradient_matches_finite_differences(self, design, mode, order):
        # the minimizer's gradient is the Jacobian of the approximated
        # moments themselves, to finite-difference accuracy
        pairs = [("polychoric", 2, 1), ("polyserial", 1, 2)] if mode == mc.CUSTOM else None
        system = mc.build_system(design().specs, mode, pairs=pairs)
        rng = np.random.default_rng(3)
        theta = np.concatenate(
            [np.sort(rng.uniform(-0.8, 0.8, s - 1)) for s in system.s]
            + [rng.uniform(-0.85, 0.85, len(system.all_coefficients))]
        )
        G = mc.assemble_gradient(theta, system, order)
        h = 1e-6
        fd = np.empty_like(G)
        for j in range(system.p):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd[:, j] = (model_terms(dn, system, order) - model_terms(up, system, order)) / (2 * h)
        assert np.max(np.abs(G - fd)) < 1e-8


class TestWeightMatrix:
    def test_identity(self):
        w = mc.weight_matrix(np.eye(3))
        assert np.allclose(w.matrix, np.eye(3))
        assert not w.pseudo_inverse

    def test_diagonal_inverse(self):
        w = mc.weight_matrix(np.diag([4.0, 0.25]))
        assert np.allclose(w.matrix, np.diag([0.25, 4.0]))
        assert w.condition == pytest.approx(16.0)

    def test_pruned_one_step_omega_needs_pseudo_inverse(self, four_var_system):
        # retained polychoric cells that complete a margin row stay linearly
        # dependent with the threshold equations, so even the pruned
        # full-theta moment covariance is singular
        system = four_var_system
        data = mc.generate(design1(n=300, replications=2, seed=21), 0)
        theta = _theta(system, [0.0, 0.0], np.full(6, 0.3))
        ev = mc.eval_moments(data, theta, system)
        w = mc.weight_matrix(ev.omega_hat)
        assert w.pseudo_inverse
        assert w.rank == system.q - 2

    def test_floor_sets_rank_and_inverse(self):
        # 1e-11 is below the eigenvalue floor (1e-10 of the largest) while
        # the condition number 1e11 is moderate: the direction counts as
        # zero for the rank and gets no weight
        w = mc.weight_matrix(np.diag([1.0, 1e-11]))
        assert w.pseudo_inverse
        assert w.rank == 1
        assert np.array_equal(w.matrix, np.diag([1.0, 0.0]))

    def test_positive_definite_takes_the_direct_inverse(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5))
        omega = a @ a.T + 0.5 * np.eye(5)
        w = mc.weight_matrix(omega)
        inv = np.linalg.inv(omega)
        assert not w.pseudo_inverse
        assert w.rank == 5
        assert np.allclose(w.matrix, inv, rtol=1e-12, atol=0)
        # the direct path reports the 1-norm condition number
        cond_1 = np.linalg.norm(omega, 1) * np.linalg.norm(inv, 1)
        assert w.condition == pytest.approx(cond_1, rel=1e-10)

    def test_large_norm_condition_falls_back_to_eigh(self):
        # eigenvalues 1 (along the diagonal direction) and lam three times:
        # the 2-norm condition 1/lam is under 1/EIG_FLOOR, the 1-norm one
        # 1.5/lam is over it, so W comes from the eigendecomposition, which
        # keeps every direction
        lam = 1.2e-10
        v = np.full(4, 0.5)
        omega = lam * np.eye(4) + (1 - lam) * np.outer(v, v)
        assert np.linalg.norm(omega, 1) * np.linalg.norm(np.linalg.inv(omega), 1) > 1e10
        w = mc.weight_matrix(omega)
        assert not w.pseudo_inverse
        assert w.rank == 4
        assert w.condition == pytest.approx(1 / lam, rel=1e-4)
        expected = (np.eye(4) - np.outer(v, v)) / lam + np.outer(v, v)
        assert np.allclose(w.matrix, expected, rtol=1e-4, atol=0)

    def test_degenerate_weight(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DegenerateWeight):
            mc.weight_matrix(np.outer(v, v))


class TestOrderParameter:
    def test_second_vs_third_order_differ(self, four_var_system):
        system = four_var_system
        theta = _theta(system, [0.0, 0.0], np.full(6, 0.8))
        b2 = model_terms(theta, system, order=LegendreOrder.SECOND)
        b3 = model_terms(theta, system, order=LegendreOrder.THIRD)
        # only the polychoric entries depend on the order
        assert np.allclose(b2[:9], b3[:9])
        assert np.max(np.abs(b2[9:] - b3[9:])) > 1e-6
