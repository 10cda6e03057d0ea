import tracemalloc

import numpy as np
import pytest

import mixedcorr as mc
from mixedcorr.errors import UnknownPair
from mixedcorr import moments
from mixedcorr.moments import (
    CELL_ROWS,
    CHUNK_ROWS,
    PIVOT_FLOOR,
    CompiledMoments,
    _products,
    model_terms,
)
from mixedcorr.normal import LegendreOrder, binorm_cdf_legendre

import oracles
from conftest import design1, design2, design243, wide_design
from oracles import data_products


def _theta(system, thresholds, rhos):
    arr = np.concatenate([np.asarray(thresholds, dtype=float), np.asarray(rhos, dtype=float)])
    assert arr.size == system.p
    return arr


def _eval_u(row, theta, system):
    """Moment function u of one sample row (length c+d, codes in the tail)."""
    row = np.asarray(row, dtype=float)
    y, x = row[None, : system.c], row[None, system.c :].astype(np.int64)
    return _products(y, x, system, system.retained)[0] - model_terms(theta, system)


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

    @pytest.mark.parametrize(
        "specs",
        [
            [mc.VariableSpec("X", categories=3), mc.VariableSpec("Y")],
            [mc.VariableSpec("Y"), mc.VariableSpec("Y")],
        ],
        ids=["ordinal_first", "repeated_name"],
    )
    def test_rejects_the_specs_ingest_rejects(self, specs):
        # coefficient labels assume unique names, continuous variables first
        with pytest.raises(ValueError):
            mc.ingest(np.ones((3, 2)), specs)
        with pytest.raises(ValueError):
            mc.build_system(specs, mc.MAX_SET)

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
        u = _eval_u([1.0, 1.0, 1, 1], theta, system)
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
        ev = oracles.eval_moments(data, theta, four_var_system)
        assert np.max(np.abs(ev.m)) < 0.02

    def test_degenerate_average(self, four_var_system):
        row = np.array([0.7, -0.2, 1, 2], dtype=float)
        y = np.tile(row[:2], (8, 1))
        x = np.tile(row[2:].astype(np.int64), (8, 1))
        data = mc.MixedDataset(specs=tuple(design1().specs), y=y, x=x)
        theta = _theta(four_var_system, [0.1, -0.2], np.full(6, 0.25))
        ev = oracles.eval_moments(data, theta, four_var_system)
        u = _eval_u(row, theta, four_var_system)
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
        omega = oracles.eval_moments(data, theta, system).omega_hat[rows, rows]
        assert np.max(np.abs(omega - direct[rows, rows])) <= 1e-12
        S = np.cov(A[:, rows], rowvar=False, bias=True)
        assert np.max(np.abs(compiled.cov[rows, rows] - S)) <= 1e-12
        assert np.max(np.abs(omega - (S + np.outer(m, m)))) <= 1e-12

    @pytest.mark.parametrize("n", [500, CHUNK_ROWS])
    @pytest.mark.parametrize("rows", ["all", "two_step"])
    def test_one_chunk_is_the_one_pass_sum(self, c2d3_system, n, rows):
        # data of at most CHUNK_ROWS rows that the product route serves is
        # one chunk, taken as is: exactly the mean and scatter matrix of the
        # whole product array. The wide system is past the switch at any n
        # (5^8 cells); the cell route serves design 2 and agrees with the
        # one-pass sums to rounding
        wide = mc.generate(wide_design(n=n), 0)
        cases = (
            (mc.build_system(wide.specs, mc.MAX_SET), wide, False),
            (c2d3_system, mc.generate(design2(n=n, replications=2, seed=11), 0), True),
        )
        for system, data, cells in cases:
            assert moments._cells_serve(system, n) is cells
            picked = slice(None) if rows == "all" else system.weighted_rows(False)
            compiled = CompiledMoments(data, system, picked)
            A = data_products(data, system)[:, picked]
            a_mean = A.mean(axis=0)
            cov = A.T @ A
            cov /= n
            cov -= np.outer(a_mean, a_mean)
            if cells:
                assert np.max(np.abs(compiled.a_mean - a_mean)) <= 1e-13
                assert np.max(np.abs(compiled.cov - cov)) <= 1e-13
            else:
                assert np.array_equal(compiled.a_mean, a_mean)
                assert np.array_equal(compiled.cov, cov)

    @pytest.mark.parametrize("name", ["design2", "c0_s342", "d0_c3", "s243_min", "s243_custom"])
    def test_chunks_agree_with_one_pass(self, name):
        # two whole chunks and a partial one, with and without a continuous
        # or an ordinal column, and on design 2/4/3 under the min set and a
        # custom pair set that leaves an ordinal out; the cell route serves
        # each, and the coded covariance is that of the coded columns
        n = 2 * CHUNK_ROWS + 17
        system, data = _route_case(name, n)
        assert moments._cells_serve(system, n)
        _assert_one_pass_sums(CompiledMoments(data, system), data, system)

    @pytest.mark.parametrize("past", [False, True])
    def test_routes_meet_at_the_switch(self, past):
        # design 2's contraction is 3^3 cells x 4 monomial classes (1, Y1,
        # Y2 and Y1 Y2) wide: the cell route serves n from CELL_ROWS times
        # that, and one row fewer takes the product route
        n = CELL_ROWS * 27 * 4 - past
        system, data = _route_case("design2", n)
        assert moments._cells_serve(system, n) is not past
        _assert_one_pass_sums(CompiledMoments(data, system), data, system)

    def test_batch_equals_alone(self):
        # datasets of three n (the cell route in chunks, the product route
        # past the switch, the cell route in one chunk) in one batch: each
        # slice is the dataset's own, bit for bit
        ns = (2 * CHUNK_ROWS + 17, 215, 1000, 1000, 215)
        data = [_route_case("design2", n, seed)[1] for seed, n in enumerate(ns)]
        system = mc.build_system(data[0].specs, mc.MAX_SET)
        rows = system.weighted_rows(False)
        batch = CompiledMoments(data, system, rows)
        assert np.array_equal(batch.n, ns)
        for b, one in enumerate(data):
            alone = CompiledMoments(one, system, rows)
            assert np.array_equal(batch.a_mean[b], alone.a_mean)
            assert np.array_equal(batch.cov[b], alone.cov)
            assert np.array_equal(batch.coded_cov[b], alone.coded_cov)

    def test_memory_does_not_grow_with_n(self, c2d3_system):
        # the whole n x q product array of 100 000 design-2 rows would be
        # 36 MB, its factors 9.6 MB more; one chunk of each is under 2 MB
        data = mc.generate(design2(n=100_000, replications=2, seed=11), 0)
        tracemalloc.start()
        try:
            CompiledMoments(data, c2d3_system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def _route_case(name, n, seed=11):
    """The system and a dataset of n rows of one named case."""
    mode, pairs = mc.MAX_SET, None
    if name == "design2":
        data = mc.generate(design2(n=n, replications=2, seed=seed), 0)
    elif name in ("c0_s342", "d0_c3"):
        c, s = (0, (3, 4, 2)) if name == "c0_s342" else (3, ())
        rng = np.random.default_rng(4)
        x = np.empty((n, 0), int)
        if s:
            x = np.column_stack([rng.integers(1, sj + 1, n) for sj in s])
        # continuous columns off mean 0 and sd 1, as with standardize=False
        y = 1.5 + 2.0 * rng.standard_normal((n, c))
        data = mc.MixedDataset(specs=tuple(_specs(c, s)), y=y, x=x)
    else:
        data = mc.generate(design243(n=n, replications=2, seed=seed), 0)
        if name == "s243_min":
            mode = mc.MIN_SET
        else:
            mode, pairs = mc.CUSTOM, [("polychoric", 3, 2), ("polyserial", 2, 3)]
    return mc.build_system(data.specs, mode, pairs=pairs), data


def _assert_one_pass_sums(compiled, data, system):
    """The means and centred covariances of ``compiled`` are those of the
    whole product array and of the coded columns, to 1e-13, and each
    covariance is symmetric, bit for bit, as A'A is."""
    assert np.array_equal(compiled.cov, compiled.cov.T)
    assert np.array_equal(compiled.coded_cov, compiled.coded_cov.T)
    A = data_products(data, system)
    assert np.max(np.abs(compiled.a_mean - A.mean(axis=0))) <= 1e-13
    assert np.max(np.abs(compiled.cov - np.cov(A, rowvar=False, bias=True))) <= 1e-13
    coded = np.cov(np.column_stack([data.y, data.x]), rowvar=False, bias=True)
    assert np.max(np.abs(compiled.coded_cov - coded)) <= 1e-13 * np.max(np.abs(coded))


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
                oracles.eval_moments(data, up, system, exact_cdf=True).m
                - oracles.eval_moments(data, dn, system, exact_cdf=True).m
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
                oracles.eval_moments(data, up, system).m - oracles.eval_moments(data, dn, system).m
            ) / (2 * h)
        scale = np.maximum(np.abs(G), 1e-3)
        assert np.max(np.abs(G - fd) / scale) < 5e-3


    @pytest.mark.parametrize(
        "order", [LegendreOrder.SECOND, LegendreOrder.THIRD], ids=["o2", "o3"]
    )
    @pytest.mark.parametrize("mode", [mc.MAX_SET, mc.MIN_SET, mc.CUSTOM])
    @pytest.mark.parametrize(
        "specs, pairs",
        [
            pytest.param(d().specs, [("polychoric", 2, 1), ("polyserial", 1, 2)], id=name)
            for name, d in [("d1", design1), ("d2", design2), ("d243", design243)]
        ]
        # a system with no bounds, and one with no scaled model term
        + [
            pytest.param(_specs(3, []), [("pearson", 3, 1)], id="continuous"),
            pytest.param(_specs(0, [3, 2, 4]), [("polychoric", 3, 1)], id="ordinal"),
        ],
    )
    def test_legendre_gradient_matches_finite_differences(self, specs, pairs, mode, order):
        # the minimizer's gradient is the Jacobian of the approximated
        # moments themselves, to finite-difference accuracy
        system = mc.build_system(specs, mode, pairs=pairs if mode == mc.CUSTOM else None)
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


def _weight(w):
    """The weight K'K of a WeightMatrix with whitener K."""
    return w.whitener.T @ w.whitener


def _spd(q, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((q, q))
    return a @ a.T + 0.5 * np.eye(q)


def _inverse_factor(S):
    """The LAPACK inverse of the whole Cholesky factor of S, with its rounding
    above the diagonal dropped."""
    return np.tril(np.linalg.inv(np.linalg.cholesky(S)))


class TestWhitenerRecursion:
    @pytest.mark.parametrize("q", [63, 64, 65, 200, 618])
    def test_matches_the_inverse_factor(self, q):
        # blocks of more than 64 rows are halved on their Schur complement,
        # so 65 and up recurse; 64 and below are the LAPACK inverse itself
        S = _spd(q, q)
        expected = np.linalg.inv(np.linalg.cholesky(S))
        w = mc.weight_matrix(S)
        K = w.whitener
        assert not w.pseudo_inverse
        assert K.shape == (q, q)
        assert not np.any(np.triu(K, 1))
        assert np.max(np.abs(K - expected)) <= 1e-12 * np.max(np.abs(expected))
        if q <= 64:
            assert np.array_equal(K, _inverse_factor(S))


class TestWeightMatrix:
    def test_identity(self):
        w = mc.weight_matrix(np.eye(3))
        assert np.allclose(_weight(w), np.eye(3))
        assert not w.pseudo_inverse

    def test_diagonal_inverse(self):
        w = mc.weight_matrix(np.diag([4.0, 0.25]))
        assert np.allclose(_weight(w), np.diag([0.25, 4.0]))
        assert w.condition == pytest.approx(16.0)

    def test_pruned_one_step_omega_needs_pseudo_inverse(self, four_var_system):
        # retained polychoric cells that complete a margin row stay linearly
        # dependent with the threshold equations, so even the pruned
        # full-theta moment covariance is singular: the weight drops exactly
        # the 2 dependent rows and whitens the rest
        system = four_var_system
        data = mc.generate(design1(n=300, replications=2, seed=21), 0)
        theta = _theta(system, [0.0, 0.0], np.full(6, 0.3))
        ev = oracles.eval_moments(data, theta, system)
        w = mc.weight_matrix(ev.omega_hat)
        K = w.whitener
        assert w.pseudo_inverse
        assert K.shape == (system.q - 2, system.q)
        assert np.count_nonzero(~K.any(axis=0)) == 2
        assert np.allclose(K @ ev.omega_hat @ K.T, np.eye(system.q - 2), atol=1e-8)

    def test_pivot_floor_is_scale_invariant(self):
        # each pivot is compared with PIVOT_FLOOR times its own row's
        # variance, so a row 1e-11 the size of another is kept
        w = mc.weight_matrix(np.diag([1.0, 1e-11]))
        assert not w.pseudo_inverse
        assert np.allclose(_weight(w), np.diag([1.0, 1e11]), rtol=1e-14, atol=0)

    def test_positive_definite_takes_the_direct_inverse(self):
        omega = _spd(5, 9)
        w = mc.weight_matrix(omega)
        inv = np.linalg.inv(omega)
        assert not w.pseudo_inverse
        assert w.whitener.shape == (5, 5)
        assert np.allclose(_weight(w), inv, rtol=1e-12, atol=0)
        # the direct path reports a bound on the 1-norm condition number
        cond_1 = np.linalg.norm(omega, 1) * np.linalg.norm(inv, 1)
        assert w.condition >= cond_1 * (1 - 1e-12)

    def test_direct_whitener_is_the_inverse_cholesky_factor(self):
        # 200 rows: the whitener recursion halves S
        omega = _spd(200, 3)
        w = mc.weight_matrix(omega)
        K = w.whitener
        inv = np.linalg.inv(omega)
        assert not w.pseudo_inverse
        assert not np.any(np.triu(K, 1))
        assert np.max(np.abs(K.T @ K - inv)) <= 1e-12 * np.max(np.abs(inv))
        assert w.condition >= np.linalg.cond(omega, 1) * (1 - 1e-12)

    @pytest.mark.parametrize("name", ["design2", "wide"])
    def test_certified_weight_is_the_whole_factor(self, name):
        # every pivot clears the floor: K is the inverse of the Cholesky
        # factor of S, bit for bit that of the whole factor where S has at
        # most 64 rows (design 2), and its bound is the reported condition
        design = design2() if name == "design2" else wide_design()
        data = mc.generate(design, 0)
        system = mc.build_system(data.specs, mc.MAX_SET)
        S = CompiledMoments(data, system, system.weighted_rows(False)).cov
        w = mc.weight_matrix(S)
        K = w.whitener
        assert not w.pseudo_inverse
        if name == "design2":
            assert len(S) <= 64
            assert np.array_equal(K, _inverse_factor(S))
        else:
            expected = np.linalg.inv(np.linalg.cholesky(S))
            assert not np.any(np.triu(K, 1))
            assert np.max(np.abs(K - expected)) <= 1e-12 * np.max(np.abs(expected))
        bound = np.linalg.norm(S, 1) * np.linalg.norm(K, 1) * np.linalg.norm(K, np.inf)
        assert w.condition == bound

    def test_large_norm_condition_keeps_the_whole_factor(self):
        # eigenvalues 1 (along the diagonal direction) and lam three times:
        # the 1-norm condition 1.5/lam is over 1e10, yet every pivot clears
        # the floor, so K is the whole inverse Cholesky factor and its
        # bound the reported condition
        lam = 1.2e-10
        v = np.full(4, 0.5)
        omega = lam * np.eye(4) + (1 - lam) * np.outer(v, v)
        assert np.linalg.norm(omega, 1) * np.linalg.norm(np.linalg.inv(omega), 1) > 1e10
        w = mc.weight_matrix(omega)
        assert not w.pseudo_inverse
        assert np.array_equal(w.whitener, _inverse_factor(omega))
        assert w.condition >= 1.5 / lam * (1 - 1e-4)
        expected = (np.eye(4) - np.outer(v, v)) / lam + np.outer(v, v)
        assert np.allclose(_weight(w), expected, rtol=1e-4, atol=0)

    def test_degenerate_weight(self):
        # a rank-one S keeps its first row: each later row is a multiple of it
        v = np.array([1.0, 2.0, 3.0, 4.0])
        w = mc.weight_matrix(np.outer(v, v))
        assert w.pseudo_inverse
        assert np.array_equal(w.whitener, [[1.0, 0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("dependent", [[5], [3, 70], [0, 64, 65, 129], [40, 41, 42, 100, 101]])
    def test_drops_the_rows_an_in_order_walk_drops(self, dependent):
        # 130 rows (halved twice, and 64-row blocks factored whole), each
        # listed row made a combination of the rows before it, or zero.
        # The kept rows are those whose residual variance given the rows
        # kept before them clears the floor, one row at a time
        rng = np.random.default_rng(sum(dependent))
        A = rng.standard_normal((400, 130))
        for j in dependent:
            A[:, j] = A[:, :j] @ rng.standard_normal(j) if j else 0.0
        S = np.cov(A, rowvar=False)
        kept = []
        for j in range(130):
            b = S[kept, j]
            pivot = S[j, j] - b @ np.linalg.solve(S[np.ix_(kept, kept)], b) if kept else S[j, j]
            if pivot > PIVOT_FLOOR * S[j, j]:
                kept.append(j)
        w = mc.weight_matrix(S)
        K = w.whitener
        assert kept == sorted(set(range(130)) - set(dependent))
        assert w.pseudo_inverse
        assert np.array_equal(np.flatnonzero(K.any(axis=0)), kept)
        assert np.allclose(K @ S @ K.T, np.eye(len(kept)), atol=1e-10)
        # K is the inverse Cholesky factor of the kept rows' covariance
        S_k = S[np.ix_(kept, kept)]
        assert np.allclose(K[:, kept], np.linalg.inv(np.linalg.cholesky(S_k)), atol=1e-10)

    def test_empty_covariance_keeps_no_row(self):
        w = mc.weight_matrix(np.zeros((3, 3)))
        assert w.pseudo_inverse and w.whitener.shape == (0, 3)


class TestOrderParameter:
    def test_second_vs_third_order_differ(self, four_var_system):
        system = four_var_system
        theta = _theta(system, [0.0, 0.0], np.full(6, 0.8))
        b2 = model_terms(theta, system, order=LegendreOrder.SECOND)
        b3 = model_terms(theta, system, order=LegendreOrder.THIRD)
        # only the polychoric entries depend on the order
        assert np.allclose(b2[:9], b3[:9])
        assert np.max(np.abs(b2[9:] - b3[9:])) > 1e-6
