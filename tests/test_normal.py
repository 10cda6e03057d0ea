import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixedcorr
from mixedcorr.errors import OutOfRange, SingularCorrelation
from mixedcorr.normal import (
    LegendreOrder,
    binorm_cdf_legendre,
    binorm_pdf,
    norm_cdf,
    norm_pdf,
    norm_quantile,
)

from oracles import binorm_cdf_oracle

INV_ROOT2PI = 0.3989422804014327
# quarter-plane probability Phi(0,0;rho) = 1/4 + arcsin(rho)/(2 pi)
ARCSINE_08 = 0.39758361765043326
ARCSINE_M08 = 0.10241638234956671


class TestNormPdf:
    def test_at_zero(self):
        assert norm_pdf(0.0) == pytest.approx(INV_ROOT2PI, abs=1e-15)

    def test_frozen_value(self):
        # mpmath npdf(1) to 15 digits
        assert norm_pdf(1.0) == pytest.approx(0.241970724519143350, abs=1e-15)

    def test_symmetry(self):
        z = np.linspace(-4, 4, 33)
        assert np.allclose(norm_pdf(z), norm_pdf(-z), rtol=0, atol=0)

    def test_infinite_argument_is_exactly_zero(self):
        assert norm_pdf(np.inf) == 0.0
        assert norm_pdf(-np.inf) == 0.0


class TestNormCdf:
    def test_center_and_bounds(self):
        assert norm_cdf(0.0) == 0.5
        assert norm_cdf(-np.inf) == 0.0
        assert norm_cdf(np.inf) == 1.0

    def test_frozen_value(self):
        # mpmath ncdf(0.431) to 15 digits
        assert norm_cdf(0.431) == pytest.approx(0.666765814757099820, abs=1e-12)

    def test_monotone(self):
        z = np.linspace(-6, 6, 200)
        assert np.all(np.diff(norm_cdf(z)) > 0)

    def test_matches_scipy_ndtr(self):
        from scipy.special import ndtr

        z = np.linspace(-10.0, 8.3, 20001)
        assert np.max(np.abs(norm_cdf(z) - ndtr(z)) / ndtr(z)) <= 1e-14

    def test_matches_scipy_ndtr_in_the_lower_tail(self):
        # erfc of a large argument amplifies the rounding of z * sqrt(1/2) by
        # about z^2, hence the wider bound. Below z = -37.5 the result is
        # subnormal and carries fewer than 53 bits (scipy returns 0 from
        # z = -37.7 on), so the smallest normal float is the absolute floor
        from scipy.special import ndtr

        z = np.linspace(-38.4, -10.0, 20001)
        tiny = np.finfo(float).tiny
        assert np.all(np.abs(norm_cdf(z) - ndtr(z)) <= 1e-12 * ndtr(z) + tiny)
        normal = ndtr(z) > tiny
        assert normal.sum() > 19000
        assert np.max(np.abs(norm_cdf(z) - ndtr(z))[normal] / ndtr(z)[normal]) <= 1e-12

    def test_scalar_in_float_out(self):
        assert type(norm_cdf(0.3)) is float
        assert type(norm_cdf(np.float64(-1.2))) is float
        assert norm_cdf(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]
        assert norm_cdf(np.zeros((2, 3))).shape == (2, 3)


class TestNormQuantile:
    def test_median(self):
        assert norm_quantile(0.5) == 0.0

    def test_paper_ternary_threshold(self):
        assert norm_quantile(1.0 / 3.0) == pytest.approx(-0.431, abs=5e-4)

    def test_roundtrip(self):
        p = np.linspace(0.001, 0.999, 57)
        assert np.max(np.abs(norm_cdf(norm_quantile(p)) - p)) < 1e-12

    def test_symmetry(self):
        for p in (0.01, 0.25, 0.4, 0.75):
            assert norm_quantile(p) == pytest.approx(-norm_quantile(1 - p), abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_out_of_range(self, p):
        with pytest.raises(OutOfRange):
            norm_quantile(p)

    @pytest.mark.parametrize("p", [np.nan, [0.3, np.nan]])
    def test_nan_rejected(self, p):
        with pytest.raises(OutOfRange):
            norm_quantile(p)

    def test_matches_scipy_ndtri(self):
        from scipy.special import ndtri

        p = np.concatenate(
            (
                [1e-300, 1e-200, 1e-100, 1e-30, 1e-10, 1e-5],
                np.linspace(1e-4, 1.0 - 1e-4, 20001),
                [1.0 - 1e-10, 1.0 - 1e-16],
            )
        )
        q = norm_quantile(p)
        assert np.max(np.abs(q - ndtri(p)) / np.maximum(np.abs(ndtri(p)), 1e-300)) <= 2e-15
        assert type(norm_quantile(0.3)) is float


class TestBinormPdf:
    def test_independent_origin(self):
        assert binorm_pdf(0, 0, 0) == pytest.approx(1 / (2 * np.pi), abs=1e-15)

    def test_frozen_value(self):
        assert binorm_pdf(0, 0, 0.8) == pytest.approx(0.2652582384864922, abs=1e-15)

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(2, 40))
        for rho in (-0.7, 0.0, 0.4):
            assert np.allclose(binorm_pdf(x, y, rho), binorm_pdf(y, x, rho))

    def test_singular(self):
        for rho in (1.0, -1.0, 1.2):
            with pytest.raises(SingularCorrelation):
                binorm_pdf(0.0, 0.0, rho)

    def test_infinite_arguments(self):
        assert binorm_pdf(np.inf, 0.3, 0.5) == 0.0
        assert binorm_pdf(0.3, -np.inf, 0.5) == 0.0


class TestBinormCdfLegendre:
    @pytest.mark.parametrize("order", [LegendreOrder.SECOND, LegendreOrder.THIRD])
    def test_independence_origin(self, order):
        assert binorm_cdf_legendre(0, 0, 0, order) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("order", [LegendreOrder.SECOND, LegendreOrder.THIRD])
    def test_rho_zero_factorizes(self, order):
        for x, y in [(-1.2, 0.4), (0.0, 2.0), (1.7, -0.3)]:
            assert binorm_cdf_legendre(x, y, 0.0, order) == pytest.approx(
                norm_cdf(x) * norm_cdf(y), abs=1e-15
            )

    def test_arcsine_identity_third_order(self):
        assert binorm_cdf_legendre(0, 0, 0.8, LegendreOrder.THIRD) == pytest.approx(
            ARCSINE_08, abs=2e-4
        )

    def test_infinite_shortcuts(self):
        assert binorm_cdf_legendre(np.inf, 0.7, 0.5) == norm_cdf(0.7)
        assert binorm_cdf_legendre(0.7, np.inf, 0.5) == norm_cdf(0.7)
        assert binorm_cdf_legendre(-np.inf, 0.7, 0.5) == 0.0
        assert binorm_cdf_legendre(np.inf, np.inf, 0.5) == 1.0

    def test_singular(self):
        with pytest.raises(SingularCorrelation):
            binorm_cdf_legendre(0.0, 0.0, 0.9995)

    def test_monotone_in_each_argument(self):
        # monotone up to the approximation error (the quadrature error
        # wiggles by ~1e-5 in the tails); the oracle is strictly monotone
        grid = np.linspace(-2.5, 2.5, 11)
        for rho in (-0.8, -0.3, 0.5, 0.9):
            vals = binorm_cdf_legendre(grid[:, None], grid[None, :], rho)
            assert np.all(np.diff(vals, axis=0) > -1e-4)
            assert np.all(np.diff(vals, axis=1) > -1e-4)
        small = np.linspace(-2.0, 2.0, 6)
        for rho in (-0.8, 0.5):
            vals = np.array(
                [[binorm_cdf_oracle(x, y, rho) for y in small] for x in small]
            )
            assert np.all(np.diff(vals, axis=0) > -1e-12)
            assert np.all(np.diff(vals, axis=1) > -1e-12)

    def test_matches_oracle_coarse_grid(self):
        pts = np.linspace(-2.0, 2.0, 9)
        worst = 0.0
        for rho in (-0.9, -0.5, 0.2, 0.7, 0.9):
            for x in pts:
                for y in pts:
                    err = abs(
                        binorm_cdf_legendre(x, y, rho, LegendreOrder.THIRD)
                        - binorm_cdf_oracle(x, y, rho)
                    )
                    worst = max(worst, err)
        assert worst < 1e-3


class TestBinormCdfOracle:
    def test_arcsine_identity(self):
        assert binorm_cdf_oracle(0, 0, 0.8) == pytest.approx(ARCSINE_08, abs=1e-9)
        assert binorm_cdf_oracle(0, 0, -0.8) == pytest.approx(ARCSINE_M08, abs=1e-9)

    def test_rho_zero(self):
        assert binorm_cdf_oracle(0.3, -1.1, 0.0) == pytest.approx(
            norm_cdf(0.3) * norm_cdf(-1.1), abs=1e-15
        )

    def test_rho_derivative_is_density(self):
        # dPhi(x,y;rho)/drho = phi(x,y;rho), checked by central differences
        h = 1e-5
        for x, y, rho in [(-0.5, 0.8, 0.3), (0.0, 0.0, 0.6), (1.2, -0.7, -0.4)]:
            fd = (binorm_cdf_oracle(x, y, rho + h) - binorm_cdf_oracle(x, y, rho - h)) / (
                2 * h
            )
            an = binorm_pdf(x, y, rho)
            assert abs(fd - an) / abs(an) < 1e-6


@pytest.mark.parametrize("use_oracle", [False, True])
def test_rectangle_partition_sums_to_one(use_oracle):
    cuts_x = np.array([-np.inf, -0.8, 0.3, np.inf])
    cuts_y = np.array([-np.inf, -0.431, 0.431, 1.1, np.inf])
    rho = 0.6
    cdf = binorm_cdf_oracle if use_oracle else binorm_cdf_legendre
    total = 0.0
    for i in range(len(cuts_x) - 1):
        for j in range(len(cuts_y) - 1):
            total += (
                cdf(cuts_x[i + 1], cuts_y[j + 1], rho)
                - cdf(cuts_x[i + 1], cuts_y[j], rho)
                - cdf(cuts_x[i], cuts_y[j + 1], rho)
                + cdf(cuts_x[i], cuts_y[j], rho)
            )
    assert total == pytest.approx(1.0, abs=1e-8)


def test_fits_and_cli_fit_load_no_scipy(tmp_path):
    # the normal kernels come from the standard library: importing the
    # package, fitting by both methods and a command-line fit load no scipy
    rng = np.random.default_rng(1)
    y = rng.standard_normal(300)
    x = 1 + (y + rng.standard_normal(300) > 0)
    csv = tmp_path / "cli.csv"
    np.savetxt(csv, np.column_stack([y, x]), delimiter=",", header="Y,X", comments="")
    src = Path(mixedcorr.__file__).resolve().parent.parent
    design = src.parent / "designs" / "table2_n1000.json"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = f"""
import json
import sys
import mixedcorr as mc
from mixedcorr import cli

with open({str(design)!r}) as fh:
    data = mc.generate(mc.SimDesign.from_dict(json.load(fh)), 0)
system = mc.build_system(data.specs, mc.MAX_SET)
for method in (mc.TWO_STEP, mc.ONE_STEP):
    assert mc.fit(data, system, mc.FitConfig(method=method)).diagnostics.converged
argv = ["fit", "--data", {str(csv)!r}, "--continuous", "Y", "--ordinal", "X:2",
        "--out", {str(tmp_path / "report.json")!r}]
assert cli.main(argv) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "report.json").exists()


def test_import_leaves_oracle_modules_unloaded():
    # scipy.integrate and scipy.optimize serve only the test oracles, and
    # scipy.linalg would add its import time to every command
    src = str(Path(mixedcorr.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, mixedcorr; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.linalg') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the package's one third-party dependency: every absolute
    # import of every module, those inside functions included, names a
    # standard-library module or numpy
    package = Path(mixedcorr.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    imported = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported.update((path.name, name.partition(".")[0]) for name in names)
    assert len(modules) > 1 and ("moments.py", "numpy") in imported
    foreign = [
        (module, name)
        for module, name in sorted(imported)
        if name not in sys.stdlib_module_names and name != "numpy"
    ]
    assert foreign == []
