import numpy as np
import pytest

import mixedcorr as mc

ACCEPT_SEED = 20260810

R_DESIGN1 = np.array(
    [
        [1.0, 0.3, 0.4, 0.5],
        [0.3, 1.0, 0.6, 0.7],
        [0.4, 0.6, 1.0, 0.8],
        [0.5, 0.7, 0.8, 1.0],
    ]
)
TRUE1 = np.array([0.3, 0.4, 0.5, 0.6, 0.7, 0.8])

R_DESIGN2 = np.array(
    [
        [1.0, -0.4, -0.3, -0.2, -0.1],
        [-0.4, 1.0, 0.0, 0.1, 0.2],
        [-0.3, 0.0, 1.0, 0.3, 0.4],
        [-0.2, 0.1, 0.3, 1.0, 0.5],
        [-0.1, 0.2, 0.4, 0.5, 1.0],
    ]
)
TRUE2 = np.array([-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
TERNARY_CUTS = [-0.431, 0.431]

R_243 = np.array(
    [
        [1.0, 0.35, 0.3, -0.2, 0.25],
        [0.35, 1.0, 0.4, 0.1, -0.3],
        [0.3, 0.4, 1.0, 0.45, 0.2],
        [-0.2, 0.1, 0.45, 1.0, 0.5],
        [0.25, -0.3, 0.2, 0.5, 1.0],
    ]
)


def design1(n=1000, replications=2, seed=ACCEPT_SEED, fit=None):
    return mc.SimDesign(
        continuous=("Y1", "Y2"),
        ordinal=(("X1", [0.0]), ("X2", [0.0])),
        r_true=R_DESIGN1,
        n=n,
        replications=replications,
        seed=seed,
        fit=fit or mc.FitConfig(),
        name="design1",
    )


def design2(n=1000, replications=2, seed=ACCEPT_SEED, fit=None):
    return mc.SimDesign(
        continuous=("Y1", "Y2"),
        ordinal=(("X1", TERNARY_CUTS), ("X2", TERNARY_CUTS), ("X3", TERNARY_CUTS)),
        r_true=R_DESIGN2,
        n=n,
        replications=replications,
        seed=seed,
        fit=fit or mc.FitConfig(),
        name="design2",
    )


def design243(n=1000, replications=2, seed=ACCEPT_SEED, fit=None):
    """Ordinals of 2, 4 and 3 categories with unequal thresholds: every
    polychoric block pairs different category counts and cut points."""
    return mc.SimDesign(
        continuous=("Y1", "Y2"),
        ordinal=(("X1", [0.2]), ("X2", [-0.9, -0.1, 0.7]), ("X3", [-0.5, 0.6])),
        r_true=R_243,
        n=n,
        replications=replications,
        seed=seed,
        fit=fit or mc.FitConfig(),
        name="design243",
    )


def wide_design(n=2000, replications=2, seed=11):
    """c=4 continuous and d=8 five-category ordinals with one-factor
    correlations: 618 weighted rows under either method."""
    loadings = np.array([0.8, 0.7, -0.6, 0.5, 0.7, 0.6, 0.5, -0.4, 0.6, 0.7, 0.5, 0.4])
    r_true = np.outer(loadings, loadings)
    np.fill_diagonal(r_true, 1.0)
    base = np.array([-1.3, -0.5, 0.2, 0.9])
    return mc.SimDesign(
        continuous=tuple(f"Y{i + 1}" for i in range(4)),
        ordinal=tuple((f"X{j + 1}", base + 0.1 * (j % 3 - 1)) for j in range(8)),
        r_true=r_true,
        n=n,
        replications=replications,
        seed=seed,
    )


@pytest.fixture(scope="session")
def four_var_system():
    return mc.build_system(design1().specs, mc.MAX_SET)


@pytest.fixture(scope="session")
def c2d3_system():
    return mc.build_system(design2().specs, mc.MAX_SET)


@pytest.fixture(scope="session")
def design1_data():
    """One design-1 replication at n=1000."""
    return mc.generate(design1(), 0)


@pytest.fixture(scope="session")
def study1_n1000():
    """Design-1 two-step study, n=1000, N=1000 (acceptance criteria 1-2)."""
    return mc.run_study(design1(n=1000, replications=1000), workers=1, keep_estimates=True)


@pytest.fixture(scope="session")
def study2_n1000():
    """Design-2 two-step study, n=1000, N=500 (acceptance criterion 3)."""
    return mc.run_study(design2(n=1000, replications=500), workers=1)

