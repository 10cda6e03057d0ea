"""Reference computations for the output checks, made apart from the program.

Nothing here imports ``mixedcorr``: thresholds come from ``scipy.stats.norm``
and the pairwise estimates are two-stage maximum likelihood with an exact
bivariate normal CDF built on Owen's T function.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import owens_t
from scipy.stats import norm

RHO_BOUND = 0.999


def thresholds(codes, categories):
    """Normal quantiles of the cumulative category proportions of codes 1..s."""
    counts = np.bincount(np.asarray(codes, dtype=np.int64), minlength=categories + 1)[1:]
    return norm.ppf(np.cumsum(counts[:-1]) / counts.sum())


def standardize(col):
    col = np.asarray(col, dtype=float)
    return (col - col.mean()) / col.std(ddof=1)


def bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for a standard bivariate normal with correlation rho.

    Owen (1956): Phi2 = (Phi(h) + Phi(k)) / 2 - T(h, a_h) - T(k, a_k) - beta,
    with beta = 1/2 when hk < 0 (or hk = 0 and h + k < 0). Arguments are
    finite; a zero argument is moved off zero by 1e-14.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    h = np.where(h == 0.0, 1e-14, h)
    k = np.where(k == 0.0, 1e-14, k)
    sq = np.sqrt(1.0 - rho * rho)
    beta = np.where(h * k > 0.0, 0.0, 0.5)
    return (
        0.5 * (norm.cdf(h) + norm.cdf(k))
        - owens_t(h, (k - rho * h) / (h * sq))
        - owens_t(k, (h - rho * k) / (k * sq))
        - beta
    )


def _cell_table(cuts_a, cuts_b, rho):
    """Cell probabilities of the (s_a x s_b) table cut by the two threshold sets."""
    corners = np.zeros((cuts_a.size + 2, cuts_b.size + 2))
    corners[-1, 1:-1] = norm.cdf(cuts_b)
    corners[1:-1, -1] = norm.cdf(cuts_a)
    corners[-1, -1] = 1.0
    corners[1:-1, 1:-1] = bvn_cdf(cuts_a[:, None], cuts_b[None, :], rho)
    return corners[1:, 1:] - corners[1:, :-1] - corners[:-1, 1:] + corners[:-1, :-1]


def _maximize(nll):
    res = minimize_scalar(
        nll, bounds=(-RHO_BOUND, RHO_BOUND), method="bounded", options={"xatol": 1e-7}
    )
    return float(res.x)


def ml_polychoric(codes_a, codes_b, s_a, s_b):
    """Two-stage ML polychoric correlation of two ordinal columns (codes 1..s)."""
    cuts_a, cuts_b = thresholds(codes_a, s_a), thresholds(codes_b, s_b)
    counts = np.zeros((s_a, s_b))
    np.add.at(counts, (np.asarray(codes_a) - 1, np.asarray(codes_b) - 1), 1.0)

    def nll(rho):
        p = _cell_table(cuts_a, cuts_b, rho)
        return -float(np.sum(counts * np.log(np.maximum(p, 1e-300))))

    return _maximize(nll)


def ml_polyserial(y, codes, s):
    """Two-stage ML polyserial correlation of a continuous and an ordinal column."""
    cuts = np.concatenate(([-np.inf], thresholds(codes, s), [np.inf]))
    codes = np.asarray(codes, dtype=np.int64)
    upper, lower = cuts[codes], cuts[codes - 1]

    def nll(rho):
        sq = np.sqrt(1.0 - rho * rho)
        p = norm.cdf((upper - rho * y) / sq) - norm.cdf((lower - rho * y) / sq)
        return -float(np.sum(np.log(np.maximum(p, 1e-300))))

    return _maximize(nll)


def pair_ml(y, x, categories, kind, i, j):
    """ML reference for coefficient (kind, i, j) in the program's 1-based labels.

    Polyserial (i, j) pairs continuous i with ordinal j; polychoric (i, j)
    pairs ordinals i > j.
    """
    if kind == "polyserial":
        return ml_polyserial(y[:, i - 1], x[:, j - 1], categories[j - 1])
    return ml_polychoric(x[:, i - 1], x[:, j - 1], categories[i - 1], categories[j - 1])


def covariance_problems(var_r):
    """Reasons why an estimated covariance of the estimates is not valid; empty if valid."""
    problems = []
    var_r = np.asarray(var_r, dtype=float)
    if not np.all(np.isfinite(var_r)):
        return ["var_r has non-finite entries"]
    if not np.allclose(var_r, var_r.T, rtol=0.0, atol=1e-14 * np.abs(var_r).max()):
        problems.append("var_r is not symmetric")
    evals = np.linalg.eigvalsh((var_r + var_r.T) / 2.0)
    if evals.min() < -1e-12 * evals.max():
        problems.append(f"var_r has negative eigenvalue {evals.min():.3e}")
    se = np.sqrt(np.clip(np.diag(var_r), 0.0, None))
    if not np.all(se > 0.0):
        problems.append("var_r has a non-positive standard error")
    return problems
