"""Test oracles: slow, independent evaluations that the package's fast paths
are checked against. Only the tests import this module, and scipy is needed
here only.

- ``binorm_cdf_oracle``: the bivariate normal CDF by adaptive quadrature.
- ``ml_pair_oracle``: two-stage ML of one polyserial or polychoric
  coefficient.
- ``data_products`` and ``exact_model_terms``: the data products and the
  exact-CDF model terms of each equation, written out from its descriptor in
  ``system.equations`` rather than read from the index tables that
  ``moments._compile`` builds, so that a test comparing them with the
  package checks that layout instead of restating it.
- ``eval_moments``: the sample moments, the exact G and the moment
  covariance at one theta.
"""

import functools
from typing import NamedTuple

import numpy as np
from scipy import integrate
from scipy.optimize import minimize_scalar
from scipy.special import ndtr

from mixedcorr.errors import UnknownPair
from mixedcorr.estimator import estimate_thresholds
from mixedcorr.model import (
    KIND_PEARSON,
    KIND_POLYCHORIC,
    KIND_POLYSERIAL,
    ThresholdSet,
    coefficient_order,
)
from mixedcorr.moments import CompiledMoments, assemble_gradient, model_terms
from mixedcorr.normal import (
    RHO_MAX,
    LegendreOrder,
    _check_rho,
    binorm_pdf,
    norm_cdf,
    norm_pdf,
)


def binorm_cdf_oracle(x, y, rho):
    """High-accuracy bivariate normal CDF via adaptive quadrature over rho.

    Integrates Phi(x,y;rho) = Phi(x)Phi(y) + int_0^rho phi(x,y;r) dr to an
    absolute tolerance well below 1e-10. Scalar arguments only; slow, meant
    as a test oracle for binorm_cdf_legendre.
    """
    rho = float(_check_rho(rho, RHO_MAX))
    x = float(x)
    y = float(y)
    if x == -np.inf or y == -np.inf:
        return 0.0
    if x == np.inf:
        return norm_cdf(y)
    if y == np.inf:
        return norm_cdf(x)
    base = norm_cdf(x) * norm_cdf(y)
    if rho == 0.0:
        return base
    val, _ = integrate.quad(
        lambda r: binorm_pdf(x, y, r), 0.0, rho, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    return base + val


def _pair_label(data, pair):
    c, d = data.c, data.d
    order = coefficient_order(c, d)
    lab = order[pair] if isinstance(pair, int) else tuple(pair)
    if lab not in order or lab[0] not in (KIND_POLYSERIAL, KIND_POLYCHORIC):
        raise UnknownPair(f"{lab} is not a polyserial or polychoric coefficient here")
    return lab


def ml_pair_oracle(data, pair) -> float:
    """Two-stage ML estimate of a single polyserial or polychoric coefficient.

    Thresholds are fixed at their closed-form estimates; the bivariate
    likelihood is then maximized over rho alone. Test oracle only.
    """
    kind, i, j = _pair_label(data, pair)
    cuts = estimate_thresholds(data)

    if kind == KIND_POLYCHORIC:
        i2, j2 = i, j
        b_i = np.concatenate(([-np.inf], cuts[i2 - 1], [np.inf]))
        b_j = np.concatenate(([-np.inf], cuts[j2 - 1], [np.inf]))
        si, sj = data.s[i2 - 1], data.s[j2 - 1]
        counts = np.zeros((si, sj))
        for k in range(1, si + 1):
            for l in range(1, sj + 1):
                counts[k - 1, l - 1] = np.sum(
                    (data.x[:, i2 - 1] == k) & (data.x[:, j2 - 1] == l)
                )

        def nll(rho):
            total = 0.0
            for k in range(si):
                for l in range(sj):
                    if counts[k, l] == 0:
                        continue
                    p = (
                        binorm_cdf_oracle(b_i[k + 1], b_j[l + 1], rho)
                        - binorm_cdf_oracle(b_i[k + 1], b_j[l], rho)
                        - binorm_cdf_oracle(b_i[k], b_j[l + 1], rho)
                        + binorm_cdf_oracle(b_i[k], b_j[l], rho)
                    )
                    total -= counts[k, l] * np.log(max(p, 1e-300))
            return total

    else:
        y = data.y[:, i - 1]
        codes = data.x[:, j - 1]
        b = np.concatenate(([-np.inf], cuts[j - 1], [np.inf]))
        upper = b[codes]
        lower = b[codes - 1]

        def nll(rho):
            sq = np.sqrt(1.0 - rho * rho)
            p = ndtr((upper - rho * y) / sq) - ndtr((lower - rho * y) / sq)
            return -np.sum(np.log(np.maximum(p, 1e-300)))

    res = minimize_scalar(nll, bounds=(-RHO_MAX, RHO_MAX), method="bounded")
    return float(res.x)


def _equations(system, include_removed):
    return system.equations if include_removed else system.retained_equations


def data_products(data, system, include_removed=False) -> np.ndarray:
    """Per-row data products A such that u_i(theta) = A_i - b(theta), one
    column per equation: I(X_v = k) for ("h", v, k), Y_i Y_j for
    ("yy", i, j), Y_i I(X_j = k) for ("yx", i, j, k) and
    I(X_lo = k) I(X_hi = l) for ("xx", lo, hi, k, l). Column-major, the
    layout whose sums the package's means and scatter matrices take."""

    def ind(v, k):
        return (data.x[:, v - 1] == k).astype(float)

    def y(i):
        return data.y[:, i - 1]

    products = {
        "h": lambda v, k: ind(v, k),
        "yy": lambda i, j: y(i) * y(j),
        "yx": lambda i, j, k: y(i) * ind(j, k),
        "xx": lambda lo, hi, k, l: ind(lo, k) * ind(hi, l),
    }
    eqs = _equations(system, include_removed)
    out = np.empty((data.n, len(eqs)), order="F")
    for col, (kind, *idx) in zip(out.T, eqs):
        col[:] = products[kind](*idx)
    return out


def exact_model_terms(theta, system, include_removed=False) -> np.ndarray:
    """Model-implied means b(theta) under the exact bivariate CDF, one per
    equation: P(X_v = k) for ("h", v, k), rho for ("yy", i, j),
    rho (phi(a_{k-1}) - phi(a_k)) for ("yx", i, j, k) and the rectangle of
    four ``binorm_cdf_oracle`` corners for ("xx", lo, hi, k, l), with the
    bounds a of each ordinal from ``ThresholdSet.with_bounds``. Each
    corner's CDF is computed once. theta is one (p,) vector."""
    theta = np.asarray(theta, dtype=float)
    cuts = ThresholdSet.from_array(theta[: system.n_thr], [s - 1 for s in system.s])
    bounds = [cuts.with_bounds(v) for v in range(system.d)]
    cdf = [norm_cdf(b) for b in bounds]
    pdf = [norm_pdf(b) for b in bounds]
    corner = functools.lru_cache(maxsize=None)(binorm_cdf_oracle)

    def rho(*lab):
        return theta[system.coef_pos[lab]]

    def cell(lo, hi, k, l):
        r = rho(KIND_POLYCHORIC, hi, lo)

        def F(a, b):
            return corner(bounds[lo - 1][a], bounds[hi - 1][b], r)

        return F(k, l) - F(k, l - 1) - F(k - 1, l) + F(k - 1, l - 1)

    terms = {
        "h": lambda v, k: cdf[v - 1][k] - cdf[v - 1][k - 1],
        "yy": lambda i, j: rho(KIND_PEARSON, i, j),
        "yx": lambda i, j, k: rho(KIND_POLYSERIAL, i, j) * (pdf[j - 1][k - 1] - pdf[j - 1][k]),
        "xx": cell,
    }
    return np.array([terms[kind](*idx) for kind, *idx in _equations(system, include_removed)])


class MomentEvaluation(NamedTuple):
    """Sample moments m, gradient G and moment covariance Omega_hat at one theta."""

    m: np.ndarray
    G: np.ndarray
    omega_hat: np.ndarray


def eval_moments(
    data, theta, system, order=LegendreOrder.THIRD, exact_cdf=False
) -> MomentEvaluation:
    """Sample mean of u, exact-CDF analytic gradient and sample covariance
    E_n[uu'], over the retained rows. exact_cdf takes the model terms from
    ``exact_model_terms`` in place of the Legendre approximation at
    ``order``."""
    compiled = CompiledMoments(data, system)
    if exact_cdf:
        terms = exact_model_terms(theta, system)
    else:
        terms = model_terms(theta, system, order)
    m = compiled.a_mean - terms
    return MomentEvaluation(
        m=m, G=assemble_gradient(theta, system), omega_hat=compiled.cov + np.outer(m, m)
    )
