"""Univariate and bivariate standard-normal kernels.

The bivariate distribution function is needed only through rectangle
probabilities of threshold cells, so the production path approximates

    Phi(x, y; rho) = Phi(x)Phi(y) + int_0^rho phi(x, y; r) dr

by Gauss-Legendre quadrature of the integral term:

    order 2:  rho/2 * [phi(x,y; (3-sqrt(3))/6 rho) + phi(x,y; (3+sqrt(3))/6 rho)]
    order 3:  rho/18 * [5 phi(x,y; (1-sqrt(3/5))/2 rho) + 8 phi(x,y; rho/2)
                        + 5 phi(x,y; (1+sqrt(3/5))/2 rho)]

plus Phi(x)Phi(y).  A slow adaptive-quadrature oracle of the same identity
is provided for testing.

Thresholds at the ends of the category scale are passed in as literal
+-inf, never as large finite stand-ins: phi(+-inf) = 0 and
Phi(+-inf) in {0, 1} hold exactly.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri

from .errors import OutOfRange, SingularCorrelation

__all__ = [
    "LegendreOrder",
    "RHO_MAX",
    "norm_pdf",
    "norm_cdf",
    "norm_quantile",
    "binorm_pdf",
    "binorm_cdf_legendre",
    "binorm_cdf_oracle",
    "zphi",
]

ROOT2PI = np.sqrt(2.0 * np.pi)

# Correlations are kept inside this box everywhere; the quadrature kernel is
# ill-conditioned at the boundary.
RHO_MAX = 0.999


class LegendreOrder(enum.Enum):
    """Order of the Gauss-Legendre approximation of the bivariate CDF."""

    SECOND = 2
    THIRD = 3


def norm_pdf(z):
    """Standard normal density, elementwise; exactly 0 at +-inf."""
    z = np.asarray(z, dtype=float)
    out = np.where(np.isinf(z), 0.0, np.exp(-0.5 * np.where(np.isinf(z), 0.0, z) ** 2) / ROOT2PI)
    return out if out.ndim else float(out)


def zphi(z):
    """z * phi(z), elementwise, with the limit value 0 at +-inf."""
    z = np.asarray(z, dtype=float)
    zf = np.where(np.isinf(z), 0.0, z)
    out = np.where(np.isinf(z), 0.0, zf * np.exp(-0.5 * zf**2) / ROOT2PI)
    return out if out.ndim else float(out)


def norm_cdf(z):
    """Standard normal distribution function, elementwise; exact at +-inf."""
    out = ndtr(np.asarray(z, dtype=float))
    return out if np.ndim(out) else float(out)


def norm_quantile(p):
    """Inverse of norm_cdf on the open interval (0, 1).

    Raises OutOfRange for p <= 0 or p >= 1 (infinite thresholds are
    represented explicitly by the caller, not produced here).
    """
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise OutOfRange("quantile argument must lie strictly between 0 and 1")
    out = ndtri(p)
    return out if out.ndim else float(out)


def _check_rho(rho, limit):
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.abs(rho) <= limit):  # also rejects NaN
        raise SingularCorrelation(f"|rho| must be <= {limit}")
    return rho


def _finite_parts(x, y):
    """Mask of points with an infinite coordinate, and x, y zeroed there."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inf = np.isinf(x) | np.isinf(y)
    return inf, np.where(inf, 0.0, x), np.where(inf, 0.0, y)


def binorm_pdf(x, y, rho):
    """Standard bivariate normal density with correlation rho, elementwise.

    Requires |rho| < 1. Infinite arguments give exactly 0.
    """
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.abs(rho) < 1.0):  # also rejects NaN
        raise SingularCorrelation("binorm_pdf requires |rho| < 1")
    inf, xf, yf = _finite_parts(x, y)
    out = np.where(inf, 0.0, _bpdf_raw(xf, yf, rho))
    return out if out.ndim else float(out)


# Gauss-Legendre nodes on [0, 1] used by the two approximation orders.
_NODES = {
    LegendreOrder.SECOND: (
        np.array([(3.0 - np.sqrt(3.0)) / 6.0, (3.0 + np.sqrt(3.0)) / 6.0]),
        np.array([0.5, 0.5]),
    ),
    LegendreOrder.THIRD: (
        np.array([(1.0 - np.sqrt(0.6)) / 2.0, 0.5, (1.0 + np.sqrt(0.6)) / 2.0]),
        np.array([5.0, 8.0, 5.0]) / 18.0,
    ),
}


def _bpdf_raw(xf, yf, rho):
    # finite arguments and |rho| < 1 assumed; no validation
    d = 1.0 - rho * rho
    return np.exp(-(xf * xf - 2.0 * rho * xf * yf + yf * yf) / (2.0 * d)) / (
        2.0 * np.pi * np.sqrt(d)
    )


def binorm_cdf_legendre(x, y, rho, order=LegendreOrder.THIRD):
    """P(X <= x, Y <= y) for standard bivariate normals, Legendre-approximated.

    Arguments broadcast elementwise. x and y may be +-inf: the quadrature
    term is zeroed there, so Phi(x)Phi(y) gives the exact marginal (0,
    Phi(y), Phi(x) or 1). Requires |rho| <= RHO_MAX.
    """
    rho = _check_rho(rho, RHO_MAX)
    inf, xf, yf = _finite_parts(x, y)
    nodes, weights = _NODES[order]
    # all nodes in one density call, along a new leading axis
    axis = (-1,) + (1,) * max(inf.ndim, rho.ndim)
    terms = weights.reshape(axis) * _bpdf_raw(xf, yf, nodes.reshape(axis) * rho)
    quad = sum(terms[1:], terms[0])
    out = rho * np.where(inf, 0.0, quad) + ndtr(x) * ndtr(y)
    return out if out.ndim else float(out)


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
        return float(ndtr(y))
    if y == np.inf:
        return float(ndtr(x))
    base = float(ndtr(x) * ndtr(y))
    if rho == 0.0:
        return base
    val, _ = integrate.quad(
        lambda r: binorm_pdf(x, y, r), 0.0, rho, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    return base + val
