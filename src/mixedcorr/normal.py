"""Univariate and bivariate standard-normal kernels.

The bivariate distribution function is needed only through rectangle
probabilities of threshold cells, so the production path approximates

    Phi(x, y; rho) = Phi(x)Phi(y) + int_0^rho phi(x, y; r) dr

by Gauss-Legendre quadrature of the integral term:

    order 2:  rho/2 * [phi(x,y; (3-sqrt(3))/6 rho) + phi(x,y; (3+sqrt(3))/6 rho)]
    order 3:  rho/18 * [5 phi(x,y; (1-sqrt(3/5))/2 rho) + 8 phi(x,y; rho/2)
                        + 5 phi(x,y; (1+sqrt(3/5))/2 rho)]

plus Phi(x)Phi(y).

The univariate kernels come from the standard library: Phi(z) =
erfc(-z / sqrt(2)) / 2 by ``math.erfc`` and its inverse by ``statistics.NormalDist().inv_cdf`` (Wichura's AS 241), each
evaluated one value at a time. Phi so computed is about ten times slower
per value than scipy's vectorized ``ndtr``, so the model evaluates it on
the threshold bounds only and reads Phi at the corners from there.

Thresholds at the ends of the category scale are passed in as literal
+-inf, never as large finite stand-ins: phi(+-inf) = 0 and
Phi(+-inf) in {0, 1} hold exactly.
"""

from __future__ import annotations

import enum
import math
import statistics

import numpy as np

from .errors import OutOfRange, SingularCorrelation

__all__ = [
    "LegendreOrder",
    "RHO_MAX",
    "norm_pdf",
    "norm_cdf",
    "norm_quantile",
    "binorm_pdf",
    "binorm_cdf_legendre",
    "legendre_densities",
    "legendre_term_grad",
]

ROOT2PI = np.sqrt(2.0 * np.pi)
# Phi(z) = erfc(z * -_SQRT1_2) / 2; multiplying by sqrt(1/2) rounds the
# argument as scipy's ndtr does, dividing by sqrt(2) would not
_SQRT1_2 = math.sqrt(0.5)
_STANDARD = statistics.NormalDist()

# Correlations are kept inside this box everywhere; the quadrature kernel is
# ill-conditioned at the boundary.
RHO_MAX = 0.999


class LegendreOrder(enum.Enum):
    """Order of the Gauss-Legendre approximation of the bivariate CDF."""

    SECOND = 2
    THIRD = 3


def norm_pdf(z):
    """Standard normal density, elementwise; exactly 0 at +-inf."""
    out = np.exp(-0.5 * np.asarray(z, dtype=float) ** 2) / ROOT2PI
    return out if out.ndim else float(out)


def _per_value(kernel, v):
    # a scalar function of the standard library applied to every entry
    out = np.fromiter(map(kernel, v.ravel().tolist()), float, v.size).reshape(v.shape)
    return out if out.ndim else float(out)


def norm_cdf(z):
    """Standard normal distribution function, elementwise; exact at +-inf.

    Computed as erfc(-z / sqrt(2)) / 2 by ``math.erfc``, one value at a
    time: within 1e-14 relative of scipy's ``ndtr`` down to z = -10 and
    within 1e-12 relative below, as far as the result is a normal float.
    """
    z = np.asarray(z, dtype=float)
    return 0.5 * _per_value(math.erfc, z * -_SQRT1_2)


def norm_quantile(p):
    """Inverse of norm_cdf on the open interval (0, 1).

    Computed by ``statistics.NormalDist().inv_cdf`` (Wichura's AS 241), one
    value at a time. Raises OutOfRange for p <= 0, p >= 1 or NaN (infinite
    thresholds are represented explicitly by the caller, not produced
    here).
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):  # also rejects NaN
        raise OutOfRange("quantile argument must lie strictly between 0 and 1")
    return _per_value(_STANDARD.inv_cdf, p)


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


def _node_axis(x, y, rho):
    # shape that puts the Legendre nodes along a new leading axis
    return (-1,) + (1,) * max(np.ndim(x), np.ndim(y), np.ndim(rho))


def legendre_densities(x, y, rho, order=LegendreOrder.THIRD):
    """phi(x, y; t rho) at each Legendre node t of ``order``, stacked along a
    new leading axis; 0 where x or y is infinite. Requires |rho| <= RHO_MAX.

    The CDF approximation and its derivatives are node sums over these
    densities, so a caller holding them can evaluate both without a second
    density call.
    """
    rho = _check_rho(rho, RHO_MAX)
    inf, xf, yf = _finite_parts(x, y)
    nodes = _NODES[order][0].reshape(_node_axis(x, y, rho))
    return np.where(inf, 0.0, _bpdf_raw(xf, yf, nodes * rho))


def binorm_cdf_legendre(x, y, rho, order=LegendreOrder.THIRD, densities=None, marginals=None):
    """P(X <= x, Y <= y) for standard bivariate normals, Legendre-approximated.

    Arguments broadcast elementwise. x and y may be +-inf: the quadrature
    term is zeroed there, so Phi(x)Phi(y) gives the exact marginal (0,
    Phi(y), Phi(x) or 1). Requires |rho| <= RHO_MAX. ``densities``, when
    given, are ``legendre_densities(x, y, rho, order)``, and ``marginals``
    the pair (Phi(x), Phi(y)).
    """
    if densities is None:
        densities = legendre_densities(x, y, rho, order)
    if marginals is None:
        marginals = norm_cdf(x), norm_cdf(y)
    terms = _NODES[order][1].reshape(_node_axis(x, y, rho)) * densities
    quad = sum(terms[1:], terms[0])
    out = np.asarray(rho, dtype=float) * quad + marginals[0] * marginals[1]
    return out if out.ndim else float(out)


def legendre_term_grad(xf, yf, rho, densities, order=LegendreOrder.THIRD):
    """Partial derivatives (d/drho, d/dx, d/dy) of the Legendre term
    rho sum_t w_t phi(x, y; t rho) of ``binorm_cdf_legendre``.

    ``xf``, ``yf`` are the coordinates with +-inf replaced by 0 and
    ``densities`` is ``legendre_densities(x, y, rho, order)``, which is 0
    where a coordinate is infinite, so the term's partials are 0 there.
    The partials of the approximated CDF add (0, phi(x)Phi(y),
    phi(y)Phi(x)). With r = t rho, D = 1 - r^2 and the log-density slopes
    gx = (r y - x) / D, gy = (r x - y) / D, the identity
    d phi / dr = d^2 phi / dx dy = phi (gx gy + r / D) gives

        d/drho [rho phi(x, y; r)] = phi (1 + r gx gy + r^2 / D)
        d/dx   [rho phi(x, y; r)] = rho phi gx
    """
    nodes, weights = _NODES[order]
    axis = _node_axis(xf, yf, rho)
    r = nodes.reshape(axis) * rho
    rr = r * r
    dinv = 1.0 / (1.0 - rr)
    gx = (r * yf - xf) * dinv
    gy = (r * xf - yf) * dinv
    factors = np.stack((1.0 + r * gx * gy + rr * dinv, rho * gx, rho * gy))
    # one reduction over the node axis, in a fixed order
    return tuple((weights.reshape(axis) * densities * factors).sum(axis=1))

