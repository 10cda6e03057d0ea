"""Blocked GMM moment system: equations, sample moments, gradient, weight matrix.

Equation layout mirrors the parameter flattening in ``model``: threshold
blocks first (one per ordinal variable), then one block per correlation
coefficient in flattening order. Within blocks, categories run 1..s; a
polychoric block iterates the lower-indexed variable's category in the
outer loop.

Redundancy removal: each threshold block and each polychoric block drops
its last equation (k = s, cell (s_lo, s_hi)); polyserial blocks drop the
last category too, except the block pairing each continuous variable with
its lowest-indexed ordinal partner, which keeps the complete set. In the
minimum equation set every coefficient block keeps only its first
equation.

Weighted rows: the retained rows still hold exact linear dependences
(the indicator products of a polychoric row or column sum to a margin),
so the weight matrix of each method covers only ``weighted_rows``, fixed
from the structure at build time (Hansen 1982 on GMM with a singular
moment covariance):

- one-step weights every retained row except the polychoric cells on the
  last category of either variable, keeping (k, l) with k < s_lo and
  l < s_hi; the threshold rows imply the dropped cells.
- two-step weights the coefficient rows (``g_rows``) except the cells that
  repeat a margin already implied. Walking the polychoric blocks in layout
  order, a block drops (k, s_hi), k < s_lo, when ``lo`` appeared in an
  earlier polychoric block, and (s_lo, l), l < s_hi, when ``hi`` did.

On a table in which every pair of codes occurs, the rows each method
keeps are independent and span all the rows it could weight. The weight
W = S^-1 of their covariance S is never formed: GMM under W is least
squares on the whitened moments K m, with K'K = W (Hansen 1982), and
``weight_matrix`` returns K. On such a table K = L^-1, the inverse of the
one Cholesky factor of S, certified by a bound on the 1-norm condition
number of S below 1/EIG_FLOOR; the eigendecomposition, whose K has a row
per eigenvalue above the floor, remains for covariances that are singular
in the data, such as those of a table with an empty cell.

The moment vector is linear in per-row data products, so sample moments
factor as m(theta) = mean(A) - b(theta) with A data-only and b(theta)
model-implied; the gradient G = -db/dtheta is deterministic.

``_compile`` is the one walk over the blocks, and the only code that
branches on the equation kind: it lays out each block's equations and
retained flags, its weighted rows and its entries in flat index tables, so
no evaluation dispatches on the equation kind. Each column of A is the
product of two factor columns out of (1, Y_i, I(X_i = k)). The bounds are
the cut points of every ordinal with their -inf/+inf ends; the corners are
the bound pairs (b_lo[k], b_hi[l]) of every pair of included ordinals,
with the pair's polychoric rho or 0 where the system has none.

The model at one theta has fields that do not depend on the Legendre order
(``_bounds``: the finite bounds, Phi, phi and z*phi there, the corner
coordinates x, y and rho) and the Legendre fields at one order (the node
densities at the corners and the corner CDF). ``_point`` memoizes both for
the last (theta, order) seen, each kernel vectorized over all bounds or
corners. The minimizer's gradient at an accepted step reads the point its
last loss evaluation left, and ``compute_sigma`` the point at a fit's
solution, evaluated anew only when the solve's last loss evaluation was a
rejected trial step. The exact kinds (the exact G and the exact-CDF
moments) read only ``_bounds`` and evaluate no Legendre densities. From
the point come

    model pool:    0, 1, phi(bounds), Phi(bounds), corner CDF F(x, y; rho)
    gradient pool: 0, 1, phi(bounds), z*phi(bounds),
                   dF/drho, dF/dx and dF/dy at the corners

and every model term and every nonzero entry of G is
scale * (v11 - v10 - v01 + v00) over four gathered pool values, with the
scale gathered from (1, theta). A threshold term is a
difference of two Phi values, a Pearson term rho itself, a polyserial term
rho times a difference of two phi values, a polychoric term the rectangle
of four corner CDFs. The threshold-moment covariance gathers its joint
cell probabilities from the same corner CDFs.

The corner partials come in two kinds, filled into the same pool slots so
that both are one scatter over the same tables:

- exact (``assemble_gradient(theta, system)``): the derivatives of the
  exact bivariate CDF, dF/drho = phi(x, y; rho) and
  dF/dx = phi(x) P(Y <= y | X = x). Criteria 5 and 7 check them, and the
  sandwich covariances of both fits use them: the asymptotic covariance
  describes the estimator of the exact model, of which the Legendre sum
  is only the evaluation rule, and with the exact G the reported
  covariance moves only through theta when the CDF order changes.
- Legendre (``assemble_gradient(theta, system, order)``): the derivatives
  of the approximation Phi(x)Phi(y) + rho sum_t w_t phi(x, y; t rho) that
  ``model_terms`` evaluates, so G is the Jacobian of the moments the loss
  is built on. The minimizer uses this kind; with the exact kind its
  search directions are not descent directions of its own loss near the
  optimum. It reuses the point's node densities, so the minimizer's
  gradient at an accepted step costs no second density evaluation.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateWeight, UnknownPair
from .model import (
    KIND_PEARSON,
    KIND_POLYCHORIC,
    KIND_POLYSERIAL,
    _split_specs,
    coefficient_order,
    coefficient_variables,
)
from .normal import (
    LegendreOrder,
    binorm_cdf_legendre,
    binorm_cdf_oracle,
    binorm_pdf,
    legendre_densities,
    legendre_term_grad,
    norm_cdf,
    norm_pdf,
)

__all__ = [
    "MAX_SET",
    "MIN_SET",
    "CUSTOM",
    "EquationBlock",
    "EquationSystem",
    "MomentEvaluation",
    "WeightMatrix",
    "build_system",
    "data_products",
    "model_terms",
    "eval_u",
    "eval_moments",
    "assemble_gradient",
    "compute_sigma",
    "weight_matrix",
    "CompiledMoments",
]

MAX_SET = "max"
MIN_SET = "min"
CUSTOM = "custom"

# Eigenvalues of the moment covariance at or below EIG_FLOOR times the
# largest one are treated as zero by the weight matrix.
EIG_FLOOR = 1e-10


@dataclass(frozen=True)
class EquationBlock:
    """One block of moment equations with its redundancy-selection mask.

    kind: "threshold" | "pearson" | "polyserial" | "polychoric"
    index: (i2,) / (i1, j1) / (i1, i2) / (i2, j2), 1-based
    equations: full tuple of equation descriptors
    retained: bool per equation
    """

    kind: str
    index: tuple
    equations: tuple
    retained: tuple


class EquationSystem:
    """Compiled block structure plus parameter-layout bookkeeping.

    theta layout is always the full one (all thresholds, all coefficients);
    ``active`` marks entries the system actually references, so custom
    subsets share indexing with full systems.
    """

    def __init__(self, c, d, s, names, mode, ordinals, coefficients, full_partner):
        self.c = int(c)
        self.d = int(d)
        self.s = tuple(int(v) for v in s)
        self.names = tuple(names)
        self.mode = mode
        self.included_ordinals = tuple(ordinals)
        self.included_coefficients = tuple(coefficients)

        # theta layout: thresholds variable by variable, then coefficients.
        self.thr_offsets = {}
        pos = 0
        for i2 in range(1, self.d + 1):
            self.thr_offsets[i2] = pos
            pos += self.s[i2 - 1] - 1
        self.n_thr = pos
        self.all_coefficients = tuple(coefficient_order(self.c, self.d))
        self.coef_pos = {
            lab: self.n_thr + k for k, lab in enumerate(self.all_coefficients)
        }
        self.p = self.n_thr + len(self.all_coefficients)

        active = np.zeros(self.p, dtype=bool)
        for i2 in self.included_ordinals:
            off = self.thr_offsets[i2]
            active[off : off + self.s[i2 - 1] - 1] = True
        for lab in self.included_coefficients:
            active[self.coef_pos[lab]] = True
        active.setflags(write=False)
        self.active = active
        self.thr_cols = np.flatnonzero(active[: self.n_thr])
        self.coef_cols = np.array(
            [self.coef_pos[lab] for lab in self.included_coefficients], dtype=int
        )

        self.blocks, self._tables, self._weighted = _compile(self, full_partner)
        self.equations = tuple(eq for b in self.blocks for eq in b.equations)
        self.retained = np.array(
            [r for b in self.blocks for r in b.retained], dtype=bool
        )
        self.retained.setflags(write=False)
        self.q_full = len(self.equations)
        self.q = int(self.retained.sum())
        self.retained_equations = tuple(
            eq for eq, r in zip(self.equations, self.retained) if r
        )
        # the threshold rows lead, one per threshold
        self.q_h = self.thr_cols.size
        self.g_rows = slice(self.q_h, self.q)

    def weighted_rows(self, one_step):
        """Retained-row indices the weight matrix of a method covers: the
        rows with no exact linear dependence among them (module docstring)."""
        return self._weighted[bool(one_step)]

    def coefficient_names(self):
        """(kind, name_i, name_j) for each included coefficient."""
        out = []
        for lab in self.included_coefficients:
            a, b = coefficient_variables(self.c, *lab)
            out.append((lab[0], self.names[a], self.names[b]))
        return out


@dataclass(frozen=True)
class _Tables:
    """Index tables of one equation system (see the module docstring)."""

    bound_src: np.ndarray  # bound -> slot in (-inf, +inf, thresholds)
    corner_x: np.ndarray  # corner -> bound of the lower-indexed ordinal
    corner_y: np.ndarray  # corner -> bound of the higher-indexed ordinal
    corner_rho: np.ndarray  # corner -> theta column of its coefficient, -1 if none
    ind_var: np.ndarray  # indicator factor -> column of x
    ind_code: np.ndarray  # indicator factor -> category code
    factors: np.ndarray  # (2, q_full) factor rows whose product is the data term
    b_scale: np.ndarray  # equation -> scale slot of its model term
    b_idx: np.ndarray  # (4, q_full) model-pool slots
    g_pos: np.ndarray  # nonzero gradient entry -> retained row * p + theta column
    g_sign: np.ndarray  # -> +-1
    g_scale: np.ndarray  # -> scale slot
    g_idx: np.ndarray  # (4, entries) gradient-pool slots
    sigma_same: np.ndarray  # (q_h, q_h) both threshold equations on one variable
    sigma_idx: np.ndarray  # (4, q_h**2) model-pool slots of the joint cell probability


def _compile(system, full_partner):
    """Lay out the blocks of ``system`` and build their gather tables and
    weighted rows in the same walk: the only dispatch on equation kind.

    ``full_partner`` maps each continuous variable to the ordinal whose
    polyserial block keeps the complete category set. Returns the blocks,
    the tables and the (two-step, one-step) weighted rows.
    """
    c, s = system.c, system.s
    minimal = system.mode == MIN_SET

    bound, bound_src = {}, []
    for v in system.included_ordinals:
        for a in range(s[v - 1] + 1):
            bound[v, a] = len(bound_src)
            cut = 1 + system.thr_offsets[v] + a
            bound_src.append(0 if a == 0 else 1 if a == s[v - 1] else cut)
    nb = len(bound_src)

    corner, corner_x, corner_y, corner_rho = {}, [], [], []
    for i, lo in enumerate(system.included_ordinals):
        for hi in system.included_ordinals[i + 1 :]:
            lab = (KIND_POLYCHORIC, hi, lo)
            col = system.coef_pos[lab] if lab in system.included_coefficients else -1
            for a in range(s[lo - 1] + 1):
                for b in range(s[hi - 1] + 1):
                    corner[lo, hi, a, b] = len(corner_x)
                    corner_x.append(bound[lo, a])
                    corner_y.append(bound[hi, b])
                    corner_rho.append(col)
    nc = len(corner_x)

    def at_bound(segment, v, a):
        return 2 + segment * nb + bound[v, a]

    def at_corner(segment, lo, hi, a, b):
        return 2 + 2 * nb + segment * nc + corner[lo, hi, a, b]

    def rect(segment, lo, hi, k, l):
        # the corners of one pair are stored row by row, s_hi + 1 per row
        v11, row = at_corner(segment, lo, hi, k, l), s[hi - 1] + 1
        return (v11, v11 - 1, v11 - row, v11 - row - 1)

    def bound_cols(v, k):
        # (theta column, sign, bound) of the finite bounds of category k
        off = system.thr_offsets[v]
        return [
            (off + a - 1, sign, a)
            for a, sign in ((k, -1.0), (k - 1, 1.0))
            if 1 <= a < s[v - 1]
        ]

    ind = {}  # factor rows: the constant 1, Y_1..Y_c, then each I(X_v = k)
    for v in system.included_ordinals:
        for k in range(1, s[v - 1] + 1):
            ind[v, k] = 1 + c + len(ind)

    Z, ONE = 0, 1  # value-pool slots of the constants 0 and 1
    UNIT = 0  # scale slot and factor row of the constant 1
    blocks, factors, terms, grad, h_rows = [], [], [], [], []
    weighted = ([], [])  # retained rows weighted by two-step, by one-step
    row = 0

    def add_block(kind, index, eqs):
        # eqs: per equation (descriptor, retained, factor rows, model term,
        # gradient entries, weighted by (two-step, one-step))
        nonlocal row
        columns = tuple(zip(*eqs))
        blocks.append(EquationBlock(kind, index, columns[0], columns[1]))
        for _, kept, factor, term, entries, weigh in eqs:
            factors.append(factor)
            terms.append(term)
            if kept:
                grad.extend((row,) + e for e in entries)
                for rows, member in zip(weighted, weigh):
                    if member:
                        rows.append(row)
                row += 1

    for v in system.included_ordinals:
        eqs = []
        for k in range(1, s[v - 1] + 1):
            kept = k < s[v - 1]
            term = (UNIT, (at_bound(1, v, k), at_bound(1, v, k - 1), Z, Z))
            if kept:
                h_rows.append((v, k))
            entries = [
                (col, sign, UNIT, (at_bound(0, v, a), Z, Z, Z))
                for col, sign, a in bound_cols(v, k)
            ]
            eqs.append((("h", v, k), kept, (UNIT, ind[v, k]), term, entries, (False, True)))
        add_block("threshold", (v,), eqs)

    # retained and weighted rows follow the rules of the module docstring
    seen = set()  # ordinals of the polychoric blocks walked so far
    for lab in system.included_coefficients:
        kind, i, j = lab
        col = system.coef_pos[lab]
        if kind == KIND_PEARSON:
            entries = [(col, -1.0, UNIT, (ONE, Z, Z, Z))]
            eqs = [(("yy", i, j), True, (i, j), (1 + col, (ONE, Z, Z, Z)), entries, (True, True))]
        elif kind == KIND_POLYSERIAL:
            eqs = []
            for k in range(1, s[j - 1] + 1):
                kept = k == 1 if minimal else full_partner[i] == j or k < s[j - 1]
                xi = (at_bound(0, j, k - 1), at_bound(0, j, k), Z, Z)
                entries = [(col, -1.0, UNIT, xi)] + [
                    (tcol, sign, 1 + col, (at_bound(1, j, a), Z, Z, Z))
                    for tcol, sign, a in bound_cols(j, k)
                ]
                eq = ("yx", i, j, k)
                eqs.append((eq, kept, (i, ind[j, k]), (1 + col, xi), entries, (True, True)))
        else:
            lo, hi = j, i
            eqs = []
            for k in range(1, s[lo - 1] + 1):
                for l in range(1, s[hi - 1] + 1):
                    last_k, last_l = k == s[lo - 1], l == s[hi - 1]
                    kept = k == l == 1 if minimal else not (last_k and last_l)
                    cell = rect(0, lo, hi, k, l)
                    entries = [(col, -1.0, UNIT, cell)]
                    # a moved bound of one variable enters through the corner CDF's
                    # partial in that variable, at both bounds of the other's category
                    for tcol, sign, a in bound_cols(lo, k):
                        v1, v0 = at_corner(1, lo, hi, a, l), at_corner(1, lo, hi, a, l - 1)
                        entries.append((tcol, sign, UNIT, (v1, v0, Z, Z)))
                    for tcol, sign, b in bound_cols(hi, l):
                        v1, v0 = at_corner(2, lo, hi, k, b), at_corner(2, lo, hi, k - 1, b)
                        entries.append((tcol, sign, UNIT, (v1, v0, Z, Z)))
                    weigh = (
                        not (last_l and lo in seen or last_k and hi in seen),
                        not (last_k or last_l),
                    )
                    eq = ("xx", lo, hi, k, l)
                    eqs.append((eq, kept, (ind[lo, k], ind[hi, l]), (UNIT, cell), entries, weigh))
            seen.update((lo, hi))
        add_block(kind, (i, j), eqs)

    sigma_same, sigma_idx = [], []
    for v, k in h_rows:
        for w, l in h_rows:
            sigma_same.append(v == w)
            if v == w:
                sigma_idx.append((Z, Z, Z, Z))
            else:
                klo, lhi = (k, l) if v < w else (l, k)
                sigma_idx.append(rect(0, min(v, w), max(v, w), klo, lhi))

    def ints(values, shape=(-1,)):
        out = np.array(values, dtype=np.intp).reshape(shape)
        out.setflags(write=False)
        return out

    nh = len(h_rows)
    grad_rows = list(zip(*grad))
    tables = _Tables(
        bound_src=ints(bound_src),
        corner_x=ints(corner_x),
        corner_y=ints(corner_y),
        corner_rho=ints(corner_rho),
        ind_var=ints([v - 1 for v, _ in ind]),
        ind_code=ints([k for _, k in ind]),
        factors=ints(factors, (-1, 2)).T,
        b_scale=ints([sc for sc, _ in terms]),
        b_idx=ints([t for _, t in terms], (-1, 4)).T,
        g_pos=ints(np.multiply(grad_rows[0], system.p) + grad_rows[1]),
        g_sign=np.array(grad_rows[2], dtype=float),
        g_scale=ints(grad_rows[3]),
        g_idx=ints(grad_rows[4], (-1, 4)).T,
        sigma_same=np.array(sigma_same, dtype=bool).reshape(nh, nh),
        sigma_idx=ints(sigma_idx, (-1, 4)).T,
    )
    return tuple(blocks), tables, tuple(ints(rows) for rows in weighted)


def _normalize_pairs(c, d, pairs):
    """Accept coefficient labels or flattening positions; return label set."""
    order = coefficient_order(c, d)
    out = []
    for p in pairs:
        if isinstance(p, (bool, np.bool_)):
            raise UnknownPair(f"coefficient position {p!r} is not an integer")
        if isinstance(p, numbers.Integral):
            if not 0 <= p < len(order):
                raise UnknownPair(f"coefficient position {p} out of range")
            out.append(order[p])
            continue
        lab = tuple(p)
        if lab not in order:
            raise UnknownPair(f"no coefficient {lab} for c={c}, d={d}")
        out.append(lab)
    return sorted(set(out), key=order.index)


def build_system(specs, mode=MAX_SET, pairs=None) -> EquationSystem:
    """Construct the blocked equation system for the given variables.

    mode "max" keeps every non-redundant equation, "min" keeps one equation
    per coefficient block, "custom" keeps max-set blocks only for the
    requested pairs (plus threshold blocks of every ordinal variable
    appearing in them).
    """
    specs = tuple(specs)
    if len(specs) < 2:
        raise ValueError("need at least two variables")
    c, d = _split_specs(specs)
    s = tuple(sp.categories for sp in specs if sp.is_ordinal)
    names = tuple(sp.name for sp in specs)

    if mode not in (MAX_SET, MIN_SET, CUSTOM):
        raise ValueError(f"unknown system mode {mode!r}")
    # a list, so that emptiness is its length (an array has no truth value)
    pairs = [] if pairs is None else list(pairs)
    if mode == CUSTOM:
        if not pairs:
            raise ValueError("custom mode requires a nonempty pair list")
        coefficients = _normalize_pairs(c, d, pairs)
    else:
        if pairs:
            raise ValueError("pair subsets require custom mode")
        coefficients = coefficient_order(c, d)

    ordinals = sorted(
        {i for kind, i, j in coefficients if kind == KIND_POLYCHORIC}
        | {j for kind, i, j in coefficients if kind == KIND_POLYCHORIC}
        | {j for kind, i, j in coefficients if kind == KIND_POLYSERIAL}
    )

    # Designated full polyserial block per continuous variable: lowest-indexed
    # ordinal partner present (keeps the complete category set).
    full_partner = {}
    for kind, i1, i2 in coefficients:
        if kind == KIND_POLYSERIAL:
            full_partner[i1] = min(full_partner.get(i1, i2), i2)

    return EquationSystem(c, d, s, names, mode, ordinals, coefficients, full_partner)


def _theta_array(theta, system):
    arr = np.asarray(theta, dtype=float)
    if arr.size != system.p:
        raise ValueError(f"theta has length {arr.size}, expected {system.p}")
    return arr


class _Bounds(NamedTuple):
    """The fields of the model at one theta that do not depend on the
    Legendre order: all the exact kinds read (module docstring)."""

    finite: np.ndarray  # bounds with +-inf replaced by 0
    cdf: np.ndarray  # Phi(bounds)
    pdf: np.ndarray  # phi(bounds)
    zphi: np.ndarray  # bounds * phi(bounds)
    x: np.ndarray  # corner coordinate on the lower-indexed ordinal
    y: np.ndarray  # corner coordinate on the higher-indexed ordinal
    rho: np.ndarray  # correlation of the corner's pair, 0 if none


# the fields of _Bounds, then the Legendre node densities at the corners and
# the Legendre corner CDF F(x, y; rho) at one order
_Point = NamedTuple(
    "_Point", [(f, np.ndarray) for f in _Bounds._fields + ("densities", "corners")]
)


def _bounds(system, theta):
    """The order-free fields of the model at ``theta``."""
    t = system._tables
    b = np.concatenate(([-np.inf, np.inf], theta[: system.n_thr]))[t.bound_src]
    # the appended 0 is the correlation of pairs without a coefficient
    rho = np.append(theta, 0.0)[t.corner_rho]
    finite = np.where(np.isinf(b), 0.0, b)
    pdf = norm_pdf(b)
    # phi is exactly 0 at +-inf, where finite holds 0: b phi(b) -> 0 there
    return _Bounds(finite, norm_cdf(b), pdf, finite * pdf, b[t.corner_x], b[t.corner_y], rho)


@functools.lru_cache(maxsize=1)
def _point(system, theta_bytes, order):
    """The model at the theta whose bytes are ``theta_bytes``, for ``order``,
    kept for the last (theta, order) seen (module docstring)."""
    pt = _bounds(system, np.frombuffer(theta_bytes, dtype=float))
    densities = legendre_densities(pt.x, pt.y, pt.rho, order)
    return _Point(*pt, densities, binorm_cdf_legendre(pt.x, pt.y, pt.rho, order, densities))


def _scales(theta):
    return np.concatenate(([1.0], theta))


def _rect(pool, idx):
    """pool[v11] - pool[v10] - pool[v01] + pool[v00] per column of idx."""
    v11, v10, v01, v00 = pool[idx]
    return v11 - v10 - v01 + v00


def _products(y, x, system, columns):
    """Data products of the equations ``columns`` selects out of all q_full."""
    t = system._tables
    n = y.shape[0] if system.c else x.shape[0]
    factors = np.empty((1 + system.c + t.ind_var.size, n))
    factors[0] = 1.0
    factors[1 : 1 + system.c] = y.T
    factors[1 + system.c :] = x.T[t.ind_var] == t.ind_code[:, None]
    left, right = t.factors[:, columns].tolist()
    # column-major, filled one column at a time: an n x q temporary would
    # double the peak memory, and the layout fixes the summation order of
    # the means and the scatter matrix
    out = np.empty((n, len(left)), order="F")
    for j, (a, b) in enumerate(zip(left, right)):
        np.multiply(factors[a], factors[b], out=out[:, j])
    return out


def data_products(data, system, include_removed=False) -> np.ndarray:
    """Per-row data products A such that u_i(theta) = A_i - b(theta)."""
    columns = slice(None) if include_removed else system.retained
    return _products(data.y, data.x, system, columns)


def _model_pool(theta, system, order=LegendreOrder.THIRD, exact_cdf=False):
    """The model pool at theta (see the module docstring)."""
    if exact_cdf:
        pt = _bounds(system, theta)
        corners = [binorm_cdf_oracle(*xyr) for xyr in zip(pt.x, pt.y, pt.rho)]
    else:
        pt = _point(system, theta.tobytes(), order)
        corners = pt.corners
    return np.concatenate(([0.0, 1.0], pt.pdf, pt.cdf, corners))


def model_terms(
    theta,
    system,
    order=LegendreOrder.THIRD,
    include_removed=False,
    exact_cdf=False,
) -> np.ndarray:
    """Model-implied means b(theta), one entry per equation.

    exact_cdf swaps the Legendre approximation for the slow quadrature
    oracle; used when verifying the analytic gradient against finite
    differences of the moments.
    """
    theta = _theta_array(theta, system)
    t = system._tables
    pool = _model_pool(theta, system, order, exact_cdf)
    vals = _scales(theta)[t.b_scale] * _rect(pool, t.b_idx)
    return vals if include_removed else vals[system.retained]


def eval_u(row, theta, system, order=LegendreOrder.THIRD) -> np.ndarray:
    """Moment function u for a single sample row (length c+d, codes in the tail)."""
    row = np.asarray(row, dtype=float).reshape(-1)
    if row.size != system.c + system.d:
        raise ValueError("row length does not match the variable count")
    y = row[: system.c].reshape(1, -1)
    x = row[system.c :].astype(np.int64).reshape(1, -1)
    a = _products(y, x, system, system.retained)
    return a[0] - model_terms(theta, system, order)


def assemble_gradient(theta, system, order=None) -> np.ndarray:
    """Analytic gradient G = d m / d theta over retained rows, full theta columns.

    With ``order=None`` G differentiates the exact bivariate CDF; with a
    ``LegendreOrder`` it differentiates the approximation ``model_terms``
    evaluates at that order, which is the Jacobian of the minimized loss's
    moments (see the module docstring for which kind is used where).

    The moments are linear in the data products, so G carries no data
    dependence; rows of removed equations are absent by construction.
    """
    theta = _theta_array(theta, system)
    t = system._tables
    pt = _bounds(system, theta) if order is None else _point(system, theta.tobytes(), order)
    xf, yf = pt.finite[t.corner_x], pt.finite[t.corner_y]
    if order is None:
        sq = np.sqrt(1.0 - pt.rho * pt.rho)
        partials = (
            binorm_pdf(pt.x, pt.y, pt.rho),
            pt.pdf[t.corner_x] * norm_cdf((pt.y - pt.rho * xf) / sq),
            pt.pdf[t.corner_y] * norm_cdf((pt.x - pt.rho * yf) / sq),
        )
    else:
        d_rho, d_x, d_y = legendre_term_grad(xf, yf, pt.rho, pt.densities, order)
        partials = (
            d_rho,
            d_x + pt.pdf[t.corner_x] * pt.cdf[t.corner_y],
            d_y + pt.pdf[t.corner_y] * pt.cdf[t.corner_x],
        )
    pool = np.concatenate(([0.0, 1.0], pt.pdf, pt.zphi) + tuple(partials))
    G = np.zeros(system.q * system.p)
    G[t.g_pos] = t.g_sign * (_scales(theta)[t.g_scale] * _rect(pool, t.g_idx))
    return G.reshape(system.q, system.p)


def compute_sigma(theta, system, order=LegendreOrder.THIRD) -> np.ndarray:
    """Analytic Var h at theta over the retained threshold equations.

    Within a variable the blocks are multinomial (p_k delta_kl - p_k p_l);
    across variables the cell probability under the pair's polychoric
    correlation replaces the product term. Pairs without an estimated
    polychoric coefficient contribute independent blocks.
    """
    theta = _theta_array(theta, system)
    t = system._tables
    pool = _model_pool(theta, system, order)
    # P(X = k) is the model term of each retained threshold row; those lead
    p = _rect(pool, t.b_idx[:, np.flatnonzero(system.retained)[: system.q_h]])
    cells = _rect(pool, t.sigma_idx).reshape(p.size, p.size)
    sigma = np.where(
        t.sigma_same, p[:, None] * (np.eye(p.size) - p), cells - p[:, None] * p
    )
    return (sigma + sigma.T) / 2.0


@dataclass(frozen=True)
class MomentEvaluation:
    """Sample moments m, gradient G and moment covariance Omega_hat at one theta."""

    m: np.ndarray
    G: np.ndarray
    omega_hat: np.ndarray


class CompiledMoments:
    """Dataset-dependent pieces of the moment system, precomputed once.

    Covers the retained rows ``rows`` selects (all by default; a fit passes
    ``system.weighted_rows``): ``m`` and ``omega`` return those rows only.
    With m(theta) = a_mean - b(theta), the moment covariance is
    Omega_hat(theta) = E_n[(a - b)(a - b)'] = cov + m m', where cov is the
    centred covariance of the data products. Both a_mean and cov are data
    only, so repeated evaluation during optimization costs only the model
    terms.
    """

    def __init__(self, data, system, rows=slice(None)):
        # only the covered columns are formed: slicing a full product array
        # would hold both at once
        columns = np.flatnonzero(system.retained)[rows]
        A = _products(data.y, data.x, system, columns)
        self.system = system
        self.rows = rows
        self.n = A.shape[0]
        self.a_mean = A.mean(axis=0)
        self.cov = A.T @ A
        self.cov /= self.n
        self.cov -= np.outer(self.a_mean, self.a_mean)

    def m(self, theta, order=LegendreOrder.THIRD):
        return self.a_mean - model_terms(theta, self.system, order)[self.rows]

    def omega(self, theta, order=LegendreOrder.THIRD):
        m = self.m(theta, order)
        out = np.outer(m, m)
        out += self.cov
        return out


def eval_moments(
    data, theta, system, order=LegendreOrder.THIRD, exact_cdf=False
) -> MomentEvaluation:
    """Sample mean of u, exact-CDF analytic gradient and sample covariance E_n[uu'].

    Summation order over rows is fixed, so repeated evaluation is
    bit-reproducible.
    """
    compiled = CompiledMoments(data, system)
    return MomentEvaluation(
        m=compiled.a_mean - model_terms(theta, system, order, exact_cdf=exact_cdf),
        G=assemble_gradient(theta, system),
        omega_hat=compiled.omega(theta, order),
    )


@dataclass(frozen=True)
class WeightMatrix:
    """The whitener K of a moment covariance S, K'K = S^-1 (a pseudo-inverse
    where S is singular), with conditioning diagnostics: the GMM loss
    m'S^-1 m / 2 is |K m|^2 / 2."""

    whitener: np.ndarray
    condition: float
    pseudo_inverse: bool
    rank: int


def _lower_inverse(L):
    """Inverse of a nonsingular lower-triangular L by recursive halving (Du
    Croz & Higham 1992): with L = [[A, 0], [B, C]], the inverse is
    [[A^-1, 0], [-C^-1 B A^-1, C^-1]]. A block of at most 64 rows is
    inverted whole by LAPACK, its rounding above the diagonal dropped."""
    n = L.shape[0]
    if n <= 64:
        return np.tril(np.linalg.inv(L))
    X = np.eye(n)
    h = n // 2
    X[:h, :h] = _lower_inverse(L[:h, :h])
    X[h:, h:] = _lower_inverse(L[h:, h:])
    X[h:, :h] = -X[h:, h:] @ (L[h:, :h] @ X[:h, :h])
    return X


def weight_matrix(omega_hat) -> WeightMatrix:
    """The whitener K of the symmetric moment covariance S, K'K = S^-1.

    Where S has a Cholesky factor L (S = LL') and the bound
    |S|_1 |K|_1 |K|_inf on its 1-norm condition number is below
    1/EIG_FLOOR, K = L^-1, lower-triangular, and ``condition`` is that
    bound. Since |S^-1|_1 = |K'K|_1 <= |K|_inf |K|_1, the bound is at least
    cond_1(S), and the 2-norm condition number of a symmetric matrix is at
    most cond_1, so no eigenvalue then sits at or below the floor.

    Otherwise K = Lambda^-1/2 V' over the eigenpairs (Lambda, V) of S whose
    eigenvalue is above EIG_FLOOR times the largest, and ``condition`` is
    the ratio of the extreme eigenvalues. The eigenvalues at or below the
    floor count as zero: they set ``rank``, K has ``rank`` rows, and K'K is
    then a pseudo-inverse.
    """
    omega = np.asarray(omega_hat, dtype=float)
    q = omega.shape[0]
    try:
        K = _lower_inverse(np.linalg.cholesky(omega))
        bound = np.linalg.norm(omega, 1) * np.linalg.norm(K, 1) * np.linalg.norm(K, np.inf)
    except np.linalg.LinAlgError:
        bound = np.inf
    if bound < 1.0 / EIG_FLOOR:
        return WeightMatrix(whitener=K, condition=float(bound), pseudo_inverse=False, rank=q)
    evals, vecs = np.linalg.eigh(omega)
    if evals[-1] <= 0.0:
        raise DegenerateWeight("moment covariance has no positive eigenvalue")
    keep = evals > EIG_FLOOR * evals[-1]
    rank = int(np.count_nonzero(keep))
    if rank < q / 2.0:
        raise DegenerateWeight(
            f"moment covariance rank {rank} below half of q={q}; system mis-specified?"
        )
    cond = np.inf if evals[0] <= 0.0 else evals[-1] / evals[0]
    K = (vecs[:, keep] / np.sqrt(evals[keep])).T
    return WeightMatrix(whitener=K, condition=float(cond), pseudo_inverse=rank < q, rank=rank)
