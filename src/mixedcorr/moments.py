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
``weight_matrix`` returns K = L^-1, the inverse Cholesky factor of S over
the rows kept in layout order while each pivot clears the floor
PIVOT_FLOOR S_ii, with a zero column at each dropped row. On such a table
every pivot clears it. A covariance that is singular in the data, such as
that of a table with an empty cell, drops a row. One recursion reaches K
(``_kept_whitener``): S is halved on its Schur complement until a block of
at most 64 rows has every pivot above the floor, which LAPACK factors and
inverts; a single row under the floor is dropped.

The moment vector is linear in per-row data products, so sample moments
factor as m(theta) = mean(A) - b(theta) with A data-only and b(theta)
model-implied; the gradient G = -db/dtheta is deterministic.

The data pass (``CompiledMoments``) reads each dataset once, CHUNK_ROWS
rows at a time, for the column sums and the scatter A'A of the products
and for those of the coded columns that the Pearson start reads (Y_i, and
the codes X_v as numbers). Each of these columns is a Y-monomial (1, Y_i
or Y_i Y_j) times a weight of the row's joint ordinal cell (a product of
indicators, or a code), so every entry of the sums and scatters is a sum
over the cells of a weight times the per-cell sum of a Y-monomial of
degree at most 4. Two routes take the sums:

- cells: each chunk's rows are binned by joint cell, and one weighted
  ``np.bincount`` per monomial the sums read (at most 15 for c = 2, 70
  for c = 4) adds its per-cell sums M; the sums and scatters are then
  contracted from M
  through index tables cached per system and column set. The pass costs
  O(n x monomials), the contraction O(q^2 x width), where the width is
  the cells times the columns' distinct monomials (the classes, at most
  1 + c + c(c - 1)/2).
- products: each chunk's products are formed and A_c'A_c added up,
  O(n q^2).

The contraction replaces the n rows of the scatter by its width, so the
cell route is the faster while the width is well under n: on systems of
100 to 729 cells with c = 0 to 2 the two routes cost the same at n of 1.6
to 2 times the width (one core of a 2-core x86-64 machine). The cell route serves
data of n rows when the system's width, taken with all 1 + c + c(c - 1)/2
classes, is at most n / CELL_ROWS and at most CHUNK_ROWS, which keeps its
gathered q x width values within the size of one chunk of products; the
product route serves the rest, such as the 5^8 = 390 625 cells of the
c = 4, d = 8 benchmark system at n = 2000. The route depends only on the
system and n, so neither the rows a fit compiles nor the batch move it.
The two routes sum in different orders: their sums agree to rounding
(1e-13 of the largest entry in the tests).

``_compile`` is the one walk over the blocks, and the only code that
branches on the equation kind: it lays out each block's equations and
retained flags, its weighted rows and its model terms in flat index
tables, so no evaluation dispatches on the equation kind. Each column of
A is the product of two factor columns out of (1, Y_i, I(X_i = k)). The
bounds are the cut points of every ordinal with their -inf/+inf ends; the
corners are the bound pairs (b_lo[k], b_hi[l]) of every pair of included
ordinals, with the pair's polychoric rho or 0 where the system has none.

The model at one theta has fields that do not depend on the Legendre order
(``_bounds``: the finite bounds, Phi, phi and z*phi there, the corner
coordinates x, y and rho) and the Legendre fields at one order (the node
densities at the corners and the corner CDF). ``_point`` memoizes both for
the last (theta, order) seen, each kernel evaluated over all bounds or
corners at once. theta may be a batch (B, p), one theta per dataset of a
batched fit: every field then carries the batch axis, each kernel runs
once over the bounds or corners of the whole batch, and every value of a
dataset is computed as for its theta alone, bit for bit. Phi is
evaluated on the bounds only (``norm_cdf`` is a per-value
standard-library kernel) and the corner CDF gathers its Phi(x)Phi(y)
from there. The minimizer's gradient at an accepted step
reads the point its last loss evaluation left, and ``compute_sigma`` (the
"paper" two-step covariance) the point at a fit's solution, evaluated anew
only when the solve's last loss evaluation was a rejected trial step. The
exact G reads only ``_bounds`` and evaluates no Legendre densities. From
the point come

    model pool:    0, 1, phi(bounds), Phi(bounds), corner CDF F(x, y; rho)
    gradient pool: 0, 1, phi(bounds), z*phi(bounds),
                   dF/drho, dF/dx and dF/dy at the corners

and every model term is scale * (v11 - v10 - v01 + v00) over four
gathered model-pool values, with the scale gathered from (1, theta). A
threshold term is a difference of two Phi values, a Pearson term rho
itself, a polyserial term rho times a difference of two phi values, a
polychoric term the rectangle of four corner CDFs. The threshold-moment
covariance gathers its joint cell probabilities from the same corner CDFs.

G is derived from the model terms by the chain rule (forward-mode
differentiation, Griewank & Walther 2008, ch. 3), never written by hand.
One table gives the partials of each model-pool slot in the gradient pool,
each for a theta column that exists (a finite cut, an included
coefficient): Phi(b) -> +phi(b), phi(b) -> -z*phi(b), a corner CDF ->
dF/drho, dF/dx and dF/dy there. The partial in a theta scale is the
unscaled term; the scaled terms read only 0, 1 and phi, which both pools
hold in the same slots. Each entry of G is then one signed, scaled
gradient-pool value, and the entries of one (row, column) are summed in
entry order.

The corner partials come in two kinds, filled into the same pool slots so
that both sum the same entries:

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
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnknownPair
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
    "WeightMatrix",
    "build_system",
    "model_terms",
    "assemble_gradient",
    "compute_sigma",
    "weight_matrix",
    "CompiledMoments",
]

MAX_SET = "max"
MIN_SET = "min"
CUSTOM = "custom"

# The pivot floor of the weight matrix: a moment row whose residual
# variance, given the rows kept before it, is at or below PIVOT_FLOOR times
# its own variance counts as a linear combination of them and is dropped.
PIVOT_FLOOR = 1e-10

# Rows per chunk of the data pass: CompiledMoments holds one chunk of each
# dataset at a time, and a fixed size fixes the order in which the rows
# are summed.
CHUNK_ROWS = 4096

# The cell route of CompiledMoments serves data with at least CELL_ROWS
# rows per column of its contraction (``_cells_serve``).
CELL_ROWS = 2


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
        self.retained_rows = np.flatnonzero(self.retained)
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

    bound_col: np.ndarray  # bound -> theta column of its cut, 0 at an end
    bound_end: np.ndarray  # bound -> -inf or +inf at an end, 0 at a cut
    corner_pair: np.ndarray  # corner -> 1.0 where its pair has a coefficient, else 0.0
    corner_x: np.ndarray  # corner -> bound of the lower-indexed ordinal
    corner_y: np.ndarray  # corner -> bound of the higher-indexed ordinal
    corner_rho: np.ndarray  # corner -> theta column of its coefficient, 0 if none
    ind_var: np.ndarray  # indicator factor -> column of x
    ind_code: np.ndarray  # indicator factor -> category code
    factors: np.ndarray  # (2, q_full) factor rows whose product is the data term
    b_scale: np.ndarray  # equation -> scale slot of its model term
    b_idx: np.ndarray  # (4, q_full) model-pool slots (v11, v10, v01, v00)
    g_pos: np.ndarray  # gradient entry -> retained row * p + theta column
    g_sign: np.ndarray  # -> +-1
    g_scale: np.ndarray  # -> scale slot
    g_idx: np.ndarray  # -> its one gradient-pool slot
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

    bound, bound_col = {}, []
    for v in system.included_ordinals:
        for a in range(s[v - 1] + 1):
            bound[v, a] = len(bound_col)
            cut = system.thr_offsets[v] + a - 1  # theta column of a finite bound
            bound_col.append(cut if 0 < a < s[v - 1] else -1)
    nb = len(bound_col)
    bound_end = [0.0 if col >= 0 else -np.inf if a == 0 else np.inf
                 for col, (_, a) in zip(bound_col, bound)]

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

    # per model-pool slot, (theta column, sign, gradient-pool slot) of each
    # partial that has a column: phi(b) -> -z*phi(b), Phi(b) -> +phi(b) and
    # a corner CDF F -> dF/drho, dF/dx, dF/dy
    partials = [[], []]  # the constants 0 and 1
    partials += [[(col, -1.0, 2 + nb + i)] if col >= 0 else [] for i, col in enumerate(bound_col)]
    partials += [[(col, 1.0, 2 + i)] if col >= 0 else [] for i, col in enumerate(bound_col)]
    for i, (rho_col, x, y) in enumerate(zip(corner_rho, corner_x, corner_y)):
        cols = (rho_col, bound_col[x], bound_col[y])
        partials.append(
            [(col, 1.0, 2 + 2 * nb + seg * nc + i) for seg, col in enumerate(cols) if col >= 0]
        )

    def at_bound(segment, v, a):
        return 2 + segment * nb + bound[v, a]

    def rect(lo, hi, k, l):
        # the corners of one pair are stored row by row, s_hi + 1 per row
        v11, row = 2 + 2 * nb + corner[lo, hi, k, l], s[hi - 1] + 1
        return (v11, v11 - 1, v11 - row, v11 - row - 1)

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
        # weighted by (two-step, one-step))
        nonlocal row
        columns = tuple(zip(*eqs))
        blocks.append(EquationBlock(kind, index, columns[0], columns[1]))
        for _, kept, factor, (scale, idx), weigh in eqs:
            factors.append(factor)
            terms.append((scale, idx))
            if not kept:
                continue
            # G = -d(scale * rect(idx))/dtheta by the chain rule, one entry per
            # gradient-pool value; a theta scale's partial is the unscaled
            # term, whose slots (0, 1 or phi) both pools hold alike
            for sign, slot in zip((-1.0, 1.0, 1.0, -1.0), idx):
                if scale != UNIT and slot != Z:
                    grad.append((row, scale - 1, sign, UNIT, slot))
                grad.extend((row, col, sign * d, scale, g) for col, d, g in partials[slot])
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
            eqs.append((("h", v, k), kept, (UNIT, ind[v, k]), term, (False, True)))
        add_block("threshold", (v,), eqs)

    # retained and weighted rows follow the rules of the module docstring
    seen = set()  # ordinals of the polychoric blocks walked so far
    for lab in system.included_coefficients:
        kind, i, j = lab
        scale = 1 + system.coef_pos[lab]
        if kind == KIND_PEARSON:
            eqs = [(("yy", i, j), True, (i, j), (scale, (ONE, Z, Z, Z)), (True, True))]
        elif kind == KIND_POLYSERIAL:
            eqs = []
            for k in range(1, s[j - 1] + 1):
                kept = k == 1 if minimal else full_partner[i] == j or k < s[j - 1]
                term = (scale, (at_bound(0, j, k - 1), at_bound(0, j, k), Z, Z))
                eqs.append((("yx", i, j, k), kept, (i, ind[j, k]), term, (True, True)))
        else:
            lo, hi = j, i
            eqs = []
            for k in range(1, s[lo - 1] + 1):
                for l in range(1, s[hi - 1] + 1):
                    last_k, last_l = k == s[lo - 1], l == s[hi - 1]
                    kept = k == l == 1 if minimal else not (last_k and last_l)
                    weigh = (
                        not (last_l and lo in seen or last_k and hi in seen),
                        not (last_k or last_l),
                    )
                    eq = ("xx", lo, hi, k, l)
                    term = (UNIT, rect(lo, hi, k, l))
                    eqs.append((eq, kept, (ind[lo, k], ind[hi, l]), term, weigh))
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
                sigma_idx.append(rect(min(v, w), max(v, w), klo, lhi))

    def ints(values, shape=(-1,)):
        out = np.array(values, dtype=np.intp).reshape(shape)
        out.setflags(write=False)
        return out

    nh = len(h_rows)
    grad_rows = list(zip(*grad))
    tables = _Tables(
        bound_col=ints(np.maximum(bound_col, 0)),
        bound_end=np.array(bound_end),
        corner_pair=np.greater_equal(corner_rho, 0).astype(float),
        corner_x=ints(corner_x),
        corner_y=ints(corner_y),
        corner_rho=ints(np.maximum(corner_rho, 0)),
        ind_var=ints([v - 1 for v, _ in ind]),
        ind_code=ints([k for _, k in ind]),
        factors=ints(factors, (-1, 2)).T,
        b_scale=ints([sc for sc, _ in terms]),
        b_idx=ints([t for _, t in terms], (-1, 4)).T,
        g_pos=ints(np.multiply(grad_rows[0], system.p) + grad_rows[1]),
        g_sign=np.array(grad_rows[2], dtype=float),
        g_scale=ints(grad_rows[3]),
        g_idx=ints(grad_rows[4]),
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
    if arr.ndim == 0 or arr.shape[-1] != system.p:
        raise ValueError(f"theta has shape {arr.shape}, expected (..., {system.p})")
    return arr


class _Bounds(NamedTuple):
    """The fields of the model at one theta that do not depend on the
    Legendre order: all the exact G reads (module docstring). Each has
    theta's leading batch axes."""

    finite: np.ndarray  # bounds with +-inf replaced by 0
    cdf: np.ndarray  # Phi(bounds)
    pdf: np.ndarray  # phi(bounds)
    zphi: np.ndarray  # bounds * phi(bounds)
    x: np.ndarray  # corner coordinate on the lower-indexed ordinal
    y: np.ndarray  # corner coordinate on the higher-indexed ordinal
    rho: np.ndarray  # correlation of the corner's pair, 0 if none


# the fields of _Bounds, then the Legendre node densities at the corners
# (nodes, corners of the whole batch) and the Legendre corner CDF
# F(x, y; rho) at one order
_Point = NamedTuple(
    "_Point", [(f, np.ndarray) for f in _Bounds._fields + ("densities", "corners")]
)


def _bounds(system, theta):
    """The order-free fields of the model at ``theta`` (..., p)."""
    t = system._tables
    b = theta.take(t.bound_col, axis=-1) + t.bound_end
    # a pair without a coefficient has correlation 0
    rho = theta.take(t.corner_rho, axis=-1) * t.corner_pair
    finite = np.where(np.isinf(b), 0.0, b)
    pdf = norm_pdf(b)
    # phi is exactly 0 at +-inf, where finite holds 0: b phi(b) -> 0 there
    return _Bounds(
        finite,
        norm_cdf(b),
        pdf,
        finite * pdf,
        b.take(t.corner_x, axis=-1),
        b.take(t.corner_y, axis=-1),
        rho,
    )


@functools.lru_cache(maxsize=1)
def _point(system, theta_bytes, shape, order):
    """The model at the theta of ``shape`` whose bytes are ``theta_bytes``,
    for ``order``, kept for the last (theta, order) seen (module
    docstring)."""
    t = system._tables
    pt = _bounds(system, np.frombuffer(theta_bytes, dtype=float).reshape(shape))
    # the corners of the whole batch along one axis
    x, y, rho = pt.x.ravel(), pt.y.ravel(), pt.rho.ravel()
    densities = legendre_densities(x, y, rho, order)
    marginals = (
        pt.cdf.take(t.corner_x, axis=-1).ravel(),
        pt.cdf.take(t.corner_y, axis=-1).ravel(),
    )
    corners = binorm_cdf_legendre(x, y, rho, order, densities, marginals)
    return _Point(*pt, densities, corners.reshape(pt.x.shape))


@functools.lru_cache(maxsize=8)
def _constants(lead, values):
    """``values`` along a last axis, for each index of the leading axes."""
    out = np.empty(lead + (len(values),))
    out[...] = values
    out.setflags(write=False)
    return out


def _scales(theta):
    """1 followed by theta, along the last axis: the scale slots."""
    return np.concatenate((_constants(theta.shape[:-1], (1.0,)), theta), axis=-1)


def _pool(*parts):
    """0 and 1 followed by ``parts``, along the last axis: a value pool."""
    return np.concatenate((_constants(parts[0].shape[:-1], (0.0, 1.0)),) + parts, axis=-1)


def _rect(pool, idx):
    """pool[v11] - pool[v10] - pool[v01] + pool[v00] per column of idx,
    gathered along the last axis of pool."""
    k = idx.shape[1]
    v = pool.take(idx.ravel(), axis=-1)
    return v[..., :k] - v[..., k : 2 * k] - v[..., 2 * k : 3 * k] + v[..., 3 * k :]


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


def _model_pool(theta, system, order=LegendreOrder.THIRD):
    """The model pool at theta (see the module docstring)."""
    pt = _point(system, theta.tobytes(), theta.shape, order)
    return _pool(pt.pdf, pt.cdf, pt.corners)


def model_terms(theta, system, order=LegendreOrder.THIRD, include_removed=False) -> np.ndarray:
    """Model-implied means b(theta) at the Legendre ``order``, one entry
    per equation: the retained ones, or all q_full with
    ``include_removed``.

    theta may carry leading batch axes, (..., p): the terms then carry the
    same axes, each slice computed as for that theta alone, bit for bit.
    """
    theta = _theta_array(theta, system)
    t = system._tables
    pool = _model_pool(theta, system, order)
    vals = _scales(theta).take(t.b_scale, axis=-1) * _rect(pool, t.b_idx)
    return vals if include_removed else vals.take(system.retained_rows, axis=-1)


@functools.lru_cache(maxsize=4)
def _batch_positions(system, batch):
    """The gradient entries' flat positions in a (batch, q, p) array."""
    t = system._tables
    offsets = np.arange(batch)[:, None] * (system.q * system.p)
    return (offsets + t.g_pos).ravel()


def assemble_gradient(theta, system, order=None) -> np.ndarray:
    """Analytic gradient G = d m / d theta over retained rows, full theta columns.

    With ``order=None`` G differentiates the exact bivariate CDF; with a
    ``LegendreOrder`` it differentiates the approximation ``model_terms``
    evaluates at that order, which is the Jacobian of the minimized loss's
    moments (see the module docstring for which kind is used where).

    theta is (p,) or a batch (B, p); G is then (q, p) or (B, q, p), each
    slice computed as for that theta alone, bit for bit.

    The moments are linear in the data products, so G carries no data
    dependence; rows of removed equations are absent by construction.
    """
    theta = _theta_array(theta, system)
    t = system._tables
    if order is None:
        pt = _bounds(system, theta)
    else:
        pt = _point(system, theta.tobytes(), theta.shape, order)
    xf, yf = pt.finite.take(t.corner_x, axis=-1), pt.finite.take(t.corner_y, axis=-1)
    if order is None:
        sq = np.sqrt(1.0 - pt.rho * pt.rho)
        partials = (
            binorm_pdf(pt.x, pt.y, pt.rho),
            pt.pdf.take(t.corner_x, axis=-1) * norm_cdf((pt.y - pt.rho * xf) / sq),
            pt.pdf.take(t.corner_y, axis=-1) * norm_cdf((pt.x - pt.rho * yf) / sq),
        )
    else:
        # over the corners of the whole batch along one axis, as the point
        # holds the densities
        d_rho, d_x, d_y = legendre_term_grad(
            xf.ravel(), yf.ravel(), pt.rho.ravel(), pt.densities, order
        )
        pdf_x, pdf_y = pt.pdf.take(t.corner_x, axis=-1), pt.pdf.take(t.corner_y, axis=-1)
        cdf_x, cdf_y = pt.cdf.take(t.corner_x, axis=-1), pt.cdf.take(t.corner_y, axis=-1)
        partials = (
            d_rho.reshape(xf.shape),
            d_x.reshape(xf.shape) + pdf_x * cdf_y,
            d_y.reshape(xf.shape) + pdf_y * cdf_x,
        )
    pool = _pool(pt.pdf, pt.zphi, *partials)
    weights = t.g_sign * (_scales(theta).take(t.g_scale, axis=-1) * pool.take(t.g_idx, axis=-1))
    # one bincount over the batch, a single theta its batch of one: dataset
    # b's entries are offset by b q p
    batch = theta[..., 0].size
    G = np.bincount(_batch_positions(system, batch), weights.ravel(), batch * system.q * system.p)
    return G.reshape(theta.shape[:-1] + (system.q, system.p))


def compute_sigma(theta, system, order=LegendreOrder.THIRD) -> np.ndarray:
    """Analytic Var h at theta over the retained threshold equations: the
    Sigma of the paper's two-step covariance (the "paper" variant of
    ``estimator.fit``; the default variant reads the data covariance).

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


class CompiledMoments:
    """Dataset-dependent pieces of the moment system, precomputed once.

    Covers the retained rows ``rows`` selects (all by default; a fit passes
    ``system.weighted_rows``): ``m`` returns those rows only. With
    m(theta) = a_mean - b(theta), the moment covariance is
    Omega_hat(theta) = E_n[(a - b)(a - b)'] = cov + m m', where cov is the
    centred covariance of the data products. Both a_mean and cov are data
    only, so repeated evaluation during optimization costs only the model
    terms. ``coded_cov`` is the centred covariance of the coded data, the
    c + d columns Y_1..Y_c and the ordinal codes X_1..X_d as numbers, from
    the same pass: the Pearson start of a fit reads it.

    ``data`` is one dataset, or a list of datasets: then n, a_mean, cov and
    coded_cov carry a leading batch axis, one slice per dataset, each equal
    bit for bit to that dataset's own.

    Each dataset is read once, CHUNK_ROWS rows at a time, by one of two
    routes (module docstring), which ``_cells_serve`` picks from the system
    and n alone, so that neither the rows compiled nor the batch change it:

    - cells: the Y-monomials of degree at most 4 are summed per joint
      ordinal cell, one bincount per monomial over each chunk of the
      datasets of one n stacked, and the sums and scatters of the products
      and of the coded columns are contracted from those per-cell sums.
      They differ from the one-pass sums of the product array by rounding
      only. The pass holds one stacked chunk, of at most 16 CHUNK_ROWS
      rows, per monomial that one of higher degree is built from, never an
      n-row vector per monomial.
    - products: each chunk of the data products and of the coded columns
      is formed, and its column sums and scatter A_c'A_c are added to
      running totals; the first chunk is taken as is, so data of at most
      CHUNK_ROWS rows gives exactly A.mean(axis=0) and A'A / n of the
      whole product array.

    Either way the memory held beyond the data is O(CHUNK_ROWS q + q^2)
    per dataset, never n x q.
    """

    def __init__(self, data, system, rows=slice(None)):
        self.rows = np.arange(system.q)[rows]
        # the equations of the rows, out of all q_full
        self.columns = system.retained_rows[self.rows]
        self.system = system
        batch = isinstance(data, list)
        datasets = data if batch else [data]
        ns = np.array([d.n for d in datasets], dtype=int)
        self.n = ns if batch else data.n
        q, k = self.columns.size, system.c + system.d
        self.a_mean = np.empty((len(datasets), q))
        self.cov = np.empty((len(datasets), q, q))
        self.coded_cov = np.empty((len(datasets), k, k))
        # the datasets of one n share their chunks and their route
        for n in np.unique(ns).tolist():
            members = np.flatnonzero(ns == n)
            group = [datasets[b] for b in members]
            route = _cell_route if _cells_serve(system, n) else _product_route
            products, coded = route(group, system, self.columns)
            self.a_mean[members], self.cov[members] = _centred(*products, n)
            self.coded_cov[members] = _centred(*coded, n)[1]
        if not batch:
            self.a_mean, self.cov, self.coded_cov = self.a_mean[0], self.cov[0], self.coded_cov[0]

    def m(self, theta, order=LegendreOrder.THIRD, index=...):
        """The moments at theta: (..., rows). With a batch, theta is (B', p)
        and ``index`` picks the B' datasets it belongs to (all by default)."""
        terms = model_terms(theta, self.system, order, include_removed=True)
        return self.a_mean[index] - terms.take(self.columns, axis=-1)


def _centred(sums, scatter, n):
    """The means and the centred covariance of columns with the column
    sums ``sums`` (B, k) and scatter matrices ``scatter`` (B, k, k) over n
    rows."""
    mean = sums / n
    cov = scatter / n
    cov -= mean[:, :, None] * mean[:, None, :]
    return mean, cov


def _cells_serve(system, n):
    """Whether the cell route serves data of n rows (module docstring):
    when its contraction width, the joint ordinal cells times the
    1 + c + c(c - 1)/2 Y-monomials a column of the system can carry, is at
    most n / CELL_ROWS and at most CHUNK_ROWS."""
    c = system.c
    width = math.prod(system.s) * (1 + c + c * (c - 1) // 2)
    return width * CELL_ROWS <= n and width <= CHUNK_ROWS


def _product_route(datasets, system, columns):
    """The (column sums, scatter) of the data products ``columns`` and of
    the coded columns of each dataset, (B, k) and (B, k, k) each, from the
    products and coded columns formed CHUNK_ROWS rows at a time."""
    B, k = len(datasets), system.c + system.d
    q = columns.size
    out = (np.empty((B, q)), np.empty((B, q, q))), (np.empty((B, k)), np.empty((B, k, k)))
    for b, data in enumerate(datasets):
        for lo in range(0, data.n, CHUNK_ROWS):
            hi = lo + CHUNK_ROWS
            y, x = data.y[lo:hi], data.x[lo:hi]
            chunks = _products(y, x, system, columns), np.concatenate((y, x), axis=1)
            for A, (total, scatter) in zip(chunks, out):
                if lo == 0:
                    np.sum(A, axis=0, out=total[b])
                    np.matmul(A.T, A, out=scatter[b])
                else:
                    total[b] += A.sum(axis=0)
                    scatter[b] += A.T @ A
    return out


class _CellTable(NamedTuple):
    """How the per-cell monomial sums M of a dataset give the column sums
    and the scatter of k columns, each a Y-monomial e_j times a weight
    w_j(cell): sum_j = sum_c w_j M[e_j, c] and
    scatter_jl = sum_c w_j w_l M[e_j + e_l, c]. The columns' distinct
    monomials are the classes, the constant first; the width W is
    classes x cells."""

    gather: np.ndarray  # (k, W) position in M of M[e_class + e_l, c], for column l
    weight: np.ndarray  # (k, W) w_l(c), in every class's block
    left: np.ndarray  # (k, W) w_j(c) in the block of its own class, 0 elsewhere
    lower: np.ndarray  # (k, k) True on and below the diagonal


def _classes(monomials):
    """The distinct ``monomials`` and the constant, by degree."""
    return sorted(set(monomials) | {()}, key=lambda m: (len(m), m))


def _cell_table(monomials, weights, position):
    """The _CellTable of the columns with the ``monomials`` and the cell
    ``weights`` (k, cells); ``position`` maps a monomial to its row of M."""
    cells = weights.shape[1]
    classes = _classes(monomials)
    rows = np.array(
        [[position[tuple(sorted(a + e))] for a in classes] for e in monomials], dtype=np.intp
    ).reshape(len(monomials), len(classes), 1)
    own = np.equal.outer([classes.index(e) for e in monomials], np.arange(len(classes)))
    shape = (len(monomials), len(classes) * cells)
    table = _CellTable(
        gather=(rows * cells + np.arange(cells)).reshape(shape),
        weight=np.tile(weights, len(classes)),
        left=(own[:, :, None] * weights[:, None, :]).reshape(shape),
        lower=np.tri(len(monomials), dtype=bool),
    )
    # cached and shared by every pass over the same columns
    for a in table:
        a.setflags(write=False)
    return table


@functools.lru_cache(maxsize=4)
def _cell_tables(system, columns):
    """The _CellTables of the data products of the equations whose indices
    are the bytes ``columns`` and of the coded columns, over the joint
    ordinal cells of ``system``, and the plan of the pass that sums their
    monomials.

    A cell is one joint code of the d ordinals, numbered row-major (the
    last ordinal fastest). A product's monomial, a sorted tuple of 0-based
    Y indices, is its Y factors, and its weight the product of its
    indicator factors at each cell; the coded column Y_i is Y_i with
    weight 1, and X_v the constant monomial with the code of v as weight.

    The plan lists, degree by degree, each monomial the tables read and
    each one that a monomial of the next degree is built from, as
    (monomial, its row of M or -1 where it is not summed, whether it is
    held for the next degree)."""
    t, c = system._tables, system.c
    cells = math.prod(system.s)
    codes = np.indices(system.s).reshape(system.d, cells) + 1
    # the factor rows 1, Y_1..Y_c and each I(X_v = k), as (monomial, weight)
    factor_monomials = [()] + [(i,) for i in range(c)] + [()] * t.ind_var.size
    factor_weights = np.concatenate(
        (np.ones((1 + c, cells)), codes[t.ind_var] == t.ind_code[:, None])
    )
    left, right = t.factors[:, np.frombuffer(columns, dtype=np.intp)]
    sets = (
        (
            [tuple(sorted(factor_monomials[a] + factor_monomials[b])) for a, b in zip(left, right)],
            factor_weights[left] * factor_weights[right],
        ),
        ([(i,) for i in range(c)] + [()] * system.d, np.concatenate((np.ones((c, cells)), codes))),
    )
    reads = {tuple(sorted(a + e)) for mons, _ in sets for a in _classes(mons) for e in mons}
    built = _classes({m[:k] for m in reads for k in range(1, len(m) + 1)})
    prefixes = {m[:-1] for m in built}
    position = {m: i for i, m in enumerate(m for m in built if m in reads)}
    plan = tuple((m, position.get(m, -1), m in prefixes) for m in built)
    return tuple(_cell_table(mons, weights, position) for mons, weights in sets) + (plan,)


def _cell_sums(datasets, system, plan):
    """The per-cell sums M (B, summed monomials x cells) of the ``plan``'s
    monomials over each dataset (all of one n), the datasets stacked
    CHUNK_ROWS rows of each at a time: one weighted bincount per monomial
    over the stack, dataset b's cell ids offset by b cells."""
    B, n, cells = len(datasets), datasets[0].n, math.prod(system.s)
    # the row-major cell id of codes starting at 1, offset by b cells
    strides = np.array([math.prod(system.s[v + 1 :]) for v in range(system.d)], dtype=np.int64)
    shift = np.arange(B)[:, None] * cells - strides.sum()
    bins = B * cells
    M = np.zeros((sum(row >= 0 for _, row, _ in plan), bins))
    for lo in range(0, n, CHUNK_ROWS):
        hi = lo + CHUNK_ROWS
        x = np.stack([d.x[lo:hi] for d in datasets])
        ids = np.repeat(shift, x.shape[1], axis=1)
        for v, stride in enumerate(strides):
            ids += x[..., v] * stride
        ids = ids.ravel()
        y = np.ascontiguousarray(np.concatenate([d.y[lo:hi] for d in datasets]).T)
        # each monomial is the one it extends times one Y; the constant
        # is None, which bincount counts
        held = {}
        for m, row, keep in plan:
            v = held.get(m[:-1])
            w = None if not m else y[m[-1]] if v is None else v * y[m[-1]]
            if row >= 0:
                M[row] += np.bincount(ids, w, bins)
            if keep:
                held[m] = w
    # dataset by dataset, the monomials' sums cell by cell
    return M.reshape(-1, B, cells).transpose(1, 0, 2).reshape(B, -1)


def _cell_route(datasets, system, columns):
    """``_product_route``'s sums from the per-cell monomial sums of each
    dataset (module docstring). The sums of each column set are contracted
    by one gather and one stacked matmul, and the scatter's lower triangle
    is mirrored, so that it is symmetric as A'A is."""
    *tables, plan = _cell_tables(system, columns.tobytes())
    B, n, cells = len(datasets), datasets[0].n, math.prod(system.s)
    out = [(np.empty((B, len(t.lower))), np.empty((B, len(t.lower), len(t.lower)))) for t in tables]
    # a few datasets at a time: at most 16 CHUNK_ROWS rows of one chunk of
    # each, and about CHUNK_ROWS x k gathered values, the size of one
    # chunk of the products
    width = max(table.gather.shape[1] for table in tables)
    step = max(1, min(16 * CHUNK_ROWS // min(n, CHUNK_ROWS), CHUNK_ROWS // width))
    for lo in range(0, B, step):
        M = _cell_sums(datasets[lo : lo + step], system, plan)
        for table, (sums, scatter) in zip(tables, out):
            V = M.take(table.gather, axis=1)
            V *= table.weight
            S = table.left @ V.mT
            sums[lo : lo + step] = V[..., :cells].sum(axis=-1)
            scatter[lo : lo + step] = np.where(table.lower, S, S.mT)
    return out


@dataclass(frozen=True)
class WeightMatrix:
    """The whitener K of a moment covariance S over the rows it keeps, with
    K S K' = I there and a zero column at each dropped row, and the
    conditioning diagnostic of the kept rows: the GMM loss m'K'Km / 2 is
    |K m|^2 / 2. pseudo_inverse is set when a row was dropped; K'K is then
    a generalized inverse of S (S K'K S = S), and S^-1 otherwise."""

    whitener: np.ndarray
    condition: float
    pseudo_inverse: bool


def _kept_whitener(S, floor):
    """The inverse K = L^-1 of the Cholesky factor L of the symmetric S
    over the rows kept in order while each one's pivot, its residual
    variance given the rows kept before it, exceeds its ``floor``; K has a
    row per kept row and a zero column at each dropped one. A block of at
    most 64 rows whose pivots all clear the floor is factored and inverted
    by LAPACK, its rounding above the diagonal dropped. Any other block is
    halved (Du Croz & Higham 1992): with W = S_ba K_a', the second half's
    rows in the first half's factor, the second half is the Schur
    complement S_bb - W W' and K = [[K_a, 0], [-K_b W K_a, K_b]]."""
    if len(S) <= 64:
        try:
            L = np.linalg.cholesky(S)
            if np.all(np.diagonal(L) ** 2 > floor):
                return np.tril(np.linalg.inv(L))
        except np.linalg.LinAlgError:
            pass
        if len(S) == 1:
            return np.empty((0, 1))
    h = len(S) // 2
    K_a = _kept_whitener(S[:h, :h], floor[:h])
    W = S[h:, :h] @ K_a.T
    K_b = _kept_whitener(S[h:, h:] - W @ W.T, floor[h:])
    return np.block([[K_a, np.zeros((len(K_a), len(S) - h))], [-(K_b @ W) @ K_a, K_b]])


def weight_matrix(omega_hat) -> WeightMatrix:
    """The whitener K of the symmetric moment covariance S over the rows
    it keeps: the rows in order while each pivot, the row's residual
    variance given the rows kept before it, exceeds PIVOT_FLOOR times its
    variance S_ii. A dropped row is, to that precision, a linear
    combination of the rows kept before it (Hansen 1982 drops such
    redundant moments), so K is L^-1 of the Cholesky factor L of S over the
    kept rows, with a zero column at each dropped row, and K S K' = I.
    ``_kept_whitener`` is the one recursion that reaches K (module
    docstring). Where no row is dropped, K is lower-triangular, and on at
    most 64 rows it is the LAPACK inverse of the one Cholesky factor of S.

    ``condition`` is |S|_1 |K|_1 |K|_inf. With S_k the covariance of the
    kept rows, |S_k|_1 <= |S|_1 and |S_k^-1|_1 = |K'K|_1 <= |K|_inf |K|_1,
    so it bounds the 1-norm condition number of S_k from above.
    """
    omega = np.asarray(omega_hat, dtype=float)
    K = _kept_whitener(omega, PIVOT_FLOOR * np.diagonal(omega))
    bound = np.linalg.norm(omega, 1) * np.linalg.norm(K, 1) * np.linalg.norm(K, np.inf)
    return WeightMatrix(whitener=K, condition=float(bound), pseudo_inverse=len(K) < len(omega))
