"""One-step and two-step iterative GMM estimators for the mixed correlation matrix.

Both methods are one GMM estimator over the same blocked moment system. The
paper's iterative GMM alternates an inner minimization of the GMM loss
L(theta) = m'Wm/2 with a refresh of the weight W as the inverse sample
covariance Omega_hat(theta) of the moment functions, until a refresh no
longer moves theta. W covers the method's weighted rows
(``EquationSystem.weighted_rows``), which have no exact linear dependence.
Omega_hat = S + m m', with S the centred covariance of the data products on
those rows, which does not depend on theta. By Sherman-Morrison, with
W_c = S^-1, G'Omega_hat^-1 m = G'W_c m / (1 + m'W_c m), so a stationary
point of the loss under W_c is already the loop's fixed point (Hansen,
Heaton & Yaron 1996: the fixed point is the continuously updated
estimator). ``fit`` therefore makes one quasi-Newton solve under W_c and
reports the covariance of that solve, the sandwich below (Hall 2000 argues
for the centred moment covariance in GMM inference). W_c itself is never
formed: the solve and the covariance use only the whitened moments r = K m
and J = K G, with K = ``weight_matrix(S).whitener`` over the rows it keeps
(K S K' = I, K'K = W_c; ``moments`` describes how K is reached), so that
the loss is |r|^2/2, its gradient G'K'r and G'W_cG = J'J. Where S is
rank-deficient in the data (an empty cell, say) ``weight_matrix`` drops
each row that is a linear combination of the rows kept before it (Hansen
1982), and K has a zero column at each dropped one: the solve is then the
fixed point of the paper's loop over the kept rows, and W_c = K'K a
generalized inverse of S. Where no kept row depends on some
free parameter, its solve ends with DegenerateWeight before any step.
The one-step method moves thresholds and correlations jointly; the
two-step method solves the thresholds in closed form from the marginal
frequencies, freezes them, and iterates on the correlation vector only.
``fit`` takes the method from its FitConfig. ``fit_batch`` fits many
datasets of one system with one solve, the datasets' quasi-Newton solves
run in lockstep, and ``fit`` is its batch of one.

Each method's estimate is the root of stacked estimating equations
A m_R(theta) = 0 over a row set R: the method's nh leading threshold rows
h, which closed-form thresholds solve exactly, followed by its weighted
rows g, with A = blockdiag(I, J'K) and K the whitener of S_gg alone. Its
covariance is that root's sandwich D^-1 A S_R A' D^-T / n with D = A G_R
(Hansen 1982; Newey & McFadden 1994, section 6), S_R the centred
covariance of the data products on R; since K S_gg K' = I, the g block of
A S_R A' is J'J. The method enters only through nh. One-step has nh = 0,
so the sandwich is (J'J)^-1 / n. Two-step has nh = q_h, and the sandwich
counts the thresholds' sampling variation and its covariance with the
coefficient moments.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeight, EmptyCategory, LineSearchFailure
from .errors import NonFiniteLoss, SingularCovariance
from .model import CorrelationParams, ThresholdSet, _lower_triangle
from .moments import (
    CUSTOM,
    MAX_SET,
    MIN_SET,
    CompiledMoments,
    WeightMatrix,
    _stacked_whiteners,
    assemble_gradient,
    compute_sigma,
    weight_matrix,
)
from .normal import RHO_MAX, LegendreOrder, norm_quantile

__all__ = [
    "ONE_STEP",
    "TWO_STEP",
    "COV_PAPER",
    "COV_CORRECTED",
    "FitConfig",
    "Diagnostics",
    "EstimationResult",
    "estimate_thresholds",
    "fit",
    "fit_batch",
]

ONE_STEP = "one-step"
TWO_STEP = "two-step"
COV_PAPER = "paper"
COV_CORRECTED = "corrected"

# Why the solve stopped. STOP_DECREMENT: the Newton decrement n g'Hg fell to
# DECREMENT_TOL. H, the BFGS inverse Hessian seeded by (J'J)^-1, estimates
# n Var(theta), so n g'Hg is the squared length of the remaining step -Hg
# in standard errors: 1e-14 leaves a step of 1e-7 of them. STOP_STEP_FLOOR:
# the Armijo margin of every shorter step fell below the loss's resolution.
# STOP_MAX_ITER: MAX_ITER steps ran out.
#
# LOSS_RTOL |f| is the loss's resolution. The rounding of the loss reaches a
# few 1e-15 |f| on the benchmark fits, more than the decrease a quasi-Newton
# step can show once n g'Hg is below 5e-14 to 5e-13, so there an exact loss
# comparison passes or fails by rounding, and the stop, the step count and
# the estimates would move with a one-ulp change of the start or of the BLAS
# thread count. The line search therefore accepts a step whose loss lies
# within LOSS_RTOL |f| of the Armijo bound, and the gradient, resolved far
# more finely than the loss, decides where the solve ends.
DECREMENT_TOL = 1e-14
LOSS_RTOL = 1e-12
MAX_ITER = 500
STOP_DECREMENT = "decrement"
STOP_STEP_FLOOR = "step_floor"
STOP_MAX_ITER = "max_iter"


@dataclass(frozen=True)
class FitConfig:
    """How to fit: the method, the equation set, the Legendre order of the
    loss and the two-step covariance variant."""

    method: str = TWO_STEP
    order: LegendreOrder = LegendreOrder.THIRD
    system_mode: str = MAX_SET
    covariance: str = COV_CORRECTED  # two-step only: "corrected" or "paper"

    def __post_init__(self):
        if self.method not in (ONE_STEP, TWO_STEP):
            raise ValueError(f"unknown method {self.method!r}")
        if self.covariance not in (COV_PAPER, COV_CORRECTED):
            raise ValueError(f"unknown covariance variant {self.covariance!r}")
        if self.method == ONE_STEP and self.covariance == COV_PAPER:
            raise ValueError("the paper covariance is a two-step variant; one-step has no other")
        if self.system_mode not in (MAX_SET, MIN_SET, CUSTOM):
            raise ValueError(f"unknown system mode {self.system_mode!r}")
        if not isinstance(self.order, LegendreOrder):
            raise ValueError(f"order must be a LegendreOrder, not {self.order!r}")


@dataclass(frozen=True)
class Diagnostics:
    """The record of the fit's one solve under the centred weight W_c.

    converged is set when the solve stopped on a stationarity test
    (STOP_DECREMENT or STOP_STEP_FLOOR, not STOP_MAX_ITER), so that it
    ended at the IGMM fixed point over the rows the weight keeps. stop is
    the solve's STOP_* reason. final_loss, final_grad_norm and
    final_decrement are, where it stopped, the loss under W_c, its max
    |gradient| and the Newton decrement n g'Hg: the squared length of the
    remaining quasi-Newton step in standard errors. inner_iterations counts
    the steps taken and loss_evaluations every evaluation of the GMM loss
    in the fit. weight_condition bounds the 1-norm condition number of S
    over the kept rows from above: it is |S|_1 |K|_1 |K|_inf.
    weight_pseudo_inverse is set when the weight dropped a row whose pivot
    fell under the floor, so that W_c = K'K is a generalized inverse of
    S. r_matrix_psd is None when a custom system leaves a coefficient of R
    out. The class constant outer_iterations counts the solves, 1.
    """

    converged: bool
    stop: str
    final_loss: float
    final_grad_norm: float
    final_decrement: float
    inner_iterations: int
    loss_evaluations: int
    weight_condition: float
    weight_pseudo_inverse: bool
    r_matrix_psd: bool | None
    wall_time: float

    outer_iterations = 1


@dataclass(frozen=True)
class EstimationResult:
    """Point estimates, asymptotic covariance and fit diagnostics.

    Vectors and matrices follow the canonical coefficient flattening;
    coefficients outside a custom system are NaN. var_theta is the
    covariance of the whole theta layout (thresholds, then coefficients),
    NaN outside the system's active entries; var_r is its coefficient
    block.
    """

    method: str
    r_hat: CorrelationParams
    a_hat: ThresholdSet
    var_r: np.ndarray
    var_theta: np.ndarray
    coefficients: tuple
    coefficient_names: tuple
    diagnostics: Diagnostics

    def se(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.diag(self.var_r))


def _empty_category(data):
    """The EmptyCategory of the first category ``data`` never takes."""
    k = int(np.flatnonzero(data.counts == 0)[0])
    ends = np.cumsum(data.s)
    j = int(np.searchsorted(ends, k, side="right"))
    return EmptyCategory(data.names[data.c + j], k - int(ends[j] - data.s[j]) + 1)


def estimate_thresholds(data) -> ThresholdSet:
    """Closed-form thresholds: normal quantiles of cumulative category proportions."""
    if not data.counts.all():
        raise _empty_category(data)
    return ThresholdSet.from_array(_thresholds([data])[0], [s - 1 for s in data.s])


def _thresholds(datasets) -> np.ndarray:
    """The closed-form thresholds of each dataset, (B, n_thr), from the
    category counts ``ingest`` made, in one ``norm_quantile`` call; every
    category of every dataset must be observed."""
    counts = np.array([data.counts for data in datasets])
    n = np.array([data.n for data in datasets])
    s = np.array(datasets[0].s, dtype=int)
    first = np.cumsum(s) - s
    cum = np.cumsum(counts, axis=1)
    # each ordinal's cumulative counts, less the counts of the ordinals before it
    cum -= np.repeat(cum[:, first] - counts[:, first], s, axis=1)
    return norm_quantile(np.delete(cum, first + s - 1, axis=1) / n[:, None])


def _initial_thetas(datasets, compiled) -> np.ndarray:
    """The starting theta of each dataset, (B, p): the closed-form
    thresholds, then the Pearson correlations of every coefficient,
    clamped, from the coded covariances of ``compiled``, the batch of the
    datasets' data pass."""
    rows, cols = _lower_triangle(compiled.system.c, compiled.system.d)
    cov = compiled.coded_cov
    sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    corr = np.clip(cov / sd[:, :, None] / sd[:, None, :], -RHO_MAX, RHO_MAX)
    return np.concatenate([_thresholds(datasets), corr[:, rows, cols]], axis=1)


def _initial_theta(data, system) -> np.ndarray:
    """The starting theta of ``data`` alone, from a data pass over no
    moment row: the start ``fit`` takes, bit for bit."""
    return _initial_thetas([data], CompiledMoments([data], system, slice(0)))[0]


# where the solve ended: the loss, its max |gradient| and Newton decrement
# there, the steps taken, every loss evaluation and the STOP_* reason
_InnerInfo = namedtuple("_InnerInfo", "loss grad_norm decrement iterations loss_evaluations stop")


def _minimize(compiled, K, x0, free_idx, cfg):
    """Quasi-Newton (BFGS inverse-Hessian updates, backtracking Armijo line
    search) over the free parameter subspace of the loss |K m|^2 / 2, the
    GMM loss under the fixed weight K'K on the moment rows ``compiled``
    covers; a row whose column of K is zero, like a two-step threshold row,
    takes no weight.

    The gradient is that of the loss itself: G differentiates the Legendre
    approximation of order cfg.order that the moments are evaluated with.
    The solve ends on the first STOP_* test (module comment); the decrement
    is taken after a non-descent direction has reset H to the identity.

    A batch of B datasets is solved in lockstep: x0 is (B, p), K is
    (B, rows_K, rows) and ``compiled`` holds the B datasets. Each keeps its
    own x, H, line-search step, stop and counts. On each pass the trial
    points of every dataset still searching go through one loss
    evaluation, and where any of them is accepted the gradient is taken at
    that same batch of points, which reads the model point the loss
    evaluation left. Returns per dataset (x, _InnerInfo) or the typed
    exception that ended its solve.

    Every dataset leaves through one exit, the tests that open each pass:
    there its row ends with a STOP_* reason, or with the error that failed
    it in the pass before. A failed start (NonFiniteLoss where the loss or
    gradient is not finite there, DegenerateWeight where no kept row
    depends on some free parameter) leaves at the first test, before any
    step. Every product is a stacked matmul or vecdot and every other step
    elementwise, so a dataset's arithmetic does not depend on the other
    datasets in its batch.
    """
    system = compiled.system
    # the thresholds are unbounded, the correlations within +-RHO_MAX
    hi = np.full(system.p, RHO_MAX)
    hi[: system.n_thr] = np.inf
    nb, nfree = len(x0), free_idx.size
    # G' over the free columns and the compiled rows, gathered row-major
    gather = (free_idx[:, None] + compiled.rows * system.p).ravel()
    out = [None] * nb

    def loss_at(x, ids, K):
        # the loss and whitened moments of the datasets ``ids`` at x
        index = ... if len(ids) == nb else ids
        r = (K @ compiled.m(x, cfg.order, index)[..., None])[..., 0]
        return 0.5 * np.vecdot(r, r), r

    def free_grad(x, r, K):
        # the free gradient G'K'r, with G' laid out row by row
        G = assemble_gradient(x, system, cfg.order).reshape(len(x), -1)
        Gt = G.take(gather, axis=1).reshape(len(x), nfree, -1)
        return Gt, (Gt @ (K.mT @ r[..., None]))[..., 0]

    def newton(H, g):
        # the quasi-Newton direction -Hg and g'd, H reset to the identity
        # where that is no descent direction, or no number: an H that
        # overflowed would send the trial point to NaN
        d = (-H @ g[..., None])[..., 0]
        gd = np.vecdot(g, d)
        descent = gd < 0.0
        if not descent.all():
            for i in np.flatnonzero(~descent).tolist():
                H[i] = np.eye(nfree)
                d[i] = -g[i]
                gd[i] = -np.vecdot(g[i], g[i])
        return d, gd

    x = np.minimum(np.maximum(x0, -hi), hi)
    f, r = loss_at(x, np.arange(nb), K)
    G0t, g = free_grad(x, r, K)
    # the loss is nearly quadratic with Hessian ~ J'J, J = K G on the free
    # columns; seeding the inverse Hessian with it makes unit steps
    # acceptable immediately
    J = K @ G0t.mT
    # a free parameter that no kept row depends on (too few data rows, or
    # an empty cell) leaves J'J singular wherever the solve goes
    weighted = J.any(axis=1)
    finite = np.isfinite(f) & np.isfinite(g).all(axis=1)
    started = finite & weighted.all(axis=1)
    if not started.all():
        J = J[started]
    JJ = J.mT @ J
    eye = np.eye(nfree)
    ridge = 1e-10 * np.maximum(np.trace(JJ, axis1=1, axis2=2) / max(nfree, 1), 1e-30)
    seeds = JJ + ridge[:, None, None] * eye
    # a seed that inv refuses, and a failed start, keep H = I
    H = np.tile(eye, (nb, 1, 1))
    try:
        H[started] = np.linalg.inv(seeds)
    except np.linalg.LinAlgError:
        # one refused seed fails the stack: invert each alone
        for b, seed in zip(np.flatnonzero(started).tolist(), seeds):
            try:
                H[b] = np.linalg.inv(seed)
            except np.linalg.LinAlgError:
                pass
    ended = {}  # row -> its STOP_* reason, or None where it failed
    for b in np.flatnonzero(~started).tolist():
        if not finite[b]:
            out[b] = NonFiniteLoss("loss or gradient non-finite at the starting point")
        else:
            out[b] = DegenerateWeight(
                f"the {cfg.method} covariance is singular: no moment row the weight keeps "
                f"depends on theta{free_idx[~weighted[b]].tolist()}")
        # a failed start leaves with its error at the first test; H = I and
        # g = 0 keep its direction before that test a number, with no warning
        ended[b] = None
        g[b] = 0.0

    # the state of the datasets still solving, one row each (ids maps a row
    # to its dataset). Every row takes one trial point per pass, so after
    # ``passes`` passes a row has made 1 + passes loss evaluations and
    # passes - rejected steps; its step is 0.5^k after k rejected trials in
    # a row. x stays within the bounds: a trial clips its free entries
    ids = np.arange(nb)
    hi = hi[free_idx]
    lo = -hi
    minus_n = -np.full(nb, compiled.n)
    rejected = np.zeros(nb, dtype=int)
    step = np.ones(nb)
    passes = 0
    d, gd = newton(H, g)
    decrement = minus_n * gd
    while True:
        # the stationarity and iteration tests: a row that took no step
        # passed them at its direction already
        tested = decrement <= DECREMENT_TOL
        if passes >= MAX_ITER:
            tested |= passes - rejected == MAX_ITER
        if tested.any():
            for i in np.flatnonzero(tested).tolist():
                # a row that failed keeps its error
                ended.setdefault(i, STOP_DECREMENT if decrement[i] <= DECREMENT_TOL
                                 else STOP_MAX_ITER)
        if ended:
            for i, stop in ended.items():
                if stop is not None:
                    info = _InnerInfo(float(f[i]), float(np.max(np.abs(g[i]), initial=0.0)),
                                      float(decrement[i]), passes - int(rejected[i]), 1 + passes,
                                      stop)
                    out[ids[i]] = (x[i].copy(), info)
            if len(ended) == len(ids):
                break
            keep = np.ones(len(ids), dtype=bool)
            keep[list(ended)] = False
            ended = {}
            ids, x, f, g, H, d, gd, decrement, step, rejected, minus_n, K = (
                v[keep] for v in (ids, x, f, g, H, d, gd, decrement, step, rejected, minus_n, K)
            )

        passes += 1
        xn = x.copy()
        xn[:, free_idx] = np.minimum(np.maximum(x.take(free_idx, axis=1) + step[:, None] * d, lo), hi)
        fn, rn = loss_at(xn, ids, K)
        # False where the loss is not finite
        accept = fn <= f + 1e-4 * step * gd + LOSS_RTOL * np.abs(f)
        taken = np.count_nonzero(accept)
        every = taken == len(accept)
        if not every:
            missed = ~accept
            rejected += missed
            step[missed] *= 0.5
            # below the loss's resolution no shorter step can show the decrease
            floor = missed & (-1e-4 * step * gd < LOSS_RTOL * np.abs(f))
            for i in np.flatnonzero(floor).tolist():
                ended[i] = STOP_STEP_FLOOR
            for i in np.flatnonzero(missed & ~floor & (step == 0.5**61)).tolist():
                ended[i] = None
                out[ids[i]] = LineSearchFailure(
                    f"no decreasing step after 60 halvings (loss {f[i]:.3e}, |grad| "
                    f"{np.max(np.abs(g[i])):.3e})"
                )
            if not taken:
                continue

        # the gradient at every trial point of the pass: the model point
        # the loss evaluation left
        _, gn = free_grad(xn, rn, K)
        if not np.isfinite(gn).all():
            for i in np.flatnonzero(accept & ~np.isfinite(gn).all(axis=1)).tolist():
                ended[i] = None
                out[ids[i]] = NonFiniteLoss("gradient non-finite at an accepted step")
                accept[i] = every = False
        # take keeps s row-major (x[:, free_idx] is column-major), so each
        # row's vecdot sums as that of a batch of one
        s = xn.take(free_idx, axis=1) - x.take(free_idx, axis=1)
        yv = gn - g
        if not every:
            # no update from a rejected trial
            s, yv = np.where(accept[:, None], s, 0.0), np.where(accept[:, None], yv, 0.0)
        sy = np.vecdot(s, yv)
        curved = sy > 1e-12 * np.sqrt(np.vecdot(s, s)) * np.sqrt(np.vecdot(yv, yv))
        curves = np.count_nonzero(curved)
        if curves:
            bent = curves == len(curved)
            rho_up = (1.0 / (sy if bent else np.where(curved, sy, 1.0)))[:, None, None]
            Hy = (H @ yv[..., None])[..., 0]
            s_col = s[:, :, None]
            sHy = s_col * Hy[:, None, :]
            updated = (
                H
                - rho_up * (sHy + sHy.mT)
                + rho_up * (rho_up * np.vecdot(yv, Hy)[:, None, None] + 1.0)
                * (s_col * s[:, None, :])
            )
            H = updated if bent else np.where(curved[:, None, None], updated, H)
        if every:
            x, f, g = xn, fn, gn
            step.fill(1.0)
        else:
            x, g = np.where(accept[:, None], xn, x), np.where(accept[:, None], gn, g)
            f = np.where(accept, fn, f)
            step[accept] = 1.0
        # a row that took no step keeps its H and g, so this recomputes its
        # direction as it was
        d, gd = newton(H, g)
        decrement = minus_n * gd
    return out


def fit(data, system, cfg=None) -> EstimationResult:
    """Iterative GMM fit of ``system`` to ``data`` by the method cfg.method.

    The dataset must hold the system's variables: the same names, category
    counts and continuous count, else ValueError. Thresholds start at the
    closed-form quantiles of the marginal frequencies and correlations at
    the Pearson correlations of the coded data. The method fixes which
    parameters move and which moment rows W weights:

    - one-step: thresholds and correlations move jointly and
      W = (Cov_n u)^-1 weights every row but the polychoric cells the
      threshold rows imply.
    - two-step: the thresholds stay frozen at the closed form, the
      correlations move and W = (Cov_n g)^-1 weights the correlation rows
      but the polychoric cells that repeat an ordinal's margin.

    The method enters only through nh, the count of leading threshold rows
    solved in closed form (0 under one-step, q_h under two-step), and the
    weighted rows: the free parameters are the active ones after the first
    nh, the compiled rows are the nh threshold rows h followed by the
    weighted rows g, and K = [0 | K_g] with K_g the whitener of the g block
    of S alone, so the threshold rows take no weight. Every covariance is
    the one sandwich of the module docstring over the active columns,
    Var(theta) = D^-1 A S_R A' D^-T / n with D = [G_h; J'(K G)] and
    A S_R A' = [[S_hh, T'], [T, J'J]], T = J'(K S_Rh); under one-step it
    is (J'J)^-1 / n, and under two-step its threshold block is
    G11^-1 S_hh G11^-T / n, the closed-form thresholds' own sandwich. The
    "paper" variant (two-step only) is the paper's formula
    Var(R_hat) = (Lambda + Lambda Gamma Sigma Gamma' Lambda) / n, with
    Lambda = (J'J)^-1, Gamma = J'(K G21) and Sigma = ``compute_sigma``, the
    model-implied Var h: the same sandwich with G11 Sigma G11' as the h
    block and no cross term T, that is, Sigma taken as n Var(a_hat). Where
    every block keeps one equation (a min set) both methods solve the same
    just-identified equations, and the default two-step covariance matches
    the one-step one.

    The fit makes one inner solve, under W_c = S^-1, the inverse centred
    covariance of the products, through its whitener
    K = ``weight_matrix(S).whitener`` over the kept rows (K'K = W_c). By
    Sherman-Morrison its stationary point is the fixed point of the
    paper's refresh loop (module docstring), so no refresh solve follows.
    W in the covariance is W_c, the weight the solve ran under, so it is
    the sandwich of the estimator the fit computes; with J = K G,
    G'W_cG = J'J.
    Where S is rank-deficient in the data, W_c = K'K over the rows
    ``weight_matrix`` keeps, each dropped row a linear combination of the
    kept rows before it; a free parameter no kept row depends on raises
    DegenerateWeight. converged is set when the solve stopped on a
    stationarity test rather than MAX_ITER.

    The minimizer follows the gradient of the Legendre-approximated loss,
    but G in the covariance comes from the exact-CDF Jacobian
    (``assemble_gradient(theta, system)``): the covariance targets the
    exact model, so it changes with the CDF order only through theta.
    Where D is singular at the solution the covariance does not exist and
    the fit raises SingularCovariance. FitConfig rejects the "paper"
    variant under one-step, which has one covariance.

    Returns one EstimationResult, or raises the typed exception that
    ended the fit: ``fit`` is ``fit_batch`` of one dataset.
    """
    (res,) = fit_batch([data], system, cfg)
    if isinstance(res, Exception):
        raise res
    return res


def fit_batch(datasets, system, cfg=None) -> list:
    """``fit`` of each dataset in ``datasets`` to ``system``, with one solve
    over the batch: the datasets' solves run in lockstep through one loss
    evaluation and one gradient per pass (``_minimize``), and their starts,
    weights and covariances are those ``fit`` describes, each dataset's
    own. The data pass (``CompiledMoments``, which reads each dataset's
    rows once for its moments and its Pearson start), the starts (from the
    category counts ``ingest`` made, and the pass), the weights, the seeds
    of the solves' inverse Hessians and the covariances are computed over
    the batch in stacked calls. The weights of a batch of more than one
    dataset are whitened by one stacked Cholesky factorization and one
    stacked inverse where each S_gg has at most ``moments.FACTOR_ROWS``
    rows (``_weights``); a batch of one, and a dataset the stack leaves
    out (a pivot under the floor, or a stack numpy refuses), takes one
    ``weight_matrix`` call. A dataset's results do not depend on the other
    datasets in the batch, bit for bit.

    Returns, per dataset in order, its EstimationResult or the typed
    exception (a MixedCorrError, or a LinAlgError) that ended its fit; a
    dataset whose variables do not match the system raises ValueError for
    the whole batch. Each result's wall_time is the batch's wall time over
    its size.
    """
    cfg = cfg or FitConfig()
    for data in datasets:
        if (data.names, data.s, data.c) != (system.names, system.s, system.c):
            raise ValueError(
                f"dataset variables {data.names} (categories {data.s}, {data.c} continuous) "
                f"do not match the system's {system.names} (categories {system.s}, "
                f"{system.c} continuous)"
            )
    start = time.perf_counter()
    one_step = cfg.method == ONE_STEP
    # the method fixes nh, the leading threshold rows solved in closed form:
    # none under one-step, all q_h under two-step. They take no weight:
    # K = [0 | K_g], K_g from the g sub-block of S alone
    nh = 0 if one_step else system.q_h
    active = np.flatnonzero(system.active)
    free_idx = active[nh:]
    rows = np.concatenate((np.arange(nh), system.weighted_rows(one_step)))
    out = [None if data.counts.all() else _empty_category(data) for data in datasets]
    members = [b for b, res in enumerate(out) if res is None]
    solved = []
    if members:
        batch = [datasets[b] for b in members]
        compiled = CompiledMoments(batch, system, rows)
        starts = _initial_thetas(batch, compiled)
        weights, K = _weights(compiled.cov[:, nh:, nh:], nh)
        for i, res in enumerate(_minimize(compiled, K, starts, free_idx, cfg)):
            if isinstance(res, Exception):
                out[members[i]] = res
            else:
                solved.append((i, *res))
    if solved:
        ids = [i for i, _, _ in solved]
        theta = np.array([x for _, x, _ in solved])
        # no copy of K where every dataset solved
        var, singular = _sandwiches(theta, compiled, K if len(ids) == len(K) else K[ids], ids,
                                    rows, nh, cfg)
        wall_time = (time.perf_counter() - start) / len(datasets)
        results = _results(system, cfg, theta, [info for _, _, info in solved], var,
                           [weights[i] for i in ids], wall_time)
        for (i, _, _), error, res in zip(solved, singular, results):
            out[members[i]] = res if error is None else error
    return out


def _weights(S, nh):
    """The WeightMatrix of each g block S_gg of a batch, the stack S
    (B, q, q), and the batch's whiteners zero-padded to a common shape,
    K = [0 | K_g] of (B, q, nh + q). A batch of more than one dataset is
    whitened by ``_stacked_whiteners``, bit for bit as alone; a batch of
    one, and each dataset the stack leaves out, by one ``weight_matrix``
    call."""
    B, q = S.shape[:2]
    K = np.zeros((B, q, nh + q))
    weights = [None] * B
    if B > 1:
        whole, K_whole, condition = _stacked_whiteners(S)
        K[whole, :, nh:] = K_whole
        for b, K_b, bound in zip(whole.tolist(), K_whole, condition.tolist()):
            weights[b] = WeightMatrix(whitener=K_b, condition=bound, pseudo_inverse=False)
    for b in [b for b, w in enumerate(weights) if w is None]:
        weights[b] = centred = weight_matrix(S[b])
        K[b, : len(centred.whitener), nh:] = centred.whitener
    return weights, K


def _sandwiches(theta, compiled, K, ids, rows, nh, cfg):
    """Var(theta) over the active columns of the solves that ended at
    ``theta`` (B, p), the datasets ``ids`` of ``compiled`` with whiteners K,
    stacked: the sandwich D^-1 (A S_R A') D^-T / n of ``fit`` by two solves,
    with D = A G_R and A = blockdiag(I, J'K). K is zero past the rows its
    weight keeps, which adds nothing to a product. Returns the (B, a, a)
    covariances and, per solve, None or the SingularCovariance of a
    singular D (whose covariance is then left unset)."""
    system = compiled.system
    active = np.flatnonzero(system.active)
    # the exact G at every solution, in one call
    G = assemble_gradient(theta, system)[:, rows][:, :, active]
    # the threshold columns of each S, and no copy of the rest
    S_h, n = compiled.cov[ids, :, :nh], compiled.n[ids]
    KG = K @ G
    J = KG[:, :, nh:]
    D = np.concatenate((G[:, :nh], J.mT @ KG), axis=1)
    if cfg.covariance == COV_PAPER:
        sigma = np.array([compute_sigma(x, system, cfg.order) for x in theta])
        S_hh = G[:, :nh, :nh] @ sigma @ G[:, :nh, :nh].mT
        T = np.zeros((len(ids), len(active) - nh, nh))
    else:
        S_hh, T = S_h[:, :nh], J.mT @ (K @ S_h)
    # the g block of D, J'J, is also that of the middle
    middle = np.concatenate((np.concatenate((S_hh, T.mT), axis=2),
                             np.concatenate((T, D[:, nh:, nh:]), axis=2)), axis=1)

    def sandwich(b):
        return np.linalg.solve(D[b], np.linalg.solve(D[b], middle[b]).mT)

    singular = [None] * len(ids)
    try:
        var = sandwich(slice(None))
    except np.linalg.LinAlgError:
        # one singular D fails the stack: solve each, each as a stack of one
        var = np.zeros_like(middle)
        for b in range(len(ids)):
            try:
                var[b] = sandwich(slice(b, b + 1))[0]
            except np.linalg.LinAlgError as exc:
                singular[b] = SingularCovariance(f"the {cfg.method} covariance is singular: {exc}")
                singular[b].__cause__ = exc
    return (var + var.mT) / (2.0 * n[:, None, None]), singular


def _results(system, cfg, theta, infos, var, weights, wall_time) -> list:
    """The EstimationResult of each solve that ended at ``theta`` (B, p),
    with the covariances ``var`` over the active columns."""
    active = np.flatnonzero(system.active)
    B, p = len(theta), system.p
    var_theta = np.full((B, p, p), np.nan)
    var_theta[:, active[:, None], active] = var
    cols = system.coef_cols
    k_full = len(system.all_coefficients)
    included = cols - system.n_thr
    var_r = np.full((B, k_full, k_full), np.nan)
    var_r[:, included[:, None], included] = var_theta[:, cols[:, None], cols]
    r_values = np.full((B, k_full), np.nan)
    r_values[:, included] = theta[:, cols]
    psd = [None] * B
    if included.size == k_full:
        lower, upper = _lower_triangle(system.c, system.d)
        mats = np.tile(np.eye(system.c + system.d), (B, 1, 1))
        mats[:, lower, upper] = mats[:, upper, lower] = r_values
        psd = (np.linalg.eigvalsh(mats).min(axis=1) >= -1e-10).tolist()
    sizes = [si - 1 for si in system.s]
    coefficients = tuple(system.included_coefficients)
    names = tuple(system.coefficient_names())
    return [
        EstimationResult(
            method=cfg.method,
            r_hat=CorrelationParams(system.c, system.d, r_values[b]),
            a_hat=ThresholdSet.from_array(theta[b, : system.n_thr], sizes),
            var_r=var_r[b],
            var_theta=var_theta[b],
            coefficients=coefficients,
            coefficient_names=names,
            diagnostics=Diagnostics(
                converged=info.stop != STOP_MAX_ITER,
                stop=info.stop,
                final_loss=info.loss,
                final_grad_norm=info.grad_norm,
                final_decrement=info.decrement,
                inner_iterations=info.iterations,
                loss_evaluations=info.loss_evaluations,
                weight_condition=centred.condition,
                weight_pseudo_inverse=centred.pseudo_inverse,
                r_matrix_psd=psd[b],
                wall_time=wall_time,
            ),
        )
        for b, (info, centred) in enumerate(zip(infos, weights))
    ]
