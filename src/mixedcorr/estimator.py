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
formed: the fit's one q x q factorization is the Cholesky factor L of S,
and the solve and the covariance use only the whitened moments r = K m and
J = K G, with the whitener K = L^-1 and K'K = W_c, so that the loss is
|r|^2/2, its gradient G'K'r and G'W_cG = J'J. Where S is rank-deficient
in the data (an empty cell, say) ``weight_matrix`` drops each row that is
a linear combination of the rows kept before it (Hansen 1982), and L and K
cover the kept rows, K with a zero column at each dropped one: the solve
is then the fixed point of the paper's loop over the kept rows, and
W_c = K'K a generalized inverse of S. Where no kept row depends on some
free parameter, ``_minimize`` raises DegenerateWeight before any step.
The one-step method moves thresholds and correlations jointly; the
two-step method solves the thresholds in closed form from the marginal
frequencies, freezes them, and iterates on the correlation vector only.
``fit`` takes the method from its FitConfig.

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
from .model import CorrelationParams, ThresholdSet
from .moments import (
    CUSTOM,
    MAX_SET,
    MIN_SET,
    CompiledMoments,
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


def estimate_thresholds(data) -> ThresholdSet:
    """Closed-form thresholds: normal quantiles of cumulative category proportions."""
    cuts = []
    ordinal_specs = [sp for sp in data.specs if sp.is_ordinal]
    for j, sp in enumerate(ordinal_specs):
        counts = np.bincount(data.x[:, j], minlength=sp.categories + 1)[1:]
        for k, cnt in enumerate(counts, start=1):
            if cnt == 0:
                raise EmptyCategory(sp.name, k)
        cum = np.cumsum(counts[:-1]) / data.n
        cuts.append(norm_quantile(cum) if cum.size else np.empty(0))
    return ThresholdSet(cuts)


def _pearson_init(data, system) -> np.ndarray:
    """Pearson correlations of the coded data for every coefficient, clamped."""
    cols = np.column_stack([data.y, data.x.astype(float)])
    corr = np.clip(np.corrcoef(cols, rowvar=False), -RHO_MAX, RHO_MAX)
    # corrcoef is symmetric only up to rounding: from_matrix reads the lower triangle
    return CorrelationParams.from_matrix(corr, system.c, system.d).values


def _initial_theta(data, system) -> np.ndarray:
    a0 = estimate_thresholds(data)
    return np.concatenate([a0.to_array(), _pearson_init(data, system)])


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
    """
    system = compiled.system
    # the thresholds are unbounded, the correlations within +-RHO_MAX
    hi = np.full(system.p, RHO_MAX)
    hi[: system.n_thr] = np.inf
    lo = -hi
    evaluations = 0

    def loss_at(x):
        nonlocal evaluations
        evaluations += 1
        r = K @ compiled.m(x, cfg.order)
        return 0.5 * float(r @ r), r

    def free_grad(x, r):
        G = assemble_gradient(x, system, cfg.order)[compiled.rows][:, free_idx]
        return G, G.T @ (K.T @ r)

    x = np.clip(x0, lo, hi)
    f, r = loss_at(x)
    G0, g = free_grad(x, r)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise NonFiniteLoss("loss or gradient non-finite at the starting point")

    # the loss is nearly quadratic with Hessian ~ J'J, J = K G on the free
    # columns; seeding the inverse Hessian with it makes unit steps
    # acceptable immediately
    nfree = free_idx.size
    J = K @ G0
    # a free parameter that no kept row depends on (too few data rows, or
    # an empty cell) leaves J'J singular wherever the solve goes
    unweighted = free_idx[~J.any(axis=0)].tolist()
    if unweighted:
        raise DegenerateWeight(f"the {cfg.method} covariance is singular: no moment row "
                               f"the weight keeps depends on theta{unweighted}")
    B = J.T @ J
    ridge = 1e-10 * max(float(np.trace(B)) / max(nfree, 1), 1e-30)
    try:
        H = np.linalg.inv(B + ridge * np.eye(nfree))
    except np.linalg.LinAlgError:
        H = np.eye(nfree)
    iterations = 0
    while True:
        direction = -H @ g
        gd = float(g @ direction)
        if gd >= 0.0:
            H = np.eye(nfree)
            direction = -g
            gd = -float(g @ g)
        decrement = -compiled.n * gd
        if decrement <= DECREMENT_TOL:
            stop = STOP_DECREMENT
            break
        if iterations == MAX_ITER:
            stop = STOP_MAX_ITER
            break

        step = 1.0
        for _halving in range(61):
            xn = x.copy()
            xn[free_idx] = x[free_idx] + step * direction
            np.clip(xn, lo, hi, out=xn)
            fn, rn = loss_at(xn)
            if np.isfinite(fn) and fn <= f + 1e-4 * step * gd + LOSS_RTOL * abs(f):
                break
            step *= 0.5
            # below the loss's resolution no shorter step can show the decrease
            if -1e-4 * step * gd < LOSS_RTOL * abs(f):
                step = 0.0
                break
        else:
            raise LineSearchFailure(
                f"no decreasing step after 60 halvings (loss {f:.3e}, |grad| "
                f"{np.max(np.abs(g)):.3e})"
            )
        if step == 0.0:
            stop = STOP_STEP_FLOOR
            break

        iterations += 1
        _, gn = free_grad(xn, rn)
        if not np.all(np.isfinite(gn)):
            raise NonFiniteLoss("gradient non-finite at an accepted step")
        s = xn[free_idx] - x[free_idx]
        yv = gn - g
        sy = float(s @ yv)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(yv):
            rho_up = 1.0 / sy
            Hy = H @ yv
            H = (
                H
                - rho_up * (np.outer(s, Hy) + np.outer(Hy, s))
                + rho_up * (rho_up * float(yv @ Hy) + 1.0) * np.outer(s, s)
            )
        x, f, g = xn, fn, gn

    grad_norm = float(np.max(np.abs(g), initial=0.0))
    return x, _InnerInfo(f, grad_norm, decrement, iterations, evaluations, stop)


def _expand_var(var_active, positions, size):
    out = np.full((size, size), np.nan)
    out[np.ix_(positions, positions)] = var_active
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
    covariance of the products, through its whitener K (K'K = W_c, from
    the fit's one q x q factorization). By Sherman-Morrison its stationary
    point is the fixed point of the paper's refresh loop (module
    docstring), so no refresh solve follows. W in the covariance is W_c,
    the weight the solve ran under, so it is the sandwich of the estimator
    the fit computes; with J = K G, G'W_cG = J'J.
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
    """
    cfg = cfg or FitConfig()
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
    compiled = CompiledMoments(data, system, rows)
    S = compiled.cov

    centred = weight_matrix(S[nh:, nh:])
    K = np.pad(centred.whitener, ((0, 0), (nh, 0)))
    theta, info = _minimize(compiled, K, _initial_theta(data, system), free_idx, cfg)

    # D = A G_R and the middle A S_R A' over the active columns,
    # A = blockdiag(I, J'K)
    G = assemble_gradient(theta, system)[rows][:, active]
    KG = K @ G
    J = KG[:, nh:]
    D = np.vstack((G[:nh], J.T @ KG))
    if cfg.covariance == COV_PAPER:
        S_hh = G[:nh, :nh] @ compute_sigma(theta, system, cfg.order) @ G[:nh, :nh].T
        T = np.zeros((free_idx.size, nh))
    else:
        S_hh, T = S[:nh, :nh], J.T @ (K @ S[:, :nh])
    # the g block of D, J'J, is also that of the middle
    middle = np.vstack((np.hstack((S_hh, T.T)), np.hstack((T, D[nh:, nh:]))))
    # Var(theta) = D^-1 (A S_R A') D^-T / n by two solves
    try:
        var = np.linalg.solve(D, np.linalg.solve(D, middle).T)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"the {cfg.method} covariance is singular: {exc}") from exc
    var_theta = _expand_var((var + var.T) / (2.0 * compiled.n), active, system.p)
    var_r = var_theta[np.ix_(system.coef_cols, system.coef_cols)]

    k_full = len(system.all_coefficients)
    included_pos = system.coef_cols - system.n_thr
    r_values = np.full(k_full, np.nan)
    r_values[included_pos] = theta[system.coef_cols]
    r_hat = CorrelationParams(system.c, system.d, r_values)
    psd = None
    if not np.any(np.isnan(r_values)):
        psd = bool(np.linalg.eigvalsh(r_hat.to_matrix()).min() >= -1e-10)
    return EstimationResult(
        method=cfg.method,
        r_hat=r_hat,
        a_hat=ThresholdSet.from_array(theta[: system.n_thr], [si - 1 for si in system.s]),
        var_r=_expand_var(var_r, included_pos, k_full),
        var_theta=var_theta,
        coefficients=tuple(system.included_coefficients),
        coefficient_names=tuple(system.coefficient_names()),
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
            r_matrix_psd=psd,
            wall_time=time.perf_counter() - start,
        ),
    )
