"""Monte Carlo harness: latent-normal data generation and replication studies.

A study draws N independent samples of size n from N(0, R_true),
discretizes the ordinal block by the design thresholds, fits each
replication, and aggregates

    MEAN  mean of the estimated correlation vectors,
    COVR  empirical covariance of the estimate series,
    MCOV  mean of the per-replication estimated Var(R_hat).

Per-replication RNG streams are derived from (master seed, replication
index), so any parallel schedule reproduces the serial results bit for bit.
"""

from __future__ import annotations

import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import AllReplicationsFailed, MixedCorrError, NotPositiveDefinite, UnknownPair
from .estimator import FitConfig, estimate_thresholds, fit
from .model import (
    KIND_POLYCHORIC,
    KIND_POLYSERIAL,
    MixedDataset,
    VariableSpec,
    _split_specs,
    coefficient_order,
    ingest,
)
from .moments import CUSTOM, build_system
from .normal import LegendreOrder, RHO_MAX, binorm_cdf_oracle, norm_cdf

__all__ = ["SimDesign", "SimReport", "generate", "run_study", "ml_pair_oracle"]


def _integer(name, value):
    """``value`` if it is an integer, not a bool; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def _string(name, value):
    """``value`` if it is a string; else ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, not {value!r}")
    return value


@dataclass(frozen=True)
class SimDesign:
    """True distribution, sampling sizes and fit configuration of one study."""

    continuous: tuple
    ordinal: tuple  # (name, thresholds) pairs
    r_true: np.ndarray
    n: int
    replications: int
    seed: int
    fit: FitConfig = field(default_factory=FitConfig)
    name: str = "study"

    def __post_init__(self):
        r = np.asarray(self.r_true, dtype=float)
        p = len(self.continuous) + len(self.ordinal)
        if r.shape != (p, p):
            raise ValueError("r_true shape does not match the variable count")
        if not np.allclose(r, r.T, atol=1e-12) or not np.allclose(np.diag(r), 1.0):
            raise ValueError("r_true must be symmetric with unit diagonal")
        r.setflags(write=False)
        object.__setattr__(self, "r_true", r)
        object.__setattr__(self, "continuous", tuple(self.continuous))
        ords = []
        for name, cuts in self.ordinal:
            cuts = np.asarray(cuts, dtype=float)
            if cuts.size < 1 or not np.all(np.isfinite(cuts)) or np.any(np.diff(cuts) <= 0):
                raise ValueError(f"thresholds of {name!r} must be finite and strictly increasing")
            cuts.setflags(write=False)
            ords.append((name, cuts))
        object.__setattr__(self, "ordinal", tuple(ords))
        _split_specs(self.specs)
        if self.replications < 2 or self.n < 2:
            raise ValueError("need n >= 2 and at least 2 replications to aggregate")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if self.fit.system_mode == CUSTOM:
            raise ValueError("a study has no pair list: use the max or min system")

    @property
    def specs(self):
        out = [VariableSpec(nm) for nm in self.continuous]
        out += [VariableSpec(nm, categories=len(cuts) + 1) for nm, cuts in self.ordinal]
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "continuous": list(self.continuous),
            "ordinal": [
                {"name": nm, "thresholds": list(map(float, cuts))}
                for nm, cuts in self.ordinal
            ],
            "r_true": self.r_true.tolist(),
            "n": self.n,
            "replications": self.replications,
            "seed": self.seed,
            "fit": {
                "method": self.fit.method,
                "system": self.fit.system_mode,
                "legendre": self.fit.order.value,
                "covariance": self.fit.covariance,
            },
        }

    @staticmethod
    def from_dict(doc: dict) -> "SimDesign":
        fit_doc = doc.get("fit", {}) if isinstance(doc, dict) else None
        if not isinstance(fit_doc, dict):
            raise TypeError("a design and its 'fit' must be JSON objects")
        cfg = FitConfig(
            method=fit_doc.get("method", FitConfig.method),
            system_mode=fit_doc.get("system", FitConfig.system_mode),
            order=LegendreOrder(_integer("legendre", fit_doc.get("legendre", FitConfig.order.value))),
            covariance=fit_doc.get("covariance", FitConfig.covariance),
        )
        continuous = doc.get("continuous", [])
        if not isinstance(continuous, list):
            raise ValueError(f"continuous must be a list of names, not {continuous!r}")
        return SimDesign(
            continuous=tuple(_string("a variable name", nm) for nm in continuous),
            ordinal=tuple(
                (_string("an ordinal name", o["name"]), np.asarray(o["thresholds"], dtype=float))
                for o in doc.get("ordinal", ())
            ),
            r_true=np.asarray(doc["r_true"], dtype=float),
            n=_integer("n", doc["n"]),
            replications=_integer("replications", doc["replications"]),
            seed=_integer("seed", doc["seed"]),
            fit=cfg,
            name=_string("name", doc.get("name", "study")),
        )


@dataclass(frozen=True)
class SimReport:
    """Aggregated study output."""

    labels: tuple
    mean: np.ndarray
    covr: np.ndarray
    mcov: np.ndarray
    failures: int
    n_used: int
    wall_time: float
    estimates: np.ndarray | None = None  # (n_used, k) when kept
    se_estimates: np.ndarray | None = None  # matching per-replication SEs

    def to_dict(self) -> dict:
        return {
            "labels": ["%s[%d,%d]" % lab for lab in self.labels],
            "mean": self.mean.tolist(),
            "covr": self.covr.tolist(),
            "mcov": self.mcov.tolist(),
            "failures": self.failures,
            "n_used": self.n_used,
            "wall_time": self.wall_time,
        }


def _factor(r_true) -> np.ndarray:
    try:
        return np.linalg.cholesky(r_true)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("true correlation matrix is not positive definite") from exc


def generate(design: SimDesign, replication: int) -> MixedDataset:
    """One replication's dataset, deterministic in (seed, replication).

    Continuous draws come from a unit-variance population and are used as
    drawn (no per-sample re-standardization); re-scaling by the sample sd
    would turn the product-moment block into a sample correlation and
    shrink its sampling variance below what the asymptotic formulas (and
    the reference tables) describe.
    """
    L = _factor(design.r_true)
    rng = np.random.default_rng(np.random.SeedSequence([design.seed, int(replication)]))
    c, d = len(design.continuous), len(design.ordinal)
    z = rng.standard_normal((design.n, c + d)) @ L.T
    table = np.empty_like(z)
    table[:, :c] = z[:, :c]
    for j, (_, cuts) in enumerate(design.ordinal):
        table[:, c + j] = np.searchsorted(cuts, z[:, c + j]) + 1
    return ingest(table, design.specs, standardize=False)


def _run_block(design: SimDesign, start: int, stop: int):
    """Fit replications start..stop-1; returns per-replication outcomes."""
    system = build_system(design.specs, design.fit.system_mode)
    out = []
    for rep in range(start, stop):
        try:
            data = generate(design, rep)
            res = fit(data, system, design.fit)
        except NotPositiveDefinite:
            raise
        except (MixedCorrError, np.linalg.LinAlgError):
            out.append((rep, None, None))
            continue
        if not res.diagnostics.converged:
            out.append((rep, None, None))
            continue
        out.append((rep, res.r_hat.values.copy(), res.var_r.copy()))
    return out


def run_study(design: SimDesign, workers=None, keep_estimates=False) -> SimReport:
    """Run every replication, aggregate MEAN / COVR / MCOV.

    Replications that fail to converge (or to produce a valid dataset) are
    counted and excluded. Results are reduced in replication order, so any
    worker count yields identical output.
    """
    start_time = time.perf_counter()
    N = design.replications
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(int(workers), N))

    if workers == 1:
        outcomes = _run_block(design, 0, N)
    else:
        chunk = max(1, -(-N // (4 * workers)))
        ranges = [(s, min(s + chunk, N)) for s in range(0, N, chunk)]
        outcomes = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for block in pool.map(
                _run_block, [design] * len(ranges), *zip(*ranges)
            ):
                outcomes.extend(block)
    outcomes.sort(key=lambda t: t[0])

    estimates = [r for _, r, _ in outcomes if r is not None]
    variances = [v for _, _, v in outcomes if v is not None]
    failures = N - len(estimates)
    if not estimates:
        raise AllReplicationsFailed(f"all {N} replications failed")

    series = np.vstack(estimates)
    mean = series.mean(axis=0)
    covr = np.cov(series, rowvar=False, ddof=1)
    covr = np.atleast_2d(covr)
    mcov = np.mean(np.stack(variances), axis=0)

    c, d = len(design.continuous), len(design.ordinal)
    se_series = None
    if keep_estimates:
        with np.errstate(invalid="ignore"):
            se_series = np.vstack([np.sqrt(np.diag(v)) for v in variances])
    return SimReport(
        labels=tuple(coefficient_order(c, d)),
        mean=mean,
        covr=covr,
        mcov=mcov,
        failures=failures,
        n_used=len(estimates),
        wall_time=time.perf_counter() - start_time,
        estimates=series if keep_estimates else None,
        se_estimates=se_series,
    )


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
            p = norm_cdf((upper - rho * y) / sq) - norm_cdf((lower - rho * y) / sq)
            return -np.sum(np.log(np.maximum(p, 1e-300)))

    from scipy.optimize import minimize_scalar  # test oracle only; kept off the import path

    res = minimize_scalar(nll, bounds=(-RHO_MAX, RHO_MAX), method="bounded")
    return float(res.x)
