"""Monte Carlo harness: latent-normal data generation and replication studies.

A study draws N independent samples of size n from N(0, R_true),
discretizes the ordinal block by the design thresholds, fits each
replication, and aggregates

    MEAN  mean of the estimated correlation vectors,
    COVR  empirical covariance of the estimate series,
    MCOV  mean of the per-replication estimated Var(R_hat).

The replications are run in fixed batches by replication index (0..B-1,
then the next B, ..., with B = STUDY_BATCH but for a system or a design
too large for it), and a worker process takes whole batches. Per
replication only the draw is its own: its standard normals come from its
own stream, ``SeedSequence([seed, replication])``, into its slice of one
(B, n, c + d) array. The rest is done once per batch: one stacked matmul
with the Cholesky factor of R_true and one ``cut_codes`` per ordinal make
the tables (``_draw``), ``ingest_batch`` makes ``ingest``'s checks over
the stack and gives a replication that fails one its own typed error,
the starts come from the category counts those checks made and from
the batch's one data pass (``moments.CompiledMoments``), and one
``estimator.fit_batch`` solve fits the batch. No result depends on the batch: a replication's table,
dataset and fit equal, bit for bit, those of ``generate`` and ``fit`` on
that replication alone, which run the same code as a batch of one. So
neither the batches nor the worker count change any result, and any
parallel schedule reproduces the serial results bit for bit. The
equation system is built once per process (``_system``).
"""

from __future__ import annotations

import functools
import numbers
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import AllReplicationsFailed, NotPositiveDefinite
# fit and ingest are not called here: they stay module attributes for code
# that swaps them, as the benchmark's tracer does (bench/workloads.py)
from .estimator import FitConfig, fit, fit_batch  # noqa: F401
from .model import (
    MixedDataset,
    VariableSpec,
    _split_specs,
    coefficient_order,
    cut_codes,
    ingest,  # noqa: F401
    ingest_batch,
)
from .moments import CUSTOM, build_system
from .normal import LegendreOrder

__all__ = ["SimDesign", "SimReport", "generate", "run_study"]

# Replications per fit_batch solve. On the table-1 and table-2 designs a
# fit in a batch of 64 takes a fifth and a third of the time of a fit
# alone, and a batch of 256 gains under a tenth more (tools/batch_sweep.py).
# Per dataset a batch holds two q x q matrices (the moment covariance and
# the whitener) and at most DATA_COPIES n x (c + d) arrays of 8-byte cells
# at once: the stacked draw and the validated y and x that ingest_batch
# makes from it are two, and the temporaries of one column at a time stay
# under a third (the data pass works on CHUNK_ROWS rows of each dataset
# at a time). So a system with many moment rows, or a design with many
# data rows, takes fewer datasets per batch, at most BATCH_BYTES of them
# together.
STUDY_BATCH = 64
BATCH_BYTES = 64 * 2**20
DATA_COPIES = 3

# the label under which SimReport.failure_kinds counts a fit that stopped
# at MAX_ITER (converged False)
MAX_ITER_FAILURE = "max_iter"


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
            one_list = cuts.ndim == 1 and cuts.size > 0
            if not one_list or not np.all(np.isfinite(cuts)) or np.any(np.diff(cuts) <= 0):
                raise ValueError(
                    f"thresholds of {name!r} must be one finite, strictly increasing list"
                )
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
    # (exception class name, count) of the failed replications, sorted by
    # name, with MAX_ITER_FAILURE for a fit that did not converge
    failure_kinds: tuple = ()
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


def _draw(design: SimDesign, replications) -> np.ndarray:
    """The (B, n, c + d) tables of ``replications``, stacked: each one's
    standard normals from its own stream, rotated by the Cholesky factor of
    R_true in one stacked matmul, and each ordinal cut at its thresholds by
    one ``cut_codes`` over the stack."""
    L = _factor(design.r_true)
    c = len(design.continuous)
    z = np.empty((len(replications), design.n, len(L)))
    for b, rep in enumerate(replications):
        rng = np.random.default_rng(np.random.SeedSequence([design.seed, int(rep)]))
        rng.standard_normal(out=z[b])
    z = z @ L.T
    for j, (_, cuts) in enumerate(design.ordinal):
        z[:, :, c + j] = cut_codes(z[:, :, c + j], cuts)
    return z


def _generate_batch(design: SimDesign, replications) -> list:
    """``generate`` of each of ``replications``: per replication its
    dataset or the typed error (a MixedCorrError) that ended it."""
    return ingest_batch(_draw(design, replications), design.specs, standardize=False)


def generate(design: SimDesign, replication: int) -> MixedDataset:
    """One replication's dataset, deterministic in (seed, replication).

    The standard normals come from the replication's own stream,
    ``SeedSequence([seed, replication])``; the rotation by the Cholesky
    factor of R_true, the cut of each ordinal and ``ingest``'s checks are
    made once over a stack of replications (``_draw``, ``ingest_batch``),
    and ``generate`` is that stack of one. A replication's table does not
    depend on the other replications in its stack, bit for bit.

    Continuous draws come from a unit-variance population and are used as
    drawn (no per-sample re-standardization); re-scaling by the sample sd
    would turn the product-moment block into a sample correlation and
    shrink its sampling variance below what the asymptotic formulas (and
    the reference tables) describe.
    """
    (data,) = _generate_batch(design, [replication])
    if isinstance(data, Exception):
        raise data
    return data


@functools.lru_cache(maxsize=1)
def _system(specs, mode):
    """The equation system of a study's variables, built once per process
    (a worker forked after ``run_study`` built it inherits it)."""
    return build_system(specs, mode)


def _run_block(design: SimDesign, start: int, stop: int):
    """Fit replications start..stop-1 in one batch; returns per replication
    (index, estimates, variances, failure kind), the estimates None and the
    kind named where it failed."""
    system = _system(design.specs, design.fit.system_mode)
    reps, datasets, out = [], [], []
    for rep, data in zip(range(start, stop), _generate_batch(design, range(start, stop))):
        if isinstance(data, Exception):
            out.append((rep, None, None, type(data).__name__))
        else:
            reps.append(rep)
            datasets.append(data)
    for rep, res in zip(reps, fit_batch(datasets, system, design.fit)):
        if isinstance(res, Exception):
            out.append((rep, None, None, type(res).__name__))
        elif not res.diagnostics.converged:
            out.append((rep, None, None, MAX_ITER_FAILURE))
        else:
            out.append((rep, res.r_hat.values.copy(), res.var_r.copy(), None))
    return out


def _dataset_bytes(design: SimDesign, q: int) -> int:
    """The bytes one dataset of ``design`` takes in a batch, with q moment
    rows (STUDY_BATCH comment)."""
    p = len(design.continuous) + len(design.ordinal)
    return 8 * (2 * q * q + DATA_COPIES * design.n * p)


def _usable_cores() -> int:
    """The CPU cores this process may run on (its affinity mask, where the
    platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_study(design: SimDesign, workers=None, keep_estimates=False) -> SimReport:
    """Run every replication, aggregate MEAN / COVR / MCOV.

    The replications are run in batches of STUDY_BATCH by replication
    index (module docstring), fewer where their q x q matrices and data
    would pass BATCH_BYTES. ``workers`` processes take whole batches: by default
    one per usable core, never more than the batches; fewer than 1 is a
    ValueError. Replications that fail to converge (or to
    produce a valid dataset) are counted and excluded, by kind in
    failure_kinds. Results are reduced in replication order, so any worker
    count yields identical output.
    """
    start_time = time.perf_counter()
    N = design.replications
    if workers is None:
        workers = _usable_cores()
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer of at least 1, not {workers!r}")
    q = _system(design.specs, design.fit.system_mode).q
    size = max(1, min(STUDY_BATCH, BATCH_BYTES // _dataset_bytes(design, q)))
    batches = [(s, min(s + size, N)) for s in range(0, N, size)]
    workers = min(workers, len(batches))

    outcomes = []
    if workers == 1:
        for batch in batches:
            outcomes.extend(_run_block(design, *batch))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for block in pool.map(_run_block, [design] * len(batches), *zip(*batches)):
                outcomes.extend(block)
    outcomes.sort(key=lambda t: t[0])

    estimates = [r for _, r, _, _ in outcomes if r is not None]
    variances = [v for _, _, v, _ in outcomes if v is not None]
    kinds = Counter(kind for _, _, _, kind in outcomes if kind is not None)
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
        failure_kinds=tuple(sorted(kinds.items())),
        estimates=series if keep_estimates else None,
        se_estimates=se_series,
    )

