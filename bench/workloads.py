"""The benchmark's workloads: inputs made from the seed, rounds of operations,
and output checks against ``reference``.

A round is a fixed list of operations; a run repeats whole rounds, so every
run attempts a whole multiple of the same operations. Operations and their
unit:

- ``table2_fits``: one fit (two-step or one-step) of one dataset;
- ``wide_c4d8s5``: one fit (two-step or one-step);
- ``csv_large_n``: one ``mixedcorr fit`` command;
- ``table1_study``: one replication of a ``mixedcorr simulate`` study.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parents[1]
DESIGN1 = ROOT / "designs" / "table1_n1000.json"
DESIGN2 = ROOT / "designs" / "table2_n1000.json"

TWO_STEP, ONE_STEP = "two-step", "one-step"
ML_KINDS = ("polyserial", "polychoric")
THRESHOLD_TOL = 1e-12
WIDE_DATA_SEED = 20260810


class Population:
    """Latent N(0, R) population whose ordinal columns are cut at fixed thresholds."""

    def __init__(self, continuous, ordinal, r_true):
        self.continuous = tuple(continuous)
        self.ordinal = tuple((name, np.asarray(cuts, dtype=float)) for name, cuts in ordinal)
        self.r_true = np.asarray(r_true, dtype=float)
        self.c = len(self.continuous)
        self.names = self.continuous + tuple(name for name, _ in self.ordinal)
        self.categories = tuple(cuts.size + 1 for _, cuts in self.ordinal)
        self._chol = np.linalg.cholesky(self.r_true)

    @staticmethod
    def from_design(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        ordinal = [(o["name"], o["thresholds"]) for o in doc["ordinal"]]
        return Population(doc["continuous"], ordinal, doc["r_true"])

    def specs(self, mc):
        return [mc.VariableSpec(nm) for nm in self.continuous] + [
            mc.VariableSpec(nm, categories=s) for (nm, _), s in zip(self.ordinal, self.categories)
        ]

    def draw(self, n, rng):
        """(n, c + d) table: continuous draws, then ordinal codes 1..s as floats."""
        z = rng.standard_normal((n, self.r_true.shape[0])) @ self._chol.T
        for j, (_, cuts) in enumerate(self.ordinal):
            z[:, self.c + j] = np.searchsorted(cuts, z[:, self.c + j]) + 1
        return z

    def true_value(self, kind, i, j):
        """Entry of R for coefficient (kind, i, j) in the program's 1-based labels."""
        c = self.c
        if kind == "pearson":
            return self.r_true[i - 1, j - 1]
        if kind == "polyserial":
            return self.r_true[i - 1, c + j - 1]
        return self.r_true[c + i - 1, c + j - 1]


def wide_population():
    """c=4 continuous and d=8 five-category ordinals with one-factor correlations."""
    loadings = np.array([0.8, 0.7, -0.6, 0.5, 0.7, 0.6, 0.5, -0.4, 0.6, 0.7, 0.5, 0.4])
    r_true = np.outer(loadings, loadings)
    np.fill_diagonal(r_true, 1.0)
    base = np.array([-1.3, -0.5, 0.2, 0.9])
    ordinal = [(f"X{j + 1}", base + 0.1 * (j % 3 - 1)) for j in range(8)]
    return Population([f"Y{i + 1}" for i in range(4)], ordinal, r_true)


def _rng(seed, stream, index=0):
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


class Outcome:
    """Operation counts, the first result of each operation, and check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = {}
        self.problems = []
        self.margins = {}

    def record(self, key, attempted, failed, result, same):
        """Count an operation; a repeat must give the same result as the first run."""
        self.attempted += attempted
        self.failed += failed
        if key not in self.first:
            self.first[key] = result
            return
        first = self.first[key]
        if result is not None and first is not None and not same(first, result):
            self.problems.append(f"{key}: result differs from the first round")

    def fail(self, key, attempted, error):
        """Count a failed operation; the error goes to standard error, not to the checks."""
        self.record(key, attempted, attempted, None, None)
        sys.stderr.write(f"operation {key} failed: {type(error).__name__}: {error}\n")

    def margin(self, name, value):
        """Keep the worst (largest) observed value of a checked quantity."""
        self.margins[name] = max(self.margins.get(name, -np.inf), float(value))

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)


class Layers:
    """The program's entry points as the benchmark calls them, traced or not.

    ``patches`` lists the module attributes through which the program's own
    layers call each other, each paired with its traced wrapper.
    """

    def __init__(self, mc, tracer):
        from mixedcorr import cli, estimator, model, moments, simulation

        self.mc = mc
        t = tracer

        def note_fit(res, seconds):
            t.values["fit"].append((res.method, res.diagnostics, seconds))

        def note_weight(w, seconds):
            t.values["weight_pinv"].append(bool(w.pseudo_inverse))

        self.fit = t.wrap("estimator.fit", estimator.fit, observe=note_fit)
        self.build_system = t.wrap("moments.build_system", moments.build_system)
        self.ingest = t.wrap("model.ingest", model.ingest)
        self.generate = t.wrap("simulation.generate", simulation.generate)
        self.cli_fit = t.wrap("cli.fit_command", cli.main)
        self.cli_simulate = t.wrap("cli.simulate_command", cli.main)
        self.patches = [
            (cli, "fit", self.fit),
            (cli, "ingest", self.ingest),
            (cli, "build_system", self.build_system),
            (simulation, "fit", self.fit),
            (simulation, "ingest", self.ingest),
            (simulation, "build_system", self.build_system),
            (simulation, "generate", self.generate),
            (moments, "model_terms", t.wrap("moments.model_terms", moments.model_terms)),
            (
                estimator,
                "assemble_gradient",
                t.wrap("moments.assemble_gradient", moments.assemble_gradient),
            ),
            (
                estimator,
                "weight_matrix",
                t.wrap("moments.weight_matrix", moments.weight_matrix, observe=note_weight),
            ),
            (
                estimator,
                "compute_sigma",
                t.wrap("estimator.compute_sigma", estimator.compute_sigma),
            ),
            (
                estimator,
                "CompiledMoments",
                t.wrap("moments.compiled_build", moments.CompiledMoments),
            ),
            (
                moments.CompiledMoments,
                "m",
                t.counted("estimator.loss_evals", moments.CompiledMoments.m),
            ),
        ]


def _same_fit(a, b):
    return np.array_equal(a.r_hat.values, b.r_hat.values) and np.array_equal(a.var_r, b.var_r)


class FitWorkload:
    """Fits of seeded datasets from one population, by both methods, in one process."""

    methods = (TWO_STEP, ONE_STEP)

    def __init__(self, population, n, datasets, stream, ml_tol, data_seed=None):
        self.population = population
        self.n = n
        self.datasets = datasets
        self.stream = stream
        self.ml_tol = ml_tol
        self.data_seed = data_seed  # when set, the data ignore --seed
        self.ops_per_round = datasets * len(self.methods)

    def setup(self, api, seed, workdir):
        pop = self.population
        specs = pop.specs(api.mc)
        system = api.build_system(specs, api.mc.MAX_SET)
        if self.data_seed is not None:
            seed = self.data_seed
        tables = [pop.draw(self.n, _rng(seed, self.stream, k)) for k in range(self.datasets)]
        data = [api.ingest(table, specs) for table in tables]
        return {"system": system, "tables": tables, "data": data}

    def run_round(self, api, state, outcome):
        system = state["system"]
        for k, data in enumerate(state["data"]):
            for method in self.methods:
                key = (k, method)
                try:
                    res = api.fit(data, system, api.mc.FitConfig(method=method))
                except Exception as exc:  # an operation that raises counts as failed
                    outcome.fail(key, 1, exc)
                    continue
                ok = res.diagnostics.converged
                outcome.record(key, 1, 0 if ok else 1, res if ok else None, _same_fit)

    def check(self, state, outcome):
        pop = self.population
        for k, table in enumerate(state["tables"]):
            y = np.column_stack([ref.standardize(table[:, i]) for i in range(pop.c)])
            x = table[:, pop.c :].astype(np.int64)
            ml = {}
            for method in self.methods:
                res = outcome.first.get((k, method))
                if res is None:
                    continue
                tag = f"dataset {k} {method}"
                for problem in ref.covariance_problems(res.var_r):
                    outcome.problems.append(f"{tag}: {problem}")
                if method == TWO_STEP:
                    for j, s in enumerate(pop.categories):
                        gap = np.max(np.abs(res.a_hat[j] - ref.thresholds(x[:, j], s)))
                        outcome.margin("threshold_gap", gap)
                        outcome.require(
                            gap <= THRESHOLD_TOL, f"{tag}: threshold {j + 1} off by {gap:.3e}"
                        )
                for (kind, i, j), est in zip(res.r_hat.labels, res.r_hat.values):
                    if kind not in ML_KINDS:
                        continue
                    if (kind, i, j) not in ml:
                        ml[(kind, i, j)] = ref.pair_ml(y, x, pop.categories, kind, i, j)
                    gap = abs(est - ml[(kind, i, j)])
                    outcome.margin(f"ml_gap_{kind}_{method}", gap)
                    outcome.require(
                        gap <= self.ml_tol,
                        f"{tag}: {kind}[{i},{j}] = {est:.4f}, ML {ml[(kind, i, j)]:.4f}",
                    )

    def products_shape(self, state):
        return self.n, state["system"].q_full


class CsvLargeN:
    """``mixedcorr fit`` (two-step) on a large CSV file, called in process."""

    ops_per_round = 1
    rows = 200_000
    estimate_tol = 0.02

    def __init__(self):
        self.population = Population.from_design(DESIGN2)

    def setup(self, api, seed, workdir):
        pop = self.population
        table = pop.draw(self.rows, _rng(seed, 3))
        path = workdir / "large.csv"
        fmt = ["%.9g"] * pop.c + ["%d"] * len(pop.ordinal)
        np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(pop.names), comments="")
        system = api.build_system(pop.specs(api.mc), api.mc.MAX_SET)
        return {"csv": path, "report": workdir / "report.json", "system": system}

    def argv(self, state):
        pop = self.population
        ordinal = ",".join(f"{nm}:{s}" for (nm, _), s in zip(pop.ordinal, pop.categories))
        return [
            "fit",
            "--data", str(state["csv"]),
            "--continuous", ",".join(pop.continuous),
            "--ordinal", ordinal,
            "--out", str(state["report"]),
        ]

    def run_round(self, api, state, outcome):
        try:
            code = api.cli_fit(self.argv(state))
        except Exception as exc:  # an operation that raises counts as failed
            outcome.fail("fit", 1, exc)
            return
        if code != 0:
            outcome.record("fit", 1, 1, None, bytes.__eq__)
            return
        outcome.record("fit", 1, 0, state["report"].read_bytes(), bytes.__eq__)

    def check(self, state, outcome):
        raw = outcome.first.get("fit")
        if raw is None:
            return
        pop = self.population
        report = json.loads(raw)
        table = np.loadtxt(state["csv"], delimiter=",", skiprows=1)
        outcome.require(
            report["n_rows_used"] == self.rows == table.shape[0],
            f"n_rows_used {report['n_rows_used']} != {self.rows} rows written",
        )
        outcome.require(report["diagnostics"]["converged"], "report says not converged")
        for j, ((name, _), s) in enumerate(zip(pop.ordinal, pop.categories)):
            expected = ref.thresholds(table[:, pop.c + j].astype(np.int64), s)
            gap = np.max(np.abs(np.asarray(report["thresholds"][name]) - expected))
            outcome.margin("threshold_gap", gap)
            outcome.require(gap <= THRESHOLD_TOL, f"threshold {name} off by {gap:.3e}")
        position = {nm: k for k, nm in enumerate(pop.names)}
        for coef in report["coefficients"]:
            truth = pop.r_true[position[coef["var_i"]], position[coef["var_j"]]]
            gap = abs(coef["estimate"] - truth)
            outcome.margin("truth_gap", gap)
            outcome.require(
                gap <= self.estimate_tol,
                f"{coef['var_i']}:{coef['var_j']} = {coef['estimate']:.4f}, true {truth}",
            )
        for problem in ref.covariance_problems(report["var_r"]):
            outcome.problems.append(f"report: {problem}")

    def products_shape(self, state):
        return self.rows, state["system"].q_full


def _study_content(doc):
    """report.json without the wall time, which differs from run to run."""
    report = dict(doc["report"])
    report.pop("wall_time", None)
    return {"design": doc["design"], "report": report}


class Table1Study:
    """``mixedcorr simulate`` on the shipped table-1 design, called in process."""

    mean_tol = 0.01
    ratio_range = (0.7, 1.3)

    def __init__(self):
        with open(DESIGN1, encoding="utf-8") as fh:
            self.doc = json.load(fh)
        self.ops_per_round = int(self.doc["replications"])
        self.population = Population.from_design(DESIGN1)
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:
            cores = os.cpu_count() or 1
        self.threads = max(1, min(2, cores))

    def setup(self, api, seed, workdir):
        design = api.mc.SimDesign.from_dict(dict(self.doc, seed=seed))
        system = api.build_system(design.specs, design.fit.system_mode)
        return {"design": design, "system": system, "seed": seed, "out": workdir / "study"}

    def run_round(self, api, state, outcome):
        argv = [
            "simulate",
            "--design", str(DESIGN1),
            "--out", str(state["out"]),
            "--threads", str(self.threads),
            "--seed", str(state["seed"]),
        ]
        reps = self.ops_per_round
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = api.cli_simulate(argv)
        except Exception as exc:  # a study that raises fails every replication
            outcome.fail("study", reps, exc)
            return
        if code != 0:
            outcome.record("study", reps, reps, None, _same_study)
            return
        with open(state["out"] / "report.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        outcome.record("study", reps, int(doc["report"]["failures"]), doc, _same_study)

    def check(self, state, outcome):
        doc = outcome.first.get("study")
        if doc is None:
            return
        report = doc["report"]
        outcome.require(
            report["n_used"] + report["failures"] == self.ops_per_round,
            "n_used + failures != replications",
        )
        labels = [_parse_label(lab) for lab in report["labels"]]
        truth = np.array([self.population.true_value(*lab) for lab in labels])
        mean_gap = np.max(np.abs(np.asarray(report["mean"]) - truth))
        outcome.margin("mean_gap", mean_gap)
        outcome.require(mean_gap <= self.mean_tol, f"MEAN off the truth by {mean_gap:.4f}")
        ratio = np.diag(np.asarray(report["mcov"])) / np.diag(np.asarray(report["covr"]))
        outcome.margin("mcov_covr_min", -ratio.min())
        outcome.margin("mcov_covr_max", ratio.max())
        lo, hi = self.ratio_range
        outcome.require(
            lo <= ratio.min() and ratio.max() <= hi,
            f"MCOV/COVR diagonal in [{ratio.min():.3f}, {ratio.max():.3f}]",
        )

    def serial_pass(self, api, state):
        """Generate and fit every replication serially in this process; seconds."""
        design, system = state["design"], state["system"]
        start = perf_counter()
        for rep in range(design.replications):
            api.fit(api.generate(design, rep), system, design.fit)
        return perf_counter() - start

    def products_shape(self, state):
        return state["design"].n, state["system"].q_full


def _same_study(a, b):
    return _study_content(a) == _study_content(b)


def _parse_label(text):
    kind, i, j = re.fullmatch(r"(\w+)\[(\d+),(\d+)\]", text).groups()
    return kind, int(i), int(j)


def make(name):
    if name == "table2_fits":
        return FitWorkload(
            Population.from_design(DESIGN2), n=1000, datasets=80, stream=1, ml_tol=0.06
        )
    if name == "wide_c4d8s5":
        # One fit costs 5-9 s and its cost swings by a third between datasets,
        # so the one dataset is fixed: a seeded one could hold no time bound.
        return FitWorkload(
            wide_population(), n=2000, datasets=1, stream=2, ml_tol=0.08, data_seed=WIDE_DATA_SEED
        )
    if name == "csv_large_n":
        return CsvLargeN()
    if name == "table1_study":
        return Table1Study()
    raise KeyError(name)


NAMES = ("table2_fits", "wide_c4d8s5", "csv_large_n", "table1_study")

