"""Benchmark of the mixedcorr estimator, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
summary with the check margins goes to standard error. See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the study workload runs its own worker processes, and a
# 2-core machine gives steadier timings without thread oversubscription.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
IMPORT_PROBES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import mixedcorr; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {"setup_s": "s", "op_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "model.ingest_ms": "ms",
    "moments.build_system_ms": "ms",
    "moments.q": "count",
    "moments.compiled_build_ms": "ms",
    "moments.products_mb": "MB-computed",
    "moments.model_terms_calls": "count",
    "moments.model_terms_us": "us",
    "moments.assemble_gradient_calls": "count",
    "moments.assemble_gradient_us": "us",
    "moments.weight_matrix_ms": "ms",
    "moments.weight_pinv_share": "ratio",
    "estimator.two_step_fit_ms": "ms",
    "estimator.one_step_fit_ms": "ms",
    "estimator.outer_iters": "count",
    "estimator.inner_iters": "count",
    "estimator.loss_evals_per_inner": "ratio",
    "estimator.self_ms": "ms",
    "estimator.final_grad_norm_max": "max-abs",
    "estimator.compute_sigma_ms": "ms",
    "simulation.generate_ms": "ms",
    "simulation.parallel_efficiency": "ratio",
    "trace.overhead_pct": "%",
}


def probe_import_seconds():
    """Median time to import mixedcorr in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_rounds(seconds, run_round):
    """Repeat whole rounds until ``seconds`` have passed; per-round wall times."""
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        t0 = perf_counter()
        run_round()
        times.append(perf_counter() - t0)
    return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def per_layer(tracer, workload, state, overhead_pct, parallel_efficiency):
    fits = tracer.values["fit"]
    n_fits = len(fits)
    inner_total = sum(diag.inner_iterations for _, diag, _ in fits)
    pinv = tracer.values["weight_pinv"]
    n_rows, q_full = workload.products_shape(state)

    def per_fit(value):
        return value / n_fits if n_fits else 0.0

    def fit_ms(method):
        times = [sec for m, _, sec in fits if m == method]
        return statistics.median(times) * 1e3 if times else 0.0

    return {
        "cli.self_ms": tracer.mean_self("cli.fit_command") * 1e3,
        "model.ingest_ms": tracer.median("model.ingest") * 1e3,
        "moments.build_system_ms": tracer.median("moments.build_system") * 1e3,
        "moments.q": state["system"].q,
        "moments.compiled_build_ms": tracer.median("moments.compiled_build") * 1e3,
        "moments.products_mb": n_rows * q_full * 8 / 1e6,
        "moments.model_terms_calls": per_fit(tracer.calls("moments.model_terms")),
        "moments.model_terms_us": tracer.median("moments.model_terms") * 1e6,
        "moments.assemble_gradient_calls": per_fit(tracer.calls("moments.assemble_gradient")),
        "moments.assemble_gradient_us": tracer.median("moments.assemble_gradient") * 1e6,
        "moments.weight_matrix_ms": tracer.median("moments.weight_matrix") * 1e3,
        "moments.weight_pinv_share": sum(pinv) / len(pinv) if pinv else 0.0,
        "estimator.two_step_fit_ms": fit_ms("two-step"),
        "estimator.one_step_fit_ms": fit_ms("one-step"),
        "estimator.outer_iters": per_fit(sum(diag.outer_iterations for _, diag, _ in fits)),
        "estimator.inner_iters": per_fit(inner_total),
        "estimator.loss_evals_per_inner": (
            tracer.counts["estimator.loss_evals"] / inner_total if inner_total else 0.0
        ),
        "estimator.self_ms": tracer.mean_self("estimator.fit") * 1e3,
        "estimator.final_grad_norm_max": max(
            (diag.final_grad_norm for _, diag, _ in fits), default=0.0
        ),
        "estimator.compute_sigma_ms": tracer.median("estimator.compute_sigma") * 1e3,
        "simulation.generate_ms": tracer.median("simulation.generate") * 1e3,
        "simulation.parallel_efficiency": parallel_efficiency,
        "trace.overhead_pct": overhead_pct,
    }


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "mixedcorr" / "__init__.py", workloads.DESIGN1, workloads.DESIGN2)
               if not p.is_file()]
    if missing:
        sys.stderr.write(f"bench: program files missing: {', '.join(map(str, missing))}\n")
        return 2
    sys.path.insert(0, str(SRC))
    seed = args.seed % (1 << 31)

    import_s = probe_import_seconds()
    import mixedcorr as mc
    from tracing import Tracer, wrapper_cost

    workload = workloads.make(args.workload)
    tracer = Tracer(enabled=bool(args.trace))
    api = workloads.Layers(mc, tracer)
    outcome = workloads.Outcome()
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        with tracer.installed(api.patches):
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                state = workload.setup(api, seed, workdir)
                setup_times.append(perf_counter() - t0)

        with tracer.installed(api.patches):
            events = tracer.events()
            rounds = run_rounds(args.seconds, lambda: workload.run_round(api, state, outcome))
            peak = peak_rss_mb()
            traced_seconds = sum(rounds)
            parallel_efficiency = 0.0
            if args.trace and hasattr(workload, "serial_pass"):
                # the study's spans happen in worker processes; the serial
                # pass records them in this one
                events = tracer.events()
                traced_seconds = workload.serial_pass(api, state)
                parallel_efficiency = traced_seconds / (
                    workload.threads * statistics.median(rounds)
                )
        workload.check(state, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        added = (tracer.events() - events) * wrapper_cost()
        overhead_pct = 100.0 * added / (traced_seconds - added)
        values = per_layer(tracer, workload, state, overhead_pct, parallel_efficiency)
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "op_ms": statistics.median(rounds) / workload.ops_per_round * 1e3,
            "peak_rss_mb": peak,
        }
        units = END_TO_END_UNITS
    for problem in outcome.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    margins = ", ".join(f"{k}={v:.3g}" for k, v in sorted(outcome.margins.items()))
    sys.stderr.write(
        f"{args.workload}: {len(rounds)} rounds, round_s {statistics.median(rounds):.4f}, "
        f"import_s {import_s:.4f}, setup {[round(t, 4) for t in setup_times]}; margins: {margins}\n"
    )
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
