"""Fit the fixed ``wide_c4d8s5`` benchmark dataset under 1 and under 2
OpenBLAS threads, by one-step and by two-step under both covariance
variants, and compare the estimates and their covariances.

The thread count changes the order of the sums inside the BLAS products, and
so the last bits of every product a fit forms. A stop rule that sits above
the rounding of the loss keeps that from changing where the solve ends, so
the estimates and var_r should differ by rounding only. Prints, per fit, the
largest difference of R and that of var_r relative to its largest entry, and
exits 1 if any exceeds TOL.

    python tools/blas_threads.py

Each fit runs in a fresh interpreter, since OpenBLAS reads its thread count
when numpy is first imported.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
THREADS = ("1", "2")
TOL = 1e-12


def _fit_wide() -> dict:
    """R and var_r of the fixed wide dataset by each fit, as lists."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import mixedcorr as mc
    import workloads

    wide = workloads.make("wide_c4d8s5")
    specs = wide.population.specs(mc)
    table = wide.population.draw(wide.n, workloads._rng(wide.data_seed, wide.stream))
    data = mc.ingest(table, specs)
    system = mc.build_system(specs, mc.MAX_SET)
    out = {}
    for cfg in (
        mc.FitConfig(method=mc.TWO_STEP),
        mc.FitConfig(method=mc.TWO_STEP, covariance=mc.COV_PAPER),
        mc.FitConfig(method=mc.ONE_STEP),
    ):
        res = mc.fit(data, system, cfg)
        label = cfg.method if cfg.method == mc.ONE_STEP else f"{cfg.method} {cfg.covariance}"
        out[label] = {"r": res.r_hat.values.tolist(), "var_r": res.var_r.tolist()}
    return out


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(_fit_wide()))
        return 0
    runs = []
    for threads in THREADS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        child = subprocess.run(
            [sys.executable, __file__, "--child"], env=env, check=True, capture_output=True, text=True
        )
        runs.append(json.loads(child.stdout))
    worst = 0.0
    for label, fit in runs[0].items():
        other = runs[1][label]
        gap = max(abs(a - b) for a, b in zip(fit["r"], other["r"]))
        var_a, var_b = np.array(fit["var_r"]), np.array(other["var_r"])
        var_gap = np.max(np.abs(var_a - var_b)) / np.max(np.abs(var_a))
        print(
            f"{label}: max |dR| {gap:.2g}, max |d var_r| {var_gap:.2g} of its largest entry, "
            f"between {' and '.join(THREADS)} OpenBLAS threads"
        )
        worst = max(worst, gap, var_gap)
    return int(worst > TOL)


if __name__ == "__main__":
    sys.exit(main())
