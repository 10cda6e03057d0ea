"""Fit the fixed ``wide_c4d8s5`` benchmark dataset under 1 and under 2
OpenBLAS threads, by both methods, and compare the estimates.

The thread count changes the order of the sums inside the BLAS products, and
so the last bits of every product a fit forms. A stop rule that sits above
the rounding of the loss keeps that from changing where the solve ends, so
the estimates should differ by rounding only. Prints the largest difference
per method and exits 1 if either exceeds TOL.

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

ROOT = pathlib.Path(__file__).resolve().parent.parent
THREADS = ("1", "2")
TOL = 1e-12


def _fit_wide() -> dict:
    """R of the fixed wide dataset by each method, as lists."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import mixedcorr as mc
    import workloads

    wide = workloads.make("wide_c4d8s5")
    specs = wide.population.specs(mc)
    table = wide.population.draw(wide.n, workloads._rng(wide.data_seed, wide.stream))
    data = mc.ingest(table, specs)
    system = mc.build_system(specs, mc.MAX_SET)
    return {
        method: mc.fit(data, system, mc.FitConfig(method=method)).r_hat.values.tolist()
        for method in (mc.TWO_STEP, mc.ONE_STEP)
    }


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
    for method, values in runs[0].items():
        gap = max(abs(a - b) for a, b in zip(values, runs[1][method]))
        print(f"{method}: max |dR| {gap:.2g} between {' and '.join(THREADS)} OpenBLAS threads")
        worst = max(worst, gap)
    return int(worst > TOL)


if __name__ == "__main__":
    sys.exit(main())
