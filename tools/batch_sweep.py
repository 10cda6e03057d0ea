"""Time per dataset of batched fits against the batch size.

    PYTHONPATH=src python tools/batch_sweep.py [--datasets 256] [--repeats 3]

For the table-1 and table-2 designs (n = 1000, two-step, max set) this fits
the same datasets with ``estimator.fit_batch`` in batches of B = 1, 4, 16,
64 and 256, each B no larger than ``--datasets``, and prints, per dataset,
the best of ``--repeats`` wall times of

- ``kernels``: one ``model_terms`` call and one Legendre
  ``assemble_gradient`` call at the batch's start points, which reads the
  model point the first call left (what a solve pass costs in the model);
- ``moments``: the batch's data pass, ``moments.CompiledMoments`` over the
  rows the fit compiles, and the starts it gives
  (``estimator._initial_thetas``);
- ``weight``: the batch's whitening, ``estimator._weights`` of the g blocks
  of the covariances that pass gives: one stacked Cholesky factorization
  and inverse for B > 1, one ``weight_matrix`` call at B = 1;
- ``fit``: the whole ``fit_batch``, set-up and covariances included;
- ``replication``: the whole ``simulation._run_block`` over the same
  replications, which draws, validates, starts and fits each batch (what
  one study replication costs);
- ``share_norm_cdf``: the share of ``kernels`` spent in ``norm_cdf``.

Run it with one BLAS thread (OPENBLAS_NUM_THREADS=1) for steady numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mixedcorr as mc  # noqa: E402
from mixedcorr import estimator, moments, simulation  # noqa: E402

SIZES = (1, 4, 16, 64, 256)


def best_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


def sweep(design, datasets, repeats):
    system = mc.build_system(design.specs, design.fit.system_mode)
    data = [mc.generate(design, rep) for rep in range(datasets)]
    starts = np.array([estimator._initial_theta(d, system) for d in data])
    order = design.fit.order
    # the rows fit_batch compiles: the threshold rows solved in closed
    # form (none under one-step), then the weighted rows
    one_step = design.fit.method == mc.ONE_STEP
    nh = 0 if one_step else system.q_h
    fit_rows = np.concatenate((np.arange(nh), system.weighted_rows(one_step)))
    rows = {}
    # a size above the dataset count would time the whole set under its label
    for size in (size for size in SIZES if size <= datasets):
        batches = [slice(lo, lo + size) for lo in range(0, datasets, size)]

        def kernels():
            moments._point.cache_clear()
            for b in batches:
                theta = starts[b]
                moments.model_terms(theta, system, order)
                moments.assemble_gradient(theta, system, order)

        def data_pass():
            for b in batches:
                compiled = moments.CompiledMoments(data[b], system, fit_rows)
                estimator._initial_thetas(data[b], compiled)

        covs = [moments.CompiledMoments(data[b], system, fit_rows).cov[:, nh:, nh:]
                for b in batches]

        def whitening():
            for S in covs:
                estimator._weights(S, nh)

        def fits():
            for b in batches:
                estimator.fit_batch(data[b], system, design.fit)

        def replications():
            for b in batches:
                simulation._run_block(design, b.start, min(b.stop, datasets))

        cdf_time = [0.0]
        norm_cdf = moments.norm_cdf

        def timed_cdf(z):
            start = perf_counter()
            out = norm_cdf(z)
            cdf_time[0] += perf_counter() - start
            return out

        kernel_s = best_time(kernels, repeats)
        moments.norm_cdf = timed_cdf
        try:
            kernels()
        finally:
            moments.norm_cdf = norm_cdf
        rows[size] = {
            "kernels_us": kernel_s / datasets * 1e6,
            "moments_us": best_time(data_pass, repeats) / datasets * 1e6,
            "weight_us": best_time(whitening, repeats) / datasets * 1e6,
            "fit_us": best_time(fits, repeats) / datasets * 1e6,
            "replication_us": best_time(replications, repeats) / datasets * 1e6,
            "share_norm_cdf": cdf_time[0] / kernel_s,
        }
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    designs = {}
    for name in ("table1_n1000", "table2_n1000"):
        doc = json.loads((ROOT / "designs" / f"{name}.json").read_text())
        designs[name] = mc.SimDesign.from_dict(doc)
    result = {name: sweep(d, args.datasets, args.repeats) for name, d in designs.items()}
    for name, rows in result.items():
        print(name)
        print(f"  {'B':>4} {'kernels_us':>11} {'moments_us':>11} {'weight_us':>10} {'fit_us':>9}"
              f" {'replication_us':>15} {'share_norm_cdf':>15}")
        for size, row in rows.items():
            print(f"  {size:>4} {row['kernels_us']:>11.1f} {row['moments_us']:>11.1f}"
                  f" {row['weight_us']:>10.1f} {row['fit_us']:>9.1f} {row['replication_us']:>15.1f}"
                  f" {row['share_norm_cdf']:>15.3f}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
