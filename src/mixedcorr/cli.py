"""Command line: batch estimation from CSV files and simulation studies.

Exit codes: 0 success, 1 input error or an output path that cannot be
written, 2 fit did not converge (the report is still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .errors import EmptyCategory, MixedCorrError
from .estimator import FitConfig, fit
from .model import (
    KIND_PEARSON,
    KIND_POLYSERIAL,
    VariableSpec,
    coefficient_order,
    coefficient_variables,
    ingest,
)
from .moments import CUSTOM, build_system
from .normal import LegendreOrder
from .simulation import SimDesign, run_study

SCHEMA_VERSION = 5

_MISSING = {"", "na", "nan", "null", "none", "."}


class _InputError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedcorr",
        description="Mixed correlation matrix estimation by iterative GMM.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="estimate correlations from a CSV file")
    p_fit.add_argument("--data", required=True, help="CSV file with a header row")
    p_fit.add_argument("--continuous", default="", help="comma list of continuous columns")
    p_fit.add_argument(
        "--ordinal",
        default="",
        help="comma list of ordinal columns as name:categories or name (inferred)",
    )
    p_fit.add_argument("--method", choices=["two-step", "one-step"], default=FitConfig.method)
    # no default, so that --pairs can reject any --system given with it
    p_fit.add_argument("--system", choices=["max", "min"])
    p_fit.add_argument(
        "--pairs",
        default=None,
        help="restrict to coefficients, e.g. 'Y1:X2,X1:X2' (a custom system: no --system)",
    )
    p_fit.add_argument("--legendre", type=int, choices=[2, 3], default=FitConfig.order.value)
    p_fit.add_argument("--cov", choices=["paper", "corrected"], default=FitConfig.covariance)
    p_fit.add_argument("--out", default=None, help="report path (stdout when omitted)")
    p_fit.add_argument("--format", choices=["json", "csv"], default="json")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study from a design file")
    p_sim.add_argument("--design", required=True, help="study design JSON")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--threads", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    return parser


def _read_csv(path, names):
    """The named columns of a CSV file with a header row, in the order given.

    Only the cells of those columns are parsed; every row must still have
    as many cells as the header. A leading byte-order mark, as Excel writes
    in its "CSV UTF-8" format, is skipped. A named column must appear once
    in the header; other repeated names are allowed.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise _InputError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise _InputError(f"{path}: empty file (header row required)") from None
        header = [h.strip() for h in header]
        col_index = {nm: i for i, nm in enumerate(header)}
        for nm in names:
            if nm not in col_index:
                raise _InputError(f"{path}: no column named {nm!r} in header")
            if header.count(nm) > 1:
                raise _InputError(f"{path}: column {nm!r} appears more than once in header")
        wanted = [(nm, col_index[nm]) for nm in names]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise _InputError(
                    f"{path} line {lineno}: expected {len(header)} cells, got {len(row)}"
                )
            parsed = []
            for name, i in wanted:
                cell = row[i].strip()
                if cell.lower() in _MISSING:
                    parsed.append(np.nan)
                    continue
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise _InputError(
                        f"{path} line {lineno}: column {name!r} has non-numeric cell {cell!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise _InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _parse_ordinal_arg(arg):
    out = []
    for item in filter(None, (s.strip() for s in arg.split(","))):
        if ":" in item:
            name, spec = item.split(":", 1)
            spec = spec.strip().lower()
            if spec == "infer":
                out.append((name.strip(), None))
            else:
                try:
                    out.append((name.strip(), int(spec)))
                except ValueError:
                    raise _InputError(
                        f"--ordinal entry {item!r}: categories must be an integer or 'infer'"
                    ) from None
        else:
            out.append((item, None))
    return out


def _recode_ordinal(name, col, declared):
    """Map ordinal labels to dense codes 1..s.

    With a declared category count the distinct integer labels are recoded
    in sorted order and their number must equal the declaration. Inferred
    columns are taken literally as codes 1..max with no gaps allowed.
    Either way the k-th smallest label becomes code k.
    """
    mask = ~np.isnan(col)
    observed = col[mask]
    if observed.size == 0:
        raise _InputError(f"ordinal column {name!r} has no observed values")
    if np.any(observed != np.round(observed)):
        raise _InputError(f"ordinal column {name!r} has non-integer labels")
    labels = np.unique(observed.astype(np.int64))
    if declared is not None:
        if labels.size > declared:
            raise _InputError(
                f"ordinal column {name!r}: {labels.size} distinct labels exceed s={declared}"
            )
        if labels.size < declared:
            raise EmptyCategory(
                name,
                labels.size + 1,
                f"EmptyCategory: ordinal column {name!r} has {labels.size} distinct "
                f"labels but s={declared} categories were declared",
            )
        s = declared
    else:
        if labels[0] < 1:
            raise _InputError(
                f"ordinal column {name!r}: inferred coding requires integer labels >= 1"
            )
        s = int(labels[-1])
        if labels.size < s:
            # sorted distinct labels >= 1: the first k with labels[k-1] != k is empty
            k = int(np.argmax(labels != np.arange(1, labels.size + 1))) + 1
            raise EmptyCategory(
                name,
                k,
                f"EmptyCategory: ordinal column {name!r} has no observations in "
                f"category {k} (codes run 1..{s})",
            )
    if s < 2:
        raise _InputError(f"ordinal column {name!r} needs at least 2 categories, has {s}")
    recoded = col.copy()
    recoded[mask] = np.searchsorted(labels, observed) + 1
    return recoded, s, {int(lab): k for k, lab in enumerate(labels, start=1)}


def _parse_pairs(arg, names, c):
    """Coefficient labels of the '--pairs' entries; c continuous columns lead ``names``."""
    pos = {nm: i for i, nm in enumerate(names)}
    label_of = {
        frozenset(coefficient_variables(c, *lab)): lab
        for lab in coefficient_order(c, len(names) - c)
    }
    labels = []
    for item in filter(None, (s.strip() for s in arg.split(","))):
        parts = [p.strip() for p in item.split(":")]
        if len(parts) != 2 or not all(parts):
            raise _InputError(f"--pairs entry {item!r}: expected 'name:name'")
        for p in parts:
            if p not in pos:
                raise _InputError(f"--pairs entry {item!r}: unknown column {p!r}")
        if parts[0] == parts[1]:
            raise _InputError(f"--pairs entry {item!r}: a pair needs two distinct columns")
        labels.append(label_of[frozenset((pos[parts[0]], pos[parts[1]]))])
    if not labels:
        raise _InputError("--pairs names no pair")
    return labels


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from exc


def _json_float(v):
    # strict JSON has no Infinity/NaN tokens
    v = float(v)
    return v if np.isfinite(v) else None


def _fit_report(args, data, system, cfg, res, recode_maps):
    variables = []
    for sp in data.specs:
        entry = {"name": sp.name, "kind": "ordinal" if sp.is_ordinal else "continuous"}
        if sp.is_ordinal:
            entry["categories"] = sp.categories
            entry["recode_map"] = {str(k): v for k, v in recode_maps[sp.name].items()}
        variables.append(entry)

    included = system.coef_cols - system.n_thr
    se = res.se()
    coefficients = [
        {
            "kind": kind,
            "var_i": ni,
            "var_j": nj,
            "estimate": float(res.r_hat.values[pos]),
            "se": float(se[pos]),
        }
        for (kind, ni, nj), pos in zip(res.coefficient_names, included)
    ]
    var_r = res.var_r[np.ix_(included, included)]
    thresholds = {
        sp.name: [float(v) for v in res.a_hat[j]]
        for j, sp in enumerate(s for s in data.specs if s.is_ordinal)
    }
    # Diagnostics is the record of the fit; its wall time is left out so that
    # rerunning an identical request produces an identical report
    diagnostics = {
        k: _json_float(v) if isinstance(v, float) else v
        for k, v in asdict(res.diagnostics).items()
        if k != "wall_time"
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "data": args.data,
            "continuous": [sp.name for sp in data.specs if not sp.is_ordinal],
            "ordinal": {
                sp.name: sp.categories for sp in data.specs if sp.is_ordinal
            },
            "method": cfg.method,
            "system": system.mode,
            "pairs": args.pairs,
            "legendre": cfg.order.value,
            "covariance": cfg.covariance,
            "format": args.format,
        },
        "n_rows_used": data.n,
        "n_rows_dropped": data.dropped_rows,
        "variables": variables,
        "thresholds": thresholds,
        "coefficients": coefficients,
        "var_r": var_r.tolist(),
        "diagnostics": diagnostics,
    }


def _write_fit_report(report, fmt, out):
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        lines = ["kind,var_i,var_j,estimate,se"]
        for coef in report["coefficients"]:
            lines.append(
                f"{coef['kind']},{coef['var_i']},{coef['var_j']},"
                f"{coef['estimate']!r},{coef['se']!r}"
            )
        for name, cuts in report["thresholds"].items():
            for k, v in enumerate(cuts, start=1):
                lines.append(f"threshold,{name},{k},{v!r},")
        text = "\n".join(lines)
    if out:
        _write_text(out, text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_fit(args) -> int:
    continuous = [s.strip() for s in args.continuous.split(",") if s.strip()]
    ordinal = _parse_ordinal_arg(args.ordinal)
    names = continuous + [nm for nm, _ in ordinal]
    if len(names) < 2:
        raise _InputError("--continuous and --ordinal must name at least two columns")
    if len(set(names)) != len(names):
        raise _InputError("column sets must be disjoint")
    if args.pairs and args.system:
        raise _InputError("--pairs selects a custom system: drop --system")
    # before the CSV is read, so that a report path in a missing directory
    # costs no fit
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise _InputError(f"cannot write {args.out}: its directory does not exist")

    table = _read_csv(args.data, names)
    specs = [VariableSpec(nm) for nm in continuous]
    recode_maps = {}
    for k, (nm, declared) in enumerate(ordinal, start=len(continuous)):
        table[:, k], s, recode_maps[nm] = _recode_ordinal(nm, table[:, k], declared)
        specs.append(VariableSpec(nm, categories=s))

    data = ingest(table, specs)

    if args.pairs:
        system = build_system(specs, CUSTOM, pairs=_parse_pairs(args.pairs, names, len(continuous)))
    else:
        system = build_system(specs, args.system or FitConfig.system_mode)

    cfg = FitConfig(
        method=args.method,
        order=LegendreOrder(args.legendre),
        covariance=args.cov,
        system_mode=system.mode,
    )
    res = fit(data, system, cfg)
    report = _fit_report(args, data, system, cfg, res, recode_maps)
    _write_fit_report(report, args.format, args.out)
    return 0 if res.diagnostics.converged else 2


def _format_table(design, report) -> str:
    labels = ["rho_%s[%d,%d]" % ("yy" if k == KIND_PEARSON else "yx" if k == KIND_POLYSERIAL else "xx", i, j)
              for k, i, j in report.labels]
    width = max(7, max(len(s) for s in labels) + 1)
    lines = [
        f"study: {design.name}   method: {design.fit.method} IGMM   "
        f"n={design.n}  N={design.replications}  failures={report.failures}  "
        f"time={report.wall_time:.2f}s",
        "MEAN x 1e-4; COVR, MCOV x 1e-6",
        "      " + "".join(s.rjust(width) for s in labels),
    ]

    def fmt(v, scale):
        return format(int(round(v * scale)), "d").rjust(width)

    lines.append("MEAN  " + "".join(fmt(v, 1e4) for v in report.mean))
    for tag, mat in (("COVR", report.covr), ("MCOV", report.mcov)):
        for r in range(mat.shape[0]):
            prefix = tag if r == 0 else "    "
            lines.append(
                f"{prefix:<6}" + "".join(fmt(mat[r, c], 1e6) for c in range(r + 1))
            )
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    try:
        with open(args.design, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot open {args.design}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{args.design}: invalid JSON ({exc})") from exc
    try:
        design = SimDesign.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{args.design}: invalid design ({exc})") from exc
    if args.seed is not None:
        try:
            design = replace(design, seed=args.seed)
        except ValueError as exc:
            raise _InputError(f"--seed: {exc}") from exc

    # before the study, so that an unusable output path costs no fits
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise _InputError(f"cannot create output directory {args.out}: {exc}") from exc

    report = run_study(design, workers=args.threads)

    doc_out = {
        "schema_version": SCHEMA_VERSION,
        "design": design.to_dict(),
        "report": report.to_dict(),
    }
    _write_text(
        os.path.join(args.out, "report.json"),
        json.dumps(doc_out, indent=2, sort_keys=True) + "\n",
    )
    table = _format_table(design, report)
    _write_text(os.path.join(args.out, "table.txt"), table)
    sys.stdout.write(table)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(args)
        return cmd_simulate(args)
    except (_InputError, MixedCorrError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
