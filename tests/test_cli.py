import csv
import dataclasses
import json

import numpy as np
import pytest

import mixedcorr as mc
from mixedcorr import cli, estimator
from mixedcorr.errors import EmptyCategory

from conftest import design1


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture()
def data_csv(tmp_path):
    data = mc.generate(design1(n=400, replications=2, seed=17), 0)
    path = tmp_path / "data.csv"
    rows = np.column_stack([data.y, data.x.astype(float)])
    _write_csv(path, ["Y1", "Y2", "X1", "X2"], rows.tolist())
    return path


def _run(argv):
    return cli.main([str(a) for a in argv])


class TestFitCommand:
    def test_basic_fit_json(self, data_csv, tmp_path):
        out = tmp_path / "report.json"
        code = _run(
            ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
             "--ordinal", "X1:2,X2:2", "--method", "two-step", "--out", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 5
        assert len(report["coefficients"]) == 6
        assert set(report["thresholds"]) == {"X1", "X2"}
        assert len(report["thresholds"]["X1"]) == 1
        assert report["diagnostics"]["converged"] is True
        assert len(report["var_r"]) == 6
        kinds = [c["kind"] for c in report["coefficients"]]
        assert kinds == ["pearson"] + ["polyserial"] * 4 + ["polychoric"]
        est = {(c["var_i"], c["var_j"]): c["estimate"] for c in report["coefficients"]}
        assert abs(est[("X2", "X1")] - 0.8) < 0.15

    def test_pairs_restriction(self, data_csv, tmp_path):
        out = tmp_path / "report.json"
        code = _run(
            ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
             "--ordinal", "X1:2,X2:2", "--pairs", "Y1:X2,X1:X2", "--out", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["coefficients"]) == 2
        assert set(report["thresholds"]) == {"X1", "X2"}
        assert report["config"]["system"] == "custom"

    def test_one_step_and_formats(self, data_csv, tmp_path):
        out = tmp_path / "report.csv"
        code = _run(
            ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
             "--ordinal", "X1:2,X2:2", "--method", "one-step",
             "--format", "csv", "--out", out]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kind,var_i,var_j,estimate,se"
        assert len(lines) == 1 + 6 + 2  # header, coefficients, thresholds

    def test_one_step_json_is_strict(self, data_csv, tmp_path):
        # infinite weight-condition diagnostics must not leak Infinity tokens
        out = tmp_path / "report.json"
        code = _run(
            ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
             "--ordinal", "X1:2,X2:2", "--method", "one-step", "--out", out]
        )
        assert code == 0
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        json.loads(text)

    def test_missing_middle_category_inferred(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [
            [float(v), float(c)]
            for v, c in zip(rng.normal(size=60), rng.choice([1, 3], size=60))
        ]
        path = tmp_path / "gap.csv"
        _write_csv(path, ["Y", "X"], rows)
        code = _run(["fit", "--data", path, "--continuous", "Y", "--ordinal", "X"])
        assert code == 1

    def test_declared_count_mismatch(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rows = [
            [float(v), float(c)]
            for v, c in zip(rng.normal(size=60), rng.choice([1, 2], size=60))
        ]
        path = tmp_path / "narrow.csv"
        _write_csv(path, ["Y", "X"], rows)
        code = _run(["fit", "--data", path, "--continuous", "Y", "--ordinal", "X:3"])
        assert code == 1
        assert "EmptyCategory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "codes, declared, category",
        [([1.0, 2.0, 2.0], 3, 3), ([1.0, 3.0, 4.0, 1.0], None, 2)],
        ids=["declared", "inferred"],
    )
    def test_empty_category_is_typed(self, codes, declared, category):
        with pytest.raises(EmptyCategory) as err:
            cli._recode_ordinal("X", np.array(codes), declared)
        assert err.value.variable == "X"
        assert err.value.category == category
        assert str(err.value).startswith("EmptyCategory:")

    def test_arbitrary_labels_recoded(self, tmp_path):
        rng = np.random.default_rng(4)
        codes = rng.choice([10, 20], size=80)
        y = rng.normal(size=80) + 0.5 * (codes == 20)
        path = tmp_path / "labels.csv"
        _write_csv(path, ["Y", "X"], np.column_stack([y, codes.astype(float)]).tolist())
        out = tmp_path / "report.json"
        code = _run(
            ["fit", "--data", path, "--continuous", "Y", "--ordinal", "X:2", "--out", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        recode = next(v for v in report["variables"] if v["name"] == "X")["recode_map"]
        assert recode == {"10": 1, "20": 2}

    def test_non_numeric_cell_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("Y,X\n0.1,1\nobviously_text,2\n0.3,1\n")
        code = _run(["fit", "--data", path, "--continuous", "Y", "--ordinal", "X:2"])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_unrequested_text_column_ignored(self, tmp_path):
        rng = np.random.default_rng(5)
        codes = rng.choice([1, 2], size=80)
        y = rng.normal(size=80) + 0.5 * (codes == 2)
        path = tmp_path / "with_id.csv"
        _write_csv(
            path,
            ["id", "Y", "X"],
            [[f"abc{i}", v, float(c)] for i, (v, c) in enumerate(zip(y, codes))],
        )
        code = _run(["fit", "--data", path, "--continuous", "Y", "--ordinal", "X:2"])
        assert code == 0

    def test_byte_order_mark_skipped(self, data_csv, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
        bom_csv = tmp_path / "excel.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + data_csv.read_bytes())
        reports = []
        for path in (data_csv, bom_csv):
            out = tmp_path / f"{path.stem}.json"
            argv = ["fit", "--data", path, "--continuous", "Y1,Y2",
                    "--ordinal", "X1:2,X2:2", "--out", out]
            assert _run(argv) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0]["coefficients"] == reports[1]["coefficients"]

    def test_repeated_requested_column_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        codes = rng.choice([1, 2, 3], size=60)
        y = rng.normal(size=60) + 0.5 * codes
        path = tmp_path / "repeated.csv"
        _write_csv(
            path,
            ["Y", "X1", "X1", "note", "note"],
            [[v, float(c), 1.0, "a", "b"] for v, c in zip(y, codes)],
        )
        code = _run(["fit", "--data", path, "--continuous", "Y", "--ordinal", "X1:3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'X1'" in err and "more than once" in err
        # a repeated column that is not requested is never parsed
        path.write_text(path.read_text().replace("Y,X1,X1", "Y,X1,X2", 1))
        code = _run(["fit", "--data", path, "--continuous", "Y", "--ordinal", "X1:3"])
        assert code == 0

    GOOD = "Y,X\n0.1,1\n0.5,2\n-0.3,1\n0.9,2\n"

    @pytest.mark.parametrize(
        "text, args, message",
        [
            (None, [], "cannot open"),
            ("", [], "empty file"),
            ("Y,X\n0.1,1\n0.5\n", [], "line 3: expected 2 cells, got 1"),
            ("Y,X\n", [], "no data rows"),
            (GOOD, ["--ordinal", "X:abc"], "categories must be an integer or 'infer'"),
            ("Y,X\n0.1,1\n0.5,1.5\n-0.3,2\n", [], "non-integer labels"),
            ("Y,X\n0.1,1\n0.5,2\n-0.3,3\n", [], "3 distinct labels exceed s=2"),
            ("Y,X\n0.1,NA\n0.5,.\n", [], "no observed values"),
            ("Y,X\n0.1,0\n0.5,1\n-0.3,2\n", ["--ordinal", "X"], "labels >= 1"),
            (GOOD, ["--pairs", "Y"], "expected 'name:name'"),
            (GOOD, ["--pairs", "Y:Z"], "unknown column 'Z'"),
            (GOOD, ["--pairs", "Y:Y"], "two distinct columns"),
            (GOOD, ["--pairs", "Y:X", "--system", "min"], "drop --system"),
            (GOOD, ["--pairs", ","], "--pairs names no pair"),
        ],
        ids=[
            "unopenable", "empty", "ragged_row", "header_only", "ordinal_count_text",
            "non_integer_labels", "too_many_labels", "no_observed_labels",
            "inferred_label_below_one", "pair_without_colon", "pair_unknown_column",
            "pair_same_column", "pairs_with_system", "pairs_empty",
        ],
    )
    def test_input_errors(self, tmp_path, capsys, text, args, message):
        path = tmp_path / "input.csv"
        if text is not None:
            path.write_text(text)
        argv = ["fit", "--data", path, "--continuous", "Y", "--ordinal", "X:2"] + args
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_blank_lines_and_missing_cells(self, tmp_path):
        data = mc.generate(design1(n=300, replications=2, seed=17), 0)
        rows = np.column_stack([data.y, data.x.astype(float)]).tolist()
        lines = [",".join(map(repr, row)) for row in rows]
        # a row with a missing cell is dropped; a blank line is not a row
        for k, (col, cell) in enumerate([(0, "NA"), (2, "."), (1, "")]):
            cells = lines[10 * k].split(",")
            cells[col] = cell
            lines[10 * k] = ",".join(cells)
        lines[5:5] = ["", " , , , "]
        path = tmp_path / "gaps.csv"
        path.write_text("\n".join(["Y1,Y2,X1,X2"] + lines + [""]) + "\n")
        out = tmp_path / "report.json"
        argv = ["fit", "--data", path, "--continuous", "Y1,Y2",
                "--ordinal", "X1:2,X2:2", "--out", out]
        assert _run(argv) == 0
        report = json.loads(out.read_text())
        assert report["n_rows_dropped"] == 3
        assert report["n_rows_used"] == 297

    def test_unwritable_report_path(self, data_csv, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "r.json"
        argv = ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
                "--ordinal", "X1:2,X2:2", "--out", out]
        assert _run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")

    def test_missing_report_directory_fails_before_fit(self, data_csv, tmp_path, capsys,
                                                        monkeypatch):
        started = []
        monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: started.append(1))
        out = tmp_path / "missing_dir" / "r.json"
        argv = ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
                "--ordinal", "X1:2,X2:2", "--out", out]
        assert _run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
        assert not started  # the fit never started

    def test_unknown_column(self, data_csv, capsys):
        code = _run(
            ["fit", "--data", data_csv, "--continuous", "Y1,Zz", "--ordinal", "X1:2,X2:2"]
        )
        assert code == 1
        assert "Zz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "columns",
        [[], ["--continuous", "Y1", "--ordinal", "Y1:2"], ["--continuous", "Y1"]],
        ids=["none", "overlapping", "one_column"],
    )
    def test_no_columns_given(self, data_csv, columns, capsys):
        assert _run(["fit", "--data", data_csv] + columns) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("ordinal", ["C:1", "C"], ids=["declared", "inferred"])
    def test_single_category_ordinal(self, tmp_path, capsys, ordinal):
        path = tmp_path / "one.csv"
        _write_csv(path, ["Y", "C"], [[0.1 * k, 1] for k in range(20)])
        assert _run(["fit", "--data", path, "--continuous", "Y", "--ordinal", ordinal]) == 1
        assert "error: ordinal column 'C'" in capsys.readouterr().err

    def test_singular_covariance(self, tmp_path, capsys):
        # an empty cell of a 2x2 table leaves the one-step G'WG singular
        path = tmp_path / "empty_cell.csv"
        _write_csv(path, ["X1", "X2"], [[1, 2]] * 30 + [[2, 1]] * 30 + [[2, 2]] * 40)
        argv = ["fit", "--data", path, "--ordinal", "X1:2,X2:2", "--method", "one-step"]
        assert _run(argv) == 1
        assert capsys.readouterr().err.startswith("error: the one-step covariance is singular")

    def test_min_system(self, data_csv, tmp_path):
        out = tmp_path / "report.json"
        code = _run(
            ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
             "--ordinal", "X1:2,X2:2", "--system", "min", "--out", out]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["system"] == "min"
        assert len(report["coefficients"]) == 6

    def test_row_permutation_invariance(self, data_csv, tmp_path):
        out1 = tmp_path / "a.json"
        argv = ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
                "--ordinal", "X1:2,X2:2", "--out", out1]
        assert _run(argv) == 0
        with open(data_csv) as fh:
            lines = fh.read().strip().splitlines()
        header, rows = lines[0], lines[1:]
        rng = np.random.default_rng(0)
        rng.shuffle(rows)
        permuted = tmp_path / "permuted.csv"
        permuted.write_text("\n".join([header] + rows) + "\n")
        out2 = tmp_path / "b.json"
        assert _run(
            ["fit", "--data", permuted, "--continuous", "Y1,Y2",
             "--ordinal", "X1:2,X2:2", "--out", out2]
        ) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        for ca, cb in zip(a["coefficients"], b["coefficients"]):
            assert ca["estimate"] == pytest.approx(cb["estimate"], abs=1e-10)

    def test_idempotent_rerun(self, data_csv, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
                "--ordinal", "X1:2,X2:2"]
        assert _run(argv + ["--out", out1]) == 0
        assert _run(argv + ["--out", out2]) == 0
        assert out1.read_text() == out2.read_text()

    def test_report_explains_inner_solves(self, data_csv, tmp_path):
        out = tmp_path / "report.json"
        argv = ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
                "--ordinal", "X1:2,X2:2", "--method", "one-step", "--out", out]
        assert _run(argv) == 0
        diag = json.loads(out.read_text())["diagnostics"]
        assert diag["stop"] in {"decrement", "step_floor", "max_iter"}
        assert isinstance(diag["weight_condition"], float)
        assert isinstance(diag["inner_iterations"], int)
        assert isinstance(diag["loss_evaluations"], int)
        assert diag["loss_evaluations"] >= 1
        assert "wall_time" not in diag

    def test_report_diagnostics_are_the_record(self, data_csv, tmp_path, monkeypatch):
        # the report lists what Diagnostics holds, wall time aside, and the
        # record counts one solve
        results = []
        real_fit = cli.fit

        def recorded_fit(data, system, cfg):
            results.append(real_fit(data, system, cfg))
            return results[-1]

        monkeypatch.setattr(cli, "fit", recorded_fit)
        out = tmp_path / "report.json"
        argv = ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
                "--ordinal", "X1:2,X2:2", "--out", out]
        assert _run(argv) == 0
        diag = json.loads(out.read_text())["diagnostics"]
        fields = {f.name for f in dataclasses.fields(mc.Diagnostics)}
        assert set(diag) == fields - {"wall_time"}
        assert results[0].diagnostics.outer_iterations == 1

    def test_nonconvergence_exit_code(self, data_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(estimator, "MAX_ITER", 1)
        out = tmp_path / "report.json"
        code = _run(
            ["fit", "--data", data_csv, "--continuous", "Y1,Y2",
             "--ordinal", "X1:2,X2:2", "--out", out]
        )
        assert code == 2
        report = json.loads(out.read_text())  # report still written
        assert report["diagnostics"]["converged"] is False


class TestSimulateCommand:
    def test_smoke_design(self, tmp_path):
        design = {
            "name": "smoke",
            "continuous": ["Y1", "Y2"],
            "ordinal": [
                {"name": "X1", "thresholds": [0.0]},
                {"name": "X2", "thresholds": [0.0]},
            ],
            "r_true": [
                [1.0, 0.3, 0.4, 0.5],
                [0.3, 1.0, 0.6, 0.7],
                [0.4, 0.6, 1.0, 0.8],
                [0.5, 0.7, 0.8, 1.0],
            ],
            "n": 200,
            "replications": 2,
            "seed": 3,
            "fit": {"method": "two-step", "system": "max", "legendre": 3,
                    "covariance": "corrected"},
        }
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps(design))
        out = tmp_path / "study"
        code = _run(["simulate", "--design", dpath, "--out", out, "--threads", "1"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["report"]["n_used"] == 2
        table = (out / "table.txt").read_text()
        assert "MEAN" in table and "COVR" in table and "MCOV" in table

    def test_seed_override_changes_results(self, tmp_path):
        design = {
            "name": "seeded",
            "continuous": ["Y1", "Y2"],
            "ordinal": [{"name": "X1", "thresholds": [0.0]}],
            "r_true": [[1.0, 0.3, 0.4], [0.3, 1.0, 0.5], [0.4, 0.5, 1.0]],
            "n": 150,
            "replications": 2,
            "seed": 3,
        }
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps(design))
        assert _run(["simulate", "--design", dpath, "--out", tmp_path / "a",
                     "--threads", "1"]) == 0
        assert _run(["simulate", "--design", dpath, "--out", tmp_path / "b",
                     "--threads", "1", "--seed", "99"]) == 0
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["report"]["mean"] != b["report"]["mean"]
        assert b["design"]["seed"] == 99

    @pytest.mark.parametrize(
        "override",
        [
            None,
            {"fit": {"system": "bogus"}},
            {"fit": {"system": "custom"}},
            {"replications": 1},
            # json reads -Infinity; every replication would fail on an empty category
            {"ordinal": [{"name": "X1", "thresholds": [-np.inf, 0.0]},
                         {"name": "X2", "thresholds": [0.0]}]},
            [],  # the whole document, not an override
            {"fit": []},
            {"seed": -1},
            {"continuous": ["Y1", "Y1"]},
            # int() would truncate each of these to a valid integer
            {"seed": 1.5},
            {"seed": True},
            {"n": 50.5},
            {"replications": 2.5},
            {"fit": {"legendre": 2.5}},
            # a string is not a name list: tuple() would read "YZ" as Y and Z
            {"continuous": "YZ"},
            {"ordinal": [{"name": 7, "thresholds": [0.0]},
                         {"name": "X2", "thresholds": [0.0]}]},
            {"name": ["a"]},
        ],
        ids=["missing_keys", "bogus_system", "custom_system", "one_replication",
             "non_finite_threshold", "top_level_not_object", "fit_not_object",
             "negative_seed", "repeated_names", "fractional_seed", "boolean_seed",
             "fractional_n", "fractional_replications", "fractional_legendre",
             "continuous_string", "ordinal_name_not_string", "study_name_not_string"],
    )
    def test_invalid_design(self, tmp_path, capsys, override):
        doc = {"name": "broken"}
        if isinstance(override, list):
            doc = override
        elif override is not None:
            doc = design1(n=50, replications=2).to_dict() | override
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps(doc))
        assert _run(["simulate", "--design", dpath, "--out", tmp_path / "x"]) == 1
        assert "invalid design" in capsys.readouterr().err

    def test_negative_seed_override(self, tmp_path, capsys):
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps(design1(n=50, replications=2).to_dict()))
        assert _run(["simulate", "--design", dpath, "--out", tmp_path / "x",
                     "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_invalid_json(self, tmp_path, capsys):
        dpath = tmp_path / "design.json"
        dpath.write_text("{not json")
        assert _run(["simulate", "--design", dpath, "--out", tmp_path / "x"]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_output_path_taken_by_a_file(self, tmp_path, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(cli, "run_study", lambda *args, **kwargs: started.append(1))
        dpath = tmp_path / "design.json"
        dpath.write_text(json.dumps(design1(n=50, replications=2).to_dict()))
        out = tmp_path / "taken"
        out.write_text("")
        assert _run(["simulate", "--design", dpath, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: cannot create output directory")
        assert not started  # the study never started

    def test_missing_file(self, tmp_path):
        assert _run(["simulate", "--design", tmp_path / "no.json",
                     "--out", tmp_path / "x"]) == 1


def test_shipped_design_files_parse():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "designs"
    for name in ("table1_n1000.json", "table2_n1000.json"):
        doc = json.loads((root / name).read_text())
        design = mc.SimDesign.from_dict(doc)
        assert design.n == 1000
