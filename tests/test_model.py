import tracemalloc

import numpy as np
import pytest

import mixedcorr as mc
from mixedcorr.errors import (
    CodeOutOfRange,
    EmptyCategory,
    NonFiniteCell,
    TooFewRows,
)
from mixedcorr.model import coefficient_order, cut_codes


def _param_count(c, d, s=()):
    """(interest, nuisance) parameter counts for c continuous and d ordinal variables."""
    if c + d < 2:
        raise ValueError("need at least two variables")
    s = tuple(s)
    if len(s) != d:
        raise ValueError("one category count per ordinal variable required")
    return (c + d) * (c + d - 1) // 2, sum(si - 1 for si in s)


def _specs22():
    return [
        mc.VariableSpec("Y1"),
        mc.VariableSpec("Y2"),
        mc.VariableSpec("X1", categories=2),
        mc.VariableSpec("X2", categories=2),
    ]


def _table22(n=100, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, 2)) * 3.0 + 1.5
    x = rng.integers(1, 3, size=(n, 2))
    x[0] = [1, 1]
    x[1] = [2, 2]  # guarantee both categories
    return np.column_stack([y, x.astype(float)])


class TestIngest:
    def test_happy_path_standardizes(self):
        data = mc.ingest(_table22(), _specs22())
        assert data.n == 100 and data.c == 2 and data.d == 2 and data.s == (2, 2)
        for j in range(2):
            assert abs(data.y[:, j].mean()) < 1e-12
            assert abs(data.y[:, j].std(ddof=1) - 1.0) < 1e-12

    def test_standardize_off_keeps_raw(self):
        table = _table22()
        data = mc.ingest(table, _specs22(), standardize=False)
        assert np.array_equal(data.y, table[:, :2])
        assert not data.standardized

    def test_code_out_of_range(self):
        table = _table22()
        table[3, 2] = 3.0
        with pytest.raises(CodeOutOfRange):
            mc.ingest(table, _specs22())

    def test_code_beyond_int64_is_out_of_range(self):
        # checked before the cast to int64, which would warn on 1e20
        table = _table22()
        table[3, 2] = 1e20
        with pytest.raises(CodeOutOfRange):
            mc.ingest(table, _specs22())

    def test_non_integer_code(self):
        table = _table22()
        table[3, 2] = 1.5
        with pytest.raises(CodeOutOfRange):
            mc.ingest(table, _specs22())

    def test_empty_category(self):
        table = _table22()
        table[:, 3] = 1.0  # degenerate margin: threshold would be +inf
        with pytest.raises(EmptyCategory):
            mc.ingest(table, _specs22())

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            mc.ingest(_table22()[:1], _specs22())

    def test_missing_rows_dropped_and_counted(self):
        table = _table22()
        table[5, 0] = np.nan
        table[17, 3] = np.nan
        data = mc.ingest(table, _specs22())
        assert data.n == 98
        assert data.dropped_rows == 2

    def test_complete_table_is_not_copied(self):
        # with no row dropped the table is read in place: besides the y and
        # x it returns (0.4 and 0.6 of the table's bytes here), ingest holds
        # masks and one column at a time, not a copy of the table
        table = _table22(n=100_000)
        tracemalloc.start()
        data = mc.ingest(table, _specs22())
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1.5 * table.nbytes
        # the same dataset as the copy a dropped row takes
        gappy = mc.ingest(np.vstack([table, np.full((1, 4), np.nan)]), _specs22())
        assert (data.dropped_rows, gappy.dropped_rows) == (0, 1)
        assert np.array_equal(data.y, gappy.y) and np.array_equal(data.x, gappy.x)

    def test_a_stack_gives_each_table_its_own_error(self):
        # one stack of tables, each failing its own way or none: each gets
        # the dataset or the error of ingest's first failed check on it
        # alone, in ingest's order (column by column; an ordinal's
        # non-integer, range and empty-category checks before the next's)
        good = _table22()
        tables = [good.copy() for _ in range(8)]
        tables[1][:, 2], tables[1][3, 3] = 1.0, 1.5  # X1 empty before X2 fractional
        tables[2][3, 2], tables[2][4, 3] = 1.5, 7.0  # X1 fractional before X2 out of range
        tables[3][3, 2] = -1.5  # fractional and out of range: fractional first
        tables[4][:, 1] = 2.0  # Y2 constant before X2 out of range
        tables[4][4, 3] = 7.0
        tables[5][4, 1] = np.inf
        tables[6][5, 0] = np.nan  # a dropped row
        tables[7][:, 3] = 2.0  # X2 takes only its second category
        out = mc.model.ingest_batch(np.stack(tables), _specs22())
        expected = [
            None,
            "'X1' has no observations in category 2",
            "'X1' has non-integer cells",
            "'X1' has non-integer cells",
            "'Y2' cannot be standardized (sd=0.0)",
            "infinite cells",
            None,
            "'X2' has no observations in category 1",
        ]
        for table, res, want in zip(tables, out, expected):
            if want is None:
                alone = mc.ingest(table, _specs22())
                assert isinstance(res, mc.MixedDataset)
                assert np.array_equal(res.y, alone.y) and np.array_equal(res.x, alone.x)
                assert res.dropped_rows == alone.dropped_rows
                assert np.array_equal(res.counts, alone.counts)
                continue
            assert isinstance(res, mc.errors.MixedCorrError) and want in str(res)
            with pytest.raises(type(res)) as err:
                mc.ingest(table, _specs22())
            assert str(err.value) == str(res)
        assert out[6].dropped_rows == 1

    def test_infinite_cell_is_error(self):
        table = _table22()
        table[4, 1] = np.inf
        with pytest.raises(NonFiniteCell):
            mc.ingest(table, _specs22())

    def test_constant_continuous_column(self):
        table = _table22()
        table[:, 0] = 2.0
        with pytest.raises(NonFiniteCell):
            mc.ingest(table, _specs22())

    def test_ordering_enforced(self):
        specs = [
            mc.VariableSpec("X1", categories=2),
            mc.VariableSpec("Y1"),
        ]
        with pytest.raises(ValueError):
            mc.ingest(np.ones((5, 2)), specs)

    def test_duplicate_names(self):
        specs = [mc.VariableSpec("A"), mc.VariableSpec("A")]
        with pytest.raises(ValueError):
            mc.ingest(np.ones((5, 2)), specs)


class TestParamCount:
    @pytest.mark.parametrize(
        "c,d,s,expect",
        [
            (2, 2, (2, 2), (6, 2)),
            (2, 3, (3, 3, 3), (10, 6)),
            (1, 1, (2,), (1, 1)),
        ],
    )
    def test_counts(self, c, d, s, expect):
        assert _param_count(c, d, s) == expect
        assert len(coefficient_order(c, d)) == expect[0]

    def test_too_small(self):
        with pytest.raises(ValueError):
            _param_count(1, 0, ())


class TestCorrelationParams:
    def test_flattening_order_design1(self):
        order = coefficient_order(2, 2)
        assert order == [
            ("pearson", 2, 1),
            ("polyserial", 1, 1),
            ("polyserial", 1, 2),
            ("polyserial", 2, 1),
            ("polyserial", 2, 2),
            ("polychoric", 2, 1),
        ]

    def test_design1_matrix_matches_flattening(self):
        r = np.array(
            [
                [1.0, 0.3, 0.4, 0.5],
                [0.3, 1.0, 0.6, 0.7],
                [0.4, 0.6, 1.0, 0.8],
                [0.5, 0.7, 0.8, 1.0],
            ]
        )
        params = mc.CorrelationParams.from_matrix(r, 2, 2)
        assert np.allclose(params.values, [0.3, 0.4, 0.5, 0.6, 0.7, 0.8])

    @pytest.mark.parametrize("c,d", [(2, 2), (3, 0), (0, 3), (2, 3), (1, 1)])
    def test_roundtrip(self, c, d):
        rng = np.random.default_rng(c * 10 + d)
        k = (c + d) * (c + d - 1) // 2
        vals = rng.uniform(-0.9, 0.9, size=k)
        params = mc.CorrelationParams(c, d, vals)
        back = mc.CorrelationParams.from_matrix(params.to_matrix(), c, d)
        assert np.allclose(back.values, vals, atol=0)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            mc.CorrelationParams(2, 2, np.zeros(5))

    def test_out_of_box(self):
        with pytest.raises(ValueError):
            mc.CorrelationParams(1, 1, np.array([1.0]))


class TestThresholdSet:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            mc.ThresholdSet([[0.0, 0.0]])
        with pytest.raises(ValueError):
            mc.ThresholdSet([[0.5, -0.5]])

    def test_bounds_sentinels(self):
        ts = mc.ThresholdSet([[-0.4, 0.4], [0.0]])
        b = ts.with_bounds(0)
        assert b[0] == -np.inf and b[-1] == np.inf
        assert np.allclose(b[1:-1], [-0.4, 0.4])

    def test_array_roundtrip(self):
        ts = mc.ThresholdSet([[-0.4, 0.4], [0.1]])
        back = mc.ThresholdSet.from_array(ts.to_array(), ts.sizes)
        assert back == ts

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mc.ThresholdSet([[0.0, np.inf]])


@pytest.mark.parametrize("n_cuts", [1, 2, 3, 7, 40, 300])
def test_cut_codes_match_searchsorted(n_cuts):
    # code = 1 + the cuts strictly below the value: a value on a cut takes
    # the lower code, as np.searchsorted's left side places it; 300 cuts
    # take codes past the 8-bit range
    rng = np.random.default_rng(n_cuts)
    cuts = np.sort(rng.choice(np.linspace(-2.0, 2.0, 801), n_cuts, replace=False))
    values = np.concatenate([rng.standard_normal(2000) * 1.5, cuts, rng.choice(cuts, 500 - n_cuts)])
    rng.shuffle(values)
    for v in (values, values.reshape(2, -1)[:, ::3]):
        codes = cut_codes(v, cuts)
        expected = np.searchsorted(cuts, v) + 1
        assert codes.shape == expected.shape
        assert np.array_equal(codes, expected)
        assert np.asarray(codes, dtype=float).tobytes() == expected.astype(float).tobytes()
