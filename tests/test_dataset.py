"""Loading, validation, and covariance estimation."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from firm import (DataFormatError, FirmError, TabularDataset, empirical_covariance,
                  load_sequences, load_tabular, save_tabular, shrinkage_covariance)
from firm.dataset import _load_fast, _parse_rows

from helpers import all_pm1_rows


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadTabular:
    def test_basic_with_labels(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b,label\n1,2,1\n3,4,-1\n5,6,1\n")
        ds = load_tabular(p, has_labels=True)
        assert ds.n == 3 and ds.d == 2
        assert ds.names == ("a", "b")
        np.testing.assert_array_equal(ds.y, [1, -1, 1])

    def test_header_only_is_error(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_tabular(p)

    def test_nan_cell_named(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b\n1,2\n3,NaN\n")
        with pytest.raises(DataFormatError, match="line 3, column 'b'"):
            load_tabular(p)

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataFormatError, match="ragged row at line 3"):
            load_tabular(p)

    @pytest.mark.parametrize("text,message", [
        ("a,b,label\n1,2,3\n\n\n1,x,3\n", "line 5, column 'b'"),
        ("a,b,label\n1,2,3\n\n1,2\n", "ragged row at line 4"),
    ], ids=["bad-cell", "ragged-row"])
    def test_errors_name_file_line_after_blank_lines(self, tmp_path, text, message):
        p = write(tmp_path, "d.csv", text)
        with pytest.raises(DataFormatError, match=message):
            load_tabular(p)

    def test_unparseable_cell(self, tmp_path):
        p = write(tmp_path, "d.csv", "a,b\n1,x\n")
        with pytest.raises(DataFormatError, match="column 'b'"):
            load_tabular(p)

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = TabularDataset(X=rng.normal(size=(6, 3)) * 1e-7,
                            y=rng.normal(size=6), names=("u", "v", "w"))
        p = tmp_path / "out.csv"
        save_tabular(ds, p)
        back = load_tabular(p, has_labels=True)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)


# cells for the differential test, by which parser takes them
NUMBERS = ["0", "-0", "1", "-2.5", "+3", ".5", "5.", "1e3", "1E-7", "4.9e-324",
           "2.5e-324", "1e-400", "1.7976931348623157e308", "0.1", "123456789012345678901"]
FLOAT_ONLY = ["1_0", "1e1_0", "\uff11", "\u0663", "\u0661\u0662", "\U0001d7cf"]
BOTH_REJECT = ["x", "", "0x10", "1d5", "--1", "1 2", "1e", "1_", '"1"', "1\x00", "1j"]
NON_FINITE = ["nan", "NaN", "-inf", "Infinity", "1e400"]
PADDING = ["", " ", "\t", "\u00a0", "\x1c", "\u3000"]

cells = st.one_of(
    st.sampled_from(NUMBERS + FLOAT_ONLY + BOTH_REJECT + NON_FINITE),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(alphabet="0123456789+-.eE_", min_size=1, max_size=6),
)
padded_cells = st.builds(lambda a, c, b: a + c + b,
                         st.sampled_from(PADDING), cells, st.sampled_from(PADDING))


@st.composite
def csv_files(draw):
    """(file text, has_labels) with mostly well-formed rows and some defects."""
    ncols = draw(st.integers(1, 3))
    has_labels = ncols >= 2 and draw(st.booleans())
    lines = [",".join(f"c{j}" for j in range(ncols))]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["numbers"] * 4 + ["cells", "blank", "ragged"]))
        if kind == "numbers":
            lines.append(",".join(draw(st.sampled_from(NUMBERS)) for _ in range(ncols)))
        elif kind == "cells":
            lines.append(",".join(draw(padded_cells) for _ in range(ncols)))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t \t", "\u00a0"])))
        else:
            width = draw(st.integers(1, ncols + 2).filter(lambda w: w != ncols))
            lines.append(",".join(draw(st.sampled_from(NUMBERS)) for _ in range(width)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""])), has_labels


def reference_parse(path, has_labels):
    header, data = _parse_rows(path)
    if has_labels:
        return data[:, :-1], data[:, -1], tuple(header[:-1])
    return data, None, tuple(header)


def outcome(parse):
    """Bitwise contents of X, y and names, or the DataFormatError message."""
    try:
        X, y, names = parse()
    except DataFormatError as exc:
        return "error", str(exc)
    return ("ok", X.shape, X.tobytes(), None if y is None else y.tobytes(), names)


class TestParserAgreement:
    @given(csv_files())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_tabular_matches_per_cell_loop(self, tmp_path, case):
        text, has_labels = case
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))

        def loaded():
            # cells near the float max overflow TabularDataset's column means,
            # which this test does not check
            with np.errstate(over="ignore"):
                ds = load_tabular(p, has_labels=has_labels)
            return ds.X, ds.y, ds.names

        assert outcome(loaded) == outcome(lambda: reference_parse(p, has_labels))

    def test_well_formed_file_takes_fast_path(self, tmp_path):
        rng = np.random.default_rng(8)
        ds = TabularDataset(X=rng.normal(size=(30, 4)), y=rng.normal(size=30),
                            names=("a", "b", "c", "d"))
        p = tmp_path / "d.csv"
        save_tabular(ds, p)
        fast = _load_fast(p)
        assert fast is not None
        header, data = _parse_rows(p)
        assert fast[0] == header and fast[1].tobytes() == data.tobytes()

    @pytest.mark.parametrize("text", [
        "a,b\n1,1_0\n",            # only Python float reads the cell
        "a,b\n1,2\n \n3,4\n",      # whitespace-only line
        "a,b\n1,inf\n",             # non-finite
        "a,b\n1,2\n3\n",            # ragged
        "a,b\n\n\n",                # no data rows
    ], ids=["underscore", "whitespace-line", "inf", "ragged", "header-only"])
    def test_fast_path_defers(self, tmp_path, text):
        assert _load_fast(write(tmp_path, "d.csv", text)) is None

    def test_underscore_cell_reads_as_plain_digits(self, tmp_path):
        a = load_tabular(write(tmp_path, "a.csv", "a,b\n1,1_0\n2,3\n"))
        b = load_tabular(write(tmp_path, "b.csv", "a,b\n1,10\n2,3\n"))
        assert a.X.tobytes() == b.X.tobytes()


class TestLoadSequences:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "s.tsv", "ACGT\t+1\nTTTT\t-1\n")
        ds = load_sequences(p)
        assert ds.n == 2 and ds.length == 4
        np.testing.assert_array_equal(ds.y, [1, -1])

    def test_length_mismatch(self, tmp_path):
        p = write(tmp_path, "s.tsv", "ACGT\t+1\nTTT\t-1\n")
        with pytest.raises(DataFormatError, match="length mismatch at line 2"):
            load_sequences(p)

    def test_bad_symbol(self, tmp_path):
        p = write(tmp_path, "s.tsv", "ACGX\t+1\n")
        with pytest.raises(DataFormatError, match="symbol X not in alphabet"):
            load_sequences(p)

    def test_bad_label(self, tmp_path):
        p = write(tmp_path, "s.tsv", "ACGT\t+2\n")
        with pytest.raises(DataFormatError, match="malformed label"):
            load_sequences(p)


class TestEmpiricalCovariance:
    def test_full_truth_table_is_identity(self):
        X = all_pm1_rows(3)
        ds = TabularDataset(X=X, y=None, names=("a", "b", "c"))
        cov = empirical_covariance(ds, centered=False)
        np.testing.assert_allclose(cov.sigma, np.eye(3), atol=0)
        assert cov.method == "empirical_uncentered"

    def test_single_row_outer_product(self):
        ds = TabularDataset(X=np.array([[1.0, 2.0]]), y=None, names=("a", "b"))
        cov = empirical_covariance(ds, centered=False)
        np.testing.assert_allclose(cov.sigma, [[1, 2], [2, 4]], atol=0)

    def test_identical_rows_centered_zero(self):
        ds = TabularDataset(X=np.array([[3.0, -1.0], [3.0, -1.0]]), y=None,
                            names=("a", "b"))
        cov = empirical_covariance(ds, centered=True)
        np.testing.assert_allclose(cov.sigma, np.zeros((2, 2)), atol=0)

    def test_centered_needs_two_rows(self):
        ds = TabularDataset(X=np.array([[1.0]]), y=None, names=("a",))
        with pytest.raises(FirmError):
            empirical_covariance(ds, centered=True)

    def test_pm1_diagonal_exactly_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = rng.choice([-1.0, 1.0], size=(rng.integers(2, 30), rng.integers(1, 6)))
            ds = TabularDataset(X=X, y=None, names=tuple(f"c{j}" for j in range(X.shape[1])))
            cov = empirical_covariance(ds, centered=False)
            np.testing.assert_array_equal(np.diag(cov.sigma), np.ones(X.shape[1]))


class TestShrinkageCovariance:
    def test_d1_equals_sample_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=12)
        ds = TabularDataset(X=x[:, None], y=None, names=("a",))
        cov = shrinkage_covariance(ds)
        np.testing.assert_allclose(cov.sigma, [[np.var(x)]], rtol=1e-14)

    def test_offdiagonals_strictly_shrunk(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 10))
        ds = TabularDataset(X=X, y=None, names=tuple(f"c{j}" for j in range(10)))
        Xc = X - X.mean(axis=0)
        S = Xc.T @ Xc / 5
        cov = shrinkage_covariance(ds)
        assert cov.method == "shrunk" and 0 < cov.shrinkage_lambda <= 1
        off = ~np.eye(10, dtype=bool)
        assert (np.abs(cov.sigma[off]) < np.abs(S[off])).all()
        np.testing.assert_allclose(np.diag(cov.sigma), np.diag(S), rtol=1e-14)

    def test_lambda_vanishes_for_strong_correlation(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=4000)
        X = np.column_stack([base, base + 1e-3 * rng.normal(size=4000)])
        ds = TabularDataset(X=X, y=None, names=("a", "b"))
        cov = shrinkage_covariance(ds)
        assert cov.shrinkage_lambda < 0.01

    def test_positive_definite_even_when_n_below_d(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            X = rng.normal(size=(6, 12))
            ds = TabularDataset(X=X, y=None, names=tuple(f"c{j}" for j in range(12)))
            cov = shrinkage_covariance(ds)
            np.linalg.cholesky(cov.sigma)  # raises if not PD
            np.testing.assert_allclose(cov.sigma, cov.sigma.T, atol=0)

    def test_zero_variance_column_rejected(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        ds = TabularDataset(X=X, y=None, names=("const", "ramp"))
        with pytest.raises(FirmError, match="const"):
            shrinkage_covariance(ds)

    def test_needs_three_rows(self):
        ds = TabularDataset(X=np.array([[1.0], [2.0]]), y=None, names=("a",))
        with pytest.raises(FirmError):
            shrinkage_covariance(ds)


class TestValidation:
    def test_nonfinite_rejected(self):
        with pytest.raises(FirmError):
            TabularDataset(X=np.array([[np.inf]]), y=None, names=("a",))

    def test_label_length_checked(self):
        with pytest.raises(FirmError):
            TabularDataset(X=np.eye(2), y=np.ones(3), names=("a", "b"))

    def test_arrays_frozen(self):
        ds = TabularDataset(X=np.eye(2), y=None, names=("a", "b"))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0
