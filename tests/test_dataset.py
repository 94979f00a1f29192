"""Loading, validation, and covariance estimation."""

import builtins
import inspect
import io
import math
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from firm import (ConditionalScoreCurve, DataFormatError, DegenerateFeatureError, FirmError,
                  KernelExpansionScorer, KernelSpec, LinearScorer, PoimTable, TabularDataset,
                  empirical_covariance, load_sequences, load_tabular, shrinkage_covariance)
import firm._fork
import firm.dataset
from firm.dataset import DNA_ALPHABET, encode_sequences

from helpers import (all_pm1_rows, assert_no_children, parse_tabular, piped, save_tabular,
                     shrinkage_with_squared_copy, spread_forks)


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

    @pytest.mark.parametrize("cores", [1, 3])
    def test_pipe_reads_as_its_file(self, tmp_path, monkeypatch, cores):
        """A pipe, such as a shell's `<(cat d.csv)`, is spooled to a temporary
        file and parsed as d.csv is, in one process or in forked ones."""
        p = write(tmp_path, "d.csv", "a,b,label\n1,2,1\n\n3,4.5,-1\n-0.0,1e-7,1\n")
        want = load_tabular(p, has_labels=True)
        pids, may_fork = spread_forks(monkeypatch, cores)
        with piped(p.read_bytes()) as path:
            got = load_tabular(path, has_labels=True)
        assert len(pids) == (cores if may_fork and cores > 1 else 0)
        assert got.names == want.names
        assert got.X.tobytes() == want.X.tobytes() and got.y.tobytes() == want.y.tobytes()
        assert_no_children()

    def test_file_that_shrank_is_named(self, tmp_path, monkeypatch):
        """A file that holds fewer bytes than its size said when it was opened
        fails with a message that names it."""
        p = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
        fstat = os.fstat

        def grown(fd):
            st = fstat(fd)
            return os.stat_result((*st[:6], st.st_size + 10, *st[7:]))

        monkeypatch.setattr(os, "fstat", grown)
        with pytest.raises(DataFormatError,
                           match=f"^{p}: the file changed while it was read$"):
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
    """The per-cell oracle's arrays, through the TabularDataset checks."""
    header, data = parse_tabular(path)
    if has_labels:
        ds = TabularDataset(X=data[:, :-1], y=data[:, -1], names=tuple(header[:-1]))
    else:
        ds = TabularDataset(X=data, y=None, names=tuple(header))
    return ds.X, ds.y, ds.names


def loaded(path, has_labels):
    """load_tabular's arrays and names."""
    ds = load_tabular(path, has_labels=has_labels)
    return ds.X, ds.y, ds.names


def outcome(parse):
    """Bitwise contents of X, y and names, or the FirmError type and message."""
    try:
        X, y, names = parse()
    except FirmError as exc:
        return type(exc).__name__, str(exc)
    return ("ok", X.shape, X.tobytes(), None if y is None else y.tobytes(), names)


def loadtxt_calls(monkeypatch):
    """The first argument of every np.loadtxt call from now on, in this
    process; a forked child's calls land in its own copy of the list."""
    calls, loadtxt = [], np.loadtxt

    def spy(lines, *args, **kw):
        calls.append(lines)
        return loadtxt(lines, *args, **kw)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


class TestParserAgreement:
    @given(csv_files())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_tabular_matches_per_cell_loop(self, tmp_path, case):
        text, has_labels = case
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        assert (outcome(lambda: loaded(p, has_labels))
                == outcome(lambda: reference_parse(p, has_labels)))

    def test_well_formed_file_takes_fast_path(self, tmp_path, monkeypatch):
        """One loadtxt call over the file's lines as they stream, not over a
        list of them."""
        rng = np.random.default_rng(8)
        ds = TabularDataset(X=rng.normal(size=(30, 4)), y=rng.normal(size=30),
                            names=("a", "b", "c", "d"))
        p = tmp_path / "d.csv"
        save_tabular(ds, p)
        calls = loadtxt_calls(monkeypatch)
        back = load_tabular(p, has_labels=True)
        assert len(calls) == 1 and not isinstance(calls[0], (list, tuple))
        header, data = parse_tabular(p)
        assert list(back.names) + ["label"] == header
        assert np.column_stack([back.X, back.y]).tobytes() == data.tobytes()

    def test_whitespace_line_keeps_the_one_call(self, tmp_path, monkeypatch):
        """A whitespace-only line is skipped like an empty one: the lines
        around it are still one loadtxt call."""
        p = write(tmp_path, "d.csv", "a,b\n1,2\n \n3,4\n")
        calls = loadtxt_calls(monkeypatch)
        got = outcome(lambda: loaded(p, False))
        assert len(calls) == 1
        assert got == outcome(lambda: reference_parse(p, False))

    @pytest.mark.parametrize("text", [
        "a,b\n1,1_0\n",            # Python float reads the cell, loadtxt does not
        "a,b\n1,inf\n",             # non-finite
        "a,b\n1,2\n3\n",            # ragged
        "a,b\n\n\n",                # no data rows
    ], ids=["underscore", "inf", "ragged", "header-only"])
    def test_fast_path_defers(self, tmp_path, monkeypatch, text):
        """Not the one loadtxt call: the chunk's lines are bisected and the
        faulty line's cells read one at a time (or, with no data row,
        nothing is given to loadtxt), and the outcome is the oracle's."""
        p = write(tmp_path, "d.csv", text)
        calls = loadtxt_calls(monkeypatch)
        got = outcome(lambda: loaded(p, False))
        assert len(calls) != 1
        assert got == outcome(lambda: reference_parse(p, False))

    def test_malformed_file_is_read_once(self, tmp_path, monkeypatch):
        """A bad cell near the end of 3000 lines: the file is opened once,
        each chunk up to the faulty one is one loadtxt call, bisection runs
        over that chunk's lines alone and one more call finds the cell."""
        rows = [f"{i:05d},{i + 1:05d}" for i in range(3000)]
        rows[2900] = "xxxxx,02901"
        p = write(tmp_path, "d.csv", "a,b\n" + "\n".join(rows) + "\n")
        spread_forks(monkeypatch, cores=1)
        calls, opened, real_open = loadtxt_calls(monkeypatch), [], open

        def spy(file, *args, **kw):
            opened.append(file)
            return real_open(file, *args, **kw)

        monkeypatch.setattr(builtins, "open", spy)
        with pytest.raises(DataFormatError) as info:
            load_tabular(p)
        monkeypatch.undo()
        assert str(info.value) == ("cell at line 2902, column 'a' does not parse as a "
                                   "number: 'xxxxx'")
        assert opened.count(p) == 1
        data_bytes = 12 * 3000
        chunks = min(64, data_bytes // firm.dataset._CHUNK_BYTES)
        lines_per_chunk = -(-data_bytes // chunks) // 12 + 1
        assert len(calls) <= chunks + math.ceil(math.log2(lines_per_chunk)) + 1

    @pytest.mark.parametrize("cell", ["1_0", "1e1_0", "\u0661\u0662", "\uff11"],
                             ids=["underscore", "underscore-exponent", "arabic-indic",
                                  "fullwidth"])
    def test_cell_only_python_float_reads_is_refused(self, tmp_path, cell):
        """Underscores and non-ASCII digits, which Python float reads, are refused."""
        p = write(tmp_path, "a.csv", f"a,b\n1,2\n2,{cell}\n")
        with pytest.raises(DataFormatError) as info:
            load_tabular(p)
        assert str(info.value) == (f"cell at line 3, column 'b' does not parse "
                                   f"as a number: {cell!r}")


# the lines of the files the forked parse is held to, by kind
FORK_NUMBERS = ["0", "-2.5", "+3", ".5", "5.", "1e3", "1E-7", "-4.25e+02", "7e-310",
                "1.7976931348623157e308", "0.1", "123456789012345678901"]
FORK_DEFECTS = ["1_0", "nan", "1e400", "x", "", "\u0661"]
FORK_BLANKS = ["", " ", "\t \t", "\u00a0", "\u3000"]
FORK_PADDING = ["", " ", "\t"]


@st.composite
def forked_csv_files(draw):
    """(file bytes, has_labels): a header, maybe after blank lines and a
    byte-order mark, then rows and blank lines that the cuts can land on;
    each line ends in LF, CR LF or CR, the last maybe in nothing. Some rows
    are ragged or hold a defect, and a byte that is not UTF-8 may sit in
    any line."""
    ncols = draw(st.integers(1, 3))
    has_labels = ncols >= 2 and draw(st.booleans())
    pad = st.sampled_from(FORK_PADDING)
    lines = [draw(st.sampled_from(FORK_BLANKS)) for _ in range(draw(st.integers(0, 2)))]
    lines.append(",".join(f"c{j}" for j in range(ncols)))
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["numbers"] * 6 + ["blank"] * 3 + ["defect", "ragged"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(FORK_BLANKS)))
            continue
        width = ncols if kind != "ragged" else draw(
            st.integers(1, ncols + 2).filter(lambda w: w != ncols))
        cells = [draw(pad) + draw(st.sampled_from(FORK_NUMBERS)) + draw(pad)
                 for _ in range(width)]
        if kind == "defect":
            cells[draw(st.integers(0, width - 1))] = draw(st.sampled_from(FORK_DEFECTS))
        lines.append(",".join(cells))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    data = ("\ufeff" if draw(st.booleans()) else "").encode("utf-8") + b"".join(
        (line + end).encode("utf-8") for line, end in zip(lines, ends))
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, has_labels


class TestForkedParse:
    """load_tabular spread over forked workers reads the one-worker bytes
    and raises the one-worker messages, and no child outlives the call.
    Forks happen only in a single-threaded process (one BLAS thread);
    elsewhere these tests check that the outcome is the same without."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(forked_csv_files())
    def test_every_worker_count_gives_the_one_worker_outcome(self, tmp_path, case):
        data, has_labels = case
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            pids, _ = spread_forks(mp, cores=1)
            one = outcome(lambda: loaded(p, has_labels))
            assert pids == []
        with pytest.MonkeyPatch.context() as mp:        # chunks of a line or a few
            spread_forks(mp, cores=1)
            mp.setattr(firm.dataset, "_CHUNK_BYTES", 1)
            assert outcome(lambda: loaded(p, has_labels)) == one
        for cores in (2, 3, 4):
            with pytest.MonkeyPatch.context() as mp:
                pids, may_fork = spread_forks(mp, cores)
                calls = loadtxt_calls(mp)
                assert outcome(lambda: loaded(p, has_labels)) == one
            assert_no_children()
            if one[0] == "ok":      # read by the children alone, or not forked
                assert (pids != []) == (calls == []) and len(pids) != 1

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_lines_break_only_where_the_text_handle_breaks(self, tmp_path, monkeypatch,
                                                           char):
        """str.splitlines breaks at each of these characters and the file
        handle does not: the row below holds three cells, not two rows."""
        p = write(tmp_path, "d.csv", f"a,b\n1,2\n5,6\n1,2{char}3,4\n7,8\n9,10\n")
        with pytest.MonkeyPatch.context() as mp:
            spread_forks(mp, cores=1)
            one = outcome(lambda: loaded(p, False))
        pids, may_fork = spread_forks(monkeypatch, cores=3)
        assert one == ("DataFormatError", f"{p}: ragged row at line 4: expected 2 cells, "
                                          "got 3")
        assert outcome(lambda: loaded(p, False)) == one
        assert len(pids) == (3 if may_fork else 0)
        assert_no_children()

    def test_range_without_rows_adds_none(self, tmp_path, monkeypatch):
        """A child whose range holds only blank lines sends no rows, and does
        not call loadtxt, which warns on no data (pytest makes the warning
        an error, in the children too, whose failure the parent would
        answer by reading the file itself)."""
        p = write(tmp_path, "d.csv", "a,b\n1,2\n" + "\n \n" * 20 + "3,4\n")
        pids, may_fork = spread_forks(monkeypatch, cores=3)
        calls = loadtxt_calls(monkeypatch)
        ds = load_tabular(p)
        assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert len(pids) == (3 if may_fork else 0)
        assert calls == [] or not may_fork
        assert_no_children()
        sent = io.BytesIO()
        fd = os.open(p, os.O_RDONLY)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                firm.dataset._send_rows(fd, 8, 8 + 60, 2, False, sent)
        finally:
            os.close(fd)
        assert sent.getvalue() == (0).to_bytes(8, sys.byteorder)

    @pytest.mark.parametrize("cell,message", [
        ("1_0", "cell at line {line}, column 'b' does not parse as a number: '1_0'"),
        ("nan", "non-finite value at line {line}, column 'b': 'nan'"),
        ("1e400", "non-finite value at line {line}, column 'b': '1e400'"),
        ("7,8", "{path}: ragged row at line {line}: expected 2 cells, got 3"),
    ], ids=["underscore", "nan", "overflow", "ragged"])
    @pytest.mark.parametrize("line", [3, 12, 22], ids=["first", "middle", "last"])
    def test_defect_in_any_range_keeps_its_message(self, tmp_path, monkeypatch, cell,
                                                   message, line):
        rows = [f"{i},{i + 1}" for i in range(21)]
        rows[line - 2] = f"{line},{cell}"
        p = write(tmp_path, "d.csv", "a,b\n" + "\n".join(rows) + "\n")
        pids, may_fork = spread_forks(monkeypatch, cores=3)
        with pytest.raises(DataFormatError) as info:
            load_tabular(p)
        assert str(info.value) == message.format(path=p, line=line)
        assert len(pids) == (3 if may_fork else 0)
        assert_no_children()

    @pytest.mark.parametrize("at", [20, 90, 150], ids=["first", "middle", "last"])
    def test_byte_not_utf8_in_any_range(self, tmp_path, monkeypatch, at):
        data = ("a,b\n" + "".join(f"{i},{i + 1}\n" for i in range(30))).encode("ascii")
        p = tmp_path / "d.csv"
        p.write_bytes(data[:at] + b"\xe9" + data[at:])
        pids, may_fork = spread_forks(monkeypatch, cores=3)
        with pytest.raises(DataFormatError, match=r"d\.csv: not UTF-8 text \("):
            load_tabular(p)
        assert len(pids) == (3 if may_fork else 0)
        assert_no_children()

    @pytest.fixture
    def forking(self, tmp_path, monkeypatch):
        """A well-formed file over three workers, its one-worker dataset, the
        parent's loadtxt calls and this process's pid."""
        if len(os.listdir("/proc/self/task")) > 1:
            pytest.skip("this process runs more than one thread, so load_tabular "
                        "does not fork")
        rng = np.random.default_rng(14)
        ds = TabularDataset(X=rng.normal(size=(60, 3)), y=rng.normal(size=60),
                            names=("a", "b", "c"))
        p = tmp_path / "d.csv"
        save_tabular(ds, p)
        pids, _ = spread_forks(monkeypatch, cores=3)
        return p, ds, pids, loadtxt_calls(monkeypatch), os.getpid()

    @staticmethod
    def raise_error(fh, send, *args):
        raise ValueError("in a child")

    @staticmethod
    def exit_with_status(fh, send, *args):
        send(*args, fh)
        fh.flush()
        os._exit(3)

    @staticmethod
    def send_half(fh, send, *args):
        whole = io.BytesIO()
        send(*args, whole)
        fh.write(whole.getvalue()[:len(whole.getvalue()) // 2])

    @staticmethod
    def send_nothing(fh, send, *args):
        pass

    @staticmethod
    def die_halfway(fh, send, *args):
        TestForkedParse.send_half(fh, send, *args)
        fh.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    @pytest.mark.parametrize("failure", ["raise_error", "exit_with_status", "send_half",
                                         "send_nothing", "die_halfway"])
    def test_failing_child_gives_the_one_process_result(self, forking, monkeypatch,
                                                        failure):
        """A child that raises, that sends its rows and exits non-zero, that
        exits 0 having sent half its rows or nothing, or that is killed
        halfway through its rows: the parent reads the file itself, with
        today's result, and reaps every child."""
        p, ds, pids, calls, parent = forking
        send, fail = firm.dataset._send_rows, getattr(self, failure)

        def send_but_fail_in_the_middle_range(fd, lo, hi, d, labelled, fh):
            if len(pids) == 1 and os.getpid() != parent:    # the second child
                return fail(fh, send, fd, lo, hi, d, labelled)
            return send(fd, lo, hi, d, labelled, fh)

        monkeypatch.setattr(firm.dataset, "_send_rows", send_but_fail_in_the_middle_range)
        back = load_tabular(p, has_labels=True)
        assert back.X.tobytes() == ds.X.tobytes() and back.y.tobytes() == ds.y.tobytes()
        assert len(pids) == 3 and len(calls) == 1
        assert_no_children()

    def test_parent_failure_kills_its_children(self, forking, monkeypatch):
        """Interrupted while it reaps the first child, the parent kills and
        reaps the others."""
        p, _, pids, _, _ = forking

        def interrupted(child):
            raise KeyboardInterrupt("in the parent")

        monkeypatch.setattr(firm._fork.Worker, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt, match="in the parent"):
            load_tabular(p, has_labels=True)
        assert len(pids) == 3
        assert_no_children()

    def test_no_fork_beside_another_thread(self, tmp_path, monkeypatch):
        p = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n5,6\n")
        spread_forks(monkeypatch, cores=3)

        def no_fork():
            raise AssertionError("forked while another thread runs")

        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            ds = load_tabular(p)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


class TestNotUtf8:
    @pytest.mark.parametrize("data", [
        b"a\xe9,label\n1,1\n-1,-1\n",                       # in the header
        b"a,label\n1,1\n-1,-1\xe9\n",                        # in a data row
        b"a,label\n" + b"1,1\n" * 5000 + b"\xff,1\n",          # past the first read
    ], ids=["header", "row", "late-row"])
    def test_tabular(self, tmp_path, data):
        p = tmp_path / "d.csv"
        p.write_bytes(data)
        with pytest.raises(DataFormatError, match=r"d\.csv: not UTF-8 text \("):
            load_tabular(p, has_labels=True)
        p.write_bytes(data.replace(b"\n", b"\n \n", 1))      # read again, past a blank line
        with pytest.raises(DataFormatError, match=r"d\.csv: not UTF-8 text \("):
            load_tabular(p, has_labels=True)

    def test_sequences(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_bytes(b"\xff\xfeACGT\t+1\n")
        with pytest.raises(DataFormatError, match=r"s\.tsv: not UTF-8 text \("):
            load_sequences(p)


class TestByteOrderMark:
    @pytest.mark.parametrize("text", ["a,b,label\n1,2.5,1\n \n3,4,-1\n",
                                      "a,b,label\n1,2.5,1\n3,4,-1\n"],
                             ids=["per-cell", "fast"])
    def test_tabular(self, tmp_path, text):
        """Both the one loadtxt call and the second reading (past a
        whitespace-only line) drop the mark."""
        plain = load_tabular(write(tmp_path, "plain.csv", text), has_labels=True)
        bom = load_tabular(write(tmp_path, "bom.csv", "\ufeff" + text), has_labels=True)
        assert plain.names == bom.names == ("a", "b")
        assert plain.X.tobytes() == bom.X.tobytes() and plain.y.tobytes() == bom.y.tobytes()

    def test_sequences(self, tmp_path):
        text = "ACGT\t+1\nTTGA\t-1\n"
        plain = load_sequences(write(tmp_path, "plain.tsv", text))
        bom = load_sequences(write(tmp_path, "bom.tsv", "\ufeff" + text))
        assert plain.sequences == bom.sequences == ("ACGT", "TTGA")
        assert plain.y.tobytes() == bom.y.tobytes()


class TestLoadSequences:
    def test_basic(self, tmp_path):
        p = write(tmp_path, "s.tsv", "ACGT\t+1\nTTTT\t-1\n")
        ds = load_sequences(p)
        assert ds.n == 2 and ds.length == 4
        np.testing.assert_array_equal(ds.y, [1, -1])

    def test_encoding_no_sequences_is_refused(self):
        with pytest.raises(FirmError, match="^no sequences$"):
            encode_sequences([], DNA_ALPHABET)
        assert encode_sequences([], DNA_ALPHABET, length=4).shape == (0, 4)

    def test_codes_are_the_read_only_encoding(self, tmp_path):
        ds = load_sequences(write(tmp_path, "s.tsv", "ACGT\t+1\nTTGA\t-1\n"))
        want = encode_sequences(ds.sequences, DNA_ALPHABET)
        assert ds.codes.shape == (2, 4) and ds.codes.dtype == np.uint8
        assert ds.codes.tobytes() == want.tobytes()
        assert not ds.codes.flags.writeable

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

    @pytest.mark.parametrize("row,message", [
        ("ACG\t-1", "length mismatch at line 3: expected 4, got 3"),
        ("ACGX\t-1", "symbol X not in alphabet at line 3"),
    ], ids=["short", "bad-symbol"])
    def test_errors_name_file_and_file_line(self, tmp_path, row, message):
        """The blank line 2 is skipped but still counted."""
        p = write(tmp_path, "s.tsv", f"ACGT\t+1\n\n{row}\n")
        with pytest.raises(DataFormatError) as info:
            load_sequences(p)
        assert str(info.value) == f"{p}: {message}"

    @pytest.mark.parametrize("text,passes", [("ACGT\t+1\nTTGA\t-1\n", 1),
                                             ("ACGT\t+1\nTTG\t-1\n", 2)],
                             ids=["valid", "short"])
    def test_check_runs_once_unless_it_fails(self, tmp_path, monkeypatch, text, passes):
        """Only a file that fails the check is checked a second time."""
        calls = []
        check = firm.dataset._check_sequences

        def counted(numbered, *args):
            calls.append(1)
            return check(numbered, *args)

        monkeypatch.setattr(firm.dataset, "_check_sequences", counted)
        p = write(tmp_path, "s.tsv", text)
        if passes == 1:
            load_sequences(p)
        else:
            with pytest.raises(DataFormatError, match=f"^{p}: length mismatch at line 2"):
                load_sequences(p)
        assert len(calls) == passes


class TestEmpiricalCovariance:
    def test_full_truth_table_is_identity(self):
        # the truth table's column means are zero, so centering changes nothing
        X = all_pm1_rows(3)
        ds = TabularDataset(X=X, y=None, names=("a", "b", "c"))
        cov = empirical_covariance(ds)
        np.testing.assert_allclose(cov.sigma, np.eye(3), atol=0)
        assert cov.method == "empirical_centered"

    def test_constant_column_refused(self):
        """Exactly, also where the computed variance of seven 0.1s is not 0."""
        for X, name in [([[3.0, -1.0], [3.0, -1.0]], "a"),
                        ([[1.0, 0.1]] + [[2.0, 0.1]] * 6, "b")]:
            ds = TabularDataset(X=np.array(X), y=None, names=("a", "b"))
            with pytest.raises(DegenerateFeatureError, match=f"^feature {name} is constant$"):
                empirical_covariance(ds)

    def test_row_blocks_sum_to_the_whole_product(self):
        """Over 3 blocks of 2**16 // 50 rows, the centered product agrees
        with the product of all centered rows at once to rounding."""
        X = np.random.default_rng(19).normal(size=(3000, 50)) + 3.0
        ds = TabularDataset(X=X, y=None, names=tuple(f"c{j}" for j in range(50)))
        Xc = X - X.mean(axis=0)
        np.testing.assert_allclose(empirical_covariance(ds).sigma, Xc.T @ Xc / 3000,
                                   rtol=1e-12, atol=1e-15)

    def test_centered_needs_two_rows(self):
        ds = TabularDataset(X=np.array([[1.0]]), y=None, names=("a",))
        with pytest.raises(FirmError):
            empirical_covariance(ds)


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

    def test_one_pass_over_row_blocks_agrees_with_squared_copy(self):
        """S and the fourth-moment sums come from one pass over 3 row blocks;
        the shrunk matrix and lambda agree with the step-by-step oracle that
        squares a whole centered copy."""
        X = np.random.default_rng(20).normal(size=(3000, 50)) * np.arange(1.0, 51.0)
        ds = TabularDataset(X=X, y=None, names=tuple(f"c{j}" for j in range(50)))
        sigma, lam = shrinkage_with_squared_copy(X)
        cov = shrinkage_covariance(ds)
        np.testing.assert_allclose(cov.sigma, sigma, rtol=1e-12, atol=1e-13)
        assert cov.shrinkage_lambda == pytest.approx(lam, rel=1e-12)

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

    @pytest.mark.parametrize("cells", [[np.nan], [np.inf, -np.inf], [-np.inf, 1e308]],
                             ids=["nan", "both-infinities", "minus-infinity"])
    def test_nonfinite_named_before_an_overflowing_mean(self, cells):
        """Each non-finite cell is found, also where it leaves its column's
        mean NaN, and is named before another column's overflowing mean."""
        big = 1.7976931348623157e308
        X = np.full((4, 3), big)
        X[:, 0] = 1.0
        X[:len(cells), 0] = cells
        with pytest.raises(FirmError, match="^data matrix contains non-finite entries$"):
            TabularDataset(X=X, y=None, names=("a", "b", "c"))

    def test_overflowing_column_mean_named(self):
        big = 1.7976931348623157e308
        X = np.array([[0.0, big, big], [1.0, big, big]])
        with pytest.raises(FirmError, match=r"^mean of column 'b' overflows$"):
            TabularDataset(X=X, y=None, names=("a", "b", "c"))

    def test_column_means_unchanged_for_finite_data(self):
        X = np.random.default_rng(3).normal(size=(50, 4)) * 1e300
        ds = TabularDataset(X=X, y=None, names=("a", "b", "c", "d"))
        assert ds.column_means.tobytes() == X.mean(axis=0).tobytes()

    def test_label_length_checked(self):
        with pytest.raises(FirmError):
            TabularDataset(X=np.eye(2), y=np.ones(3), names=("a", "b"))

    def test_arrays_frozen(self):
        ds = TabularDataset(X=np.eye(2), y=None, names=("a", "b"))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0

    def test_dataset_shares_no_memory_with_the_callers_arrays(self):
        rng = np.random.default_rng(17)
        X, y = rng.normal(size=(6, 2)), rng.normal(size=6)
        ds = TabularDataset(X=X, y=y, names=("a", "b"))
        assert not np.shares_memory(ds.X, X) and not np.shares_memory(ds.y, y)
        want = ds.X.tobytes(), ds.y.tobytes()
        X += 1.0
        y += 1.0
        assert (ds.X.tobytes(), ds.y.tobytes()) == want

    @pytest.mark.parametrize("cores", [1, 3])
    @pytest.mark.parametrize("has_labels", [False, True])
    def test_loaded_arrays_are_read_only_and_unshared(self, tmp_path, monkeypatch, cores,
                                                      has_labels):
        """load_tabular's dataset keeps the arrays its parse allocated, in one
        process or over forked ones: read-only, and shared with nothing,
        not even a second load of the same file."""
        rng = np.random.default_rng(18)
        p = tmp_path / "d.csv"
        save_tabular(TabularDataset(X=rng.normal(size=(40, 3)), y=rng.normal(size=40),
                                    names=("a", "b", "c")), p)
        pids, may_fork = spread_forks(monkeypatch, cores)
        ds, again = load_tabular(p, has_labels), load_tabular(p, has_labels)
        assert len(pids) == (2 * cores if may_fork and cores > 1 else 0)
        held = [ds.X, ds.y] if has_labels else [ds.X]
        for a in held:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 5.0
            assert not any(np.shares_memory(a, b) for b in [again.X, again.y, ds.column_means]
                           if b is not None)
        assert not has_labels or not np.shares_memory(ds.X, ds.y)

    def test_no_parameter_keeps_the_callers_arrays(self):
        assert list(inspect.signature(TabularDataset).parameters) == ["X", "y", "names"]
        assert list(inspect.signature(load_tabular).parameters) == ["path", "has_labels"]


@pytest.mark.parametrize("make,attr,array", [
    (lambda a: TabularDataset(X=a, y=None, names=("a", "b")), "X", [[1.0, 2.0], [3.0, 5.0]]),
    (lambda a: LinearScorer(w=a), "w", [1.0, 0.0]),
    (lambda a: KernelExpansionScorer(points=a, alpha=[1.0, -1.0], b=0.0,
                                     kernel=KernelSpec.gaussian(1.0)), "points",
     [[0.0, 1.0], [1.0, 0.0]]),
    (lambda a: ConditionalScoreCurve(bin_edges=a, bin_prob=[0.5, 0.5], q_hat=[0.0, 1.0],
                                     counts=[1, 1]), "bin_edges", [0.0, 1.0, 2.0]),
    (lambda a: PoimTable.from_values(k=1, length=2, alphabet=("0", "1"), values=a,
                                     factor=np.ones(2)),
     "values", [[0.5, -0.5], [0.25, -0.25]]),
], ids=["TabularDataset", "LinearScorer", "KernelExpansionScorer", "ConditionalScoreCurve",
        "PoimTable"])
def test_container_owns_its_array(make, attr, array):
    """A frozen container copies the caller's array: the caller's stays
    writable, and writing to it changes nothing the container holds."""
    a = np.array(array)
    held = make(a)
    want = getattr(held, attr).tobytes()
    assert a.flags.writeable and not getattr(held, attr).flags.writeable
    a += 5.0
    assert getattr(held, attr).tobytes() == want
