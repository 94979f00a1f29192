"""Data ingestion and covariance estimation for tabular and sequence data.

All container types are immutable and compare by identity, so shared
instances are safe under concurrent use. Their arrays are read-only copies,
but for the X and y load_tabular adopts, into which it parses the file's
rows a chunk of whole lines at a time, in one process or in forked ones.
"""

from __future__ import annotations

import functools
import io
import itertools
import os
import shutil
import stat
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import _fork
from .errors import DataFormatError, FirmError
from .features import refuse_constant_column, row_blocks

DNA_ALPHABET = ("A", "C", "G", "T")
_FORK_BYTES = 2 ** 20    # data bytes of a tabular file per parsing process, at least
_CHUNK_BYTES = 2 ** 12   # text bytes per loadtxt call, at least, of a range that has them


def _frozen(a, copy: bool = True) -> np.ndarray:
    """A read-only float64 copy of a that owns its data; without copy, a itself."""
    out = np.array(a, dtype=np.float64, order="C") if copy else a
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TabularDataset:
    """An n-by-d data matrix with optional labels and column names; X and y
    are read-only copies of the caller's arrays (load_tabular adopts its own)."""

    X: np.ndarray
    y: np.ndarray | None
    names: tuple[str, ...]
    column_means: np.ndarray = field(init=False)

    def __post_init__(self, copy: bool = True):
        X = _frozen(np.atleast_2d(self.X), copy)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise FirmError("data matrix must have at least one row and one column")
        with np.errstate(over="ignore", invalid="ignore"):
            means = X.mean(axis=0)
        # a non-finite cell makes its mean non-finite; no n x d mask otherwise
        if not np.isfinite(means).all() and not np.isfinite(X).all():
            raise FirmError("data matrix contains non-finite entries")
        if len(self.names) != X.shape[1]:
            raise FirmError(f"got {len(self.names)} names for {X.shape[1]} columns")
        seen = set()
        for name in self.names:
            if name == "" or name in seen:
                raise FirmError(f"column name {name!r} is empty or repeated")
            if any(c in name for c in "\t\n\r\0"):  # each would break a TSV row or a path
                raise FirmError(f"column name {name!r} holds a tab, line break or NUL")
            seen.add(name)
        y = self.y
        if y is not None:
            y = _frozen(np.asarray(y).ravel(), copy)
            if y.shape[0] != X.shape[0]:
                raise FirmError("label vector length does not match row count")
            if not np.isfinite(y).all():
                raise FirmError("labels contain non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        bad = np.flatnonzero(~np.isfinite(means))
        if bad.size:
            raise FirmError(f"mean of column '{self.names[bad[0]]}' overflows")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "column_means", _frozen(means))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def labels(self) -> np.ndarray:
        if self.y is None:
            raise FirmError("dataset has no labels")
        return self.y


def _check_sequences(numbered, alphabet: tuple[str, ...], L: int, where: str = "") -> None:
    """DataFormatError, prefixed by `where`, for the first (line, sequence)
    pair of a length other than L or with a symbol outside the alphabet."""
    drop = dict.fromkeys(map(ord, alphabet))
    for line, s in numbered:
        if len(s) != L:
            raise DataFormatError(f"{where}length mismatch at line {line}: "
                                  f"expected {L}, got {len(s)}")
        bad = s.translate(drop)
        if bad:
            raise DataFormatError(f"{where}symbol {bad[0]} not in alphabet at line {line}")


def encode_sequences(sequences, alphabet: tuple[str, ...],
                     length: int | None = None) -> np.ndarray:
    """Sequences as a read-only n x length uint8 array of alphabet indices.

    length defaults to that of the first sequence, so without it an empty
    list raises FirmError. The first sequence with another length or a
    symbol outside the alphabet raises DataFormatError naming its 1-based
    place in the list.
    """
    seqs = list(sequences)
    if not seqs and length is None:
        raise FirmError("no sequences")
    L = len(seqs[0]) if length is None else length
    _check_sequences(enumerate(seqs, start=1), alphabet, L)
    text = "".join(seqs).translate({ord(a): i for i, a in enumerate(alphabet)})
    return np.frombuffer(text.encode("latin-1"), dtype=np.uint8).reshape(len(seqs), L)


@dataclass(frozen=True, eq=False)
class SequenceDataset:
    """Fixed-length DNA sequences with ±1 labels; codes is their read-only
    n x length array of DNA_ALPHABET indices from encode_sequences."""

    sequences: tuple[str, ...]
    y: np.ndarray
    codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        seqs = tuple(self.sequences)
        codes = encode_sequences(seqs, DNA_ALPHABET)      # checks count, lengths, symbols
        y = _frozen(np.asarray(self.y).ravel())
        if y.shape[0] != len(seqs):
            raise FirmError("label vector length does not match sequence count")
        if not np.isin(y, (-1.0, 1.0)).all():
            raise FirmError("sequence labels must be +1 or -1")
        object.__setattr__(self, "sequences", seqs)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "codes", codes)

    @property
    def n(self) -> int:
        return len(self.sequences)

    @property
    def length(self) -> int:
        return len(self.sequences[0])


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """A d-by-d symmetric covariance matrix plus provenance."""

    sigma: np.ndarray
    method: str  # empirical_centered | shrunk | supplied
    shrinkage_lambda: float | None = None

    def __post_init__(self):
        sigma = _frozen(np.atleast_2d(self.sigma))
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise FirmError("covariance must be square")
        if not np.isfinite(sigma).all():
            raise FirmError("covariance contains non-finite entries")
        if np.abs(sigma - sigma.T).max() > 1e-12:
            raise FirmError("covariance is not symmetric")
        if (np.diag(sigma) < 0).any():
            raise FirmError("covariance has a negative diagonal entry")
        if self.method == "shrunk":
            if self.shrinkage_lambda is None or not 0.0 <= self.shrinkage_lambda <= 1.0:
                raise FirmError("shrunk estimate requires shrinkage_lambda in [0, 1]")
        elif self.shrinkage_lambda is not None:
            raise FirmError("shrinkage_lambda only valid for method='shrunk'")
        object.__setattr__(self, "sigma", sigma)

    @property
    def d(self) -> int:
        return self.sigma.shape[0]


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

@contextmanager
def open_utf8(path):
    """path opened as UTF-8 text, less any byte-order mark; bytes that are not
    UTF-8 raise DataFormatError naming the file, wherever the block reads them."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def loadtxt_rows(lines, **kw) -> np.ndarray | None:
    """The comma-separated lines as float64 rows by np.loadtxt, the package's
    one number parser; None where it refuses a cell or rows of unequal width."""
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, **kw)
    except ValueError:
        return None


def _table(lines, width: int) -> np.ndarray | None:
    """The comma-separated lines as n x width finite float64 rows; None where
    loadtxt_rows refuses them or reads another width or a non-finite value."""
    data = loadtxt_rows(lines)
    ok = data is not None and data.shape[1] == width and np.isfinite(data).all()
    return data if ok else None


class _Refused(Exception):
    """The numbered non-blank lines of a chunk that loadtxt refuses as rows."""


class _Changed(Exception):
    """A read that found fewer bytes than the file's size promised."""


def _header(fh, path) -> tuple[list[str], int, int]:
    """The header cells of the binary file fh at path, the byte offset after
    the header's line and its line number; DataFormatError for a file with
    no non-blank line. The file is read to the header's b"\\n" only, each
    piece decoded as UTF-8 and split as the universal-newline handle splits
    it, endings kept, so a line's UTF-8 length is its length in bytes; a
    leading byte-order mark counts its three bytes and is dropped, as
    utf-8-sig drops it."""
    at = line = 0
    for piece in fh:
        text = piece.decode("utf-8")
        if at == 0 and text.startswith("\ufeff"):
            text, at = text[1:], 3
        for ln in io.StringIO(text, newline=""):
            at, line = at + len(ln.encode("utf-8")), line + 1
            if ln.strip() != "":
                return [h.strip() for h in ln.rstrip("\r\n").split(",")], at, line
    raise DataFormatError(f"{path}: empty file")


def _pread(fd: int, lo: int, hi: int) -> bytes:
    """Bytes lo to hi of the file fd, leaving the offset forked children share."""
    raw = os.pread(fd, hi - lo, lo)
    if len(raw) != hi - lo:
        raise _Changed
    return raw


def _cuts(fd: int, lo: int, hi: int, parts: int) -> list[int]:
    """lo, parts - 1 cuts and hi, bounding ranges of whole lines of the file
    fd: cut k moves from lo + (hi - lo) * k // parts to just after the next
    b"\\n" (or to hi), never back before cut k - 1. No UTF-8 character
    holds a b"\\n", and the text handle ends a line at each."""
    cuts = [lo]
    for k in range(1, parts):
        at, ends = lo + (hi - lo) * k // parts, 0
        while at < hi and not ends:
            ends = _pread(fd, at, min(at + 2 ** 12, hi)).find(b"\n") + 1
            at += ends or 2 ** 12
        cuts.append(max(cuts[-1], min(at, hi)))
    return cuts + [hi]


def _line_ends(raw: bytes) -> int:
    """The line endings of raw, where the universal-newline handle splits it;
    UnicodeDecodeError for a byte that is not UTF-8."""
    if not raw.isascii():
        raw.decode("utf-8")
    crs = raw.count(b"\r") - raw.count(b"\r\n") if b"\r" in raw else 0
    return int(np.count_nonzero(np.frombuffer(raw, np.uint8) == ord("\n"))) + crs


def _parse(fd: int, lo: int, hi: int, d: int, labelled: bool,
           line: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """X, n x d, and y, n labels or none, of the non-blank lines of bytes lo
    to hi of the file fd, whole lines from the file's line `line` on.

    A first pass over at most 64 chunks (_cuts) of at least _CHUNK_BYTES
    counts their lines and raises UnicodeDecodeError for a byte that is not
    UTF-8, before any other fault. X and y are allocated once, for no more
    rows than lines and than the bytes can hold: loadtxt refuses an empty
    cell, so each of a row's cells takes a byte and a separator, a comma
    or the line's ending, which only the range's last line may lack. Then
    each chunk's non-blank lines, split as the text handle splits them, go
    to one loadtxt_rows call, or to _Refused, numbered in the file, where
    they are not rows of d + labelled finite numbers.
    """
    cuts = _cuts(fd, lo, hi, min(64, max(1, (hi - lo) // _CHUNK_BYTES)))
    ends = [_line_ends(_pread(fd, a, b)) for a, b in zip(cuts, cuts[1:])]
    rows = min(sum(ends), (hi - lo + 1) // (2 * (d + labelled))) + 1
    X, y, n = np.empty((rows, d)), np.empty(rows if labelled else 0), 0
    for a, b, chunk_ends in zip(cuts, cuts[1:], ends):
        raw = _pread(fd, a, b)
        lines = filter(str.strip, io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        first = next(lines, None)
        if first is not None:                   # loadtxt warns on no lines
            data = _table(itertools.chain([first], lines), d + labelled)
            if data is None:
                text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
                raise _Refused([(no, ln) for no, ln in enumerate(text, line) if ln.strip()])
            X[n:n + len(data)] = data[:, :d]
            if labelled:
                y[n:n + len(data)] = data[:, d]
            n += len(data)
        line += chunk_ends
    X.resize((n, d), refcheck=False)
    y.resize(n if labelled else 0, refcheck=False)
    return X, y


def _refusal(path, header: list[str], rows: list[tuple[int, str]]) -> DataFormatError:
    """The error for numbered lines that do not read as rows of the header's
    columns, naming the first at fault (by bisection): its width, or else
    its first cell that loadtxt_rows refuses or reads as non-finite."""
    lo, hi = 0, len(rows)                       # rows[:lo] read as a table, rows[lo:hi] not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = _table([ln for _, ln in rows[lo:mid]], len(header)) is not None
        lo, hi = (mid, hi) if ok else (lo, mid)
    at, text = f"line {rows[lo][0]}", rows[lo][1]
    cells = text.rstrip("\n").split(",")
    if len(cells) != len(header):
        return DataFormatError(f"{path}: ragged row at {at}: "
                               f"expected {len(header)} cells, got {len(cells)}")
    for j, (name, raw) in enumerate(zip(header, map(str.strip, cells))):
        value = loadtxt_rows([text], usecols=[j])
        if value is None:
            return DataFormatError(f"cell at {at}, column '{name}' does not parse as a "
                                   f"number: {raw!r}")
        if not np.isfinite(value).all():
            return DataFormatError(f"non-finite value at {at}, column '{name}': {raw!r}")
    raise AssertionError("unreachable: the line reads as a table row")


def _read_forked(fd: int, lo: int, hi: int, d: int, labelled: bool):
    """_parse's X and y of bytes lo to hi of the file fd, parsed by one forked
    child per range of whole lines (_cuts; _fork.processes workers, at most
    one per _FORK_BYTES) and sent (_send_rows) into X and y in place; None
    for fewer than two workers or no feature column, and wherever anything
    does not go as planned: a child that refuses its range or fails, a
    short read or an OSError."""
    workers = _fork.processes((hi - lo) // _FORK_BYTES)
    if workers < 2 or d < 1:
        return None
    cuts = _cuts(fd, lo, hi, workers)
    senders = (functools.partial(_send_rows, fd, a, b, d, labelled)
               for a, b in zip(cuts, cuts[1:]))
    try:
        with _fork.forked(senders) as children:
            # BufferedReader.read and readinto stop short only at the end of the pipe
            sent = [child.pipe.read(8) for child in children]
            if any(len(n) != 8 for n in sent):
                return None
            at = [0, *itertools.accumulate(int.from_bytes(n, sys.byteorder) for n in sent)]
            X, y = np.empty((at[-1], d)), np.empty(at[-1] if labelled else 0)
            # the bytes of flat views, so the buffer numpy exports is the view's
            xb, yb = (memoryview(a.reshape(-1).view(np.uint8)) for a in (X, y))
            for child, a, b in zip(children, at, at[1:]):
                parts = xb[a * 8 * d:b * 8 * d], yb[a * 8:b * 8]
                if any(child.pipe.readinto(p) != len(p) for p in parts) or child.wait():
                    return None
        return X, y
    except OSError:
        return None


def _send_rows(fd: int, lo: int, hi: int, d: int, labelled: bool, fh) -> None:
    """In a forked child: _parse's X and y of bytes lo to hi of the file fd,
    written to fh as n in 8 bytes, X's n x d cells, then any labels. A range
    that does not read as such rows raises, and nothing is written."""
    X, y = _parse(fd, lo, hi, d, labelled)
    fh.write(len(X).to_bytes(8, sys.byteorder))
    fh.write(X)
    fh.write(y)


@contextmanager
def _seekable(fh):
    """The binary file fh when it is a regular file; else an unlinked
    temporary file holding everything fh reads to its end, so that a pipe
    parses as the file of its bytes would."""
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        yield fh
        return
    with tempfile.TemporaryFile() as copy:
        shutil.copyfileobj(fh, copy)
        copy.seek(0)
        yield copy


def load_tabular(path, has_labels: bool = False) -> TabularDataset:
    """Read a comma-separated file (header row, '.' decimals, no quoting).

    With has_labels the last column holds the labels. Blank lines are
    skipped, but errors name a line by its place in the file. np.loadtxt
    reads every cell: a number such as '-2.5', '.5', '1e3' or '1E-7' in
    ASCII digits, whitespace padding allowed. Unlike Python float it refuses
    '_' between digits ('1_0') and non-ASCII digits ('١٢', '１'); 'nan',
    'inf' and '1e400' parse but are refused as non-finite.

    path names a regular file, or a stream such as a pipe, which is first
    spooled to an unlinked temporary file (_seekable). The file is opened
    once and its rows parsed in chunks of whole lines straight into X and y
    (_parse), by forked processes, one per core, for a large file
    (_read_forked). The arrays and every error message depend on neither.
    The dataset adopts X and y, read-only and not copied.
    """
    with open(path, "rb") as stream, _seekable(stream) as fh:
        try:
            header, start, line = _header(fh, path)
            fd, d = fh.fileno(), len(header) - has_labels
            end = os.fstat(fd).st_size
            X, y = (_read_forked(fd, start, end, d, has_labels)
                    or _parse(fd, start, end, d, has_labels, line + 1))
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except _Refused as exc:
            raise _refusal(path, header, *exc.args) from None
        except _Changed:
            raise DataFormatError(f"{path}: the file changed while it was read") from None
    if len(X) == 0:
        raise DataFormatError(f"{path}: no data rows")
    if has_labels and len(header) < 2:
        raise DataFormatError(f"{path}: need at least one feature column plus labels")
    data = object.__new__(TabularDataset)
    data.__dict__.update(X=X, y=y if has_labels else None,
                         names=tuple(header[:-1] if has_labels else header))
    data.__post_init__(copy=False)
    return data


def load_sequences(path) -> SequenceDataset:
    """Read tab-separated `<sequence>\\t<label>` lines of DNA, label in {+1,-1}.

    Blank lines are skipped, but errors name a line by its place in the file.
    The dataset checks lengths and symbols in one pass; only a file that
    fails it is checked again, by file line, for the message.
    """
    seqs: list[str] = []
    labels: list[float] = []
    line_nos: list[int] = []
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line == "":
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataFormatError(
                    f"{path}: line {line_no}: expected `<sequence>\\t<label>`")
            seq, raw_label = parts
            label = {"+1": 1.0, "1": 1.0, "-1": -1.0}.get(raw_label)
            if label is None:
                raise DataFormatError(
                    f"{path}: line {line_no}: malformed label {raw_label!r}")
            labels.append(label)
            seqs.append(seq)
            line_nos.append(line_no)
    if not seqs:
        raise DataFormatError(f"{path}: no sequences")
    try:
        return SequenceDataset(sequences=tuple(seqs), y=np.array(labels))
    except DataFormatError:    # check again, to name the file and its line
        _check_sequences(zip(line_nos, seqs), DNA_ALPHABET, len(seqs[0]), f"{path}: ")
        raise


# ---------------------------------------------------------------------------
# covariance estimation
# ---------------------------------------------------------------------------

def _scatter(data: TabularDataset, squares: bool = False):
    """(S, W): S the centered covariance, divisor n, and with squares W =
    sum_k (xc_k o xc_k)(xc_k o xc_k)', else None, from one pass over the
    row_blocks of data.X. Refuses a constant column (refuse_constant_column)."""
    refuse_constant_column(data.X, data.names)
    G, W = np.zeros((data.d, data.d)), (np.zeros((data.d, data.d)) if squares else None)
    for B in row_blocks(data.X, data.column_means):
        G += B.T @ B
        if squares:
            W += np.square(B, out=B).T @ B
    S = G / data.n
    return (S + S.T) / 2.0, W       # (S + S') / 2 kills rounding asymmetry


def empirical_covariance(data: TabularDataset) -> CovarianceEstimate:
    """Centered empirical covariance, divisor n; requires n >= 2 and refuses
    a constant column (refuse_constant_column)."""
    if data.n < 2:
        raise FirmError("centered covariance requires n >= 2")
    return CovarianceEstimate(sigma=_scatter(data)[0], method="empirical_centered")


def shrinkage_covariance(data: TabularDataset) -> CovarianceEstimate:
    """Shrink the centered covariance toward its diagonal.

    The mixing intensity is the closed-form minimizer of expected squared
    error for the diagonal target (Schaefer & Strimmer 2005),

        lambda* = sum_{i != j} Var^(s_ij) / sum_{i != j} s_ij^2,

    clipped to [0, 1], where Var^(s_ij) estimates the sampling variance of
    the covariance entries. The result is positive definite whenever all
    sample variances are positive and lambda* > 0. S and the sums behind
    Var^(s_ij) come from one pass over blocks of rows (_scatter).
    """
    n, d = data.n, data.d
    if n < 3:
        raise FirmError("shrinkage estimate requires n >= 3")
    S, W2 = _scatter(data, squares=d > 1)
    if d == 1:
        return CovarianceEstimate(sigma=S, method="shrunk", shrinkage_lambda=0.0)
    # per-entry sampling variance of s_ij from the products w_kij = xc_ki * xc_kj
    # Var^(s_ij) = n/(n-1)^3 * sum_k (w_kij - mean_k w_kij)^2, W2 = sum_k w_kij^2
    var_s = (n / (n - 1) ** 3) * (W2 - n * S ** 2)
    off = ~np.eye(d, dtype=bool)
    denom = float((S[off] ** 2).sum())
    if denom == 0.0:
        lam = 1.0
    else:
        lam = float(np.clip(var_s[off].sum() / denom, 0.0, 1.0))
    sigma = (1.0 - lam) * S + lam * np.diag(np.diag(S))
    return CovarianceEstimate(sigma=sigma, method="shrunk", shrinkage_lambda=lam)
