"""Data ingestion and covariance estimation for tabular and sequence data.

All container types are immutable (their arrays are frozen copies) and
compare by identity, so shared instances are safe under concurrent use.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, DegenerateFeatureError, FirmError

DNA_ALPHABET = ("A", "C", "G", "T")


def _frozen(a) -> np.ndarray:
    """A read-only float64 copy of a that owns its data."""
    out = np.array(a, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TabularDataset:
    """An n-by-d data matrix with optional labels and column names."""

    X: np.ndarray
    y: np.ndarray | None
    names: tuple[str, ...]
    column_means: np.ndarray = field(init=False)

    def __post_init__(self):
        X = _frozen(np.atleast_2d(self.X))
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise FirmError("data matrix must have at least one row and one column")
        if not np.isfinite(X).all():
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
            y = _frozen(np.asarray(y).ravel())
            if y.shape[0] != X.shape[0]:
                raise FirmError("label vector length does not match row count")
            if not np.isfinite(y).all():
                raise FirmError("labels contain non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        with np.errstate(over="ignore", invalid="ignore"):
            means = X.mean(axis=0)
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


def _nonblank_lines(fh):
    """(1-based line in the file, line) for each line of fh that is not blank."""
    return ((line_no, ln) for line_no, ln in enumerate(fh, start=1) if ln.strip() != "")


def loadtxt_rows(lines, **kw) -> np.ndarray | None:
    """The comma-separated lines as float64 rows by np.loadtxt, the package's
    one number parser; None where it refuses a cell or rows of unequal width."""
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, **kw)
    except ValueError:
        return None


def _read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and n x len(header) finite data of a tabular file.

    A well-formed file is one np.loadtxt call over the open handle. Any
    other is read again, its non-blank lines streamed to loadtxt; if they do
    not read as a table, bisection over a list of them finds the first line
    at fault, whose width or first bad cell raises a DataFormatError.
    """
    def table(lines):
        data = loadtxt_rows(lines)
        ok = data is not None and data.shape[1] == len(header) and np.isfinite(data).all()
        return data if ok else None

    with open_utf8(path) as fh:
        lines = _nonblank_lines(fh)
        first, second = next(lines, None), next(lines, None)
        if second is None:      # before loadtxt, which would warn
            raise DataFormatError(f"{path}: {'no data rows' if first else 'empty file'}")
        header = [h.strip() for h in first[1].rstrip("\n").split(",")]
        data = table(itertools.chain([second[1]], fh))
    if data is None:
        with open_utf8(path) as fh:
            data = table(ln for _, ln in itertools.islice(_nonblank_lines(fh), 1, None))
    if data is not None:
        return header, data
    with open_utf8(path) as fh:
        line_nos, rows = zip(*list(_nonblank_lines(fh))[1:])
    lo, hi = 0, len(rows)                       # rows[:lo] read as a table, rows[lo:hi] not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if table(rows[lo:mid]) is None else (mid, hi)
    at, cells = f"line {line_nos[lo]}", rows[lo].rstrip("\n").split(",")
    if len(cells) != len(header):
        raise DataFormatError(f"{path}: ragged row at {at}: "
                              f"expected {len(header)} cells, got {len(cells)}")
    for j, (name, raw) in enumerate(zip(header, map(str.strip, cells))):
        value = loadtxt_rows([rows[lo]], usecols=[j])
        if value is None:
            raise DataFormatError(f"cell at {at}, column '{name}' does not parse as a "
                                  f"number: {raw!r}")
        if not np.isfinite(value).all():
            raise DataFormatError(f"non-finite value at {at}, column '{name}': {raw!r}")
    raise AssertionError("unreachable: the line reads as a table row")


def load_tabular(path, has_labels: bool = False) -> TabularDataset:
    """Read a comma-separated file (header row, '.' decimals, no quoting).

    With has_labels the last column holds the labels. Blank lines are
    skipped, but errors name a line by its place in the file. np.loadtxt
    reads every cell: a number such as '-2.5', '.5', '1e3' or '1E-7' in
    ASCII digits, whitespace padding allowed. Unlike Python float it refuses
    '_' between digits ('1_0') and non-ASCII digits ('١٢', '１'); 'nan',
    'inf' and '1e400' parse but are refused as non-finite.
    """
    header, data = _read_table(path)
    if has_labels:
        if len(header) < 2:
            raise DataFormatError(f"{path}: need at least one feature column plus labels")
        return TabularDataset(X=data[:, :-1], y=data[:, -1], names=tuple(header[:-1]))
    return TabularDataset(X=data, y=None, names=tuple(header))


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


def refuse_constant_column(X: np.ndarray, names) -> None:
    """Raise DegenerateFeatureError naming the first column of the n x d
    matrix X (n >= 1) whose cells are all equal. Exact, unlike a variance
    test: a column of 0.1s can have a computed variance of 1e-34."""
    const = np.flatnonzero(X.min(axis=0) == X.max(axis=0))
    if const.size:
        raise DegenerateFeatureError(f"feature {names[const[0]]} is constant")


# ---------------------------------------------------------------------------
# covariance estimation
# ---------------------------------------------------------------------------

def empirical_covariance(data: TabularDataset) -> CovarianceEstimate:
    """Centered empirical covariance, divisor n; requires n >= 2 and refuses
    a constant column (refuse_constant_column)."""
    if data.n < 2:
        raise FirmError("centered covariance requires n >= 2")
    refuse_constant_column(data.X, data.names)
    X = data.X - data.column_means
    sigma = (X.T @ X) / data.n
    sigma = (sigma + sigma.T) / 2.0  # kill rounding asymmetry
    return CovarianceEstimate(sigma=sigma, method="empirical_centered")


def shrinkage_covariance(data: TabularDataset) -> CovarianceEstimate:
    """Shrink the centered covariance toward its diagonal.

    The mixing intensity is the closed-form minimizer of expected squared
    error for the diagonal target,

        lambda* = sum_{i != j} Var^(s_ij) / sum_{i != j} s_ij^2,

    clipped to [0, 1], where Var^(s_ij) estimates the sampling variance of
    the covariance entries. The result is positive definite whenever all
    sample variances are positive and lambda* > 0.
    """
    n, d = data.n, data.d
    if n < 3:
        raise FirmError("shrinkage estimate requires n >= 3")
    S = empirical_covariance(data).sigma
    if d == 1:
        return CovarianceEstimate(sigma=S, method="shrunk", shrinkage_lambda=0.0)
    # per-entry sampling variance of s_ij from the products w_kij = xc_ki * xc_kj
    # Var^(s_ij) = n/(n-1)^3 * sum_k (w_kij - mean_k w_kij)^2
    Xc2 = data.X - data.column_means
    np.square(Xc2, out=Xc2)
    W2 = Xc2.T @ Xc2                           # sum_k w_kij^2
    var_s = (n / (n - 1) ** 3) * (W2 - n * S ** 2)
    off = ~np.eye(d, dtype=bool)
    denom = float((S[off] ** 2).sum())
    if denom == 0.0:
        lam = 1.0
    else:
        lam = float(np.clip(var_s[off].sum() / denom, 0.0, 1.0))
    sigma = (1.0 - lam) * S + lam * np.diag(np.diag(S))
    return CovarianceEstimate(sigma=sigma, method="shrunk", shrinkage_lambda=lam)
