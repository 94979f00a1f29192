"""Deterministic artifact emission.

Commands compute everything first, then hand a complete set of artifacts
to `write_artifacts`, which stages each file next to its destination and
renames it into place. The one exception is `poim.tsv`, whose text is
formatted as it is written: `poim_tsv` is a generator of chunks, which
`write_artifacts` takes as a streamed entry and writes before every other
file, so a failure while it is formatted places no file. A failure during
computation, before the first write, therefore writes nothing. Each file
is replaced atomically, but the set is not: a failure partway through the
writes leaves the files already renamed, and a reused output directory
keeps files of an earlier run that this run does not write (such as
`curves/*.tsv` for columns it lacks). All floats are written with repr, so
identical runs produce byte-identical files.

No text is held twice, and `poim.tsv` is never held whole. `tsv` grows its
result with `text += chunk` on a local variable: when that local holds the
only reference to a str, CPython (3.10 to 3.13; from 3.11 on, once its
adaptive interpreter has specialised the `+=`) resizes it in place instead
of building a new one, so the text is never held as its chunks and as
their join at once. `write_artifacts` encodes and writes each text in
slices of _WRITE_CHARS characters, so no encoded copy of a whole text is
made.

`poim_tsv` formats a large table on every core. Its positions are cut into
contiguous ranges, one per worker: this process formats the first, one
position's text at a time, while a child forked by firm._fork formats each
other range into one str and then sends it, UTF-8, over a pipe. After its
own positions, this process yields each child's bytes, in order, as read
from the pipe, _PIPE_BYTES at a time, so it holds one position's text or
one read. The worker count is derived, never set (_fork.processes): one
per core, at most one per _FORK_CELLS cells and per position, and one only
where this process runs more than one thread, as it does when numpy's BLAS
runs several. The bytes do not depend on the worker count.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import platform
import sys

import numpy as np

from . import _fork
from .errors import FirmError


_TSV_ROWS = 8192     # rows made Python scalars and formatted at a time
_WRITE_CHARS = 2 ** 20   # characters of a text encoded and written at a time
_FORK_CELLS = 2 ** 16    # POIM table cells per formatting process, at least
_PIPE_BYTES = 2 ** 17    # bytes of a child's text read and written at a time


def tsv(header, columns) -> str:
    """A header line, then one line per row of the equal-length columns.

    With header None there is no header line, so a table can be written
    in row blocks whose texts concatenate to the one-call text. Columns (at
    least one) are numpy arrays or lists; each becomes one array, so a
    list's values share one dtype. Leading 0-stride columns (np.broadcast_to
    views), all but the last column, hold one value each: it is formatted
    once, into a line prefix that the row format string carries. Every
    _TSV_ROWS rows of the other columns become Python scalars, which one
    format string per row writes as str does, into one chunk of lines that
    is appended to the text in place (see the module docstring). At its
    peak the text is held once, beside one block's scalars and lines.
    """
    columns = [np.asarray(col) for col in columns]
    lead = 0
    while lead < len(columns) - 1 and columns[lead].strides == (0,):
        lead += 1
    prefix = "".join(f"{value}\t" for col in columns[:lead] for value in col[:1].tolist())
    row = (prefix.replace("{", "{{").replace("}", "}}")
           + "\t".join(["{}"] * (len(columns) - lead)) + "\n").format
    text = "" if header is None else "\t".join(header) + "\n"
    for i in range(0, min(map(len, columns)), _TSV_ROWS):
        block = [col[i:i + _TSV_ROWS].tolist() for col in columns[lead:]]
        text += "".join(map(row, *block))
    return text


def matrix_tsv(names, matrix) -> str:
    return tsv(["#"] + list(names), [names] + list(np.asarray(matrix).T))


def json_doc(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def run_metadata(command: str, config: dict) -> str:
    from . import __version__
    return json_doc({
        "command": command,
        "config": config,
        "versions": {
            "firm": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    })


def curve_tsv(curve) -> str:
    edges = curve.bin_edges
    return tsv(["bin_lo", "bin_hi", "prob", "q_hat", "count"],
               [edges[:-1], edges[1:], curve.bin_prob, curve.q_hat, curve.counts])


def firm_results_tsv(results, score_sd=None) -> str:
    """The importance table; with score_sd, importances are divided by it
    and headed q_tilde_signed and q_tilde_abs, as in firm_results_json."""
    if score_sd is None:
        scale, names = 1.0, ["q_signed", "q_abs"]
    else:
        scale, names = score_sd, ["q_tilde_signed", "q_tilde_abs"]
    q = np.array([r.q_signed for r in results]) / scale
    return tsv(["feature", *names, "method"],
               [[r.feature for r in results], q, np.abs(q), [r.method for r in results]])


def firm_results_json(results, score_sd=None) -> str:
    """Raw importances and extras; with score_sd, also q_tilde_* = q / score_sd."""
    records = []
    for r in results:
        rec = {"feature": r.feature, "q_signed": r.q_signed, "q_abs": r.q_abs,
               "method": r.method}
        if r.extras is not None:
            rec["extras"] = r.extras._asdict()
        if score_sd is not None:
            rec["q_tilde_signed"] = r.q_signed / score_sd
            rec["q_tilde_abs"] = r.q_abs / score_sd
        records.append(rec)
    doc = {"results": records}
    if score_sd is not None:
        doc["score_sd"] = score_sd
    return json_doc(doc)


def poim_tsv(table):
    """Every cell of a POIM table in its own position-major order, oligomers
    in index order within a position: a generator of the text's chunks,
    str or UTF-8 bytes, for write_artifacts to stream.

    One tsv call per position formats that position's nz rows, the header
    only with the first. k and the position are 0-stride views, so tsv
    writes them once per call as a line prefix; every call reads the one
    array of nz label strings, which itertools.product over the alphabet
    gives in index order, and Q is taken one position's row at a time, so
    no column is as long as the table.

    The positions are cut into _fork.processes contiguous ranges. This
    process yields the first range a position at a time while a forked
    child formats each other range (see _send_text), then each child's
    bytes in order (see _child_bytes). A child that fails raises FirmError
    here. On any exception, and when the generator is closed, every child
    still running is killed and reaped, so none outlives it.
    """
    values, factor = table.values, table.factor
    npos, nz = values.shape
    labels = np.array(["".join(z) for z in itertools.product(table.alphabet, repeat=table.k)],
                      dtype=object)
    k = np.broadcast_to(table.k, nz)

    def positions(lo, hi):
        for j in range(lo, hi):
            yield tsv(None if j else ["k", "position", "oligomer", "q_prime", "q"],
                      [k, np.broadcast_to(j, nz), labels, values[j], values[j] * factor])

    workers = _fork.processes(min(values.size // _FORK_CELLS, npos))
    bounds = [npos * w // workers for w in range(workers + 1)]
    ranges = list(zip(bounds[1:-1], bounds[2:]))
    senders = (functools.partial(_send_text, positions(lo, hi)) for lo, hi in ranges)
    with _fork.forked(senders) as children:
        yield from positions(0, bounds[1])
        for child, (lo, hi) in zip(children, ranges):
            yield from _child_bytes(child, f"positions {lo} to {hi - 1}")


def _send_text(pieces, fh) -> None:
    """In a child: join the pieces, growing one str in place (see the module
    docstring), then write the text UTF-8 to fh in slices of _WRITE_CHARS
    characters. The whole text is formatted before the first write, so the
    child never waits on the pipe while the parent formats its own range."""
    text = ""
    for piece in pieces:
        text += piece
    for i in range(0, len(text), _WRITE_CHARS):
        fh.write(text[i:i + _WRITE_CHARS].encode("utf-8"))


def _child_bytes(child, what: str):
    """A child's bytes, _PIPE_BYTES at a time; then the child is reaped, and
    FirmError raised unless it exited with status 0."""
    yield from iter(functools.partial(child.pipe.read, _PIPE_BYTES), b"")
    code = child.wait()
    if code:
        raise FirmError(f"the process formatting poim.tsv {what} failed "
                        f"(exit status {code})")


def poim_summary_tsv(table) -> str:
    """The largest and the mean |Q| at each position of a POIM table, read a
    row at a time: |Q'| scaled in place, which is |Q'·factor| bit for bit
    because the factor is positive."""
    peak, mean = np.empty(table.positions), np.empty(table.positions)
    for j, row in enumerate(table.values):
        absq = np.abs(row)
        absq *= table.factor
        peak[j], mean[j] = absq.max(), absq.mean()
    return tsv(["position", "max_abs_q", "mean_abs_q"], [np.arange(table.positions), peak, mean])


def poim_top_tsv(ranked) -> str:
    """The ranked_oligomers cells of a POIM table, ranks counted from 1."""
    oligomers, positions, q = zip(*ranked) if ranked else ((), (), ())
    return tsv(["rank", "oligomer", "position", "q"],
               [np.arange(1, len(ranked) + 1), oligomers, positions, q])


def write_artifacts(outdir: str, artifacts: dict, streams: dict | None = None) -> None:
    """Place every artifact under outdir, each file atomically, after checking
    that no path is absolute, leaves outdir or repeats another.

    artifacts maps paths to str content, and streams to generators of str
    or UTF-8 bytes chunks, such as poim_tsv's. The streams are written
    first, so a failure while one is produced places no file, though the
    directories made for it stay. On leaving, by return or by any
    exception, every stream is closed. Every str is encoded and written
    _WRITE_CHARS characters at a time, so no bytes copy of a whole text is
    held beside it."""
    streams = streams or {}
    try:
        seen = set()
        for relpath in itertools.chain(streams, artifacts):
            norm = os.path.normpath(relpath)
            if os.path.isabs(relpath) or norm.split(os.sep)[0] in ("..", ".") or norm in seen:
                raise FirmError(f"artifact path {relpath!r} leaves the output directory "
                                "or repeats another")
            seen.add(norm)
        for relpath, content in itertools.chain(
                streams.items(), ((path, [text]) for path, text in artifacts.items())):
            _write_file(os.path.join(outdir, relpath), content)
    finally:
        for stream in streams.values():
            stream.close()


def _write_file(dest: str, chunks) -> None:
    """The chunks, str or bytes, written to a file staged beside dest and
    renamed onto it; the staged file is removed on any failure."""
    os.makedirs(os.path.dirname(dest) or ".", exist_ok=True)
    tmp = f"{dest}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                if isinstance(chunk, str):
                    for i in range(0, len(chunk), _WRITE_CHARS):
                        fh.write(chunk[i:i + _WRITE_CHARS].encode("utf-8"))
                else:
                    fh.write(chunk)
        os.replace(tmp, dest)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1
