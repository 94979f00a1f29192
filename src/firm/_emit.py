"""Deterministic artifact emission.

Commands compute everything first, then hand a complete set of artifacts
to `write_artifacts`, which stages each file next to its destination and
renames it into place. A failure during computation, before the first
write, therefore writes nothing. Each file is replaced atomically, but the
set is not: a failure partway through the writes leaves the files already
renamed, and a reused output directory keeps files of an earlier run that
this run does not write (such as `curves/*.tsv` for columns it lacks).
All floats are written with repr, so identical runs produce
byte-identical files.

Each text is held once. `tsv` and `poim_tsv` grow their result with
`text += chunk` on a local variable: when that local holds the only
reference to a str, CPython (3.10 to 3.13; from 3.11 on, once its adaptive
interpreter has specialised the `+=`) resizes it in place instead of
building a new one, so the text is never held as its chunks and as their
join at once. `write_artifacts` writes each text in slices of
_WRITE_CHARS characters, so no encoded copy of a whole text is made.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import platform

import numpy as np

from .errors import FirmError


_TSV_ROWS = 8192     # rows made Python scalars and formatted at a time
_WRITE_CHARS = 2 ** 20   # characters of a text encoded and written at a time


def tsv(header, columns) -> str:
    """A header line, then one line per row of the equal-length columns.

    With header None there is no header line, so a table can be written
    in row blocks whose texts concatenate to the one-call text. Columns (at
    least one) are numpy arrays or lists; each becomes one array, so a
    list's values share one dtype. Every _TSV_ROWS rows become Python
    scalars, which one format string per row writes as str does, into one
    chunk of lines that is appended to the text in place (see the module
    docstring). At its peak the text is held once, beside one block's
    scalars and lines.
    """
    row = ("\t".join(["{}"] * len(columns)) + "\n").format
    columns = [np.asarray(col) for col in columns]
    text = "" if header is None else "\t".join(header) + "\n"
    for i in range(0, min(map(len, columns)), _TSV_ROWS):
        block = [col[i:i + _TSV_ROWS].tolist() for col in columns]
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


def poim_tsv(table) -> str:
    """Every cell of a POIM table in its own position-major order, oligomers
    in index order within a position.

    One tsv call per position formats that position's nz rows, the header
    only with the first, and its text is appended to the table's in place
    (see the module docstring). k and the position are 0-stride views,
    every call reads the one array of nz label strings, and Q is taken one
    position's row at a time, so no column is as long as the table and the
    text is held once.
    """
    values, factor = table.values, table.factor
    npos, nz = values.shape
    labels = np.array([table.oligomer(zi) for zi in range(nz)], dtype=object)
    k = np.broadcast_to(table.k, nz)
    text = ""
    for j in range(npos):
        text += tsv(None if j else ["k", "position", "oligomer", "q_prime", "q"],
                    [k, np.broadcast_to(j, nz), labels, values[j], values[j] * factor])
    return text


def poim_summary_tsv(table) -> str:
    """The largest and the mean |Q| at each position of a POIM table."""
    absq = table.abs_firm_values()
    return tsv(["position", "max_abs_q", "mean_abs_q"],
               [np.arange(table.positions), absq.max(axis=1), absq.mean(axis=1)])


def poim_top_tsv(ranked) -> str:
    """The ranked_oligomers cells of a POIM table, ranks counted from 1."""
    oligomers, positions, q = zip(*ranked) if ranked else ((), (), ())
    return tsv(["rank", "oligomer", "position", "q"],
               [np.arange(1, len(ranked) + 1), oligomers, positions, q])


def write_artifacts(outdir: str, artifacts: dict) -> None:
    """Place every artifact (str content) under outdir, each file atomically,
    after checking that no path is absolute, leaves outdir or repeats another.

    Each text is encoded and written _WRITE_CHARS characters at a time, so
    no bytes copy of a whole text is held beside it."""
    seen = set()
    for relpath in artifacts:
        norm = os.path.normpath(relpath)
        if os.path.isabs(relpath) or norm.split(os.sep)[0] in ("..", ".") or norm in seen:
            raise FirmError(f"artifact path {relpath!r} leaves the output directory "
                            "or repeats another")
        seen.add(norm)
    for relpath, content in artifacts.items():
        dest = os.path.join(outdir, relpath)
        os.makedirs(os.path.dirname(dest) or ".", exist_ok=True)
        tmp = f"{dest}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                for i in range(0, len(content), _WRITE_CHARS):
                    fh.write(content[i:i + _WRITE_CHARS])
            os.replace(tmp, dest)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1
