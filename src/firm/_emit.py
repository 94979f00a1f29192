"""Deterministic artifact emission.

Commands compute everything first, then hand a complete set of artifacts
to `write_artifacts`, which stages each file next to its destination and
renames it into place. A failure during computation therefore leaves no
partial output behind. All floats are written with repr, so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import platform

import numpy as np


def tsv(header, columns) -> str:
    """A header line, then one line per row of the equal-length columns.

    Columns are numpy arrays or lists. Each becomes Python scalars once,
    written with str: ints in decimal, floats by repr.
    """
    cells = [map(str, np.asarray(col).tolist()) for col in columns]
    lines = ["\t".join(header)] + ["\t".join(row) for row in zip(*cells)]
    return "\n".join(lines) + "\n"


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
    """The importance table; with score_sd, importances are divided by it."""
    scale = 1.0 if score_sd is None else score_sd
    q = np.array([r.q_signed for r in results]) / scale
    return tsv(["feature", "q_signed", "q_abs", "method"],
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
    """Every cell of a POIM table, position-major, oligomers in index order."""
    nz, npos = table.values.shape
    labels = [table.oligomer(zi) for zi in range(nz)]
    return tsv(["k", "position", "oligomer", "q_prime", "q"],
               [np.full(nz * npos, table.k), np.repeat(np.arange(npos), nz),
                labels * npos, table.values.T.ravel(), table.firm_values.T.ravel()])


def poim_summary_tsv(table) -> str:
    # one contiguous row per position: its mean adds the cells in the order a
    # column slice would, which a reduction over axis 0 does not
    absq = np.abs(np.ascontiguousarray(table.firm_values.T))
    return tsv(["position", "max_abs_q", "mean_abs_q"],
               [np.arange(table.positions), absq.max(axis=1), absq.mean(axis=1)])


def poim_top_tsv(ranked) -> str:
    oligomers, positions, q = zip(*ranked) if ranked else ((), (), ())
    return tsv(["rank", "oligomer", "position", "q"],
               [np.arange(1, len(ranked) + 1), oligomers, positions, q])


def write_artifacts(outdir: str, artifacts: dict) -> None:
    """Atomically place every artifact (str content) under outdir."""
    for relpath, content in artifacts.items():
        dest = os.path.join(outdir, relpath)
        os.makedirs(os.path.dirname(dest) or ".", exist_ok=True)
        tmp = f"{dest}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(content)
            os.replace(tmp, dest)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1
