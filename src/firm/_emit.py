"""Deterministic artifact emission.

Commands compute everything first, then hand a complete set of artifacts
to `write_artifacts`, which stages each file next to its destination and
renames it into place. A failure during computation therefore leaves no
partial output behind. All floats are written with repr, so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import sys
import platform

import numpy as np


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def tsv(header, rows) -> str:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def matrix_tsv(names, matrix) -> str:
    rows = [[name] + list(row) for name, row in zip(names, np.asarray(matrix))]
    return tsv(["#"] + list(names), rows)


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
    rows = [[curve.bin_edges[i], curve.bin_edges[i + 1], curve.bin_prob[i],
             curve.q_hat[i], int(curve.counts[i])]
            for i in range(curve.n_bins)]
    return tsv(["bin_lo", "bin_hi", "prob", "q_hat", "count"], rows)


def firm_results_tsv(results, score_sd=None) -> str:
    """The importance table; with score_sd, importances are divided by it."""
    scale = 1.0 if score_sd is None else score_sd
    rows = [[r.feature, r.q_signed / scale, r.q_abs / scale, r.method] for r in results]
    return tsv(["feature", "q_signed", "q_abs", "method"], rows)


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


def poim_summary_tsv(table) -> str:
    absq = np.abs(table.firm_values)
    return tsv(["position", "max_abs_q", "mean_abs_q"],
               [[j, absq[:, j].max(), absq[:, j].mean()] for j in range(table.positions)])


def poim_top_tsv(ranked) -> str:
    return tsv(["rank", "oligomer", "position", "q"],
               [[r + 1, z, j, q] for r, (z, j, q) in enumerate(ranked)])


def write_artifacts(outdir: str, artifacts: dict) -> None:
    """Atomically place every artifact (str content) under outdir."""
    for relpath, content in artifacts.items():
        dest = os.path.join(outdir, relpath)
        os.makedirs(os.path.dirname(dest) or ".", exist_ok=True)
        tmp = f"{dest}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        os.replace(tmp, dest)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1
