"""Seeded inputs and the fixed CLI invocation list of each workload.

The benchmark generates every input itself, with its own generators, so no
change to the package can alter what is measured. The same seed yields the
same bytes; `generate` records the size and SHA-256 of each file.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

TABULAR_ROWS, TABULAR_COLS = 20_000, 50
KERNEL_ROWS, KERNEL_COLS = 3_000, 10
SEQ_COUNT, SEQ_LEN = 2_000, 100
MOTIF = "TGACGTCA"
ALPHABET = "ACGT"

# Each invocation: (tag, argv). "{in:NAME}" is an input file and "{out}" the
# invocation's own fresh output directory. `seed_free` names invocations whose
# outputs do not depend on the benchmark seed (the shipped experiment uses its
# own default seed), so the seed-0 reference applies to them on every seed.
# `layers` are the layers a workload must exercise; one that records no call
# is reported as unmeasured.
WORKLOADS = {
    "tabular": {
        "invocations": [
            ("empirical-labels", ["analyze", "--input", "{in:normal.csv}",
                                  "--method", "empirical", "--scorer", "labels"]),
            ("slope-ridge", ["analyze", "--input", "{in:normal.csv}",
                             "--method", "slope", "--scorer", "train:ridge"]),
            ("gaussian-ridge", ["analyze", "--input", "{in:normal.csv}",
                                "--method", "gaussian", "--scorer", "train:ridge"]),
            ("sensitivity-lstsq", ["analyze", "--input", "{in:normal.csv}",
                                   "--method", "sensitivity",
                                   "--scorer", "train:least_squares"]),
            ("binary-labels", ["analyze", "--input", "{in:pm1.csv}",
                               "--method", "binary", "--scorer", "labels"]),
            ("covariance-shrunk", ["covariance", "--input", "{in:normal.csv}",
                                   "--covariance", "shrunk", "--has-labels"]),
        ],
        "layers": ("parse", "covariance", "train", "score", "importance",
                   "emit.format", "emit.write", "cli"),
    },
    "kernel-ridge": {
        "invocations": [
            (f"{method}-kernel", ["analyze", "--input", "{in:kernel.csv}",
                                  "--method", method, "--scorer", "train:kernel_ridge",
                                  "--kernel", "gaussian:3.0"])
            for method in ("gaussian", "sensitivity", "empirical")
        ],
        "layers": ("parse", "covariance", "train", "score", "importance",
                   "emit.format", "emit.write", "cli"),
    },
    "poim": {
        "invocations": [
            ("poim-kmer", ["analyze", "--input", "{in:seqs.tsv}", "--method", "poim",
                           "--scorer", "train:kmer", "--degree", "3", "--k", "6"]),
            ("experiment-sequence", ["experiment-sequence"]),
        ],
        "seed_free": ("experiment-sequence",),
        "layers": ("parse", "train", "importance", "rank", "emit.format",
                   "emit.write", "cli", "experiments"),
    },
}


def arrays(workload: str, seed: int) -> dict:
    """The workload's inputs for `seed` as arrays: {file name: (data, labels)}."""
    rng = np.random.default_rng(seed)
    if workload == "tabular":
        X = rng.normal(size=(TABULAR_ROWS, TABULAR_COLS))
        y = (X[:, 0] + 0.5 * X[:, 1] ** 2 + np.sin(2.0 * X[:, 2])
             + 0.5 * X[:, 3] * X[:, 4] + 0.1 * X[:, 5:].sum(axis=1)
             + 0.5 * rng.normal(size=TABULAR_ROWS))
        B = rng.choice([-1.0, 1.0], size=(TABULAR_ROWS, TABULAR_COLS))
        yb = (B[:, 0] + 0.5 * B[:, 1] * B[:, 2] - 0.25 * B[:, 3]
              + 0.5 * rng.normal(size=TABULAR_ROWS))
        return {"normal.csv": (X, y), "pm1.csv": (B, yb)}
    if workload == "kernel-ridge":
        X = rng.normal(size=(KERNEL_ROWS, KERNEL_COLS))
        y = (np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.5 * X[:, 3] ** 2 - 0.3 * X[:, 4]
             + 0.2 * rng.normal(size=KERNEL_ROWS))
        return {"kernel.csv": (X, y)}
    # Uniform random DNA as letter codes; positives carry MOTIF near the middle
    # with one position resampled, so the scorer has a graded signal to learn.
    S = rng.integers(0, len(ALPHABET), size=(SEQ_COUNT, SEQ_LEN))
    labels = np.where(np.arange(SEQ_COUNT) < SEQ_COUNT // 2, 1.0, -1.0)
    rng.shuffle(labels)
    motif = np.array([ALPHABET.index(c) for c in MOTIF])
    for r in np.flatnonzero(labels > 0):
        start = int(np.clip(round(rng.normal(SEQ_LEN / 2, 8.0)), 0, SEQ_LEN - len(MOTIF)))
        planted = motif.copy()
        planted[rng.integers(len(MOTIF))] = rng.integers(len(ALPHABET))
        S[r, start:start + len(MOTIF)] = planted
    return {"seqs.tsv": (S, labels)}


def _text(name: str, data: np.ndarray, labels: np.ndarray) -> str:
    if name.endswith(".tsv"):
        letters = np.array(list(ALPHABET))
        lines = ["".join(letters[row]) + ("\t+1" if lab > 0 else "\t-1")
                 for row, lab in zip(data, labels)]
    else:
        header = [f"c{j + 1}" for j in range(data.shape[1])] + ["label"]
        lines = [",".join(header)] + [",".join(map(repr, row))
                                      for row in np.column_stack([data, labels]).tolist()]
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's inputs for `seed` into `directory` (reused when
    a manifest from an earlier run matches the files) and return
    {name: {"size", "sha256"}}."""
    manifest_path = os.path.join(directory, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if all(_describe(os.path.join(directory, name)) == entry
               for name, entry in manifest.items()):
            return manifest
    os.makedirs(directory, exist_ok=True)
    manifest = {}
    for name, (data, labels) in arrays(workload, seed).items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_text(name, data, labels))
        manifest[name] = _describe(path)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True)
    return manifest


def _describe(path: str) -> dict:
    if not os.path.isfile(path):
        return {}
    with open(path, "rb") as fh:
        data = fh.read()
    return {"size": len(data), "sha256": hashlib.sha256(data).hexdigest()}
