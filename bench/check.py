"""Output check: fingerprints of an artifact set and oracles for its numbers.

A fingerprint keeps, per file, the SHA-256 of the (normalised) bytes, and a
skeleton hash over what must match exactly: the header, the row count and
every non-float cell. Float cells are kept one by one, except in files of
more than CELL_ROWS rows (`poim.tsv`), whose float columns keep the sum and
absolute sum of each block of BLOCK_ROWS rows. Two sets whose bytes agree
have deviation 0 without being parsed.

`run.json` is normalised before hashing: `versions` is dropped and the input
path is cut to its file name.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os

import numpy as np

REL_TOL = 1e-6       # a numeric deviation above this fails the invocation
CELL_ROWS = 4096     # float columns of longer files are kept per block of rows
BLOCK_ROWS = 64
TINY = 1e-300


def _normalised_bytes(relpath: str, raw: bytes) -> bytes:
    if os.path.basename(relpath) != "run.json":
        return raw
    try:
        doc = json.loads(raw)
    except ValueError:
        return raw  # left for the comparison to reject
    doc.pop("versions", None)
    config = doc.get("config", {})
    if isinstance(config.get("input"), str):
        config["input"] = os.path.basename(config["input"])
    return json.dumps(doc, sort_keys=True).encode()


def read_artifacts(outdir: str) -> dict:
    """{relative path: normalised bytes} of every file under outdir."""
    out = {}
    for base, _, names in os.walk(outdir):
        for name in names:
            rel = os.path.relpath(os.path.join(base, name), outdir)
            with open(os.path.join(base, name), "rb") as fh:
                out[rel] = _normalised_bytes(rel, fh.read())
    return dict(sorted(out.items()))


def _is_float(cell: str) -> bool:
    if not any(c in cell for c in ".eEn"):
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _summary(values: np.ndarray) -> dict:
    max_abs = float(np.abs(values).max()) if values.size else 0.0
    if values.size <= CELL_ROWS:
        return {"max_abs": max_abs, "cells": values.tolist()}
    starts = np.arange(0, values.size, BLOCK_ROWS)
    return {"max_abs": max_abs, "block": BLOCK_ROWS,
            "sums": np.add.reduceat(values, starts).tolist(),
            "abs_sums": np.add.reduceat(np.abs(values), starts).tolist()}


def _tsv_fingerprint(text: str) -> dict:
    lines = text.split("\n")
    header, rows = lines[0], [ln.split("\t") for ln in lines[1:] if ln != ""]
    columns = list(zip(*rows)) if rows else []
    skeleton = hashlib.sha256(f"{header}\n{len(rows)}\n".encode())
    numeric = {}
    for index, column in enumerate(columns):
        if _is_float(column[0]):
            numeric[str(index)] = _summary(np.array(column, dtype=np.float64))
            skeleton.update(f"{index}:float\n".encode())
        else:
            skeleton.update(("\t".join(column) + "\n").encode())
    return {"header": header, "rows": len(rows), "skeleton": skeleton.hexdigest(),
            "numeric": numeric}


def _json_leaves(obj, path=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _json_leaves(obj[key], f"{path}/{key}")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _json_leaves(item, f"{path}/{i}")
    else:
        yield path, obj


def _json_fingerprint(raw: bytes) -> dict:
    leaves = list(_json_leaves(json.loads(raw)))
    exact = [(p, v) for p, v in leaves if not isinstance(v, float)]
    numeric = {p: v for p, v in leaves if isinstance(v, float)}
    skeleton = hashlib.sha256(json.dumps([exact, sorted(numeric)]).encode())
    return {"skeleton": skeleton.hexdigest(), "numeric": numeric}


def fingerprint_file(relpath: str, data: bytes) -> dict:
    fp = {"sha256": hashlib.sha256(data).hexdigest()}
    if relpath.endswith(".json"):
        fp.update(_json_fingerprint(data))
    else:
        fp.update(_tsv_fingerprint(data.decode()))
    return fp


def rel_dev(got: float, want: float, scale: float) -> float:
    """|got - want| relative to max(|want|, scale); non-finite only equals itself."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return 0.0 if got == want or (math.isnan(got) and math.isnan(want)) else math.inf
    return abs(got - want) / max(abs(want), scale, TINY)


def _numeric_dev(got: dict, want: dict, json_doc: bool) -> float:
    if json_doc:
        scale = 1e-6 * max((abs(v) for v in want.values() if math.isfinite(v)), default=0.0)
        return max((rel_dev(got[p], v, scale) for p, v in want.items()), default=0.0)
    # A cell is compared relative to max(|cell|, 1e-6 x its column's largest
    # magnitude), a block sum relative to the block's absolute sum.
    dev = 0.0
    for col, w in want.items():
        g, floor = got[col], 1e-6 * w["max_abs"]
        if "cells" in w:
            pairs = zip(g["cells"], w["cells"], itertools.repeat(floor))
        else:
            pairs = zip(g["sums"], w["sums"], (max(a, floor) for a in w["abs_sums"]))
        dev = max(dev, max((rel_dev(a, b, scale) for a, b, scale in pairs), default=0.0))
    return dev


def compare(artifacts: dict, reference: dict) -> tuple[list[str], float]:
    """Problems and the largest numeric deviation of an artifact set from a
    reference fingerprint."""
    problems, worst = [], 0.0
    if sorted(artifacts) != sorted(reference):
        problems.append(f"file list {sorted(artifacts)} != {sorted(reference)}")
    for rel in sorted(set(artifacts) & set(reference)):
        want = reference[rel]
        if hashlib.sha256(artifacts[rel]).hexdigest() == want["sha256"]:
            continue
        got = fingerprint_file(rel, artifacts[rel])
        if (got.get("header"), got.get("rows"), got["skeleton"]) != \
                (want.get("header"), want.get("rows"), want["skeleton"]):
            problems.append(f"{rel}: header, row count or a non-numeric cell differs")
            continue
        dev = _numeric_dev(got["numeric"], want["numeric"], rel.endswith(".json"))
        if dev > REL_TOL:
            problems.append(f"{rel}: relative deviation {dev:.3g}")
        worst = max(worst, dev)
    return problems, worst


def compare_shape(artifacts: dict, reference: dict) -> list[str]:
    """What every seed shares with the seed-0 reference: file list, headers
    and row counts."""
    problems = []
    if sorted(artifacts) != sorted(reference):
        return [f"file list {sorted(artifacts)} != {sorted(reference)}"]
    for rel, want in reference.items():
        if "header" in want:
            got = artifacts[rel].decode().split("\n")
            if got[0] != want["header"] or sum(1 for ln in got[1:] if ln) != want["rows"]:
                problems.append(f"{rel}: header or row count differs from the reference")
    return problems


# ---------------------------------------------------------------------------
# oracles: the same numbers computed here with numpy, from the input arrays
# ---------------------------------------------------------------------------

def _table(artifacts: dict, rel: str) -> dict:
    lines = artifacts[rel].decode().split("\n")
    header = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:] if ln]
    return {name: list(col) for name, col in zip(header, zip(*rows))}


def _floats(cells) -> np.ndarray:
    return np.array(cells, dtype=np.float64)


class Oracle:
    """Collects comparisons of reported numbers against recomputed ones,
    with problems kept per invocation tag."""

    def __init__(self):
        self.problems: dict[str, list[str]] = {}
        self.worst = 0.0

    def _fail(self, label: str, message: str) -> None:
        tag, _, what = label.partition(" ")
        self.problems.setdefault(tag, []).append(f"{what}: {message}")

    def close(self, label: str, got, want) -> None:
        got = np.asarray(got, dtype=np.float64).ravel()
        want = np.asarray(want, dtype=np.float64).ravel()
        if got.shape != want.shape:
            self._fail(label, f"{got.size} values, expected {want.size}")
            return
        if not np.isfinite(got).all():
            self._fail(label, "non-finite value")
            return
        scale = max(1e-6 * float(np.abs(want).max(initial=0.0)), TINY)
        dev = float((np.abs(got - want) / np.maximum(np.abs(want), scale)).max(initial=0.0))
        self.worst = max(self.worst, dev)
        if dev > REL_TOL:
            self._fail(label, f"relative deviation {dev:.3g}")

    def exact(self, label: str, got, want) -> None:
        if list(got) != list(want):
            self._fail(label, "differs from the expected values")


def _bins(n: int) -> int:
    return min(64, max(5, math.isqrt(n)))


def _curve(scores: np.ndarray, x: np.ndarray, bins: int):
    """Equal-count bins of a feature without ties: (counts, bin means)."""
    order = np.argsort(x, kind="stable")
    n = x.size
    bounds = (n * np.arange(bins + 1)) // bins
    sums = np.add.reduceat(scores[order], bounds[:-1])
    counts = np.diff(bounds)
    return counts, sums / counts


def _curve_firm(counts, means) -> float:
    p = counts / counts.sum()
    return math.sqrt(float(p @ (means - p @ means) ** 2))


def _check_curves(o: Oracle, artifacts: dict, tag: str, X, scores) -> None:
    n, d = X.shape
    q = []
    for j in range(d):
        counts, means = _curve(scores, X[:, j], _bins(n))
        table = _table(artifacts, f"curves/c{j + 1}.tsv")
        o.exact(f"{tag} curves/c{j + 1}.tsv count", table["count"], map(str, counts))
        o.close(f"{tag} curves/c{j + 1}.tsv q_hat", _floats(table["q_hat"]), means)
        q.append(_curve_firm(counts, means))
    o.close(f"{tag} firm.tsv", _floats(_table(artifacts, "firm.tsv")["q_abs"]), q)

def _firm(artifacts: dict) -> np.ndarray:
    return _floats(_table(artifacts, "firm.tsv")["q_signed"])


def _ridge(X, y, lam=0.1):
    mean = X.mean(axis=0)
    Xc = X - mean
    w = np.linalg.solve(Xc.T @ Xc + X.shape[0] * lam * np.eye(X.shape[1]),
                        Xc.T @ (y - y.mean()))
    return w, float(y.mean() - mean @ w)


def _tabular(o: Oracle, inputs: dict, outputs: dict) -> None:
    X, y = inputs["normal.csv"]
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / n
    sd = np.sqrt(np.var(X, axis=0))
    _check_curves(o, outputs["empirical-labels"], "empirical-labels", X, y)

    w, b = _ridge(X, y)
    s = X @ w + b
    o.close("slope-ridge", _firm(outputs["slope-ridge"]),
            (Xc * (s - s.mean())[:, None]).mean(axis=0) / sd)
    o.close("gaussian-ridge", _firm(outputs["gaussian-ridge"]), S @ w / np.sqrt(np.diag(S)))

    coef = np.linalg.lstsq(np.column_stack([X, np.ones(n)]), y, rcond=None)[0][:-1]
    o.close("sensitivity-lstsq", _firm(outputs["sensitivity-lstsq"]), np.abs(coef) * sd)

    B, yb = inputs["pm1.csv"]
    hi = B > 0
    p_hi = hi.mean(axis=0)
    q_hi = (hi * yb[:, None]).sum(axis=0) / hi.sum(axis=0)
    q_lo = (~hi * yb[:, None]).sum(axis=0) / (~hi).sum(axis=0)
    o.close("binary-labels", _firm(outputs["binary-labels"]),
            (q_hi - q_lo) * np.sqrt(p_hi * (1 - p_hi)))

    # Diagonal-target shrinkage with the closed-form intensity.
    W2 = (Xc ** 2).T @ (Xc ** 2)
    var_s = n / (n - 1) ** 3 * (W2 - n * S ** 2)
    off = ~np.eye(S.shape[0], dtype=bool)
    lam = float(np.clip(var_s[off].sum() / (S[off] ** 2).sum(), 0.0, 1.0))
    sigma = (1 - lam) * S + lam * np.diag(np.diag(S))
    cov = outputs["covariance-shrunk"]
    table = _table(cov, "covariance.tsv")
    o.close("covariance-shrunk covariance.tsv",
            np.column_stack([_floats(table[f"c{j + 1}"]) for j in range(S.shape[0])]), sigma)
    o.close("covariance-shrunk lambda",
            json.loads(cov["covariance.json"])["shrinkage_lambda"], lam)


def _kernel_ridge(o: Oracle, inputs: dict, outputs: dict, gamma=3.0, lam=0.1) -> None:
    X, y = inputs["kernel.csv"]
    n = X.shape[0]
    sq = (X ** 2).sum(axis=1)
    K = np.exp(-np.maximum(sq[:, None] + sq[None, :] - 2 * X @ X.T, 0.0) / gamma ** 2)
    alpha = np.linalg.solve(K + n * lam * np.eye(n), y - y.mean())
    mean = X.mean(axis=0)
    Xc = X - mean
    S = Xc.T @ Xc / n

    k_mean = np.exp(-(Xc ** 2).sum(axis=1) / gamma ** 2)
    g = 2 / gamma ** 2 * (alpha * k_mean) @ Xc
    o.close("gaussian-kernel", _firm(outputs["gaussian-kernel"]), S @ g / np.sqrt(np.diag(S)))

    KA = K * alpha[None, :]
    G = 2 / gamma ** 2 * (KA @ X - KA.sum(axis=1)[:, None] * X)
    o.close("sensitivity-kernel", _firm(outputs["sensitivity-kernel"]),
            np.sqrt((G ** 2).mean(axis=0) * np.var(X, axis=0)))

    _check_curves(o, outputs["empirical-kernel"], "empirical-kernel", X, K @ alpha + y.mean())


def _kmer_weights(S: np.ndarray, labels: np.ndarray, degree: int, lam: float) -> dict:
    """Positional k-mer ridge regression solved in the dual, over every
    (position, k-mer) column: a column never observed is zero once centred
    and gets weight 0, as if it were left out. Returns {k: (positions, 4^k)}."""
    n, L = S.shape
    codes, offsets, width = {}, {}, 0
    for k in range(1, degree + 1):
        c = np.zeros((n, L - k + 1), dtype=np.int64)
        for m in range(k):
            c = c * 4 + S[:, m:L - k + 1 + m]
        codes[k], offsets[k] = c, width
        width += (L - k + 1) * 4 ** k
    Phi = np.zeros((n, width))
    for k, c in codes.items():
        Phi[np.arange(n)[:, None], offsets[k] + np.arange(c.shape[1]) * 4 ** k + c] = 1.0
    Phi -= Phi.mean(axis=0)
    alpha = np.linalg.solve(Phi @ Phi.T + n * lam * np.eye(n), labels - labels.mean())
    w = Phi.T @ alpha
    return {k: w[offsets[k]:offsets[k] + c.shape[1] * 4 ** k].reshape(c.shape[1], 4 ** k)
            for k, c in codes.items()}


def _poim_column(weights: dict, j: int, k: int) -> np.ndarray:
    """E[s | X[j:j+k] = z] - E[s] for every z, uniform letters: each weight
    overlapping the window counts if z agrees with it there, times 1/4 per
    letter outside; weights off the window cancel."""
    Z = np.array(list(itertools.product(range(4), repeat=k)))
    q = np.zeros(len(Z))
    for m, W in weights.items():
        letters = np.array(list(itertools.product(range(4), repeat=m)))
        for i in range(max(0, j - m + 1), min(W.shape[0] - 1, j + k - 1) + 1):
            inside = [t for t in range(m) if j <= i + t < j + k]
            match = np.ones((len(letters), len(Z)), dtype=bool)
            for t in inside:
                match &= letters[:, t][:, None] == Z[:, i + t - j][None, :]
            q += (W[i] @ match) * 0.25 ** (m - len(inside)) - W[i].sum() * 0.25 ** m
    return q


def _poim(o: Oracle, inputs: dict, outputs: dict, k=6, degree=3, lam=0.1, top=20) -> None:
    """POIM columns recomputed from a separately trained k-mer scorer at five
    positions; the rest of the artifacts must agree with poim.tsv:
    q = q_prime * sqrt((1 - p) / p), p = 4^-k, rows in (position, oligomer)
    order, summary and ranking drawn from its q column."""
    S, labels = inputs["seqs.tsv"]
    art = outputs["poim-kmer"]
    table = _table(art, "poim.tsv")
    npos, nz = S.shape[1] - k + 1, 4 ** k
    oligos = ["".join(t) for t in itertools.product("ACGT", repeat=k)]
    o.exact("poim-kmer poim.tsv oligomer", table["oligomer"], oligos * npos)
    o.exact("poim-kmer poim.tsv position", table["position"],
            (str(j) for j in range(npos) for _ in range(nz)))
    q_prime = _floats(table["q_prime"]).reshape(npos, nz)
    weights = _kmer_weights(S, labels, degree, lam)
    for j in np.linspace(0, npos - 1, 5).astype(int):
        o.close(f"poim-kmer poim.tsv q_prime at position {j}", q_prime[j],
                _poim_column(weights, int(j), k))
    q = _floats(table["q"])
    o.close("poim-kmer poim.tsv q", q, q_prime.ravel() * math.sqrt((1 - 4.0 ** -k) / 4.0 ** -k))
    absq = np.abs(q).reshape(npos, nz)
    summary = _table(art, "poim_summary.tsv")
    o.close("poim-kmer poim_summary max_abs_q", _floats(summary["max_abs_q"]), absq.max(axis=1))
    o.close("poim-kmer poim_summary mean_abs_q", _floats(summary["mean_abs_q"]),
            absq.mean(axis=1))
    order = np.lexsort((np.tile(np.arange(nz), npos), np.repeat(np.arange(npos), nz),
                        -np.abs(q)))[:top]
    ranked = _table(art, "poim_top.tsv")
    o.exact("poim-kmer poim_top oligomer", ranked["oligomer"],
            (table["oligomer"][i] for i in order))
    o.exact("poim-kmer poim_top position", ranked["position"],
            (table["position"][i] for i in order))
    o.close("poim-kmer poim_top q", _floats(ranked["q"]), q[order])


ORACLES = {"tabular": _tabular, "kernel-ridge": _kernel_ridge, "poim": _poim}


def oracle(workload: str, inputs: dict, outputs: dict) -> Oracle:
    o = Oracle()
    ORACLES[workload](o, inputs, outputs)
    return o
