"""Command-line surface: artifacts, determinism, exit discipline."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import firm
from firm.cli import main

from helpers import all_pm1_rows, brute_firm_binary


def run(*argv):
    return main(list(argv))


def read_tsv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in fh]
    return header, rows


def firm_table(path):
    header, rows = read_tsv(path)
    return {r[0]: float(r[1]) for r in rows}


def write_csv(path, X, y=None, names=None):
    d = X.shape[1]
    names = names or [f"c{j+1}" for j in range(d)]
    cols = list(names) + (["label"] if y is not None else [])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(X.shape[0]):
            cells = [repr(float(v)) for v in X[i]]
            if y is not None:
                cells.append(repr(float(y[i])))
            fh.write(",".join(cells) + "\n")


class TestAnalyzeBinary:
    def test_labels_scorer_matches_brute_force(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.choice([-1.0, 1.0], size=(40, 3))
        X[0] = [1.0, -1.0, 1.0]
        X[1] = [-1.0, 1.0, -1.0]           # both values guaranteed
        y = rng.choice([-1.0, 1.0], size=40)
        inp = tmp_path / "d.csv"
        write_csv(inp, X, y, names=["a", "b", "c"])
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "binary",
                   "--scorer", "labels", "--out", str(out)) == 0
        got = firm_table(out / "firm.tsv")
        for j, name in enumerate(["a", "b", "c"]):
            assert got[name] == pytest.approx(brute_firm_binary(y, X[:, j]),
                                              abs=1e-12)
        meta = json.loads((out / "run.json").read_text())
        assert meta["command"] == "analyze"

    def test_standardize_rescales_not_reranks(self, tmp_path):
        X = all_pm1_rows(3)
        y = np.array([1.0 if (r[0] > 0 or r[1] < 0) else -1.0 for r in X])
        inp = tmp_path / "d.csv"
        write_csv(inp, X, y)
        raw_out, std_out = tmp_path / "raw", tmp_path / "std"
        assert run("analyze", "--input", str(inp), "--method", "binary",
                   "--scorer", "labels", "--out", str(raw_out)) == 0
        assert run("analyze", "--input", str(inp), "--method", "binary",
                   "--scorer", "labels", "--standardize", "--out", str(std_out)) == 0
        raw = firm_table(raw_out / "firm.tsv")
        std = firm_table(std_out / "firm.tsv")
        sd = float(np.std(y))
        for name in raw:
            assert std[name] == pytest.approx(raw[name] / sd, rel=1e-12)
        doc = json.loads((std_out / "firm.json").read_text())
        assert doc["score_sd"] == pytest.approx(sd, rel=1e-12)
        assert all("q_tilde_signed" in rec for rec in doc["results"])
        # firm.json keeps the raw importances and extras; only q_tilde_* and
        # firm.tsv are divided by the score sd, and only once
        raw_doc = json.loads((raw_out / "firm.json").read_text())
        for rec, raw_rec in zip(doc["results"], raw_doc["results"]):
            assert rec["q_signed"] == pytest.approx(raw_rec["q_signed"], rel=1e-12)
            assert rec["q_tilde_signed"] == pytest.approx(raw_rec["q_signed"] / sd,
                                                          rel=1e-12)
            assert rec["q_tilde_abs"] == pytest.approx(raw_rec["q_abs"] / sd, rel=1e-12)
            assert rec["extras"].keys() == raw_rec["extras"].keys()
            for key, value in raw_rec["extras"].items():
                assert rec["extras"][key] == pytest.approx(value, rel=1e-12)


class TestAnalyzeGaussian:
    def test_matches_sensitivity_for_diagonal_covariance(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(120, 3)) * np.array([1.0, 2.0, 0.5])
        y = X @ np.array([1.0, -0.5, 0.25]) + 0.1 * rng.normal(size=120)
        inp = tmp_path / "d.csv"
        write_csv(inp, X, y)
        diag = np.var(X, axis=0)
        covfile = tmp_path / "cov.tsv"
        covfile.write_text(
            "\n".join("\t".join(repr(float(v)) for v in row)
                      for row in np.diag(diag)) + "\n")
        g_out, s_out = tmp_path / "g", tmp_path / "s"
        assert run("analyze", "--input", str(inp), "--method", "gaussian",
                   "--scorer", "train:least_squares",
                   "--covariance", f"file:{covfile}", "--out", str(g_out)) == 0
        assert run("analyze", "--input", str(inp), "--method", "sensitivity",
                   "--scorer", "train:least_squares", "--out", str(s_out)) == 0
        g = firm_table(g_out / "firm.tsv")
        s = firm_table(s_out / "firm.tsv")
        for name in g:
            assert abs(g[name]) == pytest.approx(abs(s[name]), abs=1e-9)

    @pytest.mark.parametrize("method", ["gaussian", "sensitivity"])
    def test_scores_only_when_standardizing(self, tmp_path, monkeypatch, method):
        def no_scores(scorer, X):
            raise firm.FirmError("scores requested")

        monkeypatch.setattr("firm.cli.score_many", no_scores)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 2))
        inp = tmp_path / "d.csv"
        write_csv(inp, X, X[:, 0] - X[:, 1])
        argv = ["analyze", "--input", str(inp), "--method", method,
                "--scorer", "train:ridge"]
        assert run(*argv, "--out", str(tmp_path / "raw")) == 0
        assert run(*argv, "--standardize", "--out", str(tmp_path / "std")) == 1

    def test_empirical_method_writes_curves(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 2))
        y = X[:, 0] + rng.normal(size=60)
        inp = tmp_path / "d.csv"
        write_csv(inp, X, y, names=["u", "v"])
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "empirical",
                   "--scorer", "train:least_squares", "--bins", "6",
                   "--out", str(out)) == 0
        for name in ("u", "v"):
            header, rows = read_tsv(out / "curves" / f"{name}.tsv")
            assert header == ["bin_lo", "bin_hi", "prob", "q_hat", "count"]
            assert sum(int(r[4]) for r in rows) == 60

    def test_slope_method(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 2))
        y = 2.0 * X[:, 0] + 5.0
        inp = tmp_path / "d.csv"
        write_csv(inp, X, y, names=["u", "v"])
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "slope",
                   "--scorer", "train:least_squares", "--out", str(out)) == 0
        got = firm_table(out / "firm.tsv")
        assert got["u"] == pytest.approx(2.0 * np.std(X[:, 0]), rel=1e-9)


class TestAnalyzeSequence:
    @staticmethod
    def write_seqs(path, rng, n=40, L=8):
        lines = []
        for _ in range(n):
            s = "".join(rng.choice(list("ACGT"), size=L))
            label = "+1" if s[2] == "G" else "-1"
            lines.append(f"{s}\t{label}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_poim_artifacts(self, tmp_path):
        rng = np.random.default_rng(4)
        inp = tmp_path / "seqs.tsv"
        self.write_seqs(inp, rng)
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "poim",
                   "--scorer", "train:kmer", "--degree", "2", "--k", "2",
                   "--top", "5", "--out", str(out)) == 0
        header, rows = read_tsv(out / "poim.tsv")
        assert header == ["k", "position", "oligomer", "q_prime", "q"]
        assert len(rows) == 16 * 7
        _, toprows = read_tsv(out / "poim_top.tsv")
        assert len(toprows) == 5

    def test_weight_budget_fails_with_one_line(self, tmp_path, capsys):
        inp = tmp_path / "seqs.tsv"
        self.write_seqs(inp, np.random.default_rng(5), n=3, L=20)
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "poim",
                   "--scorer", "train:kmer", "--degree", "12", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "weights" in err
        assert not out.exists()

    def test_negative_top_fails_with_one_line(self, tmp_path, capsys):
        inp = tmp_path / "seqs.tsv"
        self.write_seqs(inp, np.random.default_rng(6), n=4, L=6)
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "poim",
                   "--scorer", "train:kmer", "--degree", "1", "--k", "2",
                   "--top", "-1", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "top" in err
        assert not out.exists()

    def test_poim_requires_kmer_scorer(self, tmp_path, capsys):
        inp = tmp_path / "seqs.tsv"
        inp.write_text("ACGT\t+1\nTTTT\t-1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "poim",
                   "--scorer", "labels", "--out", str(out)) != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


class TestConfigValidation:
    def test_gaussian_rejects_label_oracle(self, tmp_path, capsys):
        inp = tmp_path / "d.csv"
        inp.write_text("a,label\n1,1\n-1,-1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "gaussian",
                   "--scorer", "labels", "--out", str(out)) != 0
        assert "differentiable" in capsys.readouterr().err
        assert not out.exists()

    def test_tabular_method_rejects_kmer_scorer(self, tmp_path, capsys):
        inp = tmp_path / "d.csv"
        inp.write_text("a,label\n1,1\n-1,-1\n", encoding="utf-8")
        assert run("analyze", "--input", str(inp), "--method", "binary",
                   "--scorer", "train:kmer", "--out", str(tmp_path / "o")) != 0
        assert "sequence scorer" in capsys.readouterr().err

    def test_failure_leaves_no_partial_artifacts(self, tmp_path):
        inp = tmp_path / "d.csv"
        inp.write_text("a,b,label\n1,x,1\n", encoding="utf-8")  # bad cell
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "binary",
                   "--out", str(out)) != 0
        assert not out.exists()


    def test_header_only_csv_fails_with_one_line(self, tmp_path):
        # a child process, so that a warning would reach the real stderr
        inp = tmp_path / "d.csv"
        inp.write_text("a,label\n\n", encoding="utf-8")
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(firm.__file__))}
        proc = subprocess.run(
            [sys.executable, "-m", "firm.cli", "analyze", "--input", str(inp),
             "--method", "binary", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {inp}: no data rows\n"
        assert not out.exists()

    def test_cell_only_python_float_reads_gives_same_bytes(self, tmp_path):
        # '1_0' sends the file down the per-cell parse; '10' takes the fast one
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2))
        y = X[:, 0] + rng.normal(size=30)
        write_csv(tmp_path / "d.csv", X, y)
        lines = (tmp_path / "d.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        rest = lines[5].split(",", 1)[1]
        for name, cell in (("plain", "10"), ("underscore", "1_0")):
            lines[5] = f"{cell},{rest}"
            inp = tmp_path / f"{name}.csv"
            inp.write_text("".join(lines), encoding="utf-8")
            assert run("analyze", "--input", str(inp), "--method", "slope",
                       "--scorer", "train:ridge", "--out", str(tmp_path / name)) == 0
        assert ((tmp_path / "plain" / "firm.tsv").read_bytes()
                == (tmp_path / "underscore" / "firm.tsv").read_bytes())

    def test_failed_write_removes_its_temp_file(self, tmp_path, capsys):
        inp = tmp_path / "d.csv"
        inp.write_text("a,label\n1,1\n-1,-1\n", encoding="utf-8")
        out = tmp_path / "out"
        (out / "firm.tsv").mkdir(parents=True)  # the rename onto it fails
        assert run("analyze", "--input", str(inp), "--method", "binary",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not list(out.rglob("*.tmp.*"))

    def test_overflowing_scorer_fails_with_one_line(self, tmp_path):
        # run in a child process so numpy warnings reach the real stderr
        rng = np.random.default_rng(9)
        X = rng.normal(scale=2.5, size=(40, 3))
        inp = tmp_path / "d.csv"
        write_csv(inp, X, X[:, 0] + rng.normal(size=40))
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(firm.__file__))}
        proc = subprocess.run(
            [sys.executable, "-m", "firm.cli", "analyze", "--input", str(inp),
             "--method", "slope", "--scorer", "train:kernel_ridge",
             "--kernel", "polynomial", "--degree", "200", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert not (out / "firm.tsv").exists()


    @pytest.mark.parametrize("args,param", [
        (["slope", "train:kernel_ridge", "--kernel", "gaussian:abc"], "gamma"),
        (["slope", "train:kernel_ridge", "--kernel", "polynomial:xyz"], "offset"),
        (["slope", "train:kernel_ridge", "--kernel", "gaussian:inf"], "gamma"),
        (["slope", "train:kernel_ridge", "--lambda", "nan"], "lambda"),
        (["slope", "train:kernel_ridge", "--lambda", "inf"], "lambda"),
        (["slope", "train:ridge", "--lambda", "nan"], "lambda"),
        (["poim", "train:kmer", "--lambda", "inf"], "lambda"),
    ])
    def test_malformed_number_fails_with_one_line(self, tmp_path, capsys, args, param):
        method, scorer, *rest = args
        if method == "poim":
            inp = tmp_path / "seqs.tsv"
            TestAnalyzeSequence.write_seqs(inp, np.random.default_rng(3))
        else:
            inp = tmp_path / "d.csv"
            X = np.random.default_rng(3).normal(size=(20, 2))
            write_csv(inp, X, X[:, 0])
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", method,
                   "--scorer", scorer, *rest, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and param in err
        assert not out.exists()

    def test_singular_solve_fails_with_one_line(self, tmp_path):
        # duplicated rows make the kernel matrix singular once lambda underflows
        X = np.random.default_rng(3).normal(size=(10, 2))
        inp = tmp_path / "d.csv"
        write_csv(inp, np.vstack([X, X]), np.tile(X[:, 0], 2))
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(firm.__file__))}
        proc = subprocess.run(
            [sys.executable, "-m", "firm.cli", "analyze", "--input", str(inp),
             "--method", "slope", "--scorer", "train:kernel_ridge",
             "--lambda", "1e-300", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr == "error: numerical failure: Singular matrix\n"
        assert not out.exists()

    def test_memory_error_fails_with_one_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 5.4 GiB")

        monkeypatch.setattr("firm.cli.train_ridge", exhausted)
        inp = tmp_path / "d.csv"
        inp.write_text("a,label\n1,1\n-1,-1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "slope",
                   "--scorer", "train:ridge", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 5.4 GiB\n"
        assert not out.exists()


class TestCovarianceCommand:
    def test_empirical_near_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(4000, 3))
        inp = tmp_path / "d.csv"
        write_csv(inp, X)
        out = tmp_path / "out"
        assert run("covariance", "--input", str(inp), "--out", str(out)) == 0
        header, rows = read_tsv(out / "covariance.tsv")
        got = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.abs(got - np.eye(3)).max() < 0.1

    def test_shrunk_is_positive_definite_when_n_below_d(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 9))
        inp = tmp_path / "d.csv"
        write_csv(inp, X)
        out = tmp_path / "out"
        assert run("covariance", "--input", str(inp),
                   "--covariance", "shrunk", "--out", str(out)) == 0
        _, rows = read_tsv(out / "covariance.tsv")
        sigma = np.array([[float(v) for v in r[1:]] for r in rows])
        np.linalg.cholesky(sigma)
        doc = json.loads((out / "covariance.json").read_text())
        assert 0.0 <= doc["shrinkage_lambda"] <= 1.0

    @pytest.mark.parametrize("text,message", [
        ("1\t0\nnot_a_number\t1\n", "line 2 is not numeric"),
        ("1,,0.5\n0.5,2\n", "line 1 has an empty cell"),
    ], ids=["non-numeric", "empty-cell"])
    def test_malformed_covariance_file(self, tmp_path, capsys, text, message):
        inp = tmp_path / "d.csv"
        inp.write_text("a,b\n1,2\n3,4\n5,6\n", encoding="utf-8")
        covfile = tmp_path / "cov.tsv"
        covfile.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert run("covariance", "--input", str(inp),
                   "--covariance", f"file:{covfile}", "--out", str(out)) != 0
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert not out.exists()


class TestExperiments:
    def test_boolean_grids(self, tmp_path):
        out = tmp_path / "bool"
        assert run("experiment-boolean", "--out", str(out)) == 0
        header, rows = read_tsv(out / "grid_pairs_labels.tsv")
        assert header == ["signs", "x1^x2", "x1^x3", "x2^x3"]
        assert [r[0] for r in rows] == ["++", "+-", "-+", "--"]
        _, flat = read_tsv(out / "firm_boolean.tsv")
        assert len(flat) == 2 * (6 + 12)

    def test_gaussian_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        for out in (out1, out2):
            assert run("experiment-gaussian", "--seed", "42",
                       "--n-per-class", "200", "--out", str(out)) == 0
        for rel in ("firm.tsv", "run.json", "curves/x1.tsv", "curves/x2.tsv",
                    "curves/x3.tsv"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_gaussian_different_seed_differs(self, tmp_path):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        assert run("experiment-gaussian", "--seed", "1", "--n-per-class", "200",
                   "--out", str(out1)) == 0
        assert run("experiment-gaussian", "--seed", "2", "--n-per-class", "200",
                   "--out", str(out2)) == 0
        assert (out1 / "firm.tsv").read_bytes() != (out2 / "firm.tsv").read_bytes()

    def test_sequence_small_scale_artifacts(self, tmp_path):
        out = tmp_path / "seq"
        assert run("experiment-sequence", "--n-per-class", "30",
                   "--seq-len", "20", "--degree", "2", "--out", str(out)) == 0
        for rel in ("poim_series.tsv", "weight_series.tsv", "poim_summary.tsv",
                    "poim_top.tsv", "weight_by_position.tsv", "run.json"):
            assert (out / rel).exists()
        header, rows = read_tsv(out / "poim_series.tsv")
        assert len(rows) == 20 - 7 + 1

    @pytest.mark.parametrize("argv", [
        ("experiment-gaussian", "--n-per-class", "-1"),
        ("experiment-sequence", "--n-per-class", "-1"),
        ("experiment-sequence", "--seq-len", "6"),
        ("experiment-sequence", "--n-per-class", "10", "--seq-len", "10",
         "--degree", "1", "--top", "-1"),
    ], ids=["gaussian-n", "sequence-n", "sequence-len", "sequence-top"])
    def test_bad_sizes_fail_cleanly(self, tmp_path, capsys, argv):
        out = tmp_path / "exp"
        assert run(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_sequence_budget_violation_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "seq"
        assert run("experiment-sequence", "--n-per-class", "10",
                   "--seq-len", "700", "--degree", "1",
                   "--out", str(out)) != 0
        assert "cells" in capsys.readouterr().err
        assert not out.exists()
