"""Command-line surface: artifacts, determinism, exit discipline."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import firm
from firm import KernelSpec
from firm.cli import main, parse_kernel

from helpers import all_pm1_rows, brute_firm_binary, shrinkage_with_squared_copy


def run(*argv):
    return main(list(argv))


def run_child(*argv):
    """The CLI in a child process, so that a warning would reach the real stderr."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(firm.__file__))}
    return subprocess.run([sys.executable, "-m", "firm.cli", *argv],
                          capture_output=True, text=True, env=env)


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

    def test_repeated_row_keeps_each_label(self, tmp_path):
        # row (1, 1) appears twice with opposite labels; a table keyed by
        # the row would score both copies alike and flip the sign of a
        X = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        inp = tmp_path / "d.csv"
        write_csv(inp, X, y, names=["a", "b"])
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "binary",
                   "--scorer", "labels", "--out", str(out)) == 0
        doc = json.loads((out / "firm.json").read_text())
        assert [rec["feature"] for rec in doc["results"]] == ["a", "b"]
        for j, rec in enumerate(doc["results"]):
            assert rec["q_signed"] == pytest.approx(brute_firm_binary(y, X[:, j]),
                                                    abs=1e-12)
        assert doc["results"][0]["q_signed"] > 0

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
        # the divided columns say so in firm.tsv, as in firm.json
        assert read_tsv(raw_out / "firm.tsv")[0] == ["feature", "q_signed", "q_abs", "method"]
        assert read_tsv(std_out / "firm.tsv")[0] == ["feature", "q_tilde_signed",
                                                     "q_tilde_abs", "method"]
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

    def test_standardize_refuses_constant_scores(self, tmp_path, capsys):
        """Labels all 0.1 have a computed sd of 1.39e-17, not 0; the exact
        min = max test refuses them before any file is written."""
        X = all_pm1_rows(3)[:7]
        y = np.full(7, 0.1)
        assert np.std(y) > 0.0
        inp = tmp_path / "d.csv"
        write_csv(inp, X, y)
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "binary", "--scorer", "labels",
                   "--standardize", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: zero score variance\n"
        assert not out.exists()

    def test_standardize_takes_the_sd_of_tiny_scores(self, tmp_path):
        """Labels of 1e-310 and 2e-310 have sd 5e-311, which np.std gives as
        0.0: their squared deviations underflow. The sd is taken on the
        labels scaled by a power of two, then scaled back."""
        inp = tmp_path / "d.csv"
        inp.write_text("a,label\n1,1e-310\n-1,2e-310\n1,2e-310\n-1,1e-310\n")
        assert np.std([1e-310, 2e-310, 2e-310, 1e-310]) == 0.0
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "binary", "--scorer", "labels",
                   "--standardize", "--out", str(out)) == 0
        assert json.loads((out / "firm.json").read_text())["score_sd"] == 5e-311


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

    def test_constant_labels_through_kernel_ridge(self, tmp_path):
        # 1200 rows at the default lambda are sized for the conjugate-gradient
        # path; the right-hand side y - mean(y) is exactly zero
        X = np.random.default_rng(5).normal(size=(1200, 6))
        inp = tmp_path / "d.csv"
        write_csv(inp, X, np.full(1200, 2.5))
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "sensitivity",
                   "--scorer", "train:kernel_ridge", "--kernel", "gaussian:1.0",
                   "--out", str(out)) == 0
        assert set(firm_table(out / "firm.tsv").values()) == {0.0}

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

    def test_bad_row_names_file_and_file_line(self, tmp_path, capsys):
        inp = tmp_path / "seqs.tsv"
        inp.write_text("ACGT\t+1\n\nACG\t-1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "poim",
                   "--scorer", "train:kmer", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {inp}: length mismatch at line 3: expected 4, got 3\n")
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

    @pytest.mark.parametrize("argv", [
        ["covariance", "--input", "d.csv"], ["experiment-boolean"],
    ], ids=["covariance", "experiment-boolean"])
    def test_seed_flag_only_where_it_is_read(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as info:
            run(*argv, "--seed", "1", "--out", str(tmp_path / "out"))
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("experiment-sequence", "--k", "7"),
        ("experiment-sequence", "--degree", "3"),
        ("experiment-sequence", "--lambda", "0.1"),
        ("experiment-sequence", "--top", "20"),
        ("experiment-boolean", "--lambda", "0.1"),
        ("experiment-gaussian", "--bins", "5"),
    ], ids=["sequence-k", "sequence-degree", "sequence-lambda", "sequence-top",
            "boolean-lambda", "gaussian-bins"])
    def test_model_settings_of_studies_are_fixed(self, tmp_path, capsys,
                                                 command, flag, value):
        with pytest.raises(SystemExit) as info:
            run(command, flag, value, "--out", str(tmp_path / "out"))
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        inp = tmp_path / "d.csv"
        inp.write_text("a,label\n\n", encoding="utf-8")
        out = tmp_path / "out"
        proc = run_child("analyze", "--input", str(inp), "--method", "binary",
                         "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr == f"error: {inp}: no data rows\n"
        assert not out.exists()

    def test_whitespace_only_line_gives_same_bytes(self, tmp_path):
        """A whitespace-only line sends the file to the second reading, which
        gives the bytes of the clean file."""
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2))
        y = X[:, 0] + rng.normal(size=30)
        write_csv(tmp_path / "d.csv", X, y)
        lines = (tmp_path / "d.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        for name, extra in (("plain", []), ("spaced", [" \t\n"])):
            inp = tmp_path / f"{name}.csv"
            inp.write_text("".join(lines[:5] + extra + lines[5:]), encoding="utf-8")
            assert run("analyze", "--input", str(inp), "--method", "slope",
                       "--scorer", "train:ridge", "--out", str(tmp_path / name)) == 0
        assert ((tmp_path / "plain" / "firm.tsv").read_bytes()
                == (tmp_path / "spaced" / "firm.tsv").read_bytes())

    def test_underscore_cell_fails_with_one_line(self, tmp_path):
        """'1_0', which Python float reads as 10, is refused."""
        inp = tmp_path / "d.csv"
        inp.write_text("a,label\n1,1\n1_0,-1\n-1,1\n", encoding="utf-8")
        out = tmp_path / "out"
        proc = run_child("analyze", "--input", str(inp), "--method", "binary",
                         "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr == ("error: cell at line 3, column 'a' does not parse "
                               "as a number: '1_0'\n")
        assert not out.exists()

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
        rng = np.random.default_rng(9)
        X = rng.normal(scale=2.5, size=(40, 3))
        inp = tmp_path / "d.csv"
        write_csv(inp, X, X[:, 0] + rng.normal(size=40))
        out = tmp_path / "out"
        proc = run_child("analyze", "--input", str(inp), "--method", "slope",
                         "--scorer", "train:kernel_ridge", "--kernel", "polynomial",
                         "--degree", "200", "--out", str(out))
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

    @pytest.mark.parametrize("kernel", [
        "gaussian:1_0", "gaussian:\u0661", "polynomial:\u0661", "gaussian:\uff11",
        "gaussian:", "polynomial: ", "gaussian:1,2", "polynomial:1,",
    ], ids=["underscore", "arabic-indic", "arabic-indic-offset", "full-width",
            "empty", "blank", "two-cells", "trailing-comma"])
    def test_kernel_value_outside_the_number_grammar(self, tmp_path, capsys, kernel):
        """--kernel's value is one cell of the data files' number grammar."""
        name, _, raw = kernel.partition(":")
        inp = tmp_path / "d.csv"
        X = np.random.default_rng(3).normal(size=(20, 2))
        write_csv(inp, X, X[:, 0])
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "slope",
                   "--scorer", "train:kernel_ridge", "--kernel", kernel, "--out", str(out)) == 1
        param = {"gaussian": "gamma", "polynomial": "offset"}[name]
        assert capsys.readouterr().err == f"error: kernel {param} must be a number, got {raw!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kernel,want", [
        ("gaussian", KernelSpec.gaussian(1.0)), ("gaussian: 2.5 ", KernelSpec.gaussian(2.5)),
        ("gaussian:1E-1", KernelSpec.gaussian(0.1)), ("polynomial", KernelSpec.polynomial(3)),
        ("polynomial:+0", KernelSpec.polynomial(3, 0.0)),
    ])
    def test_kernel_value_in_the_number_grammar(self, kernel, want):
        assert parse_kernel(kernel, 3) == want

    def test_singular_solve_fails_with_one_line(self, tmp_path):
        # duplicated rows make the kernel matrix singular once lambda underflows
        X = np.random.default_rng(3).normal(size=(10, 2))
        inp = tmp_path / "d.csv"
        write_csv(inp, np.vstack([X, X]), np.tile(X[:, 0], 2))
        out = tmp_path / "out"
        proc = run_child("analyze", "--input", str(inp), "--method", "slope",
                         "--scorer", "train:kernel_ridge", "--lambda", "1e-300",
                         "--out", str(out))
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


    @pytest.mark.parametrize("name,data,argv", [
        ("d.csv", b"a\xe9,label\n1,1\n-1,-1\n", ["--method", "binary"]),
        ("s.tsv", b"\xff\xfeACGT\t+1\nTTGA\t-1\n",
         ["--method", "poim", "--scorer", "train:kmer", "--degree", "1", "--k", "1"]),
    ], ids=["csv", "tsv"])
    def test_not_utf8_fails_with_one_line(self, tmp_path, capsys, name, data, argv):
        inp = tmp_path / name
        inp.write_bytes(data)
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), *argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {inp}: not UTF-8 text (") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name,text,argv", [
        ("in.csv", "a,b,label\n0,1,1\n1,0,-1\n2,2,1\n1,2,-1\n",
         ["analyze", "--input", "{}", "--method", "slope"]),
        ("in.tsv", "ACGT\t+1\nTTGA\t-1\nGATT\t+1\nCCAT\t-1\n",
         ["analyze", "--input", "{}", "--method", "poim", "--scorer", "train:kmer",
          "--degree", "1", "--k", "1"]),
        ("cov.tsv", "2\t1\n1\t2\n",
         ["covariance", "--input", "{csv}", "--covariance", "file:{}"]),
    ], ids=["csv", "tsv", "covariance"])
    def test_byte_order_mark_gives_same_bytes(self, tmp_path, name, text, argv):
        csv = tmp_path / "d.csv"
        csv.write_text("a,b\n1,2\n3,5\n4,4\n", encoding="utf-8")
        inp = tmp_path / name
        argv = [a.format(inp, csv=csv) for a in argv]
        trees = []
        for tag, bom in (("plain", ""), ("bom", "\ufeff")):
            inp.write_text(bom + text, encoding="utf-8")
            out = tmp_path / tag
            assert run(*argv, "--out", str(out)) == 0
            trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")})
        assert trees[0] and trees[0] == trees[1]

    def test_overflowing_column_mean_fails_with_one_line(self, tmp_path, capsys):
        inp = tmp_path / "d.csv"
        inp.write_text("a,b,label\n0,1.7976931348623157e308,1\n"
                       "1,1.7976931348623157e308,-1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "binary",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: mean of column 'b' overflows\n"
        assert not out.exists()

    @pytest.mark.parametrize("header,message", [
        ("../../escaped,b,y", "column name '../../escaped' holds '/'"),
        ("a/b,c,y", "column name 'a/b' holds '/' and cannot name a curve file"),
        ("../firm,c,y", "column name '../firm' holds '/'"),
        ("a,a,y", "column name 'a' is empty or repeated"),
        (",b,y", "column name '' is empty or repeated"),
        ("a\tb,c,y", "column name 'a\\tb' holds a tab, line break or NUL"),
        ("a\0b,c,y", "column name 'a\\x00b' holds a tab, line break or NUL"),
    ], ids=["escaping", "slash", "parent", "repeated", "empty", "tab", "nul"])
    def test_column_name_unfit_for_a_file_fails_with_one_line(self, tmp_path, capsys,
                                                              header, message):
        inp = tmp_path / "d.csv"
        inp.write_text(f"{header}\n0,1,1\n1,0,-1\n2,2,1\n", encoding="utf-8")
        assert run("analyze", "--input", str(inp), "--method", "empirical", "--bins", "2",
                   "--out", str(tmp_path / "run" / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert [p.name for p in tmp_path.rglob("*")] == ["d.csv"]

    def test_column_name_with_slash_is_a_cell_for_slope(self, tmp_path):
        inp = tmp_path / "d.csv"
        inp.write_text("a/b,c,y\n0,1,1\n1,0,-1\n2,2,1\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", "slope",
                   "--out", str(out)) == 0
        assert list(firm_table(out / "firm.tsv")) == ["a/b", "c"]
        assert sorted(p.name for p in out.iterdir()) == ["firm.json", "firm.tsv", "run.json"]

    @pytest.mark.parametrize("method", ["binary", "empirical", "gaussian", "sensitivity",
                                        "slope"])
    @pytest.mark.parametrize("rows,value", [(40, 3.0), (7, 0.1)])
    def test_constant_column_is_named(self, tmp_path, capsys, method, rows, value):
        """Every method refuses a constant column with the same line, also
        where the column's computed variance is not 0 (seven 0.1s)."""
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.normal(size=rows), np.full(rows, value),
                             rng.normal(size=rows)])
        inp = tmp_path / "d.csv"
        write_csv(inp, X, X[:, 0] + X[:, 2], names=["a", "b", "c"])
        out = tmp_path / "out"
        assert run("analyze", "--input", str(inp), "--method", method,
                   "--scorer", "train:ridge", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: feature b is constant\n"
        assert not out.exists()


class TestCovarianceCommand:
    @pytest.mark.parametrize("choice", ["empirical", "shrunk"])
    @pytest.mark.parametrize("rows,value", [(40, 3.0), (7, 0.1)])
    def test_constant_column_is_named(self, tmp_path, capsys, choice, rows, value):
        """Both estimators refuse a constant column with the analyze line,
        also where its computed variance is not 0 (seven 0.1s)."""
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.normal(size=rows), np.full(rows, value),
                             rng.normal(size=rows)])
        inp = tmp_path / "d.csv"
        write_csv(inp, X, names=["a", "b", "c"])
        out = tmp_path / "out"
        assert run("covariance", "--input", str(inp), "--covariance", choice,
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: feature b is constant\n"
        assert not out.exists()

    def test_written_covariance_reads_back(self, tmp_path):
        """`--covariance file:` on what `covariance` wrote gives the bytes of
        `--covariance empirical`."""
        rng = np.random.default_rng(10)
        X = rng.normal(size=(80, 3))
        inp = tmp_path / "t.csv"
        write_csv(inp, X, X @ [1.0, -0.5, 0.2] + rng.normal(size=80), names=["p", "q", "r"])
        cov = tmp_path / "cov"
        assert run("covariance", "--input", str(inp), "--has-labels", "--out", str(cov)) == 0
        argv = ["analyze", "--input", str(inp), "--method", "gaussian", "--scorer", "train:ridge"]
        assert run(*argv, "--covariance", f"file:{cov / 'covariance.tsv'}",
                   "--out", str(tmp_path / "file")) == 0
        assert run(*argv, "--covariance", "empirical", "--out", str(tmp_path / "emp")) == 0
        for name in ("firm.tsv", "firm.json"):
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "emp" / name).read_bytes()

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

    def test_shrunk_numbers_are_those_of_the_squared_copy(self, tmp_path):
        """The centered data are squared in place; every written number is
        bitwise that of squaring them into a second copy."""
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3)) * [1.0, 3.0, 0.5] + [0.0, 10.0, -2.0]
        X[:, 2] += 0.4 * X[:, 0]
        inp = tmp_path / "d.csv"
        write_csv(inp, X)
        out = tmp_path / "out"
        assert run("covariance", "--input", str(inp), "--covariance", "shrunk",
                   "--out", str(out)) == 0
        sigma, lam = shrinkage_with_squared_copy(X)
        _, rows = read_tsv(out / "covariance.tsv")
        assert [r[1:] for r in rows] == [[repr(v) for v in row] for row in sigma.tolist()]
        assert json.loads((out / "covariance.json").read_text())["shrinkage_lambda"] == lam

    def test_column_name_with_tab_fails_with_one_line(self, tmp_path, capsys):
        inp = tmp_path / "d.csv"
        inp.write_text("a\tb,c\n0,1\n1,0\n2,2\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("covariance", "--input", str(inp), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: column name 'a\\tb' holds a tab, line break or NUL\n")
        assert not out.exists()

    @pytest.mark.parametrize("csv,cov,message", [
        ("a,b\n1,2\n3,1_0\n5,6\n", "1\t0\n0\t1\n",
         "cell at line 3, column 'b' does not parse as a number: '1_0'"),
        ("a,b\n1,2\n3,4\n5,6\n", "1\t0\n0\t1_0\n", "{cov}: line 2 is not numeric"),
    ], ids=["in-csv", "in-covariance-file"])
    def test_underscore_number_refused(self, tmp_path, capsys, csv, cov, message):
        """The data and the covariance file share load_tabular's grammar."""
        inp, covfile, out = tmp_path / "d.csv", tmp_path / "cov.tsv", tmp_path / "out"
        inp.write_text(csv, encoding="utf-8")
        covfile.write_text(cov, encoding="utf-8")
        assert run("covariance", "--input", str(inp),
                   "--covariance", f"file:{covfile}", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message.format(cov=covfile)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ("1\t0\nnot_a_number\t1\n", "line 2 is not numeric"),
        ("1,,0.5\n0.5,2\n", "line 1 has an empty cell"),
        ("1\t0\n0\t\udce91\n", "cov.tsv: not UTF-8 text ("),
        ("1\t2\n2\t1\n", "cov.tsv: covariance is not positive semidefinite "
                          "(smallest eigenvalue -1.0"),
        ("1\t2\n0\t1\n", "cov.tsv: covariance is not symmetric"),
        ("-1\t0\n0\t1\n", "cov.tsv: covariance has a negative diagonal entry"),
        ("#\ta\tc\na\t1\t0\nc\t0\t1\n", "cov.tsv: covariance name 2 is 'c', "
                                         "data column 2 is 'b'"),
        ("#\ta\tb\na\t1\t0\nc\t0\t1\n", "cov.tsv: covariance name 2 is 'c', "
                                         "data column 2 is 'b'"),
        ("#\ta\na\t1\n", "cov.tsv: covariance name 2 is None, data column 2 is 'b'"),
    ], ids=["non-numeric", "empty-cell", "not-utf8", "not-psd", "asymmetric",
            "negative-diagonal", "header-name", "row-name", "missing-name"])
    def test_malformed_covariance_file(self, tmp_path, capsys, text, message):
        inp = tmp_path / "d.csv"
        inp.write_text("a,b\n1,2\n3,4\n5,6\n", encoding="utf-8")
        covfile = tmp_path / "cov.tsv"
        covfile.write_bytes(text.encode("utf-8", "surrogateescape"))
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
                   "--seq-len", "20", "--out", str(out)) == 0
        for rel in ("poim_series.tsv", "weight_series.tsv", "poim_summary.tsv",
                    "poim_top.tsv", "weight_by_position.tsv", "run.json"):
            assert (out / rel).exists()
        header, rows = read_tsv(out / "poim_series.tsv")
        assert len(rows) == 20 - 7 + 1

    @pytest.mark.parametrize("argv", [
        ("experiment-gaussian", "--n-per-class", "-1"),
        ("experiment-sequence", "--n-per-class", "-1"),
        ("experiment-sequence", "--seq-len", "6"),
    ], ids=["gaussian-n", "sequence-n", "sequence-len"])
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
                   "--seq-len", "700", "--out", str(out)) != 0
        assert "cells" in capsys.readouterr().err
        assert not out.exists()


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What the `firm` console script runs, then this process's BLAS setting and
# thread count on one line.
CONSOLE_SCRIPT = """
import os, sys
import firm
assert "numpy" not in sys.modules, "importing the package loaded numpy"
from firm.cli import main
code = main(sys.argv[1:])
print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir("/proc/self/task")))
sys.exit(code)
"""


def test_command_runs_one_blas_thread_unless_told_otherwise(tmp_path):
    """With the thread variables unset, the command pins one BLAS thread
    before numpy loads: one thread in all, and the bytes of a run that set
    them to 1. A count set in the environment is kept."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(400, 6))
    write_csv(tmp_path / "d.csv", X, X @ rng.normal(size=6) + rng.normal(size=400))
    runs = {}
    for setting in ("unset", "1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(firm.__file__))
        if setting != "unset":
            env.update(dict.fromkeys(BLAS_VARS, setting))
        out = tmp_path / setting
        proc = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, "analyze",
                               "--input", str(tmp_path / "d.csv"), "--method", "gaussian",
                               "--scorer", "train:ridge", "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs[setting] = (proc.stdout.split(),
                         {p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs["unset"][0] == ["1", "1"]
    assert runs["unset"][1] == runs["1"][1]
    assert runs["2"][0][0] == "2"
