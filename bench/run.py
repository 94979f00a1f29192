"""Benchmark of whole `firm` CLI runs and of each layer, on seeded inputs.

    python3 bench/run.py --workload {tabular,kernel-ridge,poim} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source tree (the one holding `src/firm`). Inputs are
generated from the seed into `.bench_work/` under that root, outside the
timed region. Each pass runs the workload's fixed list of CLI invocations in
a fresh interpreter (`passrun.py`), each into a fresh output directory;
passes repeat until `--seconds` have gone by. Every pass's outputs are
checked (see `check.py`); a failed check makes the run exit 1.

`--trace 0` reports the end-to-end metrics: the median pass wall time, the
median set-up time of a fresh interpreter up to an imported `firm.cli`, and
the median peak RSS of a pass. `--trace 1` alternates untraced and traced
passes and reports per-layer self times and sizes from the traced ones,
plus the tracing overhead. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines above it print
every metric by name and unit, the environment and the input hashes. A
fuller record goes to `.bench_work/results/`.

`--record` writes the reference fingerprint of the seed's outputs to
`bench/reference/` instead of checking against it.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every pass: one BLAS thread keeps
# the artifacts' bytes independent of the core count and the timings steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(BENCH, "reference")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]

MIN_PASSES = 3          # even if --seconds is already used up; one of each kind
SETUP_SPAWNS = 2        # import-only interpreters spawned before each pass
PASS_TIMEOUT = 150.0    # seconds; a hung pass is killed and counted as failed

# (layer, metrics it reports: (name, unit)). Order is the print order.
LAYER_METRICS = [
    ("parse", [("busy_s", "s"), ("calls", "count"), ("bytes", "bytes"),
               ("cells", "count"), ("mb_per_s", "MB/s")]),
    ("covariance", [("busy_s", "s"), ("calls", "count")]),
    ("train", [("busy_s", "s"), ("calls", "count"), ("rows", "count"),
               ("features", "count"), ("design_mb", "MB")]),
    ("score", [("busy_s", "s"), ("calls", "count"), ("rows", "count")]),
    ("importance", [("busy_s", "s"), ("calls", "count"), ("cells", "count")]),
    ("rank", [("busy_s", "s"), ("cells", "count")]),
    ("emit.format", [("busy_s", "s"), ("rows", "count"), ("bytes", "bytes")]),
    ("emit.write", [("busy_s", "s"), ("files", "count"), ("bytes", "bytes")]),
    ("cli", [("busy_s", "s")]),
    ("experiments", [("busy_s", "s")]),
]


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the tree being measured, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


def spawn(config_path: str) -> tuple[subprocess.Popen, float]:
    """Start a pass interpreter; return it and its set-up seconds (spawn to
    `ready`). Raises RuntimeError if `firm.cli` does not import."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", os.path.join(BENCH, "passrun.py"),
                             SRC, config_path],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.communicate()
        raise RuntimeError(f"the pass interpreter did not import firm.cli "
                           f"(exit code {proc.returncode})")
    return proc, setup


def load_reference(workload: str, seed: int) -> dict | None:
    path = os.path.join(REFERENCE, f"{workload}-seed{seed}.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Checks each pass's artifact sets. The first complete pass is checked
    against the references and the oracles; later passes must reproduce its
    bytes exactly."""

    def __init__(self, workload: str, seed: int, manifest: dict):
        spec = workloads.WORKLOADS[workload]
        self.workload, self.tags = workload, [tag for tag, _ in spec["invocations"]]
        own = load_reference(workload, seed)
        base = load_reference(workload, 0)
        self.problems: list[str] = []
        if own is not None and own["inputs"] != manifest:
            # The generator no longer yields the bytes the reference was made from.
            self.problems.append(f"inputs differ from those of the seed-{seed} reference")
            own = None
        self.references = {}   # tag -> (fingerprint, source seed)
        self.shapes = {}       # tag -> seed-0 fingerprint, for shape only
        for tag in self.tags:
            if own is not None:
                self.references[tag] = (own["invocations"][tag], seed)
            elif base is not None and tag in spec.get("seed_free", ()):
                self.references[tag] = (base["invocations"][tag], 0)
            elif base is not None:
                self.shapes[tag] = base["invocations"][tag]
        self.first: dict | None = None      # tag -> {relpath: sha256}
        self.verdict: dict = {}             # tag -> passed, from the full check
        self.max_rel_dev = 0.0
        self.oracle_rel_dev = 0.0

    def __call__(self, outdirs: dict, ok: dict, inputs_arrays) -> dict:
        """{tag: passed} for one pass; `ok` says which invocations exited 0."""
        sets = {tag: check.read_artifacts(outdirs[tag]) for tag in self.tags if ok[tag]}
        hashes = {tag: {rel: hashlib.sha256(data).hexdigest() for rel, data in files.items()}
                  for tag, files in sets.items()}
        if self.first is None:
            if not all(ok.values()):
                return {tag: False for tag in self.tags}
            self.verdict = self._full(sets, inputs_arrays())
            self.first = hashes
            return dict(self.verdict)
        passed = {}
        for tag in self.tags:
            same = ok[tag] and hashes[tag] == self.first[tag]
            if ok[tag] and not same:
                self.problems.append(f"{tag}: artifacts differ from the run's first pass")
            passed[tag] = same and self.verdict[tag]
        return passed

    def _full(self, sets: dict, arrays: dict) -> dict:
        bad = {tag: [] for tag in self.tags}
        try:
            for tag, (reference, source) in self.references.items():
                problems, dev = check.compare(sets[tag], reference)
                self.max_rel_dev = max(self.max_rel_dev, dev)
                bad[tag] += [f"vs seed-{source} reference: {p}" for p in problems]
            for tag, reference in self.shapes.items():
                bad[tag] += check.compare_shape(sets[tag], reference)
            result = check.oracle(self.workload, arrays, sets)
        except (KeyError, ValueError, IndexError) as exc:  # malformed artifacts
            for tag in self.tags:
                bad[tag].append(f"could not read the artifacts: {exc!r}")
        else:
            self.oracle_rel_dev = result.worst
            for tag, problems in result.problems.items():
                bad[tag] += [f"oracle: {p}" for p in problems]
        for tag, problems in bad.items():
            self.problems += [f"{tag}: {p}" for p in problems]
        return {tag: not bad[tag] for tag in self.tags}


def run_pass(workload: str, argv_list: list, traced: bool) -> dict:
    """One pass; returns its result record plus set-up time and out dirs."""
    pass_dir = os.path.join(WORK, "pass")
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.makedirs(pass_dir)
    tags = [tag for tag, _ in workloads.WORKLOADS[workload]["invocations"]]
    outdirs = {tag: os.path.join(pass_dir, "out", tag) for tag in tags}
    config = {"trace": traced, "result": os.path.join(pass_dir, "result.json"),
              "invocations": [argv + ["--out", outdirs[tag]]
                              for tag, argv in zip(tags, argv_list)]}
    config_path = os.path.join(pass_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    proc, setup = spawn(config_path)
    try:
        proc.communicate(timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    record = {"traced": traced, "setup_s": setup, "outdirs": outdirs}
    if proc.returncode == 0 and os.path.isfile(config["result"]):
        with open(config["result"], encoding="utf-8") as fh:
            record.update(json.load(fh))
        record["ok"] = {tag: inv["code"] == 0 and inv["error"] is None
                        for tag, inv in zip(tags, record["invocations"])}
    else:
        record["ok"] = {tag: False for tag in tags}
        record["error"] = f"pass interpreter exited with {proc.returncode}"
    return record


def setup_sample() -> float:
    proc, setup = spawn("-")
    proc.communicate()
    return setup


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(traced: list, workload: str, overhead: float) -> tuple[dict, list]:
    """Per-layer metrics (medians of busy time over the traced passes; sizes
    from the first, they repeat exactly) and the names left unmeasured."""
    totals = [tracing.layer_totals(r["spans"]) for r in traced]
    missing = sorted({hook for r in traced for hook in r["missing_hooks"]})
    expected = workloads.WORKLOADS[workload]["layers"]
    hooked = {}
    for module, attr, layer in tracing.HOOKS:
        hooked.setdefault(layer, []).append(f"{module}.{attr}")
    metrics, unmeasured = {}, list(missing)
    for layer, names in LAYER_METRICS:
        calls = totals[0].get(layer, {}).get("calls", 0)
        if any(h in missing for h in hooked[layer]) or (layer in expected and calls == 0):
            unmeasured.append(layer)
            continue
        first = totals[0].get(layer, {})
        busy = statistics.median(t.get(layer, {}).get("busy_s", 0.0) for t in totals)
        for name, unit in names:
            if name == "busy_s":
                value = busy
            elif name == "mb_per_s":
                value = first.get("bytes", 0) / 1e6 / busy if busy > 0 else 0.0
            else:
                value = first.get(name, 0)
            metrics[f"{layer}.{name}"] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, unmeasured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the reference fingerprint for this seed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "firm", "cli.py")):
        print(f"error: no firm package under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2

    env = environment(args.seed)
    t_inputs = time.perf_counter()
    input_dir = os.path.join(WORK, "inputs", f"{args.workload}-seed{args.seed}")
    manifest = workloads.generate(args.workload, args.seed, input_dir)
    inputs_s = time.perf_counter() - t_inputs
    spec = workloads.WORKLOADS[args.workload]
    argv_list = [[os.path.join(input_dir, a[4:-1]) if a.startswith("{in:") else a
                  for a in inv_argv] for _, inv_argv in spec["invocations"]]
    checker = Checker(args.workload, args.seed, manifest)

    def inputs_arrays():
        return workloads.arrays(args.workload, args.seed)

    try:
        setup_sample()  # compiles bytecode and warms the file cache; not recorded
        setups, passes = [], []
        if args.record:
            rec = run_pass(args.workload, argv_list, False)
            return record_reference(args, manifest, env, rec, inputs_arrays())
        kinds = [False, True] if args.trace else [False]
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(passes) < MIN_PASSES:
            traced = kinds[len(passes) % len(kinds)]
            setups += [setup_sample() for _ in range(SETUP_SPAWNS)]
            rec = run_pass(args.workload, argv_list, traced)
            setups.append(rec["setup_s"])
            rec["passed"] = checker(rec["outdirs"], rec["ok"], inputs_arrays)
            passes.append(rec)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p["passed"]) for p in passes)
    failed = sum(not ok for p in passes for ok in p["passed"].values())
    for p in passes:
        if "error" in p:
            checker.problems.append(p["error"])
        for tag, inv in zip(p["passed"], p.get("invocations", [])):
            if inv["error"] or inv["code"] != 0:
                checker.problems.append(f"{tag}: exit code {inv['code']} {inv['error'] or ''}")
    plain = [p for p in passes if not p["traced"] and "wall_s" in p]
    traced = [p for p in passes if p["traced"] and "wall_s" in p]
    walls = [p["wall_s"] for p in plain]
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"passes {len(passes)}  inputs generated in {inputs_s:.2f} s",
             "env " + json.dumps(env, sort_keys=True)]
    lines += [f"input {name} {m['size']} bytes sha256 {m['sha256']}"
              for name, m in sorted(manifest.items())]
    summary = {}
    if walls:
        summary = {"wall_s": (quartiles(walls), "s", f"{len(walls)} untraced passes"),
                   "setup_s": (quartiles(setups), "s", f"{len(setups)} interpreters"),
                   "peak_rss_mb": (quartiles([p["peak_rss_mb"] for p in plain]), "MB",
                                   f"{len(plain)} untraced passes")}
    for name, ((q1, med, q3), unit, base) in summary.items():
        lines.append(f"{name:<16}{med:12.6g} {unit:<6} (quartiles {q1:.6g} .. {q3:.6g}; "
                     f"{base})")
    lines.append(f"{'error_rate':<16}{failed / attempted:12.6g} ratio  "
                 f"({failed} of {attempted} invocations failed)")
    lines.append(f"{'max_rel_dev':<16}{checker.max_rel_dev:12.6g} ratio  "
                 f"(vs the recorded reference, where one applies: "
                 f"{', '.join(f'{t}<-seed{s}' for t, (_, s) in checker.references.items()) or 'none'})")
    lines.append(f"{'oracle_rel_dev':<16}{checker.oracle_rel_dev:12.6g} ratio  "
                 "(vs numbers recomputed from the inputs)")

    if args.trace:
        overhead = (statistics.median(p["wall_s"] for p in traced) - statistics.median(walls)
                    if traced and walls else 0.0)
        metrics, unmeasured = layer_metrics(traced, args.workload, overhead) \
            if traced else ({}, ["all layers: no traced pass completed"])
        traced_wall = statistics.median(p["wall_s"] for p in traced) if traced else 0.0
        for name, m in metrics.items():
            share = ""
            if name.endswith("busy_s") and traced_wall > 0:
                share = f"  ({100 * m['value'] / traced_wall:.1f}% of traced wall)"
            lines.append(f"{name:<24}{m['value']:14.6g} {m['unit']}{share}")
        if unmeasured:
            lines.append("unmeasured " + " ".join(unmeasured))
    else:
        metrics = {name: {"value": stats[1], "unit": unit}
                   for name, (stats, unit, _) in summary.items()}
    lines += [f"problem {p}" for p in dict.fromkeys(checker.problems)]

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "inputs": manifest, "metrics": metrics,
                   "max_rel_dev": checker.max_rel_dev,
                   "oracle_rel_dev": checker.oracle_rel_dev,
                   "problems": checker.problems,
                   "passes": [{k: v for k, v in p.items() if k not in ("spans", "outdirs")}
                              for p in passes],
                   "setup_samples": setups,
                   "layer_totals": [tracing.layer_totals(p["spans"]) for p in traced]},
                  fh, indent=1)
    if traced:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(traced[-1]["spans"], fh)

    print("\n".join(lines))
    correct = failed == 0 and not checker.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def record_reference(args, manifest: dict, env: dict, rec: dict, arrays: dict) -> int:
    """Fingerprint one pass's outputs, provided they pass the oracles."""
    if not all(rec["ok"].values()):
        print(f"error: an invocation failed: {rec.get('invocations')}", file=sys.stderr)
        return 1
    sets = {tag: check.read_artifacts(outdir) for tag, outdir in rec["outdirs"].items()}
    result = check.oracle(args.workload, arrays, sets)
    if result.problems:
        print(f"error: the oracles reject the outputs: {result.problems}", file=sys.stderr)
        return 1
    doc = {"workload": args.workload, "seed": args.seed, "commit": env["commit"],
           "inputs": manifest,
           "invocations": {tag: {rel: check.fingerprint_file(rel, data)
                                 for rel, data in files.items()}
                           for tag, files in sets.items()}}
    os.makedirs(REFERENCE, exist_ok=True)
    path = os.path.join(REFERENCE, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
