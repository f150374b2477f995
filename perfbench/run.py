"""shiftzoo benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk-modes --seed 0 --seconds 10 --trace 0

The inputs are generated by ``shiftzoo synth`` from ``--seed``; ``profile``,
``rank`` and ``train`` are driven in-process through ``shiftzoo.cli.main``,
exactly as a user runs them. Every invocation and its outputs are checked;
the last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (synth plus
manifest load, median of several set-ups), ``pipeline_s`` (median over
rounds of the wall time of one ``profile``, ``rank`` and every ``train``
invocation of the workload) and ``peak_rss_mb``.
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics of layers.py from the traced one, plus the tracing
overhead. The run's scratch files live under ``.perfbench_work/`` and are
removed at exit; the traced spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# sibling modules: the script's directory is on sys.path
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_shiftzoo():
    """Import shiftzoo from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "shiftzoo" / "__init__.py").is_file():
        raise SystemExit(f"error: no shiftzoo sources at {SRC / 'shiftzoo'}")
    sys.path.insert(0, str(SRC))
    import shiftzoo.cli
    import shiftzoo.feature_store
    import shiftzoo.report

    if Path(shiftzoo.__file__).resolve().parent != (SRC / "shiftzoo").resolve():
        raise SystemExit(f"error: imported shiftzoo from {shiftzoo.__file__}, not {SRC}")
    return shiftzoo


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset (library default)")
    env["git_sha"], env["git_dirty"] = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return env
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def digest(path: Path) -> str:
    """sha256 of a file, or of a directory's file names and contents."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        h.update(str(f.relative_to(path)).encode() if path.is_dir() else b"")
        with open(f, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def all_finite(value) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    return False


@dataclass
class Op:
    """One stage invocation and the output checks attached to it."""

    label: str
    seconds: float = 0.0
    stdout: str = ""
    problems: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.problems.append(why)


class Runner:
    """Runs shiftzoo commands for one workload and keeps score of the checks."""

    def __init__(self, shiftzoo, wl: workloads.Workload, seed: int, work: Path):
        self.cli = shiftzoo.cli
        # bound now, so tracing (which rebinds module attributes) never sees
        # the benchmark's own checks
        self.read_report = shiftzoo.report.read_report
        self.load_manifest = shiftzoo.feature_store.load_manifest
        self.wl = wl
        self.seed = str(seed)
        self.work = work
        self.ops: list[Op] = []
        self.tracer = None
        self.expected: dict[str, tuple[str, str]] = {}
        # outcomes the program does not promise on every seed; printed, not checked
        self.observed: dict[str, object] = {}

    # -- invocations -------------------------------------------------------
    def invoke(self, label: str, argv: list[str]) -> Op:
        op = Op(label)
        self.ops.append(op)
        buf = io.StringIO()

        def call() -> int:
            with contextlib.redirect_stdout(buf):
                return self.cli.main(argv)

        start = time.perf_counter()
        try:
            rc = self.tracer.command(f"cli.{argv[0]}", call) if self.tracer else call()
        except Exception:  # a traceback out of the CLI is a failed invocation
            traceback.print_exc(file=sys.stderr)
            rc = "exception"
        op.seconds = time.perf_counter() - start
        op.stdout = buf.getvalue()
        if rc != 0:
            op.fail(f"exit status {rc}")
        return op

    def same_bytes(self, key: str, path: Path, op: Op) -> None:
        """Outputs of one logical step must be byte-identical across repeats."""
        if not path.exists():
            op.fail(f"missing output {path.name}")
            return
        got = digest(path)
        first = self.expected.setdefault(key, (got, op.label))
        if got != first[0]:
            op.fail(f"{key} differs from the bytes written by {first[1]}")

    def check_report(self, path: Path, op: Op) -> dict | None:
        try:
            report = self.read_report(path)
        except Exception as exc:  # any failure to load is a failed check
            op.fail(f"read_report({path.name}): {exc}")
            return None
        if not all_finite(report):
            op.fail(f"{path.name} holds a non-finite number")
        return report

    # -- stages ------------------------------------------------------------
    def setup(self, index: int) -> tuple[Path, float]:
        data = self.work / f"data-{index}"
        start = time.perf_counter()
        op = self.invoke(f"synth#{index}", ["synth", "--out", str(data), "--seed", self.seed,
                                            *self.wl.synth])
        try:
            self.load_manifest(data / "manifest.json")
        except Exception as exc:
            op.fail(f"load_manifest: {exc}")
        seconds = time.perf_counter() - start
        self.same_bytes("synth", data, op)
        return data, seconds

    def warm_up(self) -> None:
        """Imports, BLAS threads and first-call costs, paid before any timing."""
        data = self.work / "warm"
        manifest = str(data / "manifest.json")
        (label, flags), (_, pflags), (_, tflags) = workloads.WARM_UP
        self.invoke("warm-synth", [label, "--out", str(data), "--seed", self.seed, *flags])
        self.invoke("warm-profile", ["profile", "--manifest", manifest, "--out",
                                     str(data / "p.json"), *pflags])
        self.invoke("warm-train", ["train", "--manifest", manifest, "--out",
                                   str(data / "t.json"), *tflags])
        shutil.rmtree(data, ignore_errors=True)

    def run_round(self, data: Path, index: int) -> dict:
        """profile, rank, then every train invocation; returns the round's times."""
        wl, out = self.wl, self.work / f"round-{index}"
        out.mkdir(parents=True, exist_ok=True)
        manifest = str(data / "manifest.json")
        stage_s, cells, target_acc = 0.0, 0, 0.0
        profile_path = out / "profile.json"
        op = self.invoke(f"profile#{index}", ["profile", "--manifest", manifest, "--out",
                                              str(profile_path), "--seed", self.seed,
                                              *wl.profile])
        stage_s += op.seconds
        self.same_bytes("profile.json", profile_path, op)
        report = self.check_report(profile_path, op)
        if report:
            cells = len(report["encoders"]) * len(report["domains"])
        op = self.invoke(f"rank#{index}", ["rank", "--report", str(profile_path), *wl.rank])
        stage_s += op.seconds
        if report:
            self.check_rank(op, report)
        reports = {}
        for label, flags in wl.trains:
            run, log = out / f"train-{label}.json", out / f"train-{label}.log"
            op = self.invoke(f"train-{label}#{index}", [
                "train", "--manifest", manifest, "--out", str(run), "--log", str(log),
                "--seed", self.seed, *flags])
            stage_s += op.seconds
            self.same_bytes(f"train-{label}.json", run, op)
            self.same_bytes(f"train-{label}.log", log, op)
            reports[label] = (self.check_report(run, op), op)
        both = reports["both"][0]
        if both:
            target_acc = both["summary"]["mean_final_test_accuracy"]
        erm = reports.get("erm", (None,))[0]
        if both and erm:
            acc = [{f["target_domain"]: f["final_test_accuracy"] for f in r["folds"]}["domain2"]
                   for r in (both, erm)]
            self.observed["domain2_both_minus_erm"] = acc[0] - acc[1]
        return {"seconds": stage_s, "cells": cells, "target_acc": target_acc}

    # -- output checks -----------------------------------------------------
    def check_rank(self, op: Op, report: dict) -> None:
        """rank must list every encoder in score order and suggest the top
        non-main encoder on each axis (ties toward the smallest id)."""
        scores = {e["encoder_id"]: (e["f_div"], e["f_cor"]) for e in report["encoders"]}
        lines = op.stdout.strip().splitlines()
        for title, axis in (("by f_div", 0), ("by f_cor", 1)):
            if title not in lines:
                op.fail(f"rank printed no '{title}' listing")
                return
            start = lines.index(title) + 1
            listed = [line.split()[1] for line in lines[start:start + len(scores)]
                      if len(line.split()) > 1]
            expected = sorted(scores, key=lambda k: (-scores[k][axis], k))
            if listed != expected:
                op.fail(f"rank '{title}' lists {listed}, expected {expected}")
        main = self.wl.rank[self.wl.rank.index("--main") + 1] if "--main" in self.wl.rank else ""
        candidates = [k for k in scores if k != main]
        div_aux = min(candidates, key=lambda k: (-scores[k][0], k))
        cor_aux = min(candidates, key=lambda k: (-scores[k][1], k))
        suggestion = lines[-1] if lines else ""
        self.observed["rank_suggestion"] = suggestion
        if not suggestion.startswith("suggested auxiliaries") or not suggestion.endswith(
            f"diversity={div_aux} correlation={cor_aux}"
        ):
            op.fail(f"rank suggested {suggestion!r}, expected diversity={div_aux} "
                    f"correlation={cor_aux}")

    # -- results -----------------------------------------------------------
    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)

    def report_failures(self) -> None:
        for op in self.ops:
            for why in op.problems:
                print(f"check failed: {op.label}: {why}", file=sys.stderr)


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    runner.warm_up()
    reps = runner.wl.setup_reps
    setups, rounds = [], []

    def set_up(n: int) -> None:
        for _ in range(min(n, reps - len(setups))):
            data, t = runner.setup(len(setups))
            if setups:
                shutil.rmtree(data)
            setups.append(t)

    # set-ups are spread over the run (a batch before each round, the rest
    # after the last), so their median samples the host's load more than once
    data = runner.work / "data-0"
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        set_up(-(-reps // 3))
        rounds.append(runner.run_round(data, len(rounds))["seconds"])
    set_up(reps)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "pipeline_s": {"value": statistics.median(rounds), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def measure_traced(runner: Runner, workload: str) -> dict:
    """Traced run: per-layer metrics, with proof that tracing changed nothing."""
    tracer = tracing.Tracer()

    def traced(call):
        tracer.install()
        runner.tracer = tracer
        try:
            return call()
        finally:
            runner.tracer = None
            op = Op(f"restore#{tracer.run_id}")
            runner.ops.append(op)
            for name in tracer.restore():
                op.fail(f"{name} is not its original object after tracing")
            tracer.run_id += 1

    runner.warm_up()
    data, _ = traced(lambda: runner.setup(0))
    wall = runner.run_round(data, 0)["seconds"]
    traced_round = traced(lambda: runner.run_round(data, 1))
    traced_wall = traced_round["seconds"]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span.as_dict(), separators=(",", ":")) + "\n")
    return layers.layer_metrics(tracer.spans, {
        "cells": traced_round["cells"],
        "target_acc": traced_round["target_acc"],
        "overhead_s": traced_wall - wall,
        "overhead_pct": 100.0 * (traced_wall - wall) / wall,
    })


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="'smoke' runs the same stages and checks on tiny inputs")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    shiftzoo = import_shiftzoo()
    wl = workloads.get(args.workload, args.size)
    work = WORK / f"{wl.name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(shiftzoo, wl, args.seed, work)
    try:
        metrics = (measure_traced(runner, wl.name) if args.trace
                   else measure(runner, args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    runner.report_failures()
    print(json.dumps({"environment": environment(), "workload": wl.name, "seed": args.seed,
                      "size": args.size, "observed": runner.observed, "report_sha256": {k: v[0] for k, v in
                                                           sorted(runner.expected.items())}}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": len(runner.ops),
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
