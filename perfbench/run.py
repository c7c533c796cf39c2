"""strucfact benchmark: cold CLI workloads, checked outputs, traced layers.

Usage, from the repository root::

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, every metric

With ``--trace 0`` each pass runs the workload's commands as cold
``python -m strucfact.cli`` processes and the end-to-end metrics are
reported.  With ``--trace 1`` untraced passes alternate with passes through
the span launcher in ``spantrace.py`` and the per-layer metrics are
reported.  The last line of standard output is one JSON object; a copy
with the run's provenance goes to ``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from spantrace import MODULES, add_process_spans, layer_metrics
from workloads import WORKLOADS, CheckError, strict_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANTRACE = Path(__file__).resolve().parent / "spantrace.py"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0           # every run ends well inside 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------- child processes ----------

@dataclass
class Proc:
    start: float             # perf_counter at spawn and after exit
    end: float
    code: int
    maxrss_mb: float
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list, cwd: Path, deadline: float) -> Proc:
    """Run one child to completion; wall time, exit code and its max RSS."""
    cwd.mkdir(parents=True, exist_ok=True)
    err_path = cwd / f".stderr-{time.monotonic_ns()}"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    err_path.unlink()
    return Proc(start, end, proc.returncode, usage.ru_maxrss / 1024.0, stderr)


def setup_times(n: int, cwd: Path, deadline: float) -> list:
    """Wall times of n cold ``import strucfact.cli`` processes."""
    walls = []
    for _ in range(n):
        p = spawn([sys.executable, "-c", "import strucfact.cli"], cwd, deadline)
        if p.code != 0:
            raise BenchError(f"import strucfact.cli failed:\n{p.stderr}")
        walls.append(p.wall_s)
    return walls


IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_breakdown(n: int, cwd: Path, deadline: float) -> dict:
    """Median cumulative import time of each strucfact module, in seconds."""
    samples = {m: [] for m in MODULES}
    for _ in range(n):
        p = spawn([sys.executable, "-X", "importtime", "-c",
                   "import strucfact.cli"], cwd, deadline)
        if p.code != 0:
            raise BenchError(f"import strucfact.cli failed:\n{p.stderr}")
        seen = {m: 0.0 for m in MODULES}
        for cumulative, module in IMPORTTIME.findall(p.stderr):
            if module.startswith("strucfact."):
                seen[module.split(".", 1)[1]] = int(cumulative) / 1e6
        for m in MODULES:
            samples[m].append(seen.get(m, 0.0))
    return {m: statistics.median(v) for m, v in samples.items()}


# ---------- one pass of a workload ----------

@dataclass
class CommandRun:
    name: str
    proc: Proc
    threads: int
    spans: list | None = None
    error: str | None = None
    hashes: dict = field(default_factory=dict)


def _hash_dir(path: Path) -> dict:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def run_pass(wl, pass_dir: Path, traced: bool, deadline: float) -> list:
    """Run the workload's commands once, each as a cold process."""
    runs = []
    for i, cmd in enumerate(wl.commands):
        cfg = pass_dir / "config" / f"{i}-{cmd.name}.json"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(json.dumps(cmd.config))
        rel = str(cfg.relative_to(pass_dir))
        if traced:
            spans_path = pass_dir / "config" / f"{i}-{cmd.name}.spans.json"
            argv = [sys.executable, str(SPANTRACE), str(spans_path),
                    *cmd.argv(rel)]
        else:
            argv = [sys.executable, "-m", "strucfact.cli", *cmd.argv(rel)]
        run = CommandRun(cmd.name, spawn(argv, pass_dir, deadline), cmd.threads)
        if run.proc.code != 0:
            run.error = f"exit code {run.proc.code}"
        elif "Traceback" in run.proc.stderr:
            run.error = "traceback on stderr"
        else:
            run.hashes = _hash_dir(pass_dir / cmd.out)
            try:
                for name in run.hashes:
                    if name.endswith(".json"):
                        strict_json(pass_dir / cmd.out / name)
            except (CheckError, ValueError) as exc:
                run.error = f"bad JSON: {exc}"
        if traced and run.proc.code == 0:
            run.spans = add_process_spans(
                json.loads(spans_path.read_text())["spans"],
                run.proc.start, run.proc.end)
        runs.append(run)
    return runs


def check_pass(wl, pass_dir: Path, runs: list, reference: list | None,
               details: dict) -> None:
    """Command checks on the first pass; identical bytes on later ones.

    Identical output bytes for the same seed and thread count carry the
    first pass's checks over to every later pass.
    """
    for i, (cmd, run) in enumerate(zip(wl.commands, runs)):
        if run.error:
            continue
        if reference is None:
            try:
                details.update(cmd.check(pass_dir))
            except (CheckError, KeyError, OSError, ValueError) as exc:
                run.error = f"check failed: {exc!r}"
        elif run.hashes != reference[i].hashes:
            run.error = "outputs differ from the first pass"


# ---------- measurement ----------

def _median(values):
    return statistics.median(values) if values else 0.0


def measure(wl, seconds: float, trace: bool, work: Path, deadline: float,
            setup_n: int = SETUP_SAMPLES,
            importtime_n: int = IMPORTTIME_SAMPLES) -> dict:
    """Run one workload for about ``seconds``; returns metrics and samples."""
    # Compile bytecode and warm the file cache; users pay neither per run.
    setup_times(1, work, deadline)
    info = {"details": {}, "commands": {}}
    if trace:
        imports = import_breakdown(importtime_n, work, deadline)
    else:
        info["setup_samples"] = setup_times(setup_n, work, deadline)

    plain, traced, first = [], [], None
    start = time.perf_counter()
    n = 0
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            pass_dir = work / f"pass{n}"
            runs = run_pass(wl, pass_dir, is_traced, deadline)
            check_pass(wl, pass_dir, runs, first, info["details"])
            first = first or runs
            (traced if is_traced else plain).append(runs)
            shutil.rmtree(pass_dir)
            n += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds or time.monotonic() + per_round > deadline:
            break

    all_runs = [r for runs in plain + traced for r in runs]
    failed = [f"{r.name}: {r.error}" for r in all_runs if r.error]
    walls = [sum(r.proc.wall_s for r in runs) for runs in plain]
    for i, cmd in enumerate(wl.commands):
        info["commands"][f"{cmd.name}_s"] = _median(
            [runs[i].proc.wall_s for runs in plain])
    info.update(attempted=len(all_runs), failed=failed, passes=len(plain),
                pass_walls=walls)
    fits = info["details"].get("fits")
    if fits:
        info["commands"]["replications_per_s"] = fits / _median(walls)
    if not trace:
        info["metrics"] = {
            "wall_s": _median(walls),
            "setup_s": _median(info["setup_samples"]),
            "peak_rss_mb": max(r.proc.maxrss_mb for r in all_runs),
        }
        return info

    layers = [layer_metrics([(r.spans, r.proc.wall_s, r.threads) for r in runs])
              for runs in traced if all(r.spans is not None for r in runs)]
    metrics = {name: _median([m[name] for m in layers])
               for name in (layers[0] if layers else {})}
    for m, value in imports.items():
        metrics[f"{m}.import_s"] = value
    traced_walls = [sum(r.proc.wall_s for r in runs) for runs in traced]
    metrics["trace.overhead_s"] = _median(traced_walls) - _median(walls)
    info["metrics"] = metrics
    return info


# ---------- provenance and output ----------

def provenance(wl, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "strucfact").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": metadata.version("scipy"),
        "blas": blas, "nproc": os.cpu_count(),
        "threads": {c.name: c.threads for c in wl.commands},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", **kwargs) -> tuple:
    """Measure one workload; returns (result line, record with provenance)."""
    if not (SRC / "strucfact" / "cli.py").is_file():
        raise BenchError(f"no strucfact sources under {SRC}")
    wl = WORKLOADS[name](seed, size)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    deadline = time.monotonic() + DEADLINE_S
    try:
        info = measure(wl, seconds, trace, work, deadline, **kwargs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = _benchmark_json()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not info["failed"],
        "attempted": info["attempted"],
        "failed": len(info["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in info["metrics"].items()},
    }
    record = {"result": result, "provenance": provenance(wl, seed, seconds, trace),
              "failures": info["failed"], "passes": info["passes"],
              "pass_walls_s": info["pass_walls"],
              "setup_samples_s": info.get("setup_samples"),
              "commands": info["commands"], "checks": info["details"],
              "error_rate": len(info["failed"]) / info["attempted"]}
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    return result, record


def report_lines(record: dict) -> list:
    """Human-readable lines: every metric with its unit and sample count."""
    prov, res = record["provenance"], record["result"]
    lines = [f"# {prov['workload']} seed={prov['seed']} trace={prov['trace']} "
             f"passes={record['passes']} python={prov['python']} "
             f"numpy={prov['numpy']} scipy={prov['scipy']} nproc={prov['nproc']} "
             f"commit={prov['commit'] or prov['source_sha256'][:12]}"]
    n_setup = len(record["setup_samples_s"] or [])
    for name, m in res["metrics"].items():
        count = (f"median of {n_setup}" if name == "setup_s" else
                 f"median of {record['passes']}" if name == "wall_s" else "")
        lines.append(f"{name:40s} {m['value']:.6g} {m['unit']} {count}".rstrip())
    for name, value in record["commands"].items():
        unit = "1/s" if name.endswith("per_s") else "s"
        lines.append(f"{name:40s} {value:.6g} {unit} median of {record['passes']}")
    lines.append(f"{'error_rate':40s} {record['error_rate']:.6g} ratio "
                 f"({res['failed']} of {res['attempted']} commands)")
    lines += [f"FAILED {f}" for f in record["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        seconds = args.seconds or _benchmark_json()["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name], record = run_workload(name, args.seed, seconds,
                                                 bool(args.trace))
            print("\n".join(report_lines(record)), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
