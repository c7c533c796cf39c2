"""Span tracing of strucfact's public functions, from outside the package.

Run as a script, this is the traced launcher: it imports ``strucfact.cli``,
wraps the traced functions at every module binding site, calls
``strucfact.cli.main(argv)`` and writes the recorded spans as JSON::

    python perfbench/spantrace.py SPANS.json simulate --config c.json --out o

Imported, it turns those span files into the per-layer metrics.

A span is ``[name, start, end, parent, thread, attrs]``: perf_counter
seconds, the index of the enclosing span (or -1), the recording thread, and
the work counters taken from the call's arguments and result.  Each thread
keeps its own stack of open spans; a job submitted to the rate-check thread
pool gets the submitting span as its parent, so pool work is attributed to
the command that queued it.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # the launcher's first statement

import functools
import inspect
import json
import os
import sys
import threading

# Traced functions per strucfact module, with the layer metric group each
# belongs to.  The modules import one another's functions by name, so every
# module global bound to one of these objects is rebound to the wrapper.
TRACED = {
    "structure": {"build_identity": "structure.build",
                  "build_periodic": "structure.build",
                  "build_trig": "structure.build",
                  "project": "structure.project",
                  "expand": "structure.expand"},
    "linalg": {"svd": "linalg.svd",
               "operator_norm_safe": "linalg.operator_norm_safe"},
    "estimator": {"fit": "estimator.fit", "predict": "estimator.predict"},
    "noise": {"sample_noise": "noise.sample_noise",
              "sigma_op_norm": "noise.sigma_op_norm"},
    "sobolev": {"gen_smooth_dictionary": "sobolev.gen_smooth_dictionary"},
    "select": {"select": "select.select",
               "calibrate_noise_level": "select.calibrate_noise_level"},
    # The command functions and the helpers they run per replication are
    # the CLI's own work, reported together as cli.cmd.
    "cli": {"read_matrix": "cli.read_matrix",
            "write_matrix": "cli.write_matrix",
            "cmd_simulate": "cli.cmd", "cmd_fit": "cli.cmd",
            "cmd_select": "cli.cmd", "cmd_rate_check": "cli.cmd",
            "_simulate_instance": "cli.cmd", "_one_replication": "cli.cmd",
            "_mean_risks": "cli.cmd"},
}
MODULES = tuple(TRACED)
ROOT_IMPORT = "import"
ROOT_MAIN = "main"
# Interpreter start and finalization, timed from the parent: on Linux
# perf_counter reads CLOCK_MONOTONIC, which all processes share.
PROCESS_START = "process.start"
PROCESS_EXIT = "process.exit"
ROOTS = (PROCESS_START, ROOT_IMPORT, ROOT_MAIN, PROCESS_EXIT)


def _shape(a):
    return tuple(getattr(a, "shape", None) or (len(a), len(a[0])))


def _attrs(group, args, result):
    """Work counters of one call, computed from its arguments and result."""
    if group == "structure.build":
        return {"bytes": 8 * result.tau * result.horizon}
    if group in ("structure.project", "structure.expand"):
        d = _shape(args[0])[0]
        return {"flops": 2 * d * args[1].tau * args[1].horizon}
    if group == "linalg.svd":
        # R-SVD with thin U: 6 m n^2 + 20 n^3 for m >= n
        # (Golub & Van Loan, Matrix Computations, table 5.4.1).
        m, n = sorted(_shape(args[0]), reverse=True)
        return {"flops": 6 * m * n * n + 20 * n ** 3}
    if group == "estimator.fit":
        d = _shape(args[0])[0]
        return {"k": args[2], "kmax": min(d, args[1].tau)}
    if group in ("cli.read_matrix", "cli.write_matrix"):
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def open(self, name, parent=None) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.current() if parent is None else parent,
                               threading.get_ident(), {}])
        stack.append(idx)
        return idx

    def close(self, idx, attrs=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if attrs:
            span[5] = attrs
        self._stack().pop()

    def wrap(self, name, group, fn):
        params = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                bound = params.bind(*args, **kwargs).arguments
                attrs = _attrs(group, list(bound.values()), result)
                return result
            finally:
                self.close(idx, attrs)
        return traced

    def pool_class(self, base):
        """ThreadPoolExecutor subclass whose jobs inherit the submitter's span."""
        recorder = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = recorder.current()

                def job():
                    idx = recorder.open("cli.pool_job", parent=parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        recorder.close(idx)
                return super().submit(job)
        return TracedPool


def install(recorder: Recorder) -> None:
    """Rebind every traced function at every strucfact binding site."""
    import importlib

    mods = {m: importlib.import_module(f"strucfact.{m}") for m in MODULES}
    package = importlib.import_module("strucfact")
    wrappers = {}
    for mod, names in TRACED.items():
        for fname, group in names.items():
            fn = getattr(mods[mod], fname)
            wrappers[id(fn)] = (fn, recorder.wrap(f"{mod}.{fname}", group, fn))
    for module in (package, *mods.values()):
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    cli = mods["cli"]
    for cmd, fn in list(cli.COMMANDS.items()):
        hit = wrappers.get(id(fn))
        if hit is not None and hit[0] is fn:
            cli.COMMANDS[cmd] = hit[1]
    cli.ThreadPoolExecutor = recorder.pool_class(cli.ThreadPoolExecutor)


def group_of(name: str) -> str | None:
    mod, _, fname = name.partition(".")
    return TRACED.get(mod, {}).get(fname)


def _launch(spans_path: str, argv: list) -> int:
    recorder = Recorder()
    idx = recorder.open(ROOT_IMPORT)
    recorder.spans[idx][1] = T0
    import strucfact.cli
    recorder.close(idx)
    install(recorder)
    idx = recorder.open(ROOT_MAIN)
    try:
        code = strucfact.cli.main(argv)
    finally:
        recorder.close(idx)
        with open(spans_path, "w") as fh:
            json.dump({"spans": recorder.spans}, fh)
    return code


# ---------- parent side: spans -> per-layer metrics ----------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list:
    """Per span: duration minus the time covered by its children."""
    children = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - _covered(children[i], s[1], s[2])
            for i, s in enumerate(spans)]


def add_process_spans(spans, start: float, end: float) -> list:
    """Spans plus interpreter start and exit, from the parent's spawn times."""
    first = min(s[1] for s in spans)
    last = max(s[2] for s in spans)
    return spans + [[PROCESS_START, start, max(start, first), -1, 0, {}],
                    [PROCESS_EXIT, min(last, end), end, -1, 0, {}]]


def coverage(spans, wall: float) -> float:
    """Share of a command's wall time covered by the root spans."""
    roots = [(s[1], s[2]) for s in spans if s[0] in ROOTS]
    return _covered(roots, min(a for a, _ in roots),
                    max(b for _, b in roots)) / wall


def layer_metrics(commands) -> dict:
    """Per-layer metrics of one traced pass.

    ``commands`` is a list of ``(spans, wall_s, threads)``, one per command,
    with the process spans added.
    """
    calls, self_s, sums = {}, {}, {PROCESS_START: 0.0, PROCESS_EXIT: 0.0}
    busy = pool_capacity = 0.0
    select_fits = select_used = 0
    cover = []
    for spans, wall, threads in commands:
        cover.append(coverage(spans, wall))
        selfs = self_times(spans)
        for i, s in enumerate(spans):
            group = group_of(s[0])
            if s[0] in (PROCESS_START, PROCESS_EXIT):
                sums[s[0]] += s[2] - s[1]
            if s[0] == "cli.pool_job":
                busy += s[2] - s[1]
            if group is None:
                continue
            calls[group] = calls.get(group, 0) + 1
            self_s[group] = self_s.get(group, 0.0) + selfs[i]
            for key, value in s[5].items():
                sums[f"{group}.{key}"] = sums.get(f"{group}.{key}", 0) + value
            if s[0] == "cli._mean_risks" and threads > 1:
                pool_capacity += (s[2] - s[1]) * threads
            if group.startswith("select."):
                select_used += 1
                select_fits += sum(1 for c in spans if c[3] == i
                                   and group_of(c[0]) == "estimator.fit")
    kmax = sums.get("estimator.fit.kmax", 0)
    return {
        "structure.build.calls": calls.get("structure.build", 0),
        "structure.build.self_s": self_s.get("structure.build", 0.0),
        "structure.basis_bytes": sums.get("structure.build.bytes", 0),
        "structure.project.calls": calls.get("structure.project", 0),
        "structure.project.self_s": self_s.get("structure.project", 0.0),
        "structure.expand.self_s": self_s.get("structure.expand", 0.0),
        "structure.flops": (sums.get("structure.project.flops", 0)
                            + sums.get("structure.expand.flops", 0)),
        "linalg.svd.calls": calls.get("linalg.svd", 0),
        "linalg.svd.self_s": self_s.get("linalg.svd", 0.0),
        "linalg.svd.flops": sums.get("linalg.svd.flops", 0),
        "linalg.operator_norm_safe.self_s":
            self_s.get("linalg.operator_norm_safe", 0.0),
        "estimator.fit.calls": calls.get("estimator.fit", 0),
        "estimator.fit.self_s": self_s.get("estimator.fit", 0.0),
        "estimator.predict.self_s": self_s.get("estimator.predict", 0.0),
        "estimator.rank_used_ratio":
            sums.get("estimator.fit.k", 0) / kmax if kmax else 0.0,
        "noise.sigma_op_norm.calls": calls.get("noise.sigma_op_norm", 0),
        "noise.sigma_op_norm.self_s": self_s.get("noise.sigma_op_norm", 0.0),
        "noise.sample_noise.calls": calls.get("noise.sample_noise", 0),
        "noise.sample_noise.self_s": self_s.get("noise.sample_noise", 0.0),
        "sobolev.gen_smooth_dictionary.calls":
            calls.get("sobolev.gen_smooth_dictionary", 0),
        "sobolev.gen_smooth_dictionary.self_s":
            self_s.get("sobolev.gen_smooth_dictionary", 0.0),
        "select.select.self_s": self_s.get("select.select", 0.0),
        "select.calibrate_noise_level.self_s":
            self_s.get("select.calibrate_noise_level", 0.0),
        "select.fits": select_fits,
        # Each select call uses its winner and each calibration its one fit.
        "select.useful_fit_ratio":
            select_used / select_fits if select_fits else 0.0,
        "cli.read_matrix.self_s": self_s.get("cli.read_matrix", 0.0),
        "cli.read_matrix.bytes": sums.get("cli.read_matrix.bytes", 0),
        "cli.write_matrix.self_s": self_s.get("cli.write_matrix", 0.0),
        "cli.write_matrix.bytes": sums.get("cli.write_matrix.bytes", 0),
        "cli.cmd.self_s": self_s.get("cli.cmd", 0.0),
        "cli.pool.busy_ratio": busy / pool_capacity if pool_capacity else 0.0,
        "process.start_s": sums[PROCESS_START],
        "process.exit_s": sums[PROCESS_EXIT],
        "trace.coverage": min(cover),
    }


if __name__ == "__main__":
    sys.exit(_launch(sys.argv[1], sys.argv[2:]))
