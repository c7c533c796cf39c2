"""Command-line front end: simulate, fit, select, rate-check.

All commands read a strict JSON config (UTF-8, each key once per object),
write CSV matrices (17 significant digits, comma delimiter, no header) plus
strict JSON manifests/reports, and are byte-for-byte deterministic given
config, seed and BLAS thread count.  Only rate-check uses --threads, which
sizes the pool that runs its blocks of replications (strucfact.rates); it
runs numpy's bundled OpenBLAS at one thread, so its report depends on config
and seed alone.  Each command checks its config against the typed table of its
scenario, basis kind and noise kind before computing anything, computes
every output before it writes a file, and publishes the output directory
atomically.  The CSV writer formats each value once: a tiled matrix (a
periodic signal, an identity or periodic fit) repeats its formatted period.

Exit codes: 0 success, 2 config error, 3 numeric failure or out of memory,
4 I/O error, 130 interrupted (Ctrl-C).
"""
from __future__ import annotations

import argparse
import bisect
import ctypes
import functools
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import estimator, rates, sobolev, structure
from .errors import ConvergenceError
from .noise import NoiseSpec, replication_seed, sample_noise, sigma_op_norm
from .select import CandidateGrid, PenaltyParams, select

SCHEMA_VERSION = 1
CSV_FMT = "%.17g"
# rate-check's block of replications, under the name that perfbench's tracer
# wraps.
_one_replication = rates.block_risks


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


# ---------- config tables ----------

# Each table maps key -> (type, default, minimum).  A type is int (no bools,
# no floats), float (a finite real), str, list (of ints, each >= minimum;
# empty only when the default is empty), or a nested table.  Defaults are used
# as given and never written back.  A table may also be a pair (key, {value:
# table}): the string value of `key` picks the table for the other keys, so
# each scenario, basis kind and noise kind lists only the keys that it reads.
REQUIRED = object()
POSITIVE = math.ulp(0.0)  # smallest positive float: as a minimum it means > 0
SCHEMA = (int, SCHEMA_VERSION, None)

NOISE_BASE = {"sigma": (float, REQUIRED, POSITIVE)}
NOISE = ("kind", {"iid": NOISE_BASE,
                  "ma1": {**NOISE_BASE, "theta": (float, 0.0, None)},
                  "ar1": {**NOISE_BASE, "rho": (float, 0.0, None)}})
SMOOTH = {"beta": (int, REQUIRED, 1), "ell": (float, REQUIRED, POSITIVE),
          "n_terms": (int, REQUIRED, 0)}
BASIS = ("kind", {"identity": {}, "periodic": {"tau": (int, REQUIRED, 1)},
                  "trig": {"n_freq": (int, REQUIRED, 0)}})
PENALTY = {"lambda": (float, 0.5, POSITIVE), "c_pen": (float, 2.0, 0),
           "s": (float, 1.0, 0), "noise_level": (float, None, POSITIVE)}

SIMULATE_BASE = {"schema": SCHEMA, "d": (int, REQUIRED, 1), "T": (int, REQUIRED, 2),
                 "k": (int, REQUIRED, 1), "noise": (NOISE, REQUIRED, None),
                 "seed": (int, 0, 0)}
SIMULATE = ("scenario", {
    "unstructured": SIMULATE_BASE,
    "periodic": {**SIMULATE_BASE, "tau": (int, REQUIRED, 1)},
    "smooth": {**SIMULATE_BASE, "smooth": (SMOOTH, REQUIRED, None)}})
FIT = {"schema": SCHEMA, "x": (str, REQUIRED, None),
       "basis": (BASIS, REQUIRED, None), "k": (int, REQUIRED, 1)}
SELECT = {"schema": SCHEMA, "x": (str, REQUIRED, None), "taus": (list, [], 1),
          "n_freqs": (list, [], 0), "ranks": (list, REQUIRED, 1),
          "penalty": (PENALTY, REQUIRED, None)}
RATE_BASE = {"schema": SCHEMA, "d": (int, REQUIRED, 1), "k": (int, REQUIRED, 1),
             "noise": (NOISE, REQUIRED, None), "replications": (int, REQUIRED, 1),
             "seed": (int, 0, 0), "s": (float, 1.0, 0)}
SWEEP = {**RATE_BASE, "sweep_T": (list, REQUIRED, 2), "slope_tol": (float, 0.15, 0)}
RATE_CHECK = ("scenario", {
    "unstructured": SWEEP,
    "periodic": {**SWEEP, "tau": (int, REQUIRED, 1)},
    # The smooth cutoff grid always holds n_freq = 1, so T >= 3.
    "smooth": {**RATE_BASE, "T": (int, REQUIRED, 3), "smooth": (SMOOTH, REQUIRED, None),
               "c_beta_l": (float, 1.0, POSITIVE)}})

TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
              list: "a non-empty list of integers"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _unique_keys(pairs: list) -> dict:
    """A config object; a key given twice is an error (json keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {_shown(key)}")
        obj[key] = value
    return obj


def _int_literal(text: str) -> int:
    """A config integer; int() refuses more than 4300 digits by default."""
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"integer literal {text[:12]}... ({len(text)} digits) "
                          "is too long") from None


def _shown(value) -> str:
    """repr(value) for an error line, cut to a prefix and its length when
    long, so that one line never carries a whole config."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:40]}... ({len(text)} characters)"


def _parse(cfg, table: dict | tuple, where: str) -> dict:
    """Check `cfg` against `table`; return a copy with defaults filled in."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected an object, got {_shown(cfg)}")
    variant, parsed = "", {}
    if isinstance(table, tuple):
        key, tables = table
        name = cfg.get(key)  # checked to be a string before it is looked up
        if not (isinstance(name, str) and name in tables):
            raise ConfigError(f"{where}: {key} must be one of {list(tables)}, "
                              f"got {_shown(name)}")
        table, variant, parsed = tables[name], f" for {key} {name!r}", {key: name}
    unknown = sorted(set(cfg) - set(table) - set(parsed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {_shown(unknown)}{variant}")
    for key, (kind, default, minimum) in table.items():
        if key not in cfg:
            if default is REQUIRED:
                raise ConfigError(f"{where}: missing required key {key!r}{variant}")
            parsed[key] = default
            continue
        value = cfg[key]
        if isinstance(kind, (dict, tuple)):
            parsed[key] = _parse(value, kind, key)
            continue
        if kind is int:
            ok = _is_int(value)
        elif kind is float:
            ok = (abs(value) <= sys.float_info.max if _is_int(value)
                  else isinstance(value, float) and math.isfinite(value))
        elif kind is list:
            ok = (isinstance(value, list) and all(map(_is_int, value))
                  and (value or default == []))
        else:
            ok = isinstance(value, str)
        if not ok:
            raise ConfigError(f"{where}: {key} must be {TYPE_NAMES[kind]}, "
                              f"got {_shown(value)}")
        values = value if kind is list else [value]
        if minimum is not None and any(v < minimum for v in values):
            bound = "> 0" if minimum is POSITIVE else f">= {minimum}"
            raise ConfigError(f"{where}: {key} must be {bound}, got {_shown(value)}")
        # Sizes and counts must fit numpy's index type; a seed may be any
        # non-negative int, because SeedSequence takes one.
        if kind in (int, list) and key != "seed" and any(
                v > sys.maxsize for v in values):
            raise ConfigError(f"{where}: {key} must be <= {sys.maxsize}, "
                              f"got {_shown(value)}")
        parsed[key] = value
    return parsed


def _spec(section: str, make, **fields):
    """make(**fields) for a parsed config section; a ValueError from the
    spec's own checks becomes a ConfigError that names the section."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _smooth_spec(p: dict, horizon: int, where: str) -> sobolev.SmoothFactorSpec:
    """The parsed smooth section as a SmoothFactorSpec with p["k"] rows,
    checked against the horizon: T >= 2 n_terms + 2."""
    smooth = _spec("smooth", sobolev.SmoothFactorSpec, k=p["k"], **p["smooth"])
    if horizon < 2 * smooth.n_terms + 2:
        raise ConfigError(f"{where}: T={horizon} must be >= 2 n_terms + 2 "
                          f"= {2 * smooth.n_terms + 2}")
    return smooth


# ---------- file I/O ----------

def write_matrix(path: Path, m: np.ndarray, repeats: int = 1) -> None:
    """Write `m` tiled `repeats` times as CSV, one row per write().

    Each value is formatted once with CSV_FMT and each formatted row is
    repeated.  The bytes are np.savetxt's of np.tile(np.atleast_2d(m), repeats).
    """
    m = np.atleast_2d(m)
    row_fmt = ",".join([CSV_FMT] * m.shape[1])
    with open(path, "w") as fh:
        for row in m:
            fh.write(",".join([row_fmt % tuple(row)] * repeats) + "\n")


def _tiles(m: np.ndarray, period: int) -> tuple[np.ndarray, int]:
    """(first period, count) of a matrix whose columns repeat every `period`."""
    return m[:, :period], m.shape[1] // period


def read_matrix(path: str) -> np.ndarray:
    """The CSV matrix at `path`; a malformed file, one without entries or one
    with a NaN or infinity is a ValueError that names `path`."""
    with warnings.catch_warnings():  # numpy warns on a file without data
        warnings.simplefilter("ignore", UserWarning)
        try:
            m = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if m.size == 0:
        raise ValueError(f"{path} holds no matrix entries")
    if not np.isfinite(m).all():
        raise ValueError(f"{path}: matrix entries must be finite (no NaN/Inf)")
    return m


def _publish(out: Path, files: dict) -> None:
    """Write `files` (name -> text or (matrix, repeats)) and publish them.

    A new `out` is staged in a temporary sibling and renamed into place.  An
    existing `out` is staged in a temporary directory inside it, so only `out`
    must be writable and nothing crosses a filesystem; its finished files are
    moved in with os.replace one at a time.  On error no new `out` and no
    temporary directory is left.
    """
    exists = out.is_dir()
    if not exists:
        out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".strucfact-",
                                  dir=out if exists else out.parent))
    try:
        tmp = stage / "out"
        tmp.mkdir()  # default permissions, unlike mkdtemp's 0700
        for name, content in files.items():
            if isinstance(content, str):
                (tmp / name).write_text(content)
            else:
                write_matrix(tmp / name, *content)
        if exists:
            for name in files:
                os.replace(tmp / name, out / name)
        else:
            tmp.rename(out)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _json_text(payload: dict) -> str:
    """Strict JSON of a report; a NaN or infinity is a numeric failure."""
    try:
        return json.dumps({**payload, "schema": SCHEMA_VERSION}, indent=2,
                          sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"non-finite number in the output: {exc}") from exc


# ---------- simulate ----------

def _simulate_instance(scenario: str, d: int, horizon: int, k: int, seed: int,
                       tau: int | None = None,
                       smooth: sobolev.SmoothFactorSpec | None = None):
    """Ground-truth signal for one scenario; returns (M, U, V_rows, period),
    where the columns of M repeat every `period`."""
    u, v = rates.truth(d, k, seed, tau if scenario == "periodic" else horizon,
                       smooth if scenario == "smooth" else None)
    if scenario == "smooth":
        w = structure.expand(v, structure.build_trig(smooth.n_terms, horizon))
        return u @ w, u, w, horizon
    if scenario == "periodic":
        basis = structure.build_periodic(tau, horizon)
        return structure.expand(u @ v, basis), u, v, basis.period
    return u @ v, u, v, horizon


def cmd_simulate(cfg: dict, out: Path, seed_override: int | None) -> None:
    p = _parse(cfg, SIMULATE, "simulate")
    scenario, d, horizon, k = p["scenario"], p["d"], p["T"], p["k"]
    spec = _spec("noise", NoiseSpec, **p["noise"])
    seed = p["seed"] if seed_override is None else seed_override
    smooth = _smooth_spec(p, horizon, "simulate") if scenario == "smooth" else None

    m, u, v, period = _simulate_instance(scenario, d, horizon, k, seed,
                                         tau=p.get("tau"), smooth=smooth)
    x = m + sample_noise(spec, d, horizon, replication_seed(seed, 1))
    manifest = _json_text({"config": cfg, "seed": seed,
                           "noise_op_norm": sigma_op_norm(spec, horizon)})

    _publish(out, {"M.csv": _tiles(m, period), "X.csv": (x, 1),
                   "U.csv": (u, 1), "V.csv": (v, 1), "manifest.json": manifest})


# ---------- fit ----------

def cmd_fit(cfg: dict, out: Path, seed_override: int | None) -> None:
    p = _parse(cfg, FIT, "fit")
    b = p["basis"]
    x = read_matrix(p["x"])
    horizon = x.shape[1]
    if b["kind"] == "identity":
        basis = structure.build_identity(horizon)
    elif b["kind"] == "periodic":
        basis = structure.build_periodic(b["tau"], horizon)
    else:
        basis = structure.build_trig(b["n_freq"], horizon)
    model = estimator.fit(x, basis, p["k"])
    m_hat = estimator.predict(model)
    # ||P (L L^T - c I)||_F on the first min(tau, 8) rows P of I_tau.
    probe = np.eye(min(basis.tau, 8), basis.tau)
    round_trip = structure.project(structure.expand(probe, basis), basis)
    summary = _json_text({
        "basis": basis.descriptor(),
        "k": p["k"],
        "empirical_risk": estimator.empirical_risk(m_hat, x),
        "rank": model.rank,
        "gram_residual": basis.gram_constant * float(
            np.linalg.norm(round_trip - probe, "fro")),
    })

    _publish(out, {"M_hat.csv": _tiles(m_hat, basis.period),
                   "U.csv": (model.u, 1), "V.csv": (model.v, 1),
                   "summary.json": summary})


# ---------- select ----------

def cmd_select(cfg: dict, out: Path, seed_override: int | None) -> None:
    p = _parse(cfg, SELECT, "select")
    pen = p["penalty"]
    x = read_matrix(p["x"])
    horizon = x.shape[1]
    bases = [structure.build_periodic(tau, horizon) for tau in p["taus"]]
    bases += [structure.build_trig(n_freq, horizon) for n_freq in p["n_freqs"]]
    params = _spec("penalty", PenaltyParams, lam=pen["lambda"], c_pen=pen["c_pen"],
                   noise_level=pen["noise_level"], s=pen["s"])
    result = select(x, CandidateGrid(bases=bases, ranks=p["ranks"]), params)
    table = "tau,k,empirical_risk,penalty,score,chosen\n" + "".join(
        f"{row.tau},{row.k},{row.empirical_risk:.17g},"
        f"{row.penalty:.17g},{row.score:.17g},{int(row is result.winner)}\n"
        for row in result.table)
    winner = _json_text({
        "chosen_tau": result.chosen_tau,
        "chosen_k": result.chosen_k,
        "noise_level": result.noise_level,
        "score": result.winner.score,
    })

    _publish(out, {"table.csv": table, "winner.json": winner})


# ---------- rate-check ----------

@functools.cache
def _bundled_openblas():
    """(get, set) of the thread count of the OpenBLAS shipped in numpy's wheel,
    or None where there is none (another BLAS, or a system OpenBLAS)."""
    root = Path(np.__file__).parent
    for lib in [*root.parent.glob("numpy.libs/*openblas*"),
                *root.glob(".dylibs/*openblas*")]:
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            try:
                dll = ctypes.CDLL(str(lib))
                return (getattr(dll, f"{prefix}get_num_threads{suffix}"),
                        getattr(dll, f"{prefix}set_num_threads{suffix}"))
            except (OSError, AttributeError):
                pass
    return None


def _mean_risks(replicate, points, replications, threads, block_sizes):
    """Mean and std risk per point i of its replications i * replications + r,
    r < replications, in blocks of block_sizes[i] consecutive ones, each the
    risks of replicate(point i, range of its indices).  min(threads, blocks)
    tasks run them: one on the calling thread, more on one pool.

    The tasks take block numbers from one counter until a failure is recorded:
    a block's error (the lowest block's is raised, and a block stops at its
    first failing replication), a pool thread that cannot start (a
    MemoryError, ranked last) or an interrupt, re-raised."""
    risks, failed = np.empty((len(points), replications)), {}
    # Point i has blocks firsts[i] to firsts[i + 1] - 1.
    firsts = list(itertools.accumulate(
        (-(-replications // size) for size in block_sizes), initial=0))
    blocks = itertools.count()  # no lock: its C __next__ is atomic under the GIL

    def task():
        for block in blocks:
            if failed or block >= firsts[-1]:
                return
            i = bisect.bisect_right(firsts, block) - 1
            start = (block - firsts[i]) * block_sizes[i]
            row = risks[i, start:start + block_sizes[i]]
            first = i * replications + start
            try:
                row[:] = replicate(points[i], range(first, first + row.size))
            except BaseException as exc:
                failed[first] = exc

    tasks = min(threads, firsts[-1])
    if tasks == 1:
        task()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            try:
                for _ in range(tasks):
                    pool.submit(task)
                pool.shutdown()  # the join that Ctrl-C interrupts
            except RuntimeError as exc:  # Thread.start: "can't start new thread"
                failed[risks.size] = MemoryError(
                    f"rate-check could not start a pool thread: {exc}")
            except BaseException as exc:  # Ctrl-C: each task ends its block
                failed[-1] = exc
                raise
    if failed:
        raise failed[min(failed)]
    return risks.mean(axis=1), risks.std(axis=1)


def cmd_rate_check(cfg: dict, out: Path, seed_override: int | None,
                   threads: int = 1) -> None:
    p = _parse(cfg, RATE_CHECK, "rate-check")
    scenario, d, k, reps = p["scenario"], p["d"], p["k"], p["replications"]
    spec = _spec("noise", NoiseSpec, **p["noise"])
    seed = p["seed"] if seed_override is None else seed_override

    # One fit basis per point: a sweep over T, or the smooth scenario's cutoff
    # grid {1, N*/2, N*, 2N*, 4N*} of trig bases (n_freq = tau // 2) at one T.
    smooth = None
    if scenario == "smooth":
        horizon = p["T"]
        smooth = _smooth_spec(p, horizon, "rate-check")
        n_star = sobolev.optimal_cutoff(smooth.beta, p["c_beta_l"], d, horizon,
                                        k, sigma_op_norm(spec, horizon))
        grid = sorted({max(1, n) for n in
                       (1, n_star // 2, n_star, 2 * n_star, 4 * n_star)
                       if 2 * max(1, n) < horizon})
        bases = [structure.build_trig(n, horizon) for n in grid]
    else:
        sweep = p["sweep_T"]
        if len(set(sweep)) < 4:
            raise ConfigError("rate-check: sweep_T needs at least 4 distinct "
                              f"points for the regression, got {sweep}")
        bases = [structure.build_identity(horizon) if scenario == "unstructured"
                 else structure.build_periodic(p["tau"], horizon)
                 for horizon in sweep]
    replicate = functools.partial(_one_replication, d, k, spec, seed, smooth)
    # At one OpenBLAS thread the pool is the only parallelism, and no product
    # rounds in another way at another --threads (OpenBLAS may).
    get, set_ = _bundled_openblas() or (lambda: 1, None)
    old = get()
    if old != 1:
        set_(1)
    try:
        # Inside the guard: a trig point's noise factor comes from a QR.
        rows, points = zip(*[rates.build_point(spec, b, d, k, p["s"], smooth,
                                               p.get("c_beta_l")) for b in bases])
        means, stds = _mean_risks(replicate, points, reps, threads,
                                  [rates.block_size(d, k, spec, smooth, b)
                                   for b in bases])
        for row, mu, sd in zip(rows, means, stds):
            row.update(mean_risk=float(mu), std_risk=float(sd), replications=reps)

        report = {"scenario": scenario, "points": rows}
        if smooth is not None:
            star_risk = float(means[grid.index(n_star)])
            report.update(optimal_cutoff=n_star, risk_at_cutoff=star_risk,
                          best_grid_risk=float(means.min()),
                          passed=bool(star_risk <= 2.0 * means.min()))
        else:
            slope, intercept, se = rates.loglog_slope(
                [row["theoretical_rate"] for row in rows], means)
            report.update(slope=slope, intercept=intercept, slope_stderr=se,
                          slope_tol=p["slope_tol"],
                          passed=bool(abs(slope - 1.0) <= p["slope_tol"]))
    finally:
        if old != 1:
            set_(old)
    _publish(out, {"rate_report.json": _json_text(report)})


# ---------- entry point ----------

COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "select": cmd_select,
    "rate-check": cmd_rate_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strucfact",
        description="Structured low-rank time-series factorization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for rate-check replications")
    return parser


def main(argv=None) -> int:
    """Run one command; every failure becomes an exit code and one stderr line."""
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        with open(args.config, encoding="utf-8") as fh:
            try:
                cfg = json.load(fh, object_pairs_hook=_unique_keys,
                                parse_int=_int_literal)
            except RecursionError:
                raise ConfigError(f"{args.config}: JSON nested too deeply") from None
            except ValueError as exc:  # not UTF-8, not JSON, or a hook's error
                raise ConfigError(f"{args.config}: {exc}") from None
        if isinstance(cfg, dict) and cfg.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {_shown(cfg['schema'])}")
        out = Path(args.out)
        with np.errstate(**rates.FP_ERRORS):
            if args.command == "rate-check":
                cmd_rate_check(cfg, out, args.seed, threads=args.threads)
            else:
                COMMANDS[args.command](cfg, out, args.seed)
    except ValueError as exc:  # ConfigError and the library's argument checks
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
