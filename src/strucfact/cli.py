"""Command-line front end: simulate, fit, select, rate-check.

All commands read a strict JSON config, write CSV matrices (17 significant
digits, comma delimiter, no header) plus strict JSON manifests/reports, and
are fully deterministic given (config, seed, threads).  Each command checks
its config against one typed table before computing anything, computes
every output before it writes a file, and publishes the output directory
atomically.  The CSV writer formats each value once: a tiled matrix (a
periodic signal, an identity or periodic fit) repeats its formatted period.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import estimator, sobolev, structure
from .errors import ConvergenceError
from .noise import KINDS, NoiseSpec, replication_seed, sample_noise, sigma_op_norm
from .select import CandidateGrid, PenaltyParams, select

SCHEMA_VERSION = 1
CSV_FMT = "%.17g"


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


# ---------- config tables ----------

# Each table maps key -> (type, default, minimum).  A type is int (no bools,
# no floats), float (a finite real), str, list (of ints, each >= minimum;
# empty only when the default is empty), a tuple of allowed strings, or a
# nested table.  Defaults are used as given and never written back.
REQUIRED = object()
POSITIVE = math.ulp(0.0)  # smallest positive float: as a minimum it means > 0
SCHEMA = (int, SCHEMA_VERSION, None)

NOISE = {"kind": (KINDS, REQUIRED, None), "sigma": (float, REQUIRED, POSITIVE),
         "theta": (float, 0.0, None), "rho": (float, 0.0, None)}
SMOOTH = {"beta": (int, REQUIRED, 1), "ell": (float, REQUIRED, POSITIVE),
          "n_terms": (int, REQUIRED, 0)}
BASIS = {"kind": (("identity", "periodic", "trig"), REQUIRED, None),
         "tau": (int, None, 1), "n_freq": (int, None, 0)}
PENALTY = {"lambda": (float, 0.5, POSITIVE), "c_pen": (float, 2.0, 0),
           "s": (float, 1.0, 0), "noise_level": (float, None, POSITIVE)}

# Keys a scenario or basis kind needs beyond its table's required keys.
SIMULATE_NEEDS = {"unstructured": (), "periodic": ("tau",), "smooth": ("smooth",)}
RATE_NEEDS = {"unstructured": ("sweep_T",), "periodic": ("sweep_T", "tau"),
              "smooth": ("T", "smooth")}
BASIS_NEEDS = {"identity": (), "periodic": ("tau",), "trig": ("n_freq",)}

SIMULATE = {"schema": SCHEMA, "scenario": (tuple(SIMULATE_NEEDS), REQUIRED, None),
            "d": (int, REQUIRED, 1), "T": (int, REQUIRED, 2),
            "k": (int, REQUIRED, 1), "tau": (int, None, 1),
            "smooth": (SMOOTH, None, None), "noise": (NOISE, REQUIRED, None),
            "seed": (int, 0, 0)}
FIT = {"schema": SCHEMA, "x": (str, REQUIRED, None),
       "basis": (BASIS, REQUIRED, None), "k": (int, REQUIRED, 1)}
SELECT = {"schema": SCHEMA, "x": (str, REQUIRED, None), "taus": (list, [], 1),
          "n_freqs": (list, [], 0), "ranks": (list, REQUIRED, 1),
          "penalty": (PENALTY, REQUIRED, None)}
RATE_CHECK = {"schema": SCHEMA, "scenario": (tuple(RATE_NEEDS), REQUIRED, None),
              "d": (int, REQUIRED, 1), "k": (int, REQUIRED, 1),
              "noise": (NOISE, REQUIRED, None),
              "replications": (int, REQUIRED, 1), "seed": (int, 0, 0),
              "sweep_T": (list, None, 2), "tau": (int, None, 1),
              # The smooth cutoff grid always holds n_freq = 1, so T >= 3.
              "T": (int, None, 3), "smooth": (SMOOTH, None, None),
              "c_beta_l": (float, 1.0, POSITIVE), "slope_tol": (float, 0.15, 0),
              "s": (float, 1.0, 0)}

TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
              list: "a non-empty list of integers"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse(cfg, table: dict, where: str) -> dict:
    """Check `cfg` against `table`; return a copy with defaults filled in."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected an object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    parsed = {}
    for key, (kind, default, minimum) in table.items():
        if key not in cfg:
            if default is REQUIRED:
                raise ConfigError(f"{where}: missing required key {key!r}")
            parsed[key] = default
            continue
        value = cfg[key]
        if isinstance(kind, dict):
            parsed[key] = _parse(value, kind, key)
            continue
        if kind is int:
            ok = _is_int(value)
        elif kind is float:
            ok = _is_int(value) or isinstance(value, float) and math.isfinite(value)
        elif kind is list:
            ok = (isinstance(value, list) and all(map(_is_int, value))
                  and (value or default == []))
        elif kind is str:
            ok = isinstance(value, str)
        else:
            ok = isinstance(value, str) and value in kind
        if not ok:
            expected = TYPE_NAMES.get(kind) or f"one of {list(kind)}"
            raise ConfigError(f"{where}: {key} must be {expected}, got {value!r}")
        if minimum is not None and any(
                v < minimum for v in (value if kind is list else [value])):
            bound = "> 0" if minimum is POSITIVE else f">= {minimum}"
            raise ConfigError(f"{where}: {key} must be {bound}, got {value!r}")
        parsed[key] = value
    return parsed


def _needs(parsed: dict, keys, what: str) -> None:
    missing = [key for key in keys if parsed[key] is None]
    if missing:
        raise ConfigError(f"{what} needs {missing}")


def _noise_spec(noise: dict) -> NoiseSpec:
    """The parsed noise section as a NoiseSpec; its range checks name the section."""
    try:
        return NoiseSpec(**noise)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


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
    return np.loadtxt(path, delimiter=",", ndmin=2)


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
    rng = np.random.default_rng(seed)
    if scenario == "smooth":
        w = sobolev.gen_smooth_dictionary(smooth, horizon, seed)
        u = rng.standard_normal((d, k))
        u /= np.linalg.norm(u, axis=1, keepdims=True)  # row norms = 1
        return u @ w, u, w, horizon
    u = rng.standard_normal((d, k))
    if scenario == "periodic":
        v = rng.standard_normal((k, tau))
        basis = structure.build_periodic(tau, horizon)
        return structure.expand(u @ v, basis), u, v, basis.period
    v = rng.standard_normal((k, horizon))
    return u @ v, u, v, horizon


def cmd_simulate(cfg: dict, out: Path, seed_override: int | None) -> None:
    p = _parse(cfg, SIMULATE, "simulate")
    scenario, d, horizon, k = p["scenario"], p["d"], p["T"], p["k"]
    _needs(p, SIMULATE_NEEDS[scenario], f"simulate: scenario {scenario!r}")
    spec = _noise_spec(p["noise"])
    seed = p["seed"] if seed_override is None else seed_override
    smooth = (sobolev.SmoothFactorSpec(k=k, **p["smooth"])
              if scenario == "smooth" else None)

    m, u, v, period = _simulate_instance(scenario, d, horizon, k, seed,
                                         tau=p["tau"], smooth=smooth)
    x = m + sample_noise(spec, d, horizon, replication_seed(seed, 1))
    manifest = _json_text({"config": cfg, "seed": seed,
                           "noise_op_norm": sigma_op_norm(spec, horizon).op_norm})

    _publish(out, {"M.csv": _tiles(m, period), "X.csv": (x, 1),
                   "U.csv": (u, 1), "V.csv": (v, 1), "manifest.json": manifest})


# ---------- fit ----------

def cmd_fit(cfg: dict, out: Path, seed_override: int | None) -> None:
    p = _parse(cfg, FIT, "fit")
    b = p["basis"]
    _needs(b, BASIS_NEEDS[b["kind"]], f"basis: kind {b['kind']!r}")
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
    grid = CandidateGrid(bases=bases, ranks=p["ranks"])
    result = select(x, grid, PenaltyParams(lam=pen["lambda"], c_pen=pen["c_pen"],
                                           noise_level=pen["noise_level"],
                                           s=pen["s"]))
    table = "tau,k,empirical_risk,penalty,score,chosen\n" + "".join(
        f"{row.tau},{row.k},{row.empirical_risk:.17g},"
        f"{row.penalty:.17g},{row.score:.17g},{int(row.chosen)}\n"
        for row in result.table)
    winner = _json_text({
        "chosen_tau": result.chosen_tau,
        "chosen_k": result.chosen_k,
        "noise_level": result.noise_level,
        "score": min(r.score for r in result.table),
    })

    _publish(out, {"table.csv": table, "winner.json": winner})


# ---------- rate-check ----------

def _one_replication(scenario, d, horizon, k, spec, fit_basis, idx, seed,
                     tau=None, smooth=None):
    """simulate -> fit -> normalized risk for one Monte-Carlo replication."""
    sig_seed = replication_seed(seed, 2 * idx)
    eps_seed = replication_seed(seed, 2 * idx + 1)
    m, *_ = _simulate_instance(scenario, d, horizon, k, sig_seed,
                               tau=tau, smooth=smooth)
    x = m + sample_noise(spec, d, horizon, eps_seed)
    model = estimator.fit(x, fit_basis, k)
    return estimator.risk(estimator.predict(model), m)


def _mean_risks(jobs, replications, threads):
    """Run callables indexed (point, replication) and average per point."""
    results = np.empty((len(jobs), replications))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {(i, r): pool.submit(job, r)
                       for i, job in enumerate(jobs) for r in range(replications)}
            for (i, r), fut in futures.items():
                results[i, r] = fut.result()
    else:
        for i, job in enumerate(jobs):
            for r in range(replications):
                results[i, r] = job(r)
    return results.mean(axis=1), results.std(axis=1)


def _loglog_slope(rates, means):
    """OLS slope of log(mean risk) on log(rate), with slope standard error."""
    lx = np.log(rates)
    ly = np.log(means)
    n = len(lx)
    xbar, ybar = lx.mean(), ly.mean()
    sxx = np.sum((lx - xbar) ** 2)
    slope = float(np.sum((lx - xbar) * (ly - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = ly - (intercept + slope * lx)
    se = float(np.sqrt(np.sum(resid ** 2) / max(n - 2, 1) / sxx))
    return slope, intercept, se


def cmd_rate_check(cfg: dict, out: Path, seed_override: int | None,
                   threads: int = 1) -> None:
    p = _parse(cfg, RATE_CHECK, "rate-check")
    scenario, d, k, reps = p["scenario"], p["d"], p["k"], p["replications"]
    _needs(p, RATE_NEEDS[scenario], f"rate-check: scenario {scenario!r}")
    spec = _noise_spec(p["noise"])
    seed = p["seed"] if seed_override is None else seed_override

    # Points (T, n_freq, fit basis): a sweep over T, or the smooth scenario's
    # cutoff grid {1, N*/2, N*, 2N*, 4N*} at one T.
    smooth = None
    if scenario == "smooth":
        smooth = sobolev.SmoothFactorSpec(k=k, **p["smooth"])
        horizon = p["T"]
        if horizon < 2 * smooth.n_terms + 2:
            raise ConfigError(f"rate-check: T={horizon} must be >= 2 n_terms + 2 "
                              f"= {2 * smooth.n_terms + 2}")
        op = {horizon: sigma_op_norm(spec, horizon).op_norm}
        n_star = sobolev.optimal_cutoff(smooth.beta, p["c_beta_l"], d, horizon,
                                        k, op[horizon])
        grid = sorted({max(1, n) for n in
                       (1, n_star // 2, n_star, 2 * n_star, 4 * n_star)
                       if 2 * max(1, n) < horizon})
        points = [(horizon, n, structure.build_trig(n, horizon)) for n in grid]
    else:
        sweep = p["sweep_T"]
        if len(set(sweep)) < 4:
            raise ConfigError("rate-check: sweep_T needs at least 4 distinct "
                              f"points for the regression, got {sweep}")
        op = {horizon: sigma_op_norm(spec, horizon).op_norm for horizon in sweep}
        points = [(horizon, None, structure.build_identity(horizon)
                   if scenario == "unstructured"
                   else structure.build_periodic(p["tau"], horizon))
                  for horizon in sweep]
    for horizon, _, basis in points:
        if k > min(d, basis.tau):
            raise ConfigError(f"rate-check: k={k} exceeds min(d, tau) = "
                              f"{min(d, basis.tau)} at T={horizon}")

    rows, jobs = [], []
    for i, (horizon, n_freq, basis) in enumerate(points):
        row = {"d": d, "T": horizon, "tau": basis.tau, "k": k}
        rate = op[horizon] * k * (d + basis.tau + p["s"]) / (d * horizon)
        if smooth is not None:
            row["n_freq"] = n_freq
            rate += p["c_beta_l"] * float(n_freq) ** (-2 * smooth.beta)
        rows.append(dict(row, theoretical_rate=rate))
        jobs.append(lambda r, h=horizon, fb=basis, i=i:
                    _one_replication(scenario, d, h, k, spec, fb, i * reps + r,
                                     seed, tau=p["tau"], smooth=smooth))
    means, stds = _mean_risks(jobs, reps, threads)
    for row, mu, sd in zip(rows, means, stds):
        row.update(mean_risk=float(mu), std_risk=float(sd), replications=reps)

    report = {"scenario": scenario, "points": rows}
    if smooth is not None:
        star_risk = float(means[grid.index(n_star)])
        report.update(optimal_cutoff=n_star, risk_at_cutoff=star_risk,
                      best_grid_risk=float(means.min()),
                      passed=bool(star_risk <= 2.0 * means.min()))
    else:
        slope, intercept, se = _loglog_slope(
            [row["theoretical_rate"] for row in rows], means)
        report.update(slope=slope, intercept=intercept, slope_stderr=se,
                      slope_tol=p["slope_tol"],
                      passed=bool(abs(slope - 1.0) <= p["slope_tol"]))
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
                       help="worker threads for rate-check replications; they "
                            "multiply with BLAS threads, so pair --threads > 1 "
                            "with OPENBLAS_NUM_THREADS=1 (results are identical "
                            "at every thread count)")
    return parser


def main(argv=None) -> int:
    """Run one command; every failure becomes an exit code and one stderr line."""
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        with open(args.config) as fh:
            cfg = json.load(fh)
        if isinstance(cfg, dict) and cfg.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {cfg['schema']!r}")
        out = Path(args.out)
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
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
