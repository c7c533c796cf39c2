"""Command-line front end: simulate, fit, select, rate-check.

All commands read a strict JSON config (unknown keys are errors), write CSV
matrices (17 significant digits, comma delimiter, no header) plus JSON
manifests/reports, and are fully deterministic given (config, seed, threads).

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import estimator, noise, sobolev, structure
from .errors import ConvergenceError
from .noise import NoiseSpec, replication_seed, sample_noise, sigma_op_norm
from .select import CandidateGrid, PenaltyParams, calibrate_noise_level, select
from .structure import StructureBasis

SCHEMA_VERSION = 1
CSV_FMT = "%.17g"


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


# ---------- config plumbing ----------

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _check_keys(cfg: dict, allowed: set, where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return cfg[key]


def _parse_noise(cfg) -> NoiseSpec:
    if not isinstance(cfg, dict):
        raise ConfigError("'noise' must be an object")
    _check_keys(cfg, {"kind", "sigma", "theta", "rho"}, "noise")
    kind = _require(cfg, "kind", "noise")
    sigma = _require(cfg, "sigma", "noise")
    try:
        return NoiseSpec(kind=kind, sigma=sigma,
                         theta=cfg.get("theta", 0.0), rho=cfg.get("rho", 0.0))
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def _parse_basis(cfg, horizon: int) -> StructureBasis:
    if not isinstance(cfg, dict):
        raise ConfigError("'basis' must be an object")
    _check_keys(cfg, {"kind", "tau", "n_freq"}, "basis")
    kind = _require(cfg, "kind", "basis")
    try:
        if kind == "identity":
            return structure.build_identity(horizon)
        if kind == "periodic":
            return structure.build_periodic(_require(cfg, "tau", "basis"), horizon)
        if kind == "trig":
            return structure.build_trig(_require(cfg, "n_freq", "basis"), horizon)
    except ValueError as exc:
        raise ConfigError(f"basis: {exc}") from exc
    raise ConfigError(f"unknown basis kind {kind!r}")


def _parse_smooth(cfg, k) -> sobolev.SmoothFactorSpec:
    if not isinstance(cfg, dict):
        raise ConfigError("'smooth' must be an object")
    _check_keys(cfg, {"beta", "ell", "n_terms"}, "smooth")
    try:
        return sobolev.SmoothFactorSpec(k=k, beta=_require(cfg, "beta", "smooth"),
                                        ell=_require(cfg, "ell", "smooth"),
                                        n_terms=_require(cfg, "n_terms", "smooth"))
    except ValueError as exc:
        raise ConfigError(f"smooth: {exc}") from exc


# ---------- file I/O ----------

def write_matrix(path: Path, m: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(m), fmt=CSV_FMT, delimiter=",")


def read_matrix(path: str) -> np.ndarray:
    try:
        m = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError:
        raise
    except ValueError as exc:
        raise ConfigError(f"could not parse matrix CSV {path}: {exc}") from exc
    return m


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["schema"] = SCHEMA_VERSION
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------- simulate ----------

def _simulate_instance(scenario: str, d: int, horizon: int, k: int, seed: int,
                       tau: int | None = None,
                       smooth: sobolev.SmoothFactorSpec | None = None):
    """Ground-truth signal for one scenario; returns (M, U, V_rows, basis)."""
    rng = np.random.default_rng(seed)
    if scenario == "unstructured":
        basis = structure.build_identity(horizon)
        u = rng.standard_normal((d, k))
        v = rng.standard_normal((k, horizon))
        return u @ v, u, v, basis
    if scenario == "periodic":
        basis = structure.build_periodic(tau, horizon)
        u = rng.standard_normal((d, k))
        v = rng.standard_normal((k, tau))
        return structure.expand(u @ v, basis), u, v, basis
    if scenario == "smooth":
        w = sobolev.gen_smooth_dictionary(smooth, horizon, seed)
        u = rng.standard_normal((d, k))
        u /= np.linalg.norm(u, axis=1, keepdims=True)  # row norms = 1
        return u @ w, u, w, None
    raise ConfigError(f"unknown scenario {scenario!r}")


def cmd_simulate(cfg: dict, out: Path, seed_override: int | None) -> None:
    _check_keys(cfg, {"schema", "scenario", "d", "T", "k", "tau", "smooth",
                      "noise", "seed"}, "simulate config")
    scenario = _require(cfg, "scenario", "config")
    d = _require(cfg, "d", "config")
    horizon = _require(cfg, "T", "config")
    k = _require(cfg, "k", "config")
    spec = _parse_noise(_require(cfg, "noise", "config"))
    seed = seed_override if seed_override is not None else cfg.get("seed", 0)

    tau = None
    smooth = None
    if scenario == "periodic":
        tau = _require(cfg, "tau", "periodic config")
    elif scenario == "smooth":
        smooth = _parse_smooth(_require(cfg, "smooth", "smooth config"), k)
    elif scenario != "unstructured":
        raise ConfigError(f"unknown scenario {scenario!r}")

    try:
        m, u, v, _ = _simulate_instance(scenario, d, horizon, k, seed,
                                        tau=tau, smooth=smooth)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    eps = sample_noise(spec, d, horizon, replication_seed(seed, 1))
    x = m + eps

    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "M.csv", m)
    write_matrix(out / "X.csv", x)
    write_matrix(out / "U.csv", u)
    write_matrix(out / "V.csv", v)
    _write_json(out / "manifest.json", {
        "config": cfg,
        "seed": seed,
        "noise_op_norm": sigma_op_norm(spec, horizon).op_norm,
    })


# ---------- fit ----------

def cmd_fit(cfg: dict, out: Path, seed_override: int | None) -> None:
    _check_keys(cfg, {"schema", "x", "basis", "k"}, "fit config")
    x = read_matrix(_require(cfg, "x", "config"))
    basis = _parse_basis(_require(cfg, "basis", "config"), x.shape[1])
    k = _require(cfg, "k", "config")
    try:
        model = estimator.fit(x, basis, k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    m_hat = estimator.predict(model)

    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "M_hat.csv", m_hat)
    write_matrix(out / "U.csv", model.u)
    write_matrix(out / "V.csv", model.v)
    gram = basis.rows @ basis.rows.T
    gram_resid = float(np.linalg.norm(
        gram - basis.gram_constant * np.eye(basis.tau), "fro"))
    _write_json(out / "summary.json", {
        "basis": basis.descriptor(),
        "k": k,
        "empirical_risk": estimator.empirical_risk(m_hat, x),
        "rank": model.rank,
        "gram_residual": gram_resid,
    })


# ---------- select ----------

def _parse_grid(cfg: dict, horizon: int) -> CandidateGrid:
    bases = []
    try:
        for tau in cfg.get("taus", []):
            bases.append(structure.build_periodic(tau, horizon))
        for n_freq in cfg.get("n_freqs", []):
            bases.append(structure.build_trig(n_freq, horizon))
        return CandidateGrid(bases=bases, ranks=list(cfg.get("ranks", [])))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_select(cfg: dict, out: Path, seed_override: int | None) -> None:
    _check_keys(cfg, {"schema", "x", "taus", "n_freqs", "ranks", "penalty"},
                "select config")
    x = read_matrix(_require(cfg, "x", "config"))
    grid = _parse_grid(cfg, x.shape[1])
    pcfg = _require(cfg, "penalty", "config")
    _check_keys(pcfg, {"lambda", "c_pen", "s", "noise_level"}, "penalty")
    noise_level = pcfg.get("noise_level")
    try:
        if noise_level is None:
            noise_level = calibrate_noise_level(x, grid)
        params = PenaltyParams(lam=pcfg.get("lambda", 0.5),
                               c_pen=pcfg.get("c_pen", 2.0),
                               noise_level=noise_level,
                               s=pcfg.get("s", 1.0))
        result = select(x, grid, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "table.csv", "w") as fh:
        fh.write("tau,k,empirical_risk,penalty,score,chosen\n")
        for row in result.table:
            fh.write(f"{row.tau},{row.k},{row.empirical_risk:.17g},"
                     f"{row.penalty:.17g},{row.score:.17g},{int(row.chosen)}\n")
    _write_json(out / "winner.json", {
        "chosen_tau": result.chosen_tau,
        "chosen_k": result.chosen_k,
        "noise_level": noise_level,
        "score": min(r.score for r in result.table),
    })


# ---------- rate-check ----------

def _one_replication(scenario, d, horizon, k, spec, fit_basis, idx, seed,
                     tau=None, smooth=None):
    """simulate -> fit -> normalized risk for one Monte-Carlo replication."""
    sig_seed = replication_seed(seed, 2 * idx)
    eps_seed = replication_seed(seed, 2 * idx + 1)
    m, _, _, _ = _simulate_instance(scenario, d, horizon, k, sig_seed,
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
    _check_keys(cfg, {"schema", "scenario", "d", "k", "noise", "replications",
                      "seed", "sweep_T", "tau", "T", "smooth", "c_beta_l",
                      "slope_tol", "s"}, "rate-check config")
    scenario = _require(cfg, "scenario", "config")
    d = _require(cfg, "d", "config")
    k = _require(cfg, "k", "config")
    spec = _parse_noise(_require(cfg, "noise", "config"))
    replications = _require(cfg, "replications", "config")
    if (not isinstance(replications, int) or isinstance(replications, bool)
            or replications < 1):
        raise ConfigError(f"replications must be an integer >= 1, "
                          f"got {replications!r}")
    seed = seed_override if seed_override is not None else cfg.get("seed", 0)
    slope_tol = cfg.get("slope_tol", 0.15)
    s_conf = cfg.get("s", 1.0)

    if scenario in ("unstructured", "periodic"):
        sweep = _require(cfg, "sweep_T", "config")
        if len(sweep) < 4:
            raise ConfigError("sweep_T needs at least 4 points for the regression")
        tau = cfg.get("tau")
        if scenario == "periodic" and tau is None:
            raise ConfigError("periodic rate-check requires 'tau'")
        points, jobs = [], []
        for pi, horizon in enumerate(sweep):
            try:
                if scenario == "unstructured":
                    fit_basis = structure.build_identity(horizon)
                else:
                    fit_basis = structure.build_periodic(tau, horizon)
            except ValueError as exc:
                raise ConfigError(f"basis: {exc}") from exc
            op = sigma_op_norm(spec, horizon).op_norm
            rate = op * k * (d + fit_basis.tau + s_conf) / (d * horizon)
            points.append({"d": d, "T": horizon, "tau": fit_basis.tau, "k": k,
                           "theoretical_rate": rate})
            jobs.append(lambda r, h=horizon, fb=fit_basis, pi=pi:
                        _one_replication(scenario, d, h, k, spec, fb,
                                         pi * replications + r, seed, tau=tau))
        means, stds = _mean_risks(jobs, replications, threads)
        for pt, mu, sd in zip(points, means, stds):
            pt.update(mean_risk=float(mu), std_risk=float(sd),
                      replications=replications)
        slope, intercept, se = _loglog_slope(
            [p["theoretical_rate"] for p in points], means)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "rate_report.json", {
            "scenario": scenario,
            "points": points,
            "slope": slope,
            "intercept": intercept,
            "slope_stderr": se,
            "slope_tol": slope_tol,
            "passed": bool(abs(slope - 1.0) <= slope_tol),
        })
        return

    if scenario != "smooth":
        raise ConfigError(f"unknown scenario {scenario!r}")

    horizon = _require(cfg, "T", "config")
    smooth = _parse_smooth(_require(cfg, "smooth", "config"), k)
    c_beta_l = cfg.get("c_beta_l", 1.0)
    op = sigma_op_norm(spec, horizon).op_norm
    n_star = sobolev.optimal_cutoff(smooth.beta, c_beta_l, d, horizon, k, op)
    grid = sorted({max(1, n) for n in
                   (1, n_star // 2, n_star, 2 * n_star, 4 * n_star)
                   if 2 * max(1, n) < horizon})
    points, jobs = [], []
    for pi, n_freq in enumerate(grid):
        fit_basis = structure.build_trig(n_freq, horizon)
        rate = (op * k * (d + fit_basis.tau + s_conf) / (d * horizon)
                + c_beta_l * float(n_freq) ** (-2 * smooth.beta))
        points.append({"d": d, "T": horizon, "tau": fit_basis.tau, "k": k,
                       "n_freq": n_freq, "theoretical_rate": rate})
        jobs.append(lambda r, fb=fit_basis, pi=pi:
                    _one_replication("smooth", d, horizon, k, spec, fb,
                                     pi * replications + r, seed, smooth=smooth))
    means, stds = _mean_risks(jobs, replications, threads)
    for pt, mu, sd in zip(points, means, stds):
        pt.update(mean_risk=float(mu), std_risk=float(sd),
                  replications=replications)
    star_risk = means[grid.index(n_star)]
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "rate_report.json", {
        "scenario": "smooth",
        "points": points,
        "optimal_cutoff": n_star,
        "risk_at_cutoff": float(star_risk),
        "best_grid_risk": float(means.min()),
        "passed": bool(star_risk <= 2.0 * means.min()),
    })


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
                       help="worker threads for Monte-Carlo replications")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if cfg.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema version {cfg.get('schema')}")
        out = Path(args.out)
        if args.command == "rate-check":
            cmd_rate_check(cfg, out, args.seed, threads=args.threads)
        else:
            COMMANDS[args.command](cfg, out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
