"""The benchmark's workloads: configs made from a seed, commands and checks.

Each workload is a fixed sequence of cold ``strucfact`` commands.  The
workload seed goes into the generated configs and nowhere else.  Every
command has an output check beyond the generic ones in ``run.py`` (exit
code 0, no traceback, strict JSON, identical bytes on every pass).

The ``tiny`` size exists for the benchmark's own tests; the benchmark runs
``full``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckError(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Command:
    name: str                 # strucfact subcommand
    config: dict
    out: str                  # output directory, relative to the pass directory
    check: Callable[[Path], dict]   # raises CheckError; returns details
    threads: int = 1

    def argv(self, config_path: str) -> list:
        return [self.name, "--config", config_path, "--out", self.out,
                "--threads", str(self.threads)]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple


def strict_json(path: Path):
    """Parse a JSON file, rejecting NaN and infinities."""
    def reject(token):
        raise CheckError(f"{path.name} holds non-standard JSON {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------- cli-pipeline ----------

PIPELINE = {
    "full": {"d": 200, "T": 2400, "taus": [6, 12, 24, 48, 2400],
             "n_freqs": [5, 10, 20, 40]},
    "tiny": {"d": 20, "T": 240, "taus": [6, 12, 24, 240], "n_freqs": [2, 5]},
}
PIPE_TAU, PIPE_K, PIPE_SIGMA = 12, 3, 0.5
PIPE_RANKS = [1, 2, 3, 4, 5, 6]
# risk(M_hat, M) is about sigma^2 k (d + tau) / (d T); it measured 0.73-1.05
# times that over 19 seeds at both sizes.
PIPE_RISK_FACTOR = 1.5


def cli_pipeline(seed: int, size: str = "full") -> Workload:
    p = PIPELINE[size]
    d, horizon = p["d"], p["T"]

    def check_simulate(pass_dir: Path) -> dict:
        manifest = strict_json(pass_dir / "data" / "manifest.json")
        _expect(manifest["seed"] == seed, "manifest seed differs")
        _expect(manifest["noise_op_norm"] == PIPE_SIGMA ** 2,
                "iid noise op norm is not sigma^2")
        for name, shape in (("M", (d, horizon)), ("X", (d, horizon)),
                            ("U", (d, PIPE_K)), ("V", (PIPE_K, PIPE_TAU))):
            got = _read_csv(pass_dir / "data" / f"{name}.csv").shape
            _expect(got == shape, f"{name}.csv has shape {got}, not {shape}")
        return {}

    def check_fit(pass_dir: Path) -> dict:
        summary = strict_json(pass_dir / "fitted" / "summary.json")
        _expect(summary["k"] == PIPE_K and summary["rank"] == PIPE_K,
                f"fit rank {summary['rank']} is not {PIPE_K}")
        m = _read_csv(pass_dir / "data" / "M.csv")
        m_hat = _read_csv(pass_dir / "fitted" / "M_hat.csv")
        risk = float(np.sum((m_hat - m) ** 2) / m.size)
        bound = PIPE_RISK_FACTOR * PIPE_SIGMA ** 2 * PIPE_K * (d + PIPE_TAU) \
            / (d * horizon)
        _expect(risk < bound, f"risk {risk:.3e} exceeds {bound:.3e}")
        return {"fit_risk": risk, "fit_risk_bound": bound}

    def check_select(pass_dir: Path) -> dict:
        winner = strict_json(pass_dir / "selected" / "winner.json")
        chosen = (winner["chosen_tau"], winner["chosen_k"])
        _expect(chosen == (PIPE_TAU, PIPE_K),
                f"select chose {chosen}, not {(PIPE_TAU, PIPE_K)}")
        rows = (pass_dir / "selected" / "table.csv").read_text().splitlines()
        taus = p["taus"] + [2 * n + 1 for n in p["n_freqs"]]
        feasible = sum(1 for t in taus for k in PIPE_RANKS if k <= min(d, t))
        _expect(len(rows) == 1 + feasible,
                f"table has {len(rows) - 1} rows, not {feasible}")
        _expect(sum(r.endswith(",1") for r in rows[1:]) == 1,
                "table does not mark exactly one winner")
        return {"chosen_tau": chosen[0], "chosen_k": chosen[1]}

    return Workload(
        name="cli-pipeline",
        commands=(
            Command("simulate", {
                "scenario": "periodic", "d": d, "T": horizon,
                "tau": PIPE_TAU, "k": PIPE_K,
                "noise": {"kind": "iid", "sigma": PIPE_SIGMA}, "seed": seed},
                "data", check_simulate),
            Command("fit", {
                "x": "data/X.csv",
                "basis": {"kind": "periodic", "tau": PIPE_TAU}, "k": PIPE_K},
                "fitted", check_fit),
            Command("select", {
                "x": "data/X.csv", "taus": p["taus"], "n_freqs": p["n_freqs"],
                "ranks": PIPE_RANKS,
                "penalty": {"lambda": 0.5, "c_pen": 2.0, "s": 1.0}},
                "selected", check_select),
        ))


# ---------- ratecheck-unstructured ----------

UNSTRUCTURED = {
    "full": {"d": 50, "sweep_T": [250, 500, 1000, 2000], "replications": 100,
             "band": (0.9, 1.1)},
    "tiny": {"d": 10, "sweep_T": [20, 40, 80, 160], "replications": 5,
             "band": (0.5, 1.5)},
}


def ratecheck_unstructured(seed: int, size: str = "full") -> Workload:
    p = UNSTRUCTURED[size]
    lo, hi = p["band"]

    def check(pass_dir: Path) -> dict:
        report = strict_json(pass_dir / "report" / "rate_report.json")
        points = report["points"]
        _expect([pt["T"] for pt in points] == p["sweep_T"], "sweep points differ")
        ratios = [pt["mean_risk"] / pt["theoretical_rate"] for pt in points]
        # The slope is not checked: at T >> d the rate moves only ~16% over
        # the sweep, so the fitted slope wanders with the seed.
        _expect(all(lo <= r <= hi for r in ratios),
                f"mean_risk / theoretical_rate {ratios} outside [{lo}, {hi}]")
        return {"risk_ratios": ratios, "slope": report["slope"],
                "fits": sum(pt["replications"] for pt in points)}

    return Workload(
        name="ratecheck-unstructured",
        commands=(Command("rate-check", {
            "scenario": "unstructured", "d": p["d"], "k": 2,
            "noise": {"kind": "iid", "sigma": 0.5},
            "sweep_T": p["sweep_T"], "replications": p["replications"],
            "seed": seed}, "report", check, threads=2),))


# ---------- ratecheck-smooth-ar1 ----------

SMOOTH = {
    # Do not raise T: at T = 2048 the AR(1) power iteration alone takes ~40 s.
    "full": {"d": 30, "T": 1024, "n_terms": 96, "replications": 60},
    "tiny": {"d": 10, "T": 128, "n_terms": 16, "replications": 4},
}


def ratecheck_smooth_ar1(seed: int, size: str = "full") -> Workload:
    p = SMOOTH[size]

    def check(pass_dir: Path) -> dict:
        report = strict_json(pass_dir / "report" / "rate_report.json")
        means = {pt["n_freq"]: pt["mean_risk"] for pt in report["points"]}
        _expect(report["risk_at_cutoff"] == means[report["optimal_cutoff"]],
                "risk_at_cutoff is not the cutoff point's mean risk")
        _expect(report["best_grid_risk"] == min(means.values()),
                "best_grid_risk is not the grid minimum")
        ratio = report["risk_at_cutoff"] / report["best_grid_risk"]
        _expect(report["passed"] is True and ratio <= 2.0,
                f"risk at the optimal cutoff is {ratio:.3f}x the grid best")
        return {"cutoff_risk_ratio": ratio,
                "fits": sum(pt["replications"] for pt in report["points"])}

    return Workload(
        name="ratecheck-smooth-ar1",
        commands=(Command("rate-check", {
            "scenario": "smooth", "d": p["d"], "k": 2, "T": p["T"],
            "smooth": {"beta": 2, "ell": 30, "n_terms": p["n_terms"]},
            "noise": {"kind": "ar1", "sigma": 0.5, "rho": 0.5},
            "replications": p["replications"], "seed": seed},
            "report", check),))


WORKLOADS = {
    "cli-pipeline": cli_pipeline,
    "ratecheck-unstructured": ratecheck_unstructured,
    "ratecheck-smooth-ar1": ratecheck_smooth_ar1,
}
