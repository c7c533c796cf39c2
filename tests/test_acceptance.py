"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from strucfact import (CandidateGrid, NoiseSpec, PenaltyParams, SmoothFactorSpec,
                       bias_of_truncation, build_identity, build_periodic,
                       build_trig, covariance_matrix, empirical_risk, expand,
                       fit, gen_smooth_dictionary, predict, project, risk,
                       sample_noise, select, sigma_op_norm)
from strucfact.cli import cmd_rate_check, main
from strucfact.noise import replication_seed


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def periodic_signal(d, horizon, tau, k, seed):
    rng = np.random.default_rng(seed)
    basis = build_periodic(tau, horizon)
    return expand(rng.standard_normal((d, k)) @ rng.standard_normal((k, tau)),
                  basis), basis


def test_criterion_01_exact_recovery():
    m, basis = periodic_signal(20, 60, tau=12, k=2, seed=0)
    model = fit(m, basis, 2)
    rel = np.linalg.norm(predict(model) - m, "fro") / np.linalg.norm(m, "fro")
    report(f"1 exact recovery (rel err {rel:.2e} <= 1e-10)", rel <= 1e-10)


def test_criterion_02_orthogonality_battery():
    bases = [build_identity(t) for t in (2, 5, 12, 60, 128)]
    bases += [build_periodic(tau, t) for tau, t in
              ((1, 6), (2, 6), (3, 12), (12, 60), (5, 5), (8, 64))]
    bases += [build_trig(n, t) for n, t in
              ((0, 5), (1, 8), (2, 8), (3, 16), (5, 32), (10, 64))]
    ok = True
    for b in bases:
        gram_resid = np.linalg.norm(
            b.rows @ b.rows.T - b.gram_constant * np.eye(b.tau), "fro")
        p = b.rows.T @ b.rows / b.gram_constant
        idem = np.linalg.norm(p @ p - p, "fro")
        ok &= gram_resid <= 1e-9 * b.gram_constant * b.tau
        ok &= idem <= 1e-9 * b.horizon
    report("2 orthogonality battery (gram + projector idempotence)", ok)


def test_criterion_03_covariance_oracle_equivalence():
    ok = True
    for horizon in (3, 10, 50):
        for spec in (NoiseSpec("iid", 0.7),
                     NoiseSpec("ma1", 1.0, theta=1.0),
                     NoiseSpec("ma1", 0.5, theta=-0.8)):
            closed = sigma_op_norm(spec, horizon)
            dense = np.linalg.eigvalsh(covariance_matrix(spec, horizon))[-1]
            ok &= abs(closed - dense) <= 1e-8 * dense
    for rho in (0.3, -0.3, 0.6, -0.6, 0.9, -0.9):
        spec = NoiseSpec("ar1", 1.0, rho=rho)
        op_norm = sigma_op_norm(spec, 50)
        bound = (1 + abs(rho)) / (1 - abs(rho))
        ok &= op_norm <= bound * (1 + 1e-9)
    report("3 covariance oracle equivalence (iid/MA closed form, AR bound)", ok)


def test_criterion_04_eckart_young_dominance():
    rng = np.random.default_rng(2718)
    ok = True
    for _ in range(100):
        d = int(rng.integers(3, 9))
        t = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(d, t)))
        x = rng.standard_normal((d, t))
        basis = build_identity(t)
        best = empirical_risk(fit(x, basis, k).m_tilde_hat, x)
        for _ in range(500):
            cand = rng.standard_normal((d, k)) @ rng.standard_normal((k, t))
            if empirical_risk(cand, x) + 1e-12 < best:
                ok = False
    report("4 Eckart-Young dominance (100 instances x 500 candidates)", ok)


def test_criterion_05_unstructured_rate():
    cfg = {"scenario": "unstructured", "d": 30, "k": 2,
           "noise": {"kind": "iid", "sigma": 0.5},
           "sweep_T": [120, 240, 480, 960],
           "replications": 50, "seed": 7, "slope_tol": 0.15}
    with tempfile.TemporaryDirectory() as td:
        cmd_rate_check(cfg, Path(td), None, threads=4)
        rep = json.loads((Path(td) / "rate_report.json").read_text())
    report(f"5 unstructured rate slope {rep['slope']:.3f} in [0.85, 1.15]",
           0.85 <= rep["slope"] <= 1.15)


def test_criterion_06_periodic_improvement():
    d, horizon, tau, k, sigma = 30, 960, 12, 2, 0.5
    basis_p = build_periodic(tau, horizon)
    basis_u = build_identity(horizon)
    spec = NoiseSpec("iid", sigma)
    risks_p, risks_u = [], []
    for r in range(50):
        m, _ = periodic_signal(d, horizon, tau, k,
                               seed=replication_seed(123, 2 * r))
        x = m + sample_noise(spec, d, horizon, replication_seed(123, 2 * r + 1))
        risks_p.append(risk(predict(fit(x, basis_p, k)), m))
        risks_u.append(risk(predict(fit(x, basis_u, k)), m))
    ratio = np.mean(risks_p) / np.mean(risks_u)
    report(f"6 periodic improvement (risk ratio {ratio:.4f} <= 0.2)",
           ratio <= 0.2)


def test_criterion_07_smooth_rate_cutoff():
    cfg = {"scenario": "smooth", "d": 30, "k": 2, "T": 512,
           "smooth": {"beta": 2, "ell": 30.0, "n_terms": 96},
           "noise": {"kind": "iid", "sigma": 0.5},
           "replications": 50, "seed": 5, "c_beta_l": 1.0}
    with tempfile.TemporaryDirectory() as td:
        cmd_rate_check(cfg, Path(td), None, threads=4)
        rep = json.loads((Path(td) / "rate_report.json").read_text())
    ratio = rep["risk_at_cutoff"] / rep["best_grid_risk"]
    report(f"7 smooth cutoff N*={rep['optimal_cutoff']} "
           f"(risk ratio {ratio:.3f} <= 2)", ratio <= 2.0)


def test_criterion_08_truncation_bias_decay():
    n_grid = np.array([2, 4, 8, 16])
    ok = True
    slopes = {}
    for beta in (1, 2):
        spec = SmoothFactorSpec(k=8, beta=beta, ell=1.0, n_terms=96)
        biases = np.zeros(len(n_grid))
        for seed in range(16):
            w = gen_smooth_dictionary(spec, 512, seed)
            biases += [bias_of_truncation(w, build_trig(int(n), 512))
                       for n in n_grid]
        slope = np.polyfit(np.log(n_grid), np.log(biases / 16), 1)[0]
        slopes[beta] = slope
        ok &= -2 * beta - 0.5 <= slope <= -2 * beta + 0.5
    report(f"8 truncation-bias decay (slopes {slopes[1]:.2f}, {slopes[2]:.2f} "
           "within -2*beta +/- 0.5)", ok)


def test_criterion_09_selection_consistency():
    d, horizon, tau, k = 30, 240, 12, 2
    sigma = np.sqrt(0.2)  # per-entry signal power k = 2 -> SNR = 10
    grid = CandidateGrid([build_periodic(t, horizon) for t in (6, 12, 24, 240)],
                         [1, 2, 3, 4, 5])
    params = PenaltyParams(lam=0.5, c_pen=2.0, noise_level=sigma ** 2, s=1.0)
    spec = NoiseSpec("iid", sigma)
    hits = 0
    xs = []
    for r in range(100):
        m, _ = periodic_signal(d, horizon, tau, k,
                               seed=replication_seed(42, 2 * r))
        x = m + sample_noise(spec, d, horizon, replication_seed(42, 2 * r + 1))
        xs.append(x)
        result = select(x, grid, params)
        hits += (result.chosen_tau, result.chosen_k) == (tau, k)
    # singleton rank grid: chosen tau must be invariant in s on every seed
    singleton = CandidateGrid(grid.bases, [k])
    invariant = True
    for x in xs[:20]:
        taus = {select(x, singleton,
                       PenaltyParams(lam=0.5, c_pen=2.0,
                                     noise_level=sigma ** 2, s=s)).chosen_tau
                for s in (0.0, 1.0, 5.0, 10.0)}
        invariant &= len(taus) == 1
    report(f"9 selection consistency ({hits}/100 >= 90, singleton-K "
           f"s-invariance {'ok' if invariant else 'broken'})",
           hits >= 90 and invariant)


def test_criterion_10_cli_determinism(tmp_path):
    sim_cfg = {"scenario": "periodic", "d": 10, "T": 48, "tau": 6, "k": 2,
               "noise": {"kind": "ar1", "sigma": 0.4, "rho": 0.5}, "seed": 3}
    rate_cfg = {"scenario": "unstructured", "d": 6, "k": 1,
                "noise": {"kind": "iid", "sigma": 0.5},
                "sweep_T": [16, 32, 64, 128], "replications": 3, "seed": 2,
                "slope_tol": 10.0}

    def run(cmd, cfg, out):
        path = tmp_path / f"{out}.json"
        path.write_text(json.dumps(cfg))
        code = main([cmd, "--config", str(path), "--out", str(tmp_path / out),
                     "--threads", "2"])
        assert code == 0
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted((tmp_path / out).iterdir())}

    ok = run("simulate", sim_cfg, "sim1") == run("simulate", sim_cfg, "sim2")
    fit_cfg = {"x": str(tmp_path / "sim1" / "X.csv"),
               "basis": {"kind": "periodic", "tau": 6}, "k": 2}
    ok &= run("fit", fit_cfg, "fit1") == run("fit", fit_cfg, "fit2")
    sel_cfg = {"x": str(tmp_path / "sim1" / "X.csv"),
               "taus": [3, 6, 12, 48], "ranks": [1, 2, 3],
               "penalty": {"lambda": 0.5, "c_pen": 2.0, "noise_level": 0.16}}
    ok &= run("select", sel_cfg, "sel1") == run("select", sel_cfg, "sel2")
    ok &= run("rate-check", rate_cfg, "rc1") == run("rate-check", rate_cfg, "rc2")
    report("10 CLI determinism (hash-identical outputs, all four commands)", ok)
