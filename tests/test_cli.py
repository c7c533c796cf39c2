import functools
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strucfact import (NoiseSpec, SmoothFactorSpec, build_identity,
                       build_periodic, build_trig, expand, fit, linalg,
                       predict, project, replication_seed, risk, sample_noise)
from strucfact import cli, estimator, rates, structure
from strucfact.cli import main, read_matrix, write_matrix


def run(tmp_path, command, cfg, out_name, seed=None, threads=None):
    cfg_path = tmp_path / f"{command}_{out_name}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / out_name
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return main(argv), out


def dir_hash(path: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


def assert_rejected(capsys, code, out, codes=(2,)):
    """The command failed with one of `codes`, no traceback and no --out."""
    err = capsys.readouterr().err
    assert code in codes, err
    assert not out.exists()
    assert "Traceback" not in err
    return err


def shown(value) -> str:
    """`value` as a config error line quotes it: its repr, or for a repr of
    more than 60 characters the first 40 and the repr's length."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:40]}... ({len(text)} characters)"


def _package_env() -> dict:
    """Environment in which a child `python -m strucfact.cli` finds this package."""
    import strucfact
    src = str(Path(strucfact.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


SIM_CFG = {
    "scenario": "periodic",
    "d": 6, "T": 24, "tau": 4, "k": 2,
    "noise": {"kind": "iid", "sigma": 0.5},
    "seed": 11,
}
SMOOTH_CFG = {"beta": 2, "ell": 10.0, "n_terms": 4}


def sim_cfg(scenario: str, **changes) -> dict:
    """SIM_CFG as `scenario`, with only the keys that scenario reads."""
    own = {"periodic": {"tau": 4}, "smooth": {"smooth": SMOOTH_CFG}}
    base = {key: value for key, value in SIM_CFG.items() if key != "tau"}
    return {**base, "scenario": scenario, **own.get(scenario, {}), **changes}


class TestSimulate:
    def test_periodic_output_is_periodic(self, tmp_path):
        code, out = run(tmp_path, "simulate", SIM_CFG, "sim")
        assert code == 0
        m = read_matrix(out / "M.csv")
        np.testing.assert_allclose(m[:, :20], m[:, 4:], atol=1e-12)

    def test_manifest_noise_op_norm(self, tmp_path):
        _, out = run(tmp_path, "simulate", SIM_CFG, "sim")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["noise_op_norm"] == pytest.approx(0.25)
        assert manifest["seed"] == 11

    def test_same_seed_byte_identical(self, tmp_path):
        _, out1 = run(tmp_path, "simulate", SIM_CFG, "sim_a")
        _, out2 = run(tmp_path, "simulate", SIM_CFG, "sim_b")
        assert dir_hash(out1) == dir_hash(out2)

    def test_seed_override_changes_output(self, tmp_path):
        _, out1 = run(tmp_path, "simulate", SIM_CFG, "sim_a")
        _, out2 = run(tmp_path, "simulate", SIM_CFG, "sim_c", seed=99)
        assert dir_hash(out1) != dir_hash(out2)

    def test_smooth_loadings_do_not_repeat_the_dictionary_draw(self, tmp_path):
        # Projecting V onto its trig basis recovers the dictionary's constant
        # terms a0.  Drawn from the same seed as U, a0 was U's first row
        # before normalization.
        code, out = run(tmp_path, "simulate", sim_cfg("smooth", k=3), "sim")
        assert code == 0
        u, v = read_matrix(out / "U.csv"), read_matrix(out / "V.csv")
        a0 = project(v, build_trig(SMOOTH_CFG["n_terms"], 24))[:, 0]
        assert not np.allclose(np.abs(u[0]), np.abs(a0) / np.linalg.norm(a0),
                               atol=0.05)

    def test_unknown_key_is_config_error(self, tmp_path):
        bad = dict(SIM_CFG, typo_key=1)
        code, _ = run(tmp_path, "simulate", bad, "sim_bad")
        assert code == 2

    def test_invalid_dims_is_config_error(self, tmp_path):
        bad = dict(SIM_CFG, tau=5)  # 24 not divisible by 5
        code, _ = run(tmp_path, "simulate", bad, "sim_bad2")
        assert code == 2

    def test_a_tau_that_misfits_the_horizon_names_tau(self, tmp_path, capsys):
        code, out = run(tmp_path, "simulate", dict(SIM_CFG, T=48, tau=7), "sim")
        err = assert_rejected(capsys, code, out)
        assert err.startswith(
            "config error: tau: horizon 48 must be divisible by tau 7 (")
        assert err.count("\n") == 1

    def test_a_tau_above_the_horizon_exits_2_before_drawing(self, tmp_path,
                                                            capsys):
        # A k x tau truth at tau = 10^15 would not fit in memory (exit 3).
        code, out = run(tmp_path, "simulate", dict(SIM_CFG, T=100, tau=10**15),
                        "sim")
        err = assert_rejected(capsys, code, out)
        assert err.startswith(
            "config error: tau: horizon 100 must be divisible by tau "
            f"{10**15} (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        ("k", 1.5), ("k", "2"), ("d", 3.0), ("T", "24"), ("seed", "x"),
        ("seed", 1.5), ("seed", -1), ("tau", None), ("schema", True),
        ("scenario", "weekly"),
        ("smooth", {"beta": 2, "ell": 10.0, "n_terms": 4}),  # not read by periodic
    ])
    def test_mistyped_key_exits_2_without_output(self, tmp_path, capsys,
                                                 key, value):
        code, out = run(tmp_path, "simulate", dict(SIM_CFG, **{key: value}),
                        "sim_bad")
        err = assert_rejected(capsys, code, out)
        if key == "smooth":
            assert err == ("config error: simulate: unknown keys ['smooth'] "
                           "for scenario 'periodic'\n")

    def test_non_integer_smooth_beta_rejected(self, tmp_path, capsys):
        cfg = sim_cfg("smooth", k=1,
                      smooth={"beta": 2.0, "ell": 10.0, "n_terms": 4})
        code, out = run(tmp_path, "simulate", cfg, "sim_bad")
        err = assert_rejected(capsys, code, out)
        assert err == "config error: smooth: beta must be an integer, got 2.0\n"

    def test_overflowing_noise_exits_3_without_output(self, tmp_path, capsys):
        cfg = dict(SIM_CFG, noise={"kind": "iid", "sigma": 1e200})
        code, out = run(tmp_path, "simulate", cfg, "sim_big")
        err = assert_rejected(capsys, code, out, codes=(3,))
        assert err.startswith("numeric failure:")

    @pytest.mark.parametrize("noise", [
        {"kind": "iid", "sigma": 1e200},
        {"kind": "ma1", "sigma": 1e200, "theta": 0.5},
        {"kind": "ar1", "sigma": 1e200, "rho": 0.5}])
    def test_overflowing_sigma_names_the_key(self, tmp_path, capsys, noise):
        code, out = run(tmp_path, "simulate", dict(SIM_CFG, noise=noise), "sim_big")
        err = assert_rejected(capsys, code, out, codes=(3,))
        assert "sigma" in err and "1e+200" in err

    def test_manifest_echoes_config_verbatim(self, tmp_path):
        cfg = dict(SIM_CFG, noise={"kind": "ar1", "sigma": 1, "rho": 0.5})
        code, out = run(tmp_path, "simulate", cfg, "sim")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == cfg
        assert manifest["schema"] == 1


class TestFit:
    def test_near_noiseless_recovery(self, tmp_path):
        sim = dict(SIM_CFG, noise={"kind": "iid", "sigma": 1e-12})
        _, sim_out = run(tmp_path, "simulate", sim, "sim")
        fit_cfg = {"x": str(sim_out / "X.csv"),
                   "basis": {"kind": "periodic", "tau": 4}, "k": 2}
        code, out = run(tmp_path, "fit", fit_cfg, "fit")
        assert code == 0
        m = read_matrix(sim_out / "M.csv")
        m_hat = read_matrix(out / "M_hat.csv")
        assert np.linalg.norm(m_hat - m, "fro") <= 1e-9 * np.linalg.norm(m, "fro")

    def test_full_rank_equals_pure_projection(self, tmp_path):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        fit_cfg = {"x": str(sim_out / "X.csv"),
                   "basis": {"kind": "periodic", "tau": 4}, "k": 4}
        _, out = run(tmp_path, "fit", fit_cfg, "fit")
        x = read_matrix(sim_out / "X.csv")
        basis = build_periodic(4, 24)
        np.testing.assert_allclose(read_matrix(out / "M_hat.csv"),
                                   expand(project(x, basis), basis), atol=1e-9)

    def test_csv_round_trip_bit_for_bit(self, tmp_path):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        x = read_matrix(sim_out / "X.csv")
        model = fit(x, build_periodic(4, 24), 2)
        m_hat = predict(model)
        write_matrix(tmp_path / "roundtrip.csv", m_hat)
        np.testing.assert_array_equal(read_matrix(tmp_path / "roundtrip.csv"),
                                      m_hat)

    def test_dimension_mismatch_nonzero_exit(self, tmp_path):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        fit_cfg = {"x": str(sim_out / "X.csv"),
                   "basis": {"kind": "periodic", "tau": 5}, "k": 2}
        code, _ = run(tmp_path, "fit", fit_cfg, "fit_bad")
        assert code != 0

    @pytest.mark.parametrize("basis, message", [
        ({"kind": "periodic", "tau": 5}, "horizon 24 must be divisible by tau 5"),
        ({"kind": "trig", "n_freq": 12}, "2 * n_freq = 24 must be < horizon = 24")])
    def test_a_basis_that_misfits_the_horizon_names_its_section(
            self, tmp_path, capsys, basis, message):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        capsys.readouterr()
        fit_cfg = {"x": str(sim_out / "X.csv"), "basis": basis, "k": 2}
        code, out = run(tmp_path, "fit", fit_cfg, "fit_misfit")
        err = assert_rejected(capsys, code, out)
        assert err.startswith(f"config error: basis: {message} (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("shape, k, message", [
        ((3, 1), 1, "basis: horizon must be at least 2"),
        ((2, 4), 3, "k: rank k=3 out of range [1, 2]")])
    def test_a_config_that_misfits_x_names_its_key(self, tmp_path, capsys,
                                                   shape, k, message):
        write_matrix(tmp_path / "X.csv", np.ones(shape))
        fit_cfg = {"x": str(tmp_path / "X.csv"), "basis": {"kind": "identity"},
                   "k": k}
        code, out = run(tmp_path, "fit", fit_cfg, "fit_misfit")
        err = assert_rejected(capsys, code, out)
        assert err == f"config error: {message}\n"

    def test_missing_input_is_io_error(self, tmp_path):
        fit_cfg = {"x": str(tmp_path / "nope.csv"),
                   "basis": {"kind": "identity"}, "k": 1}
        code, _ = run(tmp_path, "fit", fit_cfg, "fit_missing")
        assert code == 4

    # Basis sections, each with the one key that its kind never reads.
    STRAY_BASES = [({"kind": "identity", "tau": 5}, "tau"),
                   ({"kind": "periodic", "tau": 4, "n_freq": 2}, "n_freq")]

    def test_summary_contents(self, tmp_path):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        fit_cfg = {"x": str(sim_out / "X.csv"),
                   "basis": {"kind": "periodic", "tau": 4}, "k": 2}
        _, out = run(tmp_path, "fit", fit_cfg, "fit")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rank"] <= 2
        assert summary["empirical_risk"] >= 0
        assert summary["gram_residual"] <= 1e-9

    @pytest.mark.parametrize("key, value", [
        ("k", 1.5), ("k", "2"), ("k", True), ("x", 3),
        ("basis", {"kind": "periodic", "tau": "4"}),
        ("basis", {"kind": "trig", "n_freq": 2.0}),
        ("basis", {"kind": "trig"}),
        ("basis", "periodic"),
        *[("basis", basis) for basis, _ in STRAY_BASES],
    ])
    def test_mistyped_key_exits_2_without_output(self, tmp_path, capsys,
                                                 key, value):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        fit_cfg = {"x": str(sim_out / "X.csv"),
                   "basis": {"kind": "periodic", "tau": 4}, "k": 2}
        code, out = run(tmp_path, "fit", dict(fit_cfg, **{key: value}),
                        "fit_bad")
        err = assert_rejected(capsys, code, out)
        for basis, stray in self.STRAY_BASES:
            if value == basis:
                assert err == (f"config error: basis: unknown keys [{stray!r}] "
                               f"for kind {basis['kind']!r}\n")

    def test_overflowing_risk_exits_3_without_output(self, tmp_path, capsys):
        # The residual's square overflows, so summary.json would hold Infinity.
        x = 1e200 * np.random.default_rng(0).standard_normal((6, 24))
        write_matrix(tmp_path / "X.csv", x)
        fit_cfg = {"x": str(tmp_path / "X.csv"),
                   "basis": {"kind": "periodic", "tau": 4}, "k": 2}
        code, out = run(tmp_path, "fit", fit_cfg, "fit_big")
        err = assert_rejected(capsys, code, out, codes=(3,))
        assert err.startswith("numeric failure:")

    def test_overflowing_risk_prints_one_stderr_line(self, tmp_path):
        # As a separate process, so that a numpy warning would reach stderr.
        x = 1e200 * np.random.default_rng(0).standard_normal((6, 24))
        write_matrix(tmp_path / "X.csv", x)
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps({"x": str(tmp_path / "X.csv"), "k": 2,
                                   "basis": {"kind": "periodic", "tau": 4}}))
        out = tmp_path / "fit_big"
        result = subprocess.run(
            [sys.executable, "-m", "strucfact.cli", "fit", "--config", str(cfg),
             "--out", str(out)], env=_package_env(), capture_output=True, text=True)
        assert result.returncode == 3
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure:"), lines
        assert not out.exists()

    def test_trig_gram_residual_is_measured_on_the_probe(self, tmp_path):
        write_matrix(tmp_path / "X.csv",
                     np.random.default_rng(3).standard_normal((4, 48)))
        cfg = {"x": str(tmp_path / "X.csv"), "k": 2,
               "basis": {"kind": "trig", "n_freq": 10}}
        code, out = run(tmp_path, "fit", cfg, "fit_trig")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        b = build_trig(10, 48)
        gram = b.rows @ b.rows.T - b.gram_constant * np.eye(b.tau)
        expected = np.linalg.norm(gram[:min(b.tau, 8)], "fro")
        assert abs(summary["gram_residual"] - expected) <= 1e-12


class TestSelect:
    def test_noiseless_recovery(self, tmp_path):
        sim = dict(SIM_CFG, noise={"kind": "iid", "sigma": 1e-9})
        _, sim_out = run(tmp_path, "simulate", sim, "sim")
        sel_cfg = {"x": str(sim_out / "X.csv"),
                   "taus": [2, 4, 8, 24], "ranks": [1, 2, 3],
                   "penalty": {"lambda": 0.5, "c_pen": 2.0,
                               "noise_level": 1e-18}}
        code, out = run(tmp_path, "select", sel_cfg, "sel")
        assert code == 0
        winner = json.loads((out / "winner.json").read_text())
        assert (winner["chosen_tau"], winner["chosen_k"]) == (4, 2)

    def test_table_and_winner_consistent(self, tmp_path):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        sel_cfg = {"x": str(sim_out / "X.csv"),
                   "taus": [4, 8, 24], "ranks": [1, 2, 3],
                   "penalty": {"lambda": 0.5, "c_pen": 2.0,
                               "noise_level": 0.25}}
        _, out = run(tmp_path, "select", sel_cfg, "sel")
        lines = (out / "table.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,k,empirical_risk,penalty,score,chosen"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 9
        chosen = [r for r in rows if r[5] == "1"]
        assert len(chosen) == 1
        best = min(float(r[4]) for r in rows)
        assert float(chosen[0][4]) == best

    def test_empty_grid_nonzero_exit(self, tmp_path):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        sel_cfg = {"x": str(sim_out / "X.csv"),
                   "taus": [4], "ranks": [12],
                   "penalty": {"lambda": 0.5, "c_pen": 2.0, "noise_level": 1.0}}
        code, _ = run(tmp_path, "select", sel_cfg, "sel_bad")
        assert code == 2

    def test_non_finite_csv_exits_2_without_output(self, tmp_path, capsys):
        x = np.ones((3, 8))
        x[1, 2] = np.nan
        write_matrix(tmp_path / "X.csv", x)
        sel_cfg = {"x": str(tmp_path / "X.csv"), "taus": [2, 4],
                   "ranks": [1, 2], "penalty": {"lambda": 0.5, "c_pen": 2.0}}
        code, out = run(tmp_path, "select", sel_cfg, "sel_nan")
        assert code == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_zero_plug_in_exits_2_without_output(self, tmp_path, capsys):
        # tau = T and k = d interpolate X exactly: the plug-in noise level is 0.
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        sel_cfg = {"x": str(sim_out / "X.csv"), "taus": [4, 24],
                   "ranks": [1, 2, 3, 4, 5, 6],
                   "penalty": {"lambda": 0.5, "c_pen": 2.0}}
        code, out = run(tmp_path, "select", sel_cfg, "sel_zero")
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "noise_level must be positive" in err
        assert "plug-in" in err and err.count("\n") == 1

    @pytest.mark.parametrize("penalty", [
        {"lambda": 0.5, "c_pen": 2.0},
        {"lambda": 0.5, "c_pen": 2.0, "noise_level": 0.25}],
        ids=["plug-in", "noise_level"])
    def test_infeasible_grid_exits_2_before_any_svd(self, tmp_path, capsys,
                                                     monkeypatch, penalty):
        # Every rank exceeds d = 6, so no (basis, rank) pair is feasible.
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        capsys.readouterr()
        calls = []
        svd, values = linalg.svd, linalg.singular_values
        monkeypatch.setattr(linalg, "svd", lambda a: calls.append(1) or svd(a))
        monkeypatch.setattr(linalg, "singular_values",
                            lambda a: calls.append(1) or values(a))
        sel_cfg = {"x": str(sim_out / "X.csv"), "taus": [4, 24], "ranks": [7],
                   "penalty": penalty}
        code, out = run(tmp_path, "select", sel_cfg, "sel_infeasible")
        err = assert_rejected(capsys, code, out)
        assert err == "config error: no feasible (basis, rank) pair on the grid\n"
        assert calls == []

    @pytest.mark.parametrize("key, value", [
        ("lambda", "a"), ("c_pen", "2"), ("noise_level", float("nan")),
        ("noise_level", "1"), ("noise_level", None), ("s", float("inf")),
        ("lambda", 1), ("lambda", 1.5),
        # An integer too large for a float.
        pytest.param("c_pen", 10**400, id="c_pen-10**400"),
        pytest.param("s", -10**400, id="s--10**400"),
    ])
    def test_mistyped_penalty_exits_2_without_output(self, tmp_path, capsys,
                                                     key, value):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        sel_cfg = {"x": str(sim_out / "X.csv"), "taus": [4, 8],
                   "ranks": [1, 2],
                   "penalty": {"lambda": 0.5, "c_pen": 2.0, key: value}}
        code, out = run(tmp_path, "select", sel_cfg, "sel_bad")
        err = assert_rejected(capsys, code, out)
        in_range = key == "lambda" and isinstance(value, (int, float))
        must = "lie in (0, 1)" if in_range else "be a finite number"
        assert err == f"config error: penalty: {key} must {must}, got {shown(value)}\n"

    @pytest.mark.parametrize("key, value", [
        ("ranks", [1.5, 2]), ("ranks", []), ("taus", ["4"]), ("taus", 4),
        ("n_freqs", [True]), ("penalty", 3),
    ])
    def test_mistyped_key_exits_2_without_output(self, tmp_path, capsys,
                                                 key, value):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        sel_cfg = {"x": str(sim_out / "X.csv"), "taus": [4, 8],
                   "ranks": [1, 2], "penalty": {"noise_level": 0.25}}
        code, out = run(tmp_path, "select", dict(sel_cfg, **{key: value}),
                        "sel_bad")
        assert_rejected(capsys, code, out)

    def test_plug_in_reuses_the_residual_profiles(self, tmp_path, monkeypatch):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        calls = []
        svd, values = linalg.svd, linalg.singular_values
        monkeypatch.setattr(linalg, "svd",
                            lambda a: calls.append("svd") or svd(a))
        monkeypatch.setattr(linalg, "singular_values",
                            lambda a: calls.append("values") or values(a))
        sel_cfg = {"x": str(sim_out / "X.csv"), "taus": [4, 8], "n_freqs": [2],
                   "ranks": [1, 2], "penalty": {"lambda": 0.5, "c_pen": 2.0}}
        code, _ = run(tmp_path, "select", sel_cfg, "sel")
        assert code == 0
        # The values alone per basis, then the winner's refit.
        assert calls == ["values"] * 3 + ["svd"]

    @pytest.mark.parametrize("key, value", [
        ("taus", [12, 12, 6]), ("n_freqs", [2, 3, 2])])
    def test_a_repeated_grid_entry_exits_2_before_any_svd(
            self, tmp_path, capsys, monkeypatch, key, value):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        capsys.readouterr()
        calls = []
        svd, values = linalg.svd, linalg.singular_values
        monkeypatch.setattr(linalg, "svd", lambda a: calls.append(1) or svd(a))
        monkeypatch.setattr(linalg, "singular_values",
                            lambda a: calls.append(1) or values(a))
        sel_cfg = {"x": str(sim_out / "X.csv"), "taus": [4], "ranks": [1, 2],
                   "penalty": {"noise_level": 0.25}, key: value}
        code, out = run(tmp_path, "select", sel_cfg, "sel_repeated")
        err = assert_rejected(capsys, code, out)
        assert err == f"config error: select: {key} must be distinct, got {value}\n"
        assert calls == []

    @pytest.mark.parametrize("key, value, message", [
        ("taus", [4, 7], "horizon 24 must be divisible by tau 7"),
        ("n_freqs", [2, 12], "2 * n_freq = 24 must be < horizon = 24")])
    def test_a_basis_that_misfits_the_horizon_names_its_key(
            self, tmp_path, capsys, key, value, message):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        capsys.readouterr()
        sel_cfg = {"x": str(sim_out / "X.csv"), "taus": [4], "ranks": [1, 2],
                   "penalty": {"noise_level": 0.25}, key: value}
        code, out = run(tmp_path, "select", sel_cfg, "sel_misfit")
        err = assert_rejected(capsys, code, out)
        assert err.startswith(f"config error: {key}: {message} (")
        assert err.count("\n") == 1

    def test_explicit_empty_taus_with_n_freqs(self, tmp_path):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        sel_cfg = {"x": str(sim_out / "X.csv"), "taus": [], "n_freqs": [1, 2],
                   "ranks": [1, 2], "penalty": {"noise_level": 0.25}}
        code, out = run(tmp_path, "select", sel_cfg, "sel")
        assert code == 0
        winner = json.loads((out / "winner.json").read_text())
        assert winner["chosen_tau"] in (3, 5)

    def test_a_grid_without_bases_exits_2_naming_select(self, tmp_path, capsys):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        capsys.readouterr()
        sel_cfg = {"x": str(sim_out / "X.csv"), "ranks": [1, 2],
                   "penalty": {"noise_level": 0.25}}
        code, out = run(tmp_path, "select", sel_cfg, "sel_empty")
        err = assert_rejected(capsys, code, out)
        assert err == ("config error: select: grid must contain at least one "
                       "basis and one rank\n")


# At d = 100 OpenBLAS rounds the d x d Gram matrix of a fit differently at 1
# and 2 threads, so this report shows whether its BLAS thread count is fixed.
D100_RATE_CFG = {"scenario": "unstructured", "d": 100, "k": 2,
                 "noise": {"kind": "iid", "sigma": 0.5},
                 "sweep_T": [120, 240, 480, 960], "replications": 3, "seed": 1}


class TestRateCheck:
    def small_cfg(self):
        return {
            "scenario": "unstructured",
            "d": 8, "k": 1,
            "noise": {"kind": "iid", "sigma": 0.5},
            "sweep_T": [24, 48, 96, 192],
            "replications": 3,
            "seed": 1,
            "slope_tol": 10.0,
        }

    def test_report_structure(self, tmp_path):
        code, out = run(tmp_path, "rate-check", self.small_cfg(), "rate")
        assert code == 0
        report = json.loads((out / "rate_report.json").read_text())
        assert len(report["points"]) == 4
        assert {"mean_risk", "std_risk", "theoretical_rate",
                "replications"} <= set(report["points"][0])
        assert "slope" in report and "slope_stderr" in report

    @pytest.mark.parametrize("scenario, threads", [
        *[pytest.param("unstructured", t, id=str(t)) for t in (1, 2, 4)],
        *[pytest.param(s, t, id=f"{s}-{t}")
          for s in ("periodic", "smooth-ar1") for t in (2, 4)],
        pytest.param("smooth-ar1-T1024", 2, id="smooth-ar1-T1024-2"),
        pytest.param("smooth-iid-T2000", 2, id="smooth-iid-T2000-2"),
        *[pytest.param("unstructured-d100", t, id=f"unstructured-d100-{t}")
          for t in (2, 4)],
        pytest.param("bartlett-straddle", 2, id="bartlett-straddle-2"),
        *[pytest.param(s, t, id=f"{s}-{t}")
          for s in ("periodic-ar1-d10", "periodic-ar1-d12", "identity-ma1")
          for t in (2, 3)],
        *[pytest.param("blocks", t, id=f"blocks-{t}") for t in (2, 3, 16)],
    ])
    def test_threads_do_not_change_result(self, tmp_path, scenario, threads):
        # d = 8 < T: every unstructured fit takes the Gram path of linalg.top_k.
        smooth_ar1 = {**SMOOTH_RATE_CFG,
                      "smooth": {"beta": 2, "ell": 10.0, "n_terms": 16},
                      "noise": {"kind": "ar1", "sigma": 0.5, "rho": 0.5}}
        periodic_ar1 = {"scenario": "periodic", "d": 10, "k": 2, "tau": 6,
                        "noise": {"kind": "ar1", "sigma": 0.5, "rho": 0.5},
                        "sweep_T": [48, 96, 192, 384], "replications": 20,
                        "seed": 1}
        cfg = {"unstructured": self.small_cfg(),
               "periodic": dict(self.small_cfg(), scenario="periodic", tau=4),
               "smooth-ar1": smooth_ar1,
               # Large enough that OpenBLAS's kernel choice can depend on its
               # thread count (the smooth benchmark workload's d, T and noise).
               "smooth-ar1-T1024": dict(smooth_ar1, d=30, k=2, T=1024),
               # Grid n_freq 1..32.  Its reports differed at --threads 1 and 2
               # while each replication multiplied d x T noise draws.
               "smooth-iid-T2000": {
                   **SMOOTH_RATE_CFG, "d": 30, "k": 2, "T": 2000,
                   "smooth": {"beta": 2, "ell": 30.0, "n_terms": 96},
                   "noise": {"kind": "iid", "sigma": 0.8},
                   "replications": 4, "seed": 1},
               "unstructured-d100": D100_RATE_CFG,
               # T - k < d at T = 12 and 21 (time domain), >= d at 22 and 44
               # (the Bartlett route).
               "bartlett-straddle": dict(D100_RATE_CFG, d=20, replications=5,
                                         sweep_T=[12, 21, 22, 44]),
               # 2 tau > d: a d x T noise sample per replication.
               "periodic-ar1-d10": periodic_ar1,
               # 2 tau <= d: the projected-noise factor.
               "periodic-ar1-d12": dict(periodic_ar1, d=12),
               "identity-ma1": dict(D100_RATE_CFG, d=8, replications=20,
                                    noise={"kind": "ma1", "sigma": 0.5,
                                           "theta": 0.6},
                                    sweep_T=[24, 48, 96, 192]),
               # Per point a Bartlett block of 6 and one of 1: 8 blocks, fewer
               # than 16 threads.
               "blocks": dict(D100_RATE_CFG, d=50, replications=7,
                              sweep_T=[60, 120, 240, 480])}[scenario]
        code1, out1 = run(tmp_path, "rate-check", cfg, "rate1", threads=1)
        code_n, out2 = run(tmp_path, "rate-check", cfg, "rate_n",
                           threads=threads)
        assert code1 == code_n == 0
        assert dir_hash(out1) == dir_hash(out2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_smooth_rate_check_leaves_the_trig_cache_as_it_found_it(
            self, tmp_path, threads):
        # Each point's factor comes from rows built for it alone, so no trig
        # table stays pinned after its QR.
        cfg = {**SMOOTH_RATE_CFG,
               "smooth": {"beta": 2, "ell": 10.0, "n_terms": 16},
               "noise": {"kind": "ar1", "sigma": 0.5, "rho": 0.5}}
        before = structure._trig_rows.cache_info()
        code, _ = run(tmp_path, "rate-check", cfg, "rate", threads=threads)
        assert code == 0
        assert structure._trig_rows.cache_info() == before

    def test_too_few_sweep_points_rejected(self, tmp_path):
        cfg = dict(self.small_cfg(), sweep_T=[24, 48])
        code, _ = run(tmp_path, "rate-check", cfg, "rate_bad")
        assert code == 2

    def test_indivisible_periodic_sweep_rejected(self, tmp_path, capsys):
        cfg = dict(self.small_cfg(), scenario="periodic", tau=5)
        code, out = run(tmp_path, "rate-check", cfg, "rate_bad")
        assert code == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_a_tau_that_misfits_the_horizon_names_tau(self, tmp_path, capsys):
        cfg = dict(self.small_cfg(), scenario="periodic", tau=7,
                   sweep_T=[48, 96, 192, 384])
        code, out = run(tmp_path, "rate-check", cfg, "rate_bad")
        err = assert_rejected(capsys, code, out)
        assert err.startswith(
            "config error: tau: horizon 48 must be divisible by tau 7 (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("replications", [0, -1, 2.5, True, "3"])
    def test_bad_replications_rejected(self, tmp_path, replications):
        cfg = dict(self.small_cfg(), replications=replications)
        code, out = run(tmp_path, "rate-check", cfg, "rate_bad")
        assert code == 2
        assert not out.exists()

    def test_smooth_report(self, tmp_path):
        cfg = {
            "scenario": "smooth",
            "d": 6, "k": 1, "T": 64,
            "smooth": {"beta": 2, "ell": 10.0, "n_terms": 16},
            "noise": {"kind": "iid", "sigma": 0.5},
            "replications": 2,
            "seed": 3,
        }
        code, out = run(tmp_path, "rate-check", cfg, "rate_smooth")
        assert code == 0
        report = json.loads((out / "rate_report.json").read_text())
        assert report["optimal_cutoff"] >= 1
        assert report["risk_at_cutoff"] >= report["best_grid_risk"] - 1e-15

    # Per scenario, changes that each add one key the scenario never reads.
    STRAY = {"unstructured": [{"tau": 4}, {"T": 64}, {"c_beta_l": 1.0},
                              {"smooth": {"beta": 2, "ell": 10.0, "n_terms": 16}}],
             "smooth": [{"slope_tol": 0.15}]}

    @pytest.mark.parametrize("changes", [
        {"d": 3, "k": 5},                          # k > min(d, T)
        {"scenario": "periodic", "tau": 4, "k": 6},  # k > min(d, tau)
        {"k": 0},
        {"sweep_T": [24, 24, 24, 24]},             # sxx = 0: NaN slope
        {"sweep_T": [24, 24, 48, 96]},
        {"sweep_T": [24, "48", 96, 192]},
        {"sweep_T": 5},
        {"sweep_T": [1, 24, 48, 96]},
        {"scenario": "periodic"},                  # no tau
        {"slope_tol": "x"}, {"s": "x"}, {"s": float("nan")},
        *STRAY["unstructured"],
    ])
    def test_invalid_sweep_config_rejected(self, tmp_path, capsys, changes):
        cfg = dict(self.small_cfg(), **changes)
        code, out = run(tmp_path, "rate-check", cfg, "rate_bad")
        err = assert_rejected(capsys, code, out)
        if changes in self.STRAY["unstructured"]:
            assert err == (f"config error: rate-check: unknown keys {list(changes)} "
                           "for scenario 'unstructured'\n")

    @pytest.mark.parametrize("changes", [
        {"d": 6, "k": 7},       # k > min(d, tau) at every cutoff point
        {"k": 4},               # k > tau = 3 at the cutoff N = 1
        {"c_beta_l": "x"}, {"c_beta_l": 0},
        {"T": 3},               # T < 2 n_terms + 2
        {"T": 64.0},
        {"smooth": None},
        *STRAY["smooth"],
    ])
    def test_invalid_smooth_config_rejected(self, tmp_path, capsys, changes):
        cfg = {**SMOOTH_RATE_CFG,
               "smooth": {"beta": 2, "ell": 10.0, "n_terms": 16}, **changes}
        code, out = run(tmp_path, "rate-check", cfg, "rate_bad")
        err = assert_rejected(capsys, code, out)
        if changes in self.STRAY["smooth"]:
            assert err == (f"config error: rate-check: unknown keys {list(changes)} "
                           "for scenario 'smooth'\n")


ORACLE_T = 48
ORACLE_SMOOTH = SmoothFactorSpec(k=2, beta=2, ell=10.0, n_terms=6)
ORACLE_BASES = {
    # d = 6 and k = 2: T - k = d - 1 keeps an iid point's d x T sample, and
    # from T - k = d on it takes the Bartlett route.
    "unstructured": [build_identity(horizon) for horizon in (ORACLE_T, 7, 8)],
    # 2 tau <= d takes the factor route: tau = 1, and tau = 3 at its edge;
    # tau = 4 samples its noise.
    "periodic": [build_periodic(4, ORACLE_T), build_periodic(1, ORACLE_T),
                 build_periodic(3, ORACLE_T)],
    # Narrower than, as wide as, and wider than the truth's n_terms = 6.
    "smooth": [build_trig(n, ORACLE_T) for n in (1, 6, 9)],
}
ORACLE_NOISE = {"iid": NoiseSpec("iid", 0.5),
                "ma1": NoiseSpec("ma1", 0.5, theta=0.6),
                "ar1": NoiseSpec("ar1", 0.5, rho=0.7)}


def bartlett_draws(d, k, horizon, seed, idx):
    """Replication idx of an identity-basis iid point, drawn from its own
    seeds: A = U R^T for the truth U V (V^T = Q R), then E1 and the Bartlett
    factor Lb from the noise seed."""
    u, v = rates.truth(d, k, replication_seed(seed, 2 * idx), horizon, None)
    a = u @ np.linalg.qr(v.T, mode="r").T
    rng = np.random.default_rng(replication_seed(seed, 2 * idx + 1))
    e1 = rng.standard_normal((d, k))
    lb = np.zeros((d, d))
    lb[np.tril_indices(d, -1)] = rng.standard_normal(d * (d - 1) // 2)
    lb[np.diag_indices(d)] = np.sqrt(rng.chisquare(horizon - k - np.arange(d)))
    return a, e1, lb


def bartlett_oracle_risk(d, k, horizon, sigma, seed, idx):
    """The risk of an identity-basis iid replication recomputed from its own
    draws: the top-k eigenprojector P of Y Y^T + W for Y = A + sigma E1 and
    W = sigma^2 Lb Lb^T, and then ||P Y - A||_F^2 + tr(P W), over d T."""
    a, e1, lb = bartlett_draws(d, k, horizon, seed, idx)
    y = a + sigma * e1
    w = sigma ** 2 * lb @ lb.T
    q = np.linalg.eigh(y @ y.T + w)[1][:, -k:]
    p = q @ q.T
    return (np.sum((p @ y - a) ** 2) + np.trace(p @ w)) / (d * horizon)


def one_replication_draw(d, k, spec, seed, smooth, point, idx):
    """Replication idx at a point (basis, route, R), drawn alone from its own
    seeds: the observation it fits and the truth it is scored against.  On
    the Bartlett route they are Z = [A + sigma E1 | sigma Lb] and A;
    elsewhere the projected noise plus the truth's first tau coefficients,
    zero-padded to the two columns build_identity needs, and U V."""
    basis, route, factor = point
    if route == "bartlett":
        a, e1, lb = bartlett_draws(d, k, basis.horizon, seed, idx)
        return np.hstack([a + spec.sigma * e1, spec.sigma * lb]), a
    tau = basis.tau
    u, v = rates.truth(d, k, replication_seed(seed, 2 * idx), tau, smooth)
    b = u @ v
    eps_seed = replication_seed(seed, 2 * idx + 1)
    if route == "factor":
        x = np.random.default_rng(eps_seed).standard_normal((d, tau)) @ factor
    else:
        x = sample_noise(spec, d, basis.horizon, eps_seed)
        if basis.kind == "periodic":
            x = project(x, basis)
    cols = min(tau, b.shape[1])
    x[:, :cols] += b[:, :cols]
    return np.hstack([x, np.zeros((d, max(tau, 2) - tau))]), b


def assert_block_equals_one_fit_per_replication(d, k, spec, basis, smooth):
    """A block of 7, drawn into two stacks, fitted and scored as one, gives
    bit for bit the risks of fitting each replication's observation alone
    and scoring it with empirical_risk against its truth, both zero-padded
    to the wider of the two."""
    seed = 5
    _, point = rates.build_point(spec, basis, d, k, 1.0, smooth, 1.0)
    want = []
    for idx in range(7):
        x, b = one_replication_draw(d, k, spec, seed, smooth, point, idx)
        a_hat = fit(x, build_identity(x.shape[1]), k).m_tilde_hat
        width = max(a_hat.shape[1], b.shape[1])
        a_hat, b = (np.hstack([m, np.zeros((d, width - m.shape[1]))])
                    for m in (a_hat, b))
        want.append(basis.gram_constant * estimator.empirical_risk(a_hat, b)
                    / (d * basis.horizon))
    got = rates.block_risks(d, k, spec, seed, smooth, point, range(7))
    assert got.tolist() == want


@pytest.mark.parametrize("d, k, horizon", [(6, 2, 48), (6, 2, 8), (1, 1, 4),
                                           (3, 3, 6)])
def test_a_bartlett_block_equals_one_fit_per_replication(d, k, horizon):
    """The Bartlett route at four shapes, d = 1 and k = d among them."""
    assert_block_equals_one_fit_per_replication(
        d, k, NoiseSpec("iid", 0.5), build_identity(horizon), None)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("noise", list(ORACLE_NOISE))
@pytest.mark.parametrize("scenario", list(ORACLE_BASES))
def test_replication_equals_the_time_domain_fit(scenario, noise, seed):
    """A replication in coefficient space gives the risk of simulating the
    d x T signal, adding sampled noise, fitting and predicting.  An
    unstructured iid point with T - k >= d has no time-domain sample; its
    risk is recomputed from its own draws by bartlett_oracle_risk, and its law
    is checked by test_bartlett_replication_risk_has_the_time_domain_law."""
    d, idx, spec = 6, 5, ORACLE_NOISE[noise]
    eps_seed = replication_seed(seed, 2 * idx + 1)
    for basis in ORACLE_BASES[scenario]:
        horizon, k = basis.horizon, min(2, basis.tau)
        smooth = ORACLE_SMOOTH if scenario == "smooth" else None
        _, point = rates.build_point(spec, basis, d, k, 1.0, smooth, 1.0)
        [got] = rates.block_risks(d, k, spec, seed, smooth, point, [idx])
        if scenario == "unstructured" and noise == "iid" and horizon - k >= d:
            assert got == pytest.approx(bartlett_oracle_risk(
                d, k, horizon, spec.sigma, seed, idx), rel=1e-10), horizon
            continue
        m, *_ = cli._simulate_instance(scenario, d, horizon, k,
                                       replication_seed(seed, 2 * idx),
                                       tau=basis.tau, smooth=ORACLE_SMOOTH)
        if point[1] == "factor":
            # A trig point, or a periodic one with 2 tau <= d, draws its
            # projected noise z @ R from the replication's seed; this is
            # time-domain noise that projects onto exactly that draw.  Its
            # law is checked by test_trig_replication_risk_has_the_time_domain_law
            # and test_periodic_replication_risk_has_the_time_domain_law.
            z = np.random.default_rng(eps_seed).standard_normal((d, basis.tau))
            x = m + expand(z @ point[2], basis)
        else:
            x = m + sample_noise(spec, d, horizon, eps_seed)
        want = risk(predict(fit(x, basis, k)), m)
        if scenario == "unstructured":
            assert got == want, horizon
        else:
            assert got == pytest.approx(want, rel=1e-10), basis


def time_domain_risk(d, k, spec, seed, idx, basis, smooth=None):
    """The risk of replication `idx` as the time domain has it: the same
    truth, a d x T noise sample from the same seed, a fit and a prediction."""
    scenario = ("smooth" if smooth is not None
                else "periodic" if basis.kind == "periodic" else "unstructured")
    m, *_ = cli._simulate_instance(scenario, d, basis.horizon, k,
                                   replication_seed(seed, 2 * idx),
                                   tau=basis.tau, smooth=smooth)
    x = m + sample_noise(spec, d, basis.horizon,
                         replication_seed(seed, 2 * idx + 1))
    return risk(predict(fit(x, basis, k)), m)


@pytest.mark.parametrize("d, k, horizon, sigma", [
    (6, 2, 48, 0.5), (8, 2, 64, 0.5), (8, 1, 16, 2.0)])
def test_bartlett_replication_risk_has_the_time_domain_law(d, k, horizon,
                                                           sigma):
    """Over 100 replications, the mean risk of an unstructured iid point,
    whose noise enters through E1 and a Bartlett factor, matches that of
    fitting the same truths plus a d x T noise sample.  The band was fixed
    from 40 seeds per case before the route landed: paired z-scores of the
    difference -2.26..2.39 and ratios of the means 0.911-1.110.  A sigma 10%
    too large gave z 5.1-13.9 at seeds 1-5."""
    reps, spec, basis = 100, NoiseSpec("iid", sigma), build_identity(horizon)
    _, point = rates.build_point(spec, basis, d, k, 1.0, None, None)
    for seed in range(1, 6):
        bartlett = rates.block_risks(d, k, spec, seed, None, point, range(reps))
        time_domain = np.array([time_domain_risk(d, k, spec, seed, idx, basis)
                                for idx in range(reps)])
        diff = bartlett - time_domain
        z = diff.mean() / (diff.std(ddof=1) / np.sqrt(reps))
        assert abs(z) <= 3.5, (seed, z)
        assert 0.85 <= bartlett.mean() / time_domain.mean() <= 1.15, seed


# One point per route of block_risks at d = 6, k = 2.
BLOCK_ROUTES = {
    "bartlett": (NoiseSpec("iid", 0.5), build_identity(ORACLE_T), None),
    "identity-ar1": (ORACLE_NOISE["ar1"], build_identity(ORACLE_T), None),
    "periodic": (ORACLE_NOISE["ma1"], build_periodic(4, ORACLE_T), None),
    "periodic-factor": (ORACLE_NOISE["ar1"], build_periodic(3, ORACLE_T), None),
    "trig": (ORACLE_NOISE["ar1"], build_trig(3, ORACLE_T), ORACLE_SMOOTH),
}


@pytest.mark.parametrize("d, k, spec, basis, smooth", [
    *(pytest.param(6, 2, *case, id=route) for route, case in BLOCK_ROUTES.items()),
    # Fit width 2, truth width 1.
    pytest.param(6, 1, ORACLE_NOISE["iid"], build_periodic(1, ORACLE_T), None,
                 id="periodic-tau1"),
    # tau = 19, wider than the truth's 2 n_terms + 1 = 13 coefficients.
    pytest.param(6, 2, ORACLE_NOISE["ar1"], build_trig(9, ORACLE_T),
                 ORACLE_SMOOTH, id="trig-wide"),
])
def test_a_block_equals_one_fit_per_replication(d, k, spec, basis, smooth):
    assert_block_equals_one_fit_per_replication(d, k, spec, basis, smooth)


@pytest.mark.parametrize("route", list(BLOCK_ROUTES))
def test_a_risk_does_not_depend_on_its_block(route):
    """Replications 0-6 give the same risks alone, in blocks of 3 (the last
    one partial) and in one block of 7."""
    d, k, seed = 6, 2, 4
    spec, basis, smooth = BLOCK_ROUTES[route]
    _, point = rates.build_point(spec, basis, d, k, 1.0, smooth, 1.0)

    def risks(size):
        return np.concatenate([
            rates.block_risks(d, k, spec, seed, smooth, point,
                              range(start, min(start + size, 7)))
            for start in range(0, 7, size)]).tolist()

    assert risks(3) == risks(1)
    assert risks(7) == risks(1)


@pytest.mark.parametrize("d, route, basis, smooth, size", [
    # 3 * 2^13 doubles over what a replication keeps until the fit.  On the
    # Bartlett route: Z, A, E1 and the normals and chi-squares of Lb,
    # d (k + d) + 2 d k + d (d - 1) / 2 + d.
    pytest.param(50, "bartlett", build_identity(250), None, 6,
                 id="bartlett-d50"),
    # Elsewhere: both stacks, d max(tau, 2) and d times the truth's width,
    # and on the sample route a d x T noise sample.  Such a sample is alone,
    # even where it outgrows the budget.
    pytest.param(50, "sample", build_identity(250), None, 1,
                 id="identity-ar1"),
    # A periodic point with 2 tau <= d draws no sample, however long its T.
    pytest.param(50, "factor", build_periodic(5, 10**6), None, 49,
                 id="periodic-long"),
    pytest.param(8, "factor", build_periodic(4, 64), None, 384,
                 id="periodic-short"),
    # 2 tau > d: d (8 + 8 + 64) doubles.
    pytest.param(8, "sample", build_periodic(8, 64), None, 38,
                 id="periodic-sampled"),
    # The smooth truth's 2 n_terms + 1 coefficients beside tau = 3: 193, then 3.
    pytest.param(30, "factor", build_trig(1, 1024),
                 SmoothFactorSpec(k=2, beta=2, ell=30.0, n_terms=96), 4,
                 id="trig-wide-truth"),
    pytest.param(30, "factor", build_trig(1, 1024),
                 SmoothFactorSpec(k=2, beta=2, ell=30.0, n_terms=1), 136,
                 id="trig-narrow-truth"),
    # The Bartlett count again, at d = 20: 730 doubles, where Z alone is 440.
    pytest.param(20, "bartlett", build_identity(44), None, 33,
                 id="bartlett-d20"),
])
def test_a_block_holds_what_fits_its_byte_budget(d, route, basis, smooth, size):
    assert rates.block_size(d, 2, smooth, (basis, route, None)) == size


@pytest.mark.parametrize("spec, basis, bound", [
    pytest.param(NoiseSpec("ar1", 0.5, rho=0.7), build_identity(20000), 4.15,
                 id="identity-ar1"),
    # 2 tau > d, so the point samples its noise (at tau = 4 it would take
    # the factor route and allocate 0.002 times).
    pytest.param(NoiseSpec("iid", 0.5), build_periodic(40, 20000), 2.05,
                 id="periodic-iid"),
])
def test_a_block_of_one_peaks_within_its_bound(spec, basis, bound):
    """One block of one replication at d = 50, T = 20000 allocates at most
    `bound` times a d x T array at its peak, its noise sample included.  The
    bounds were fixed before the block's draws went into preallocated
    stacks, where the peaks read 4.12 and 2.00 times (2.0045 at the periodic
    case's tau = 40)."""
    d = 50
    _, point = rates.build_point(spec, basis, d, 2, 1.0, None, None)
    assert point[1] == "sample"
    rates.block_risks(d, 2, spec, 1, None, point, [0])
    tracemalloc.start()
    try:
        rates.block_risks(d, 2, spec, 1, None, point, [0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * d * basis.horizon


@pytest.mark.parametrize("spec, basis, d, route", [
    pytest.param(NoiseSpec("iid", 0.5), build_identity(8), 6, "bartlett",
                 id="identity-iid"),
    pytest.param(NoiseSpec("iid", 0.5), build_identity(7), 6, "sample",
                 id="identity-iid-short"),                      # T - k < d
    pytest.param(ORACLE_NOISE["ma1"], build_identity(48), 6, "sample",
                 id="identity-ma1"),
    pytest.param(ORACLE_NOISE["ar1"], build_periodic(3, 48), 6, "factor",
                 id="periodic-edge"),                           # 2 tau = d
    pytest.param(ORACLE_NOISE["ar1"], build_periodic(4, 48), 6, "sample",
                 id="periodic-past-edge"),                      # 2 tau > d
    pytest.param(ORACLE_NOISE["iid"], build_periodic(48, 48), 96, "factor",
                 id="periodic-tau-T"),
    pytest.param(ORACLE_NOISE["ar1"], build_trig(20, 48), 6, "factor",
                 id="trig"),
])
def test_a_point_takes_the_route_its_inputs_pick(monkeypatch, spec, basis, d,
                                                 route):
    """build_point decides the route once, and a block draws a d x T noise
    sample exactly on the sample route."""
    _, point = rates.build_point(spec, basis, d, 2, 1.0, None, None)
    assert point[1] == route
    assert (point[2] is not None) == (route == "factor")
    samples = []

    def counted(*args):
        samples.append(args)
        return sample_noise(*args)

    monkeypatch.setattr(rates.noise, "sample_noise", counted)
    rates.block_risks(d, 2, spec, 1, None, point, range(3))
    assert len(samples) == (3 if route == "sample" else 0)


LAW_SPECS = {"iid": NoiseSpec("iid", 0.5), "ar1": NoiseSpec("ar1", 0.5, rho=0.7)}


@pytest.mark.parametrize("n_freq", [2, 6])
@pytest.mark.parametrize("noise", list(LAW_SPECS))
def test_trig_replication_risk_has_the_time_domain_law(noise, n_freq):
    """Over 100 replications, the mean risk of a trig point, whose projected
    noise is drawn through its factor, matches that of fitting the same truths
    plus time-domain noise.  The band was fixed from 40 seeds per case before
    the factor landed: ratios of the means 0.93-1.08 and paired z-scores of
    their difference |z| <= 2.76.  A factor 10% too large gave z 4.1-10.7 at
    seeds 1-5, and one that ignores the AR(1) filter gave z below -28."""
    d, k, horizon, reps = 8, 2, 64, 100
    spec, basis = LAW_SPECS[noise], build_trig(n_freq, horizon)
    _, point = rates.build_point(spec, basis, d, k, 1.0, ORACLE_SMOOTH, 1.0)
    for seed in range(1, 6):
        factor = rates.block_risks(d, k, spec, seed, ORACLE_SMOOTH, point,
                                   range(reps))
        time_domain = np.array([time_domain_risk(d, k, spec, seed, idx, basis,
                                                 ORACLE_SMOOTH)
                                for idx in range(reps)])
        diff = factor - time_domain
        z = diff.mean() / (diff.std(ddof=1) / np.sqrt(reps))
        assert abs(z) <= 3.5, (seed, z)
        assert 0.85 <= factor.mean() / time_domain.mean() <= 1.15, seed


@pytest.mark.parametrize("noise", list(ORACLE_NOISE))
def test_periodic_replication_risk_has_the_time_domain_law(noise):
    """Over 200 replications, the mean risk of a periodic point with
    2 tau <= d, whose projected noise is drawn through its factor, matches
    that of fitting the same truths plus a d x T noise sample.  The band was
    fixed from seeds 1-40 per case before the route landed: paired z-scores
    of the difference -2.37..3.20 (iid), -1.50..2.68 (MA(1)) and -3.07..2.37
    (AR(1)), and ratios of the means 0.929-1.114, 0.948-1.089 and
    0.856-1.128.  A factor 10% too large gave z 4.15-9.84 at seeds 1-5, and
    an AR(1) factor that ignores the filter gave z below -8.6."""
    d, k, reps, spec = 8, 2, 200, ORACLE_NOISE[noise]
    basis = build_periodic(4, 64)
    _, point = rates.build_point(spec, basis, d, k, 1.0, None, None)
    assert point[1] == "factor"
    for seed in range(1, 6):
        factor = rates.block_risks(d, k, spec, seed, None, point, range(reps))
        time_domain = np.array([time_domain_risk(d, k, spec, seed, idx, basis)
                                for idx in range(reps)])
        diff = factor - time_domain
        z = diff.mean() / (diff.std(ddof=1) / np.sqrt(reps))
        assert abs(z) <= 3.5, (seed, z)
        assert 0.85 <= factor.mean() / time_domain.mean() <= 1.15, seed


class TestNoiseConfigErrors:
    BAD_NOISE = [
        {"kind": "ar1", "sigma": "1", "rho": 0.5},
        {"kind": "ar1", "sigma": 1.0, "rho": "0.5"},
        {"kind": "iid", "sigma": float("nan")},
        {"kind": "iid", "sigma": float("inf")},
        {"kind": "ma1", "sigma": 1.0, "theta": float("nan")},
        {"kind": "iid", "sigma": True},
    ]
    # Each carries one key that its kind never reads.
    STRAY_NOISE = [{"kind": "iid", "sigma": 1.0, "rho": 0.5},
                   {"kind": "iid", "sigma": 1.0, "theta": 0.5},
                   {"kind": "ma1", "sigma": 1.0, "rho": 0.5}]

    @pytest.mark.parametrize("noise", BAD_NOISE + STRAY_NOISE + [
        # An integer too large for a float.
        pytest.param({"kind": "iid", "sigma": 10**400}, id="sigma-10**400"),
        pytest.param({"kind": "ar1", "sigma": 1, "rho": -10**400},
                     id="rho--10**400")])
    def test_simulate_exits_2_without_output(self, tmp_path, capsys, noise):
        code, out = run(tmp_path, "simulate", dict(SIM_CFG, noise=noise), "sim")
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: noise:") and "Traceback" not in err
        if noise in self.STRAY_NOISE:
            [stray] = set(noise) - {"kind", "sigma"}
            assert err == (f"config error: noise: unknown keys [{stray!r}] "
                           f"for kind {noise['kind']!r}\n")

    @pytest.mark.parametrize("noise", BAD_NOISE[:3])
    def test_rate_check_exits_2_without_output(self, tmp_path, capsys, noise):
        cfg = dict(TestRateCheck().small_cfg(), noise=noise)
        code, out = run(tmp_path, "rate-check", cfg, "rate")
        assert code == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "rate-check"])
    def test_nonstationary_ar1_exits_2_naming_the_section(self, tmp_path, capsys,
                                                          command):
        base = SIM_CFG if command == "simulate" else TestRateCheck().small_cfg()
        cfg = dict(base, noise={"kind": "ar1", "sigma": 1.0, "rho": 1.5})
        code, out = run(tmp_path, command, cfg, "out")
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "config error: noise: rho must satisfy |rho| < 1 for ar1, got 1.5\n")


@pytest.mark.parametrize("command, key, value", [
    *[pytest.param("simulate", key, 10**400, id=f"simulate-{key}")
      for key in ("T", "d", "k", "tau")],
    pytest.param("rate-check", "replications", 10**400,
                 id="rate-check-replications"),
    pytest.param("rate-check", "sweep_T", [24, 48, 96, 10**400],
                 id="rate-check-sweep_T"),
    pytest.param("select", "ranks", [1, 10**400], id="select-ranks"),
])
def test_an_integer_above_maxsize_exits_2_naming_the_key(tmp_path, capsys,
                                                         command, key, value):
    if command == "select":
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        capsys.readouterr()
        base = {"x": str(sim_out / "X.csv"), "taus": [4, 8], "ranks": [1],
                "penalty": {"noise_level": 0.25}}
    else:
        base = SIM_CFG if command == "simulate" else TestRateCheck().small_cfg()
    code, out = run(tmp_path, command, dict(base, **{key: value}), "out")
    err = assert_rejected(capsys, code, out)
    assert err == (f"config error: {command}: {key} must be <= {sys.maxsize}, "
                   f"got {shown(value)}\n")


def test_a_seed_above_maxsize_is_valid(tmp_path):
    # SeedSequence takes any non-negative int, so the seed has no cap.
    code, out = run(tmp_path, "simulate", dict(SIM_CFG, seed=10**400), "sim")
    assert code == 0
    assert (out / "X.csv").exists()


SMOOTH_RATE_CFG = {
    "scenario": "smooth", "d": 6, "k": 1, "T": 64,
    "noise": {"kind": "iid", "sigma": 0.5}, "replications": 2, "seed": 3,
}


@pytest.mark.parametrize("smooth", [
    3,
    {"beta": 2, "ell": 10.0},
    {"beta": 0, "ell": 10.0, "n_terms": 16},
    {"beta": 2, "ell": 10.0, "n_terms": 16, "typo": 1},
])
@pytest.mark.parametrize("command", ["simulate", "rate-check"])
def test_bad_smooth_spec_exits_2_without_output(tmp_path, capsys, command,
                                                smooth):
    base = sim_cfg("smooth", k=1) if command == "simulate" else SMOOTH_RATE_CFG
    code, out = run(tmp_path, command, dict(base, smooth=smooth), "smooth")
    err = assert_rejected(capsys, code, out)
    assert err.startswith("config error: smooth:"), err


def command_cfg(command: str) -> dict:
    """A config for `command`; fit and select name an input that is absent."""
    return {"simulate": SIM_CFG, "rate-check": TestRateCheck().small_cfg(),
            "fit": {"x": "X.csv", "basis": {"kind": "identity"}, "k": 1},
            "select": {"x": "X.csv", "ranks": [1], "taus": [2],
                       "penalty": {}}}[command]


@pytest.mark.parametrize("command", ["simulate", "fit", "select", "rate-check"])
def test_negative_seed_override_exits_2_without_output(tmp_path, capsys,
                                                       command):
    code, out = run(tmp_path, command, command_cfg(command), "neg_seed", seed=-1)
    assert_rejected(capsys, code, out)


@pytest.mark.parametrize("threads", [0, -1])
@pytest.mark.parametrize("command", ["simulate", "fit", "select", "rate-check"])
def test_threads_below_one_exit_2_before_any_work(tmp_path, capsys, command,
                                                  threads):
    # Checked before the config is read, so fit and select never reach
    # their missing input.
    code, out = run(tmp_path, command, command_cfg(command), "out",
                    threads=threads)
    err = assert_rejected(capsys, code, out)
    assert err == f"config error: --threads must be >= 1, got {threads}\n"


@pytest.mark.parametrize("command", ["simulate", "fit", "select", "rate-check"])
def test_an_unsupported_schema_exits_2_before_any_work(tmp_path, capsys,
                                                       command):
    code, out = run(tmp_path, command, dict(command_cfg(command), schema=2),
                    "out")
    err = assert_rejected(capsys, code, out)
    assert err == "config error: unsupported schema version 2\n"


def test_a_non_finite_report_number_is_a_numeric_failure():
    with pytest.raises(FloatingPointError,
                       match="^non-finite number in the output"):
        cli._json_text({"risk": float("nan")})


def test_cli_import_loads_no_scipy():
    probe = ("import sys, strucfact.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", probe], env=_package_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# ---------- CSV writer ----------

def savetxt_bytes(path: Path, m) -> bytes:
    """The reference bytes: np.savetxt of a 2-D matrix."""
    np.savetxt(path, m, fmt="%.17g", delimiter=",")
    return path.read_bytes()


def powers_of_ten(exponents) -> np.ndarray:
    """Rows (10^j, its neighbour below, its neighbour above), for each j."""
    p = 10.0 ** np.asarray(exponents, dtype=float)
    return np.stack([p, np.nextafter(p, 0), np.nextafter(p, np.inf)], axis=1)


def ulp_ladder(x: float, steps: int = 4) -> np.ndarray:
    """x and its `steps` neighbours on each side."""
    ladder = [x]
    for _ in range(steps):
        ladder = [np.nextafter(ladder[0], -np.inf), *ladder,
                  np.nextafter(ladder[-1], np.inf)]
    return np.array(ladder)


def exact_ties(per_exponent: int = 20) -> np.ndarray:
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5, so that rounding them to 17 digits is a tie.  The search draws
    m / 2^p for odd m < 2^53 where m 5^p has 18 digits (from about 10^15
    down to 10^-8) and keeps what Decimal confirms."""
    rng = np.random.default_rng(3)
    found = []
    for p in range(2, 26):
        low, high = -(-10 ** 17 // 5 ** p), min(10 ** 18 // 5 ** p, 2 ** 53)
        for m in rng.integers(low, high, per_exponent):
            x = (int(m) | 1) / 2 ** p
            digits = Decimal(x).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                found += [x, -x]
    assert len(found) > 20 * per_exponent
    return np.array(found)


def random_bits(shape, exponents=(0, 2048)) -> np.ndarray:
    """Doubles of uniform random sign and mantissa bits, and biased binary
    exponent uniform in `exponents` (the default spans every double)."""
    rng = np.random.default_rng(4)
    size = int(np.prod(shape))
    bits = rng.integers(0, 2 ** 53, size, dtype=np.uint64)  # sign, mantissa
    bits = (bits >> np.uint64(52) << np.uint64(63)) | (bits & np.uint64(2 ** 52 - 1))
    bits |= rng.integers(*exponents, size, dtype=np.uint64) << np.uint64(52)
    return bits.view(np.float64).reshape(shape)


WRITER_CASES = {
    "1x1": np.array([[0.1]]),
    "1xn": np.linspace(-1.0, 1.0, 7)[None, :],
    "nx1": np.linspace(-1.0, 1.0, 7)[:, None],
    "1-D": np.linspace(-1.0, 1.0, 7),  # written as one row, like atleast_2d
    "no columns": np.zeros((3, 0)),
    "no rows": np.zeros((0, 3)),
    "negative zero": np.array([[-0.0, 0.0], [1.0, -0.0]]),
    "subnormal": np.array([[5e-324, -5e-324], [np.finfo(float).tiny / 3, 1.0]]),
    "extreme": np.array([[1e308, -1e308],
                         [np.finfo(float).max, -np.finfo(float).max]]),
    "integer-valued": np.array([[1.0, -2.0, 3e16], [2.0 ** 53, 0.0, 12.0]]),
    "random": np.random.default_rng(0).standard_normal((5, 9)),
    "non-finite": np.array([[np.nan, np.inf, -np.inf, -np.nan]]),
    "powers of ten": np.concatenate([powers_of_ten(range(-6, 19)),
                                     -powers_of_ten(range(-6, 19))]),
    # CSV_FMT turns to exponent notation below 1e-4 and from 1e17 on.
    "notation switches": np.stack([sign * ulp_ladder(x) for x in
                                   (1e-5, 1e-4, 1e16, 1e17) for sign in (1, -1)]),
    # The double below each power of ten: the spacing of doubles is too
    # wide for any of them to round up to 10^17 at 17 digits.
    "below powers of ten": np.nextafter(10.0 ** np.arange(-307, 309), 0)[None, :],
    "exact ties": exact_ties()[None, :],
    "random bits": random_bits((1000, 1000)),
    # Binary exponents -21..61: the fixed notation and just past it.
    "random fixed-notation bits": random_bits((400, 500), (1002, 1085)),
}


@functools.cache
def writer_reference(name: str) -> bytes:
    """savetxt_bytes of WRITER_CASES[name], made once for the tests below."""
    with tempfile.TemporaryDirectory() as tmp:
        return savetxt_bytes(Path(tmp) / "ref.csv",
                             np.atleast_2d(WRITER_CASES[name]))


class TestWriteMatrix:
    """The writer runs under main's floating-point traps, and its bytes
    equal np.savetxt's with and without its fast path."""

    @pytest.mark.parametrize("name", list(WRITER_CASES))
    def test_bytes_equal_savetxt(self, tmp_path, name):
        m = WRITER_CASES[name]
        with np.errstate(**rates.FP_ERRORS):
            write_matrix(tmp_path / "got.csv", m)
        assert (tmp_path / "got.csv").read_bytes() == writer_reference(name)

    @pytest.mark.parametrize("name", list(WRITER_CASES))
    def test_bytes_equal_savetxt_through_the_fast_path(self, tmp_path,
                                                       monkeypatch, name):
        # Every value in fixed notation takes the fast path, however few.
        monkeypatch.setattr(cli, "_FAST_MIN", 1)
        m = WRITER_CASES[name]
        with np.errstate(**rates.FP_ERRORS):
            write_matrix(tmp_path / "got.csv", m)
        assert (tmp_path / "got.csv").read_bytes() == writer_reference(name)

    @pytest.mark.parametrize("name", list(WRITER_CASES))
    def test_bytes_equal_savetxt_without_the_fast_path(self, tmp_path,
                                                       monkeypatch, name):
        # An empty fixed-notation range sends every value to CSV_FMT.
        monkeypatch.setattr(cli, "_FIXED_SPAN", np.uint64(0))
        m = WRITER_CASES[name]
        with np.errstate(**rates.FP_ERRORS):
            write_matrix(tmp_path / "got.csv", m)
        assert (tmp_path / "got.csv").read_bytes() == writer_reference(name)

    # The random-bit cases run only through the byte tests above: their
    # tiled references would take seconds to make, and the small cases
    # already cover the tiling.
    @pytest.mark.parametrize("repeats", [2, 5])
    @pytest.mark.parametrize("name", [name for name in WRITER_CASES
                                      if not name.startswith("random ")])
    def test_repeats_equal_savetxt_of_the_tiling(self, tmp_path, name, repeats):
        m = WRITER_CASES[name]
        with np.errstate(**rates.FP_ERRORS):
            write_matrix(tmp_path / "got.csv", m, repeats)
        assert (tmp_path / "got.csv").read_bytes() == savetxt_bytes(
            tmp_path / "ref.csv", np.tile(np.atleast_2d(m), repeats))

    def test_memory_stays_at_one_row(self, tmp_path):
        # The writer holds one chunk of 2048 values at a time: a 40-byte row
        # and the numpy temporaries of each value, and the chunk's text.  Its
        # traced peak measured 0.65 MB at 200 x 2400 (with the first build
        # of its tables), 0.52 MB at 2 x 100000 and 0.35 MB at 200 x 12
        # tiled 200 times.  np.savetxt measured 0.29 MB at 200 x 2400, and
        # m.tolist() alone 15.4 MB.
        rng = np.random.default_rng(0)
        for shape, repeats in [((200, 2400), 1), ((2, 100000), 1),
                               ((200, 12), 200)]:
            m = rng.standard_normal(shape)
            tracemalloc.start()
            try:
                write_matrix(tmp_path / "m.csv", m, repeats)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, (shape, repeats, peak)


# Fit bases as (config, basis) at the shape of SIM_CFG: d = 6, T = 24.
FIT_BASES = {
    "identity": ({"kind": "identity"}, build_identity(24)),
    "periodic": ({"kind": "periodic", "tau": 4}, build_periodic(4, 24)),
    "trig": ({"kind": "trig", "n_freq": 3}, build_trig(3, 24)),
}


class TestTiledOutputs:
    """Signal files written from one period equal np.savetxt of the whole."""

    @pytest.mark.parametrize("scenario", ["unstructured", "periodic", "smooth"])
    def test_simulate_m_equals_savetxt(self, tmp_path, scenario):
        code, out = run(tmp_path, "simulate", sim_cfg(scenario), "sim")
        assert code == 0
        smooth = SmoothFactorSpec(k=2, **SMOOTH_CFG)
        m, *_ = cli._simulate_instance(scenario, 6, 24, 2, SIM_CFG["seed"],
                                       tau=4, smooth=smooth)
        assert (out / "M.csv").read_bytes() == savetxt_bytes(
            tmp_path / "ref.csv", m)

    @pytest.mark.parametrize("kind", list(FIT_BASES))
    def test_fit_m_hat_equals_savetxt(self, tmp_path, kind):
        basis_cfg, basis = FIT_BASES[kind]
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        code, out = run(tmp_path, "fit", {"x": str(sim_out / "X.csv"),
                                          "basis": basis_cfg, "k": 2}, "fit")
        assert code == 0
        m_hat = predict(fit(read_matrix(sim_out / "X.csv"), basis, 2))
        assert (out / "M_hat.csv").read_bytes() == savetxt_bytes(
            tmp_path / "ref.csv", m_hat)


# ---------- atomic --out ----------

def fail_second_matrix_write(monkeypatch):
    """Make the second write_matrix call of a command raise an OSError."""
    calls = []
    real = cli.write_matrix

    def flaky(path, *args):
        calls.append(path)
        if len(calls) == 2:
            raise OSError(28, "No space left on device", str(path))
        real(path, *args)
    monkeypatch.setattr(cli, "write_matrix", flaky)


class TestAtomicOut:
    def configs(self, tmp_path):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        return {"simulate": SIM_CFG,
                "fit": {"x": str(sim_out / "X.csv"), "k": 2,
                        "basis": {"kind": "periodic", "tau": 4}}}

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_write_error_exits_4_leaving_nothing(self, tmp_path, capsys,
                                                 monkeypatch, command):
        cfg = self.configs(tmp_path)[command]
        before = set(tmp_path.iterdir())
        fail_second_matrix_write(monkeypatch)
        code, out = run(tmp_path, command, cfg, "out")
        err = assert_rejected(capsys, code, out, codes=(4,))
        assert err.startswith("I/O error:") and len(err.splitlines()) == 1
        # Only the config file is new: no temporary sibling is left.
        assert set(tmp_path.iterdir()) - before == {
            tmp_path / f"{command}_out.json"}

    def test_write_error_leaves_an_existing_out_as_it_was(self, tmp_path,
                                                          capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        fail_second_matrix_write(monkeypatch)
        code, _ = run(tmp_path, "simulate", SIM_CFG, "out")
        assert code == 4
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out", "simulate_out.json"]

    def test_existing_out_gets_the_files_and_keeps_others(self, tmp_path):
        _, fresh = run(tmp_path, "simulate", SIM_CFG, "fresh")
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        (out / "M.csv").write_text("stale")
        code, _ = run(tmp_path, "simulate", SIM_CFG, "out")
        assert code == 0
        got = dir_hash(out)
        assert got.pop("notes.txt") == hashlib.sha256(b"kept").hexdigest()
        assert got == dir_hash(fresh)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fresh", "out", "simulate_fresh.json", "simulate_out.json"]

    def test_out_may_be_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(SIM_CFG))
        assert main(["simulate", "--config", str(cfg), "--out", "."]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "M.csv", "U.csv", "V.csv", "X.csv", "manifest.json", "sim.json"]

    def test_existing_out_is_staged_inside_itself(self, tmp_path, monkeypatch):
        # An existing --out needs only its own write permission: the parent
        # is read-only (root ignores the mode, so the stage is also checked)
        # and the files never cross a filesystem.
        parent = tmp_path / "ro"
        out = parent / "out"
        out.mkdir(parents=True)
        stages = []
        real_mkdtemp = tempfile.mkdtemp

        def mkdtemp(**kwargs):
            stages.append(Path(kwargs["dir"]))
            return real_mkdtemp(**kwargs)

        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(SIM_CFG))
        parent.chmod(0o555)
        try:
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        finally:
            parent.chmod(0o755)
        assert code == 0 and stages == [out]
        assert [p.name for p in parent.iterdir()] == ["out"]
        assert sorted(p.name for p in out.iterdir()) == [
            "M.csv", "U.csv", "V.csv", "X.csv", "manifest.json"]

    def test_new_out_has_default_permissions(self, tmp_path):
        code, out = run(tmp_path, "simulate", SIM_CFG, "sim")
        assert code == 0
        plain = tmp_path / "plain"
        plain.mkdir()
        assert out.stat().st_mode == plain.stat().st_mode


# main() followed by a full interpreter exit, where `python -m strucfact.cli`
# skips the teardown in which an unclosed file would be reported.
MAIN_THEN_EXIT = "import sys; from strucfact import cli; sys.exit(cli.main(sys.argv[1:]))"


def test_simulate_then_fit_run_clean_in_dev_mode(tmp_path):
    # -X dev turns on ResourceWarning, so an unclosed file would reach stderr.
    configs = {"simulate": SIM_CFG,
               "fit": {"x": str(tmp_path / "data" / "X.csv"), "k": 2,
                       "basis": {"kind": "periodic", "tau": 4}}}
    for command, out in (("simulate", "data"), ("fit", "fitted")):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(configs[command]))
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", MAIN_THEN_EXIT,
             command, "--config", str(cfg), "--out", str(tmp_path / out)],
            env=_package_env(), capture_output=True, text=True)
        assert result.returncode == 0 and result.stderr == "", result.stderr
    assert (tmp_path / "fitted" / "M_hat.csv").exists()


@pytest.mark.parametrize("command, cfg, code", [
    ("simulate", SIM_CFG, 0),
    ("rate-check", {"scenario": "unstructured", "d": 6, "k": 2,
                    "noise": {"kind": "iid", "sigma": 0.5},
                    "sweep_T": [8, 16, 32, 64], "replications": 4}, 0),
    ("simulate", dict(SIM_CFG, typo_key=1), 2),
    ("simulate", dict(SIM_CFG, noise={"kind": "iid", "sigma": 1e200}), 3),
])
def test_the_module_entry_point_matches_main(tmp_path, capsys, command, cfg,
                                             code):
    """`python -m strucfact.cli`, which ends without interpreter teardown,
    gives main's exit code, stderr line and output bytes."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path), "--threads", "2", "--out"]
    assert main([*argv, str(tmp_path / "in_process")]) == code
    err = capsys.readouterr().err
    result = subprocess.run(
        [sys.executable, "-m", "strucfact.cli", *argv, str(tmp_path / "child")],
        env=_package_env(), capture_output=True, text=True)
    assert result.returncode == code
    assert result.stderr == err and err.count("\n") == (code != 0)
    if code == 0:
        assert dir_hash(tmp_path / "child") == dir_hash(tmp_path / "in_process")
    else:
        assert not (tmp_path / "child").exists()


# ---------- fuzzing the exit-code contract ----------

FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64)
    | st.floats(-1e3, 1e3) | st.sampled_from([np.nan, np.inf, -np.inf])
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=6)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)

FUZZ_CONFIGS = {
    "simulate": SIM_CFG,
    "simulate smooth": sim_cfg("smooth", noise={"kind": "ma1", "sigma": 0.5,
                                                "theta": 0.4}),
    "simulate unstructured": sim_cfg("unstructured"),
    "fit": {"x": "X.csv", "basis": {"kind": "periodic", "tau": 4}, "k": 2},
    "fit identity": {"x": "X.csv", "basis": {"kind": "identity"}, "k": 2},
    "fit trig": {"x": "X.csv", "basis": {"kind": "trig", "n_freq": 3}, "k": 2},
    "select": {"x": "X.csv", "taus": [4, 8], "n_freqs": [2], "ranks": [1, 2],
               "penalty": {"lambda": 0.5, "c_pen": 2.0, "noise_level": 0.25}},
    "rate-check": {"scenario": "unstructured", "d": 4, "k": 1,
                   "noise": {"kind": "iid", "sigma": 0.5},
                   "sweep_T": [8, 16, 24, 32], "replications": 2, "seed": 1},
    "rate-check smooth": {"scenario": "smooth", "d": 4, "k": 1, "T": 16,
                          "smooth": {"beta": 2, "ell": 10.0, "n_terms": 4},
                          "noise": {"kind": "ar1", "sigma": 0.5, "rho": 0.5},
                          "replications": 2, "seed": 3},
    "rate-check periodic": {"scenario": "periodic", "d": 4, "k": 1, "tau": 4,
                            "noise": {"kind": "ma1", "sigma": 0.5, "theta": 0.4},
                            "sweep_T": [8, 16, 24, 32], "replications": 2},
}
# Every scenario and kind name, so a fuzzed discriminant can switch variant.
VARIANT_NAMES = ["unstructured", "periodic", "smooth", "identity", "trig",
                 "iid", "ma1", "ar1"]


def _key_paths(cfg):
    return [(key,) for key in cfg] + [
        (key, sub) for key, value in cfg.items() if isinstance(value, dict)
        for sub in value]


@pytest.mark.parametrize("name", list(FUZZ_CONFIGS))
def test_fuzzed_config_keeps_exit_contract(tmp_path_factory, name):
    """One key or nested key of a valid config replaced by any JSON value:
    main returns 0, 2, 3 or 4, never raises, and leaves no --out on failure."""
    work = tmp_path_factory.mktemp("fuzz")
    write_matrix(work / "X.csv",
                 np.random.default_rng(0).standard_normal((6, 24)))
    base = FUZZ_CONFIGS[name]
    command = name.split()[0]

    @settings(max_examples=25, deadline=None, database=None)
    @given(path=st.sampled_from(_key_paths(base)), data=st.data())
    def check(path, data):
        # A scenario or kind also takes the other variants' names.
        value = data.draw(FUZZ_VALUES | st.sampled_from(VARIANT_NAMES)
                          if path[-1] in ("scenario", "kind") else FUZZ_VALUES)
        cfg = json.loads(json.dumps(base))
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        case = Path(tempfile.mkdtemp(dir=work))
        cfg_path = case / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = case / "out"
        cwd = os.getcwd()
        os.chdir(work)  # relative "x" paths resolve next to X.csv
        try:
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
        finally:
            os.chdir(cwd)
        assert code in (0, 2, 3, 4)
        assert code == 0 or not out.exists()

    check()


# ---------- numeric failures and empty inputs, as a child process ----------

def run_child(tmp_path, command, cfg, threads=1):
    """Run a command as a separate process, so that a numpy warning would
    reach its stderr; returns (exit code, stderr lines, out).  A str `cfg` is
    the config file's text."""
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "strucfact.cli", command, "--config",
         str(cfg_path), "--out", str(out), "--threads", str(threads)],
        env=_package_env(), capture_output=True, text=True)
    return result.returncode, result.stderr.splitlines(), out


@pytest.mark.parametrize("command, cfg", [
    ("fit", {"k": 1, "basis": {"kind": "periodic", "tau": 2}}),
    ("fit", {"k": 1, "basis": {"kind": "trig", "n_freq": 2}}),
    ("fit", {"k": 1, "basis": {"kind": "identity"}}),
    ("select", {"taus": [2, 4], "ranks": [1], "penalty": {}}),
])
def test_overflowing_projection_exits_3_with_one_line(tmp_path, command, cfg):
    # Finite entries whose projection or Gram scaling overflows.
    write_matrix(tmp_path / "X.csv", np.full((3, 8), 1.5e308))
    code, lines, out = run_child(tmp_path, command,
                                 dict(cfg, x=str(tmp_path / "X.csv")))
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("numeric failure:"), lines
    assert not out.exists()


@pytest.mark.parametrize("ranks", [[3, 1], [1, 2, 2]])
def test_unsorted_or_repeated_ranks_exit_2_with_one_line_naming_select(
        tmp_path, ranks):
    write_matrix(tmp_path / "X.csv",
                 np.random.default_rng(0).standard_normal((6, 24)))
    code, lines, out = run_child(tmp_path, "select", {
        "x": str(tmp_path / "X.csv"), "taus": [4], "ranks": ranks,
        "penalty": {"noise_level": 0.25}})
    assert code == 2
    assert lines == ["config error: select: ranks must be sorted ascending "
                     "and distinct"], lines
    assert not out.exists()


def test_a_deeply_nested_config_exits_2_with_one_line(tmp_path):
    # Raw text: json.dumps would itself recurse.
    depth = 100_000
    code, lines, out = run_child(tmp_path, "fit", "[" * depth + "]" * depth)
    assert code == 2
    assert lines == [f"config error: {tmp_path / 'fit.json'}: JSON nested "
                     "too deeply"], lines
    assert not out.exists()


def run_config_text(tmp_path, capsys, text: bytes):
    """simulate on a config file holding `text`; returns (stderr, config path)
    once it has failed with exit 2, one line and no --out."""
    cfg_path, out = tmp_path / "raw.json", tmp_path / "out"
    cfg_path.write_bytes(text)
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    return assert_rejected(capsys, code, out), cfg_path


SIM_TEXT = json.dumps(SIM_CFG)


@pytest.mark.parametrize("text, reason", [
    (b'{"d": ', "Expecting value: line 1 column 7 (char 6)"),
    (b"\xff" + SIM_TEXT.encode(), "'utf-8' codec can't decode byte 0xff in "
                                  "position 0: invalid start byte"),
    (SIM_TEXT.replace('"T": 24', '"T": 1' + "0" * 5000).encode(),
     "integer literal 100000000000... (5001 digits) is too long"),
], ids=["truncated", "not-utf-8", "5001-digits"])
def test_an_unreadable_config_is_one_line_naming_the_file(tmp_path, capsys,
                                                          text, reason):
    err, cfg_path = run_config_text(tmp_path, capsys, text)
    assert err == f"config error: {cfg_path}: {reason}\n"


@pytest.mark.parametrize("text, key", [
    (SIM_TEXT[:-1] + ', "d": 4}', "d"),
    (SIM_TEXT.replace('"sigma": 0.5', '"sigma": 0.5, "sigma": 1.0'), "sigma"),
], ids=["top-level", "nested"])
def test_a_repeated_config_key_is_one_line_naming_it(tmp_path, capsys, text,
                                                     key):
    err, cfg_path = run_config_text(tmp_path, capsys, text.encode())
    assert err == f"config error: {cfg_path}: duplicate key {key!r}\n"


@pytest.mark.parametrize("cfg, line", [
    (list(range(200_000)),
     "expected an object, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1... "
     "(1488890 characters)"),
    (dict(TestRateCheck().small_cfg(), sweep_T=[24] * 199_999 + [1.5]),
     "sweep_T must be a non-empty list of integers, got [24, 24, 24, 24, 24, "
     "24, 24, 24, 24, 24,... (800001 characters)"),
], ids=["list-config", "long-sweep_T"])
def test_a_long_config_value_is_cut_in_its_one_line(tmp_path, cfg, line):
    # The whole value made lines of 1.49 MB and 600 KB.
    code, lines, out = run_child(tmp_path, "rate-check", cfg)
    assert code == 2
    assert lines == [f"config error: rate-check: {line}"], lines[0][:300]
    assert len(lines[0].encode()) < 200
    assert not out.exists()


# Smooth factors so large that every replication overflows in its pool thread.
OVERFLOW_RATE_CFG = {"scenario": "smooth", "d": 10, "k": 2, "T": 128,
                     "smooth": {"beta": 2, "ell": 1e308, "n_terms": 16},
                     "noise": {"kind": "ar1", "sigma": 0.5, "rho": 0.5},
                     "replications": 4, "seed": 1}


@pytest.mark.parametrize("threads", [1, 2])
def test_overflow_in_a_pool_thread_exits_3_with_one_line(tmp_path, threads):
    code, lines, out = run_child(tmp_path, "rate-check", OVERFLOW_RATE_CFG,
                                 threads=threads)
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("numeric failure:"), lines
    assert not out.exists()


def scenario_cfg(command: str, scenario: str) -> dict:
    """A small simulate or rate-check config for `scenario`."""
    if command == "simulate":
        return sim_cfg(scenario)
    rate = TestRateCheck().small_cfg()
    return {"unstructured": rate,
            "periodic": dict(rate, scenario="periodic", tau=4),
            "smooth": dict(SMOOTH_RATE_CFG, smooth=SMOOTH_CFG)}[scenario]


# NoiseSpec squares sigma, and theta for MA(1), before any work.  A child
# process, since pytest's warning capture would hide a numpy RuntimeWarning.
@pytest.mark.parametrize("noise, line", [
    ({"kind": "iid", "sigma": 1e-300},
     "numeric failure: noise sigma = 1e-300: sigma^2 underflows to 0"),
    ({"kind": "ma1", "sigma": 0.5, "theta": 1e200},
     "numeric failure: noise theta = 1e+200: theta^2 overflows"),
], ids=["sigma-underflow", "theta-overflow"])
@pytest.mark.parametrize("command, scenario", [
    (command, scenario) for command in ("simulate", "rate-check")
    for scenario in ("unstructured", "periodic", "smooth")])
def test_a_noise_square_out_of_range_exits_3_with_one_line(
        tmp_path, command, scenario, noise, line):
    cfg = dict(scenario_cfg(command, scenario), noise=noise)
    code, lines, out = run_child(tmp_path, command, cfg)
    assert code == 3
    assert lines == [line], lines
    assert not out.exists()


def test_a_tiny_sigma_clamps_the_smooth_cutoff(tmp_path):
    # sigma^2 = 1e-320 is subnormal but positive, and the formula for N*
    # overflows to inf before its clamp to (T - 1) // 2.
    cfg = dict(scenario_cfg("rate-check", "smooth"),
               noise={"kind": "iid", "sigma": 1e-160})
    code, lines, out = run_child(tmp_path, "rate-check", cfg)
    assert (code, lines) == (0, [])
    report = json.loads((out / "rate_report.json").read_text())
    assert report["optimal_cutoff"] == (cfg["T"] - 1) // 2


# d = 10**17 rows ask for about 1.4 EiB, more than any address space holds, so
# the first allocation fails at once without touching memory.
@pytest.mark.parametrize("command, threads", [
    ("simulate", 1), ("rate-check", 1), ("rate-check", 2)])
def test_an_allocation_failure_exits_3_with_one_line(tmp_path, command, threads):
    cfg = dict(command_cfg(command), d=10**17, k=2)
    code, lines, out = run_child(tmp_path, command, cfg, threads=threads)
    assert code == 3
    assert len(lines) == 1 and lines[0].startswith("out of memory:"), lines
    assert not out.exists()


@pytest.mark.parametrize("task_fails, line", [
    (False, "out of memory: rate-check could not start a pool thread: "
            "can't start new thread\n"),
    (True, "numeric failure: overflow in the held task\n"),
])
def test_a_pool_thread_that_cannot_start_exits_3_with_one_line(
        tmp_path, capsys, monkeypatch, task_fails, line):
    # The first pool thread starts and holds its task, so the second task
    # asks for a second thread, which cannot start.  A task that ran and
    # failed before that is the error reported.
    held, calls, starts = threading.Event(), [], []
    replicate, start = cli._one_replication, threading.Thread.start

    def hold(*args):
        calls.append(args[-1])
        held.wait(timeout=10)
        if task_fails:
            raise OverflowError("overflow in the held task")
        return replicate(*args)

    def start_once(thread):
        starts.append(thread)
        if len(starts) > 1:
            held.set()
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(cli, "_one_replication", hold)
    monkeypatch.setattr(threading.Thread, "start", start_once)
    code, out = run(tmp_path, "rate-check", TestRateCheck().small_cfg(), "rate",
                    threads=4)
    assert assert_rejected(capsys, code, out, codes=(3,)) == line
    # Of 4 blocks (one per point), only those the one thread took before
    # the cancel ran.
    assert len(starts) == 2 and len(calls) <= 2


def test_ctrl_c_while_a_pool_thread_starts_exits_130_with_one_line(
        tmp_path, capsys, monkeypatch):
    # A KeyboardInterrupt inside Thread.start's wait leaves its lock to raise
    # a RuntimeError, with the interrupt as its context.
    class InterruptedStart(cli.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            try:
                raise KeyboardInterrupt
            except KeyboardInterrupt:
                raise RuntimeError("release unlocked lock")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", InterruptedStart)
    code, out = run(tmp_path, "rate-check", TestRateCheck().small_cfg(), "rate",
                    threads=2)
    assert assert_rejected(capsys, code, out, codes=(130,)) == "interrupted\n"


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failing_rate_check_stops_early(tmp_path, capsys, monkeypatch,
                                          threads):
    calls = []
    replicate = cli._one_replication

    def spy(*args):
        calls.append(args[-1])
        return replicate(*args)

    monkeypatch.setattr(cli, "_one_replication", spy)
    # Every block overflows once it is fitted, and a point has 21 blocks of
    # at most 49 replications.
    reps = 1000
    code, out = run(tmp_path, "rate-check",
                    dict(OVERFLOW_RATE_CFG, replications=reps), "rate",
                    threads=threads)
    err = assert_rejected(capsys, code, out, codes=(3,))
    assert err.startswith("numeric failure:") and err.count("\n") == 1, err
    # Fewer replications than the first point's, let alone all points'.
    assert sum(len(block) for block in calls) < reps


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_mean_risks_raises_the_earliest_submitted_error(threads):
    calls = []

    def replicate(point, indices):
        for idx in indices:
            calls.append(idx)
            if idx >= 3:
                time.sleep(0.01)  # lets the waiting thread run, as numpy would
                raise ArithmeticError(f"replication {idx}")
        return np.ones(len(indices))

    # Never a CancelledError of a task the first error cancelled.  Replication
    # 3 is the second of its block.
    with pytest.raises(ArithmeticError, match="^replication 3$"):
        cli._mean_risks(replicate, [None] * 4, 50, threads, [2, 3, 7, 50])
    assert len(calls) < 200


@pytest.mark.parametrize("threads", [1, 2, 4, 8])
def test_mean_risks_runs_one_task_per_thread(monkeypatch, threads):
    submits, seen, idents = [], [], set()
    caller, ran = threading.get_ident(), threading.Event()

    class Counting(cli.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submits.append(args)
            return super().submit(*args, **kwargs)

    def replicate(point, indices):
        # Pool threads wait until the calling thread has taken a block, so
        # they cannot take all 76 while it submits.
        if threading.get_ident() == caller:
            ran.set()
        else:
            ran.wait(timeout=10)
        idents.add(threading.get_ident())
        seen.extend(indices)
        return point + np.array(indices)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Counting)
    points = [0.0, 1e3, 2e3, 3e3]
    # Switching threads as often as it can, so that a lost or repeated block
    # of a counter that is not atomic would show.  Blocks of 3 and 7 leave a
    # partial block at the end of their points.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        means, stds = cli._mean_risks(replicate, points, 50, threads,
                                      [1, 3, 7, 50])
    finally:
        sys.setswitchinterval(interval)
    # One task per thread, not one per block (76), and one thread's task
    # runs on the calling thread, so the pool gets one task fewer.
    assert len(submits) == min(threads, 76) - 1
    assert caller in idents
    assert sorted(seen) == list(range(200))
    risks = np.arange(200.0).reshape(4, 50) + np.array(points)[:, None]
    assert means.tolist() == risks.mean(axis=1).tolist()
    assert stds.tolist() == risks.std(axis=1).tolist()


def test_mean_risks_raises_an_interrupt_of_the_calling_thread_first(monkeypatch):
    # The pool's task takes block 0 and fails once the calling thread is
    # inside block 1, where Ctrl-C lands: the interrupt outranks the lower
    # block's error.
    caller = threading.get_ident()
    pool_took, caller_took, pool_fails = (threading.Event() for _ in range(3))

    class Ordered(cli.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            pool_took.wait(timeout=10)
            return future

    def replicate(point, indices):
        if threading.get_ident() != caller:
            pool_took.set()
            caller_took.wait(timeout=10)
            pool_fails.set()
            raise ArithmeticError(f"replication {indices[0]}")
        caller_took.set()
        pool_fails.wait(timeout=10)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "ThreadPoolExecutor", Ordered)
    with pytest.raises(KeyboardInterrupt):
        cli._mean_risks(replicate, [None] * 2, 10, 2, [5, 5])
    assert pool_fails.is_set()


# A fresh process: ru_maxrss is the peak of the whole process so far.
RSS_PROBE = """
import resource
from strucfact import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
cli._mean_risks(lambda point, indices: 1.0, [None] * 4, 25000, 2, [1] * 4)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in kilobytes")
def test_mean_risks_holds_no_object_per_replication():
    result = subprocess.run([sys.executable, "-c", RSS_PROBE], timeout=60,
                            env=_package_env(), capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # A future per replication grew it by about 176 MB.
    assert int(result.stdout) < 10_000


# Prints one line once the first block starts, and sleeps 2 ms per
# replication of each block so that the run outlasts the test by far.
# Python's own SIGINT handler is installed even where this process was started
# with SIGINT ignored.
INTERRUPT_PROBE = """
import signal, sys, time
from strucfact import cli
signal.signal(signal.SIGINT, signal.default_int_handler)
replicate, started = cli._one_replication, []

def slow(*args):
    if not started:
        started.append(True)
        print("started", flush=True)
    time.sleep(0.002 * len(args[-1]))
    return replicate(*args)

cli._one_replication = slow
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_ctrl_c_stops_a_rate_check_with_one_line(tmp_path, threads):
    cfg_path, out = tmp_path / "rate.json", tmp_path / "out"
    # 8000 replications of at least 2 ms: 8 s or more on 2 threads, in
    # Bartlett blocks of 198 (d = 8, k = 1) that each end within about 0.4 s
    # of the interrupt.
    cfg_path.write_text(json.dumps(dict(TestRateCheck().small_cfg(),
                                        replications=2000)))
    child = subprocess.Popen(
        [sys.executable, "-c", INTERRUPT_PROBE, "rate-check", "--config",
         str(cfg_path), "--out", str(out), "--threads", str(threads)],
        env=_package_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        line = child.stdout.readline()
        if line == "started\n":
            child.send_signal(signal.SIGINT)
        _, err = child.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        child.kill()
        _, err = child.communicate()
        pytest.fail(f"no exit within 5 s of first line {line!r}; stderr {err!r}")
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    state = f"exit {child.returncode}, stderr {err!r}"
    assert line == "started\n", state
    assert child.returncode == 130, state
    assert err.splitlines() == ["interrupted"], state
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "rate-check"])
def test_an_interrupt_exits_130_with_one_line(tmp_path, capsys, monkeypatch,
                                              command):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.COMMANDS, command, interrupt)
    monkeypatch.setattr(cli, "cmd_rate_check", interrupt)
    try:
        code, out = run(tmp_path, command, command_cfg(command), "out")
    except KeyboardInterrupt:  # would end the whole test session
        pytest.fail("main let KeyboardInterrupt through")
    assert code == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not out.exists()


class TestBlasThreadShare:
    """While every command runs, numpy's bundled OpenBLAS runs at one thread,
    shared by every pool thread of a rate-check; its count comes back after."""

    START = 4  # a count above 1, whatever the core count
    # Per command, a numeric call that it makes: (module, name).
    SPIED = {"simulate": (cli, "sample_noise"), "fit": (estimator, "fit"),
             "select": (cli, "select"), "rate-check": (cli, "_one_replication")}

    @pytest.fixture
    def blas(self):
        blas = cli._bundled_openblas()
        if blas is None:
            pytest.skip("numpy ships no OpenBLAS of its own here")
        get, set_ = blas
        default = get()
        set_(self.START)
        yield get
        set_(default)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_replications_run_at_one_blas_thread_and_the_count_comes_back(
            self, tmp_path, monkeypatch, blas, threads):
        seen = []
        replicate = cli._one_replication

        def spy(*args):
            seen.extend([blas()] * len(args[-1]))
            return replicate(*args)

        monkeypatch.setattr(cli, "_one_replication", spy)
        code, _ = run(tmp_path, "rate-check", TestRateCheck().small_cfg(),
                      "rate", threads=threads)
        assert code == 0
        assert len(seen) == 12 and set(seen) == {1}
        assert blas() == self.START

    @staticmethod
    def configs(tmp_path, command) -> dict:
        """{exit code: config} for `command`: a valid config, the same with
        an unknown key, and one that overflows."""
        write_matrix(tmp_path / "X.csv",
                     np.random.default_rng(0).standard_normal((6, 24)))
        write_matrix(tmp_path / "huge.csv", np.full((3, 8), 1.5e308))
        fit = {"basis": {"kind": "identity"}, "k": 1}
        select = {"taus": [2, 4], "ranks": [1], "penalty": {}}
        valid, overflow = {
            "simulate": (SIM_CFG, dict(SIM_CFG, noise={"kind": "iid",
                                                       "sigma": 1e200})),
            "fit": (dict(fit, x=str(tmp_path / "X.csv")),
                    dict(fit, x=str(tmp_path / "huge.csv"))),
            "select": (dict(select, x=str(tmp_path / "X.csv")),
                       dict(select, x=str(tmp_path / "huge.csv"))),
            "rate-check": (TestRateCheck().small_cfg(), OVERFLOW_RATE_CFG),
        }[command]
        return {0: valid, 2: dict(valid, typo=1), 3: overflow}

    @pytest.mark.parametrize("command", list(SPIED))
    def test_every_command_runs_at_one_blas_thread_and_the_count_comes_back(
            self, tmp_path, monkeypatch, blas, command):
        module, name = self.SPIED[command]
        call, seen = getattr(module, name), []

        def spy(*args, **kwargs):
            seen.append(blas())
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        for code, cfg in self.configs(tmp_path, command).items():
            assert run(tmp_path, command, cfg, f"out{code}")[0] == code
            assert blas() == self.START
        assert seen and set(seen) == {1}

    def test_a_fit_gives_the_same_bytes_at_any_count(self, tmp_path, blas):
        # OpenBLAS rounds the Gram matrix of this identity fit differently at
        # counts 1 and 2.
        write_matrix(tmp_path / "X.csv",
                     np.random.default_rng(0).standard_normal((100, 960)))
        cfg = {"x": str(tmp_path / "X.csv"), "basis": {"kind": "identity"},
               "k": 2}
        hashes = []
        for count in (self.START, 2, 1):
            cli._bundled_openblas()[1](count)
            code, out = run(tmp_path, "fit", cfg, f"count{count}")
            assert code == 0
            hashes.append(dir_hash(out))
        assert hashes[0] == hashes[1] == hashes[2]

    def test_count_comes_back_after_a_pool_thread_fails(self, tmp_path, blas):
        code, _ = run(tmp_path, "rate-check", OVERFLOW_RATE_CFG, "rate",
                      threads=2)
        assert code == 3
        assert blas() == self.START

    def test_count_comes_back_when_the_pool_itself_fails(self, tmp_path,
                                                         monkeypatch, blas):
        # A replication's error surfaces after the pool joins; this one
        # (no thread could start) leaves the pool block early.
        class Broken(cli.ThreadPoolExecutor):
            def submit(self, *args):
                raise RuntimeError("can't start new thread")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Broken)
        code, _ = run(tmp_path, "rate-check", TestRateCheck().small_cfg(),
                      "rate", threads=2)
        assert code == 3
        assert blas() == self.START

    def test_a_count_of_one_gives_the_same_bytes(self, tmp_path):
        # The default count, and then 1 as under OPENBLAS_NUM_THREADS=1.
        blas = cli._bundled_openblas()
        if blas is None:
            pytest.skip("numpy ships no OpenBLAS of its own here")
        get, set_ = blas
        default = get()
        code1, out1 = run(tmp_path, "rate-check", D100_RATE_CFG, "rate1")
        set_(1)
        try:
            code2, out2 = run(tmp_path, "rate-check", D100_RATE_CFG, "rate2")
        finally:
            set_(default)
        assert code1 == code2 == 0
        assert dir_hash(out1) == dir_hash(out2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_count_of_one_is_never_set(self, tmp_path, monkeypatch, threads):
        calls = []
        monkeypatch.setattr(cli, "_bundled_openblas",
                            lambda: (lambda: 1, calls.append))
        code, _ = run(tmp_path, "rate-check", TestRateCheck().small_cfg(),
                      "rate", threads=threads)
        assert code == 0
        assert calls == []


@pytest.mark.parametrize("content", ["", "\n\n"], ids=["empty", "blank"])
@pytest.mark.parametrize("command", ["fit", "select"])
def test_csv_without_entries_is_a_config_error_naming_it(tmp_path, command,
                                                         content):
    x = tmp_path / "X.csv"
    x.write_text(content)
    code, lines, out = run_child(tmp_path, command,
                                 dict(command_cfg(command), x=str(x)))
    assert code == 2
    assert lines == [f"config error: {x} holds no matrix entries"], lines
    assert not out.exists()


@pytest.mark.parametrize("content", ["1,2,3\n4,x,6\n", "1,2,3\n4,5\n",
                                     "1,2,3\n4,nan,6\n", "1,2,3\ninf,5,6\n"],
                         ids=["bad-value", "ragged", "nan", "inf"])
@pytest.mark.parametrize("command", ["fit", "select"])
def test_malformed_csv_is_a_config_error_naming_it(tmp_path, capsys, command,
                                                   content):
    x = tmp_path / "X.csv"
    x.write_text(content)
    code, out = run(tmp_path, command, dict(command_cfg(command), x=str(x)),
                    "malformed")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {x}: ") and err.count("\n") == 1, err


def test_loglog_slope_is_the_closed_form_ols():
    rate_values = np.array([1e-3, 4e-3, 2e-2, 5e-2, 0.3])
    means = np.array([2.1e-3, 5e-3, 4.4e-2, 0.09, 0.8])
    lx, ly = np.log(rate_values), np.log(means)
    sxx = np.sum((lx - lx.mean()) ** 2)
    slope = np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx
    intercept = ly.mean() - slope * lx.mean()
    resid = ly - (intercept + slope * lx)
    stderr = np.sqrt(np.sum(resid ** 2) / (len(lx) - 2) / sxx)
    got = rates.loglog_slope(list(rate_values), means)
    assert all(type(v) is float for v in got)
    np.testing.assert_allclose(got, [slope, intercept, stderr], rtol=1e-10)
