import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from strucfact import build_periodic, expand, fit, predict, project
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


SIM_CFG = {
    "scenario": "periodic",
    "d": 6, "T": 24, "tau": 4, "k": 2,
    "noise": {"kind": "iid", "sigma": 0.5},
    "seed": 11,
}


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

    def test_unknown_key_is_config_error(self, tmp_path):
        bad = dict(SIM_CFG, typo_key=1)
        code, _ = run(tmp_path, "simulate", bad, "sim_bad")
        assert code == 2

    def test_invalid_dims_is_config_error(self, tmp_path):
        bad = dict(SIM_CFG, tau=5)  # 24 not divisible by 5
        code, _ = run(tmp_path, "simulate", bad, "sim_bad2")
        assert code == 2


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

    def test_missing_input_is_io_error(self, tmp_path):
        fit_cfg = {"x": str(tmp_path / "nope.csv"),
                   "basis": {"kind": "identity"}, "k": 1}
        code, _ = run(tmp_path, "fit", fit_cfg, "fit_missing")
        assert code == 4

    def test_summary_contents(self, tmp_path):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        fit_cfg = {"x": str(sim_out / "X.csv"),
                   "basis": {"kind": "periodic", "tau": 4}, "k": 2}
        _, out = run(tmp_path, "fit", fit_cfg, "fit")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rank"] <= 2
        assert summary["empirical_risk"] >= 0
        assert summary["gram_residual"] <= 1e-9


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
        assert "noise_level must be positive" in capsys.readouterr().err


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

    def test_threads_do_not_change_result(self, tmp_path):
        _, out1 = run(tmp_path, "rate-check", self.small_cfg(), "rate1",
                      threads=1)
        _, out2 = run(tmp_path, "rate-check", self.small_cfg(), "rate4",
                      threads=4)
        assert dir_hash(out1) == dir_hash(out2)

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


class TestNoiseConfigErrors:
    BAD_NOISE = [
        {"kind": "ar1", "sigma": "1", "rho": 0.5},
        {"kind": "ar1", "sigma": 1.0, "rho": "0.5"},
        {"kind": "iid", "sigma": float("nan")},
        {"kind": "iid", "sigma": float("inf")},
        {"kind": "ma1", "sigma": 1.0, "theta": float("nan")},
        {"kind": "iid", "sigma": True},
    ]

    @pytest.mark.parametrize("noise", BAD_NOISE)
    def test_simulate_exits_2_without_output(self, tmp_path, capsys, noise):
        code, out = run(tmp_path, "simulate", dict(SIM_CFG, noise=noise), "sim")
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: noise:") and "Traceback" not in err

    @pytest.mark.parametrize("noise", BAD_NOISE[:3])
    def test_rate_check_exits_2_without_output(self, tmp_path, capsys, noise):
        cfg = dict(TestRateCheck().small_cfg(), noise=noise)
        code, out = run(tmp_path, "rate-check", cfg, "rate")
        assert code == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err


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
    base = dict(SIM_CFG, scenario="smooth", k=1) if command == "simulate" \
        else SMOOTH_RATE_CFG
    code, out = run(tmp_path, command, dict(base, smooth=smooth), "smooth")
    assert code == 2
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    import strucfact
    src = str(Path(strucfact.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, strucfact.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
