import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strucfact import (SmoothFactorSpec, build_identity, build_periodic,
                       build_trig, expand, fit, linalg, predict, project)
from strucfact import cli
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

    @pytest.mark.parametrize("key, value", [
        ("k", 1.5), ("k", "2"), ("d", 3.0), ("T", "24"), ("seed", "x"),
        ("seed", 1.5), ("seed", -1), ("tau", None), ("schema", True),
        ("scenario", "weekly"),
    ])
    def test_mistyped_key_exits_2_without_output(self, tmp_path, capsys,
                                                 key, value):
        code, out = run(tmp_path, "simulate", dict(SIM_CFG, **{key: value}),
                        "sim_bad")
        assert_rejected(capsys, code, out)

    def test_non_integer_smooth_beta_rejected(self, tmp_path, capsys):
        cfg = dict(SIM_CFG, scenario="smooth", k=1,
                   smooth={"beta": 2.0, "ell": 10.0, "n_terms": 4})
        code, out = run(tmp_path, "simulate", cfg, "sim_bad")
        assert_rejected(capsys, code, out)

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

    @pytest.mark.parametrize("key, value", [
        ("k", 1.5), ("k", "2"), ("k", True), ("x", 3),
        ("basis", {"kind": "periodic", "tau": "4"}),
        ("basis", {"kind": "trig", "n_freq": 2.0}),
        ("basis", {"kind": "trig"}),
        ("basis", "periodic"),
    ])
    def test_mistyped_key_exits_2_without_output(self, tmp_path, capsys,
                                                 key, value):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        fit_cfg = {"x": str(sim_out / "X.csv"),
                   "basis": {"kind": "periodic", "tau": 4}, "k": 2}
        code, out = run(tmp_path, "fit", dict(fit_cfg, **{key: value}),
                        "fit_bad")
        assert_rejected(capsys, code, out)

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
        assert "noise_level must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("lambda", "a"), ("c_pen", "2"), ("noise_level", float("nan")),
        ("noise_level", "1"), ("noise_level", None), ("s", float("inf")),
    ])
    def test_mistyped_penalty_exits_2_without_output(self, tmp_path, capsys,
                                                     key, value):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        sel_cfg = {"x": str(sim_out / "X.csv"), "taus": [4, 8],
                   "ranks": [1, 2],
                   "penalty": {"lambda": 0.5, "c_pen": 2.0, key: value}}
        code, out = run(tmp_path, "select", sel_cfg, "sel_bad")
        assert_rejected(capsys, code, out)

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
        svd = linalg.svd
        monkeypatch.setattr(linalg, "svd", lambda a: calls.append(1) or svd(a))
        sel_cfg = {"x": str(sim_out / "X.csv"), "taus": [4, 8], "n_freqs": [2],
                   "ranks": [1, 2], "penalty": {"lambda": 0.5, "c_pen": 2.0}}
        code, _ = run(tmp_path, "select", sel_cfg, "sel")
        assert code == 0
        assert len(calls) == 3 + 1  # one per basis + the winner's refit

    def test_explicit_empty_taus_with_n_freqs(self, tmp_path):
        _, sim_out = run(tmp_path, "simulate", SIM_CFG, "sim")
        sel_cfg = {"x": str(sim_out / "X.csv"), "taus": [], "n_freqs": [1, 2],
                   "ranks": [1, 2], "penalty": {"noise_level": 0.25}}
        code, out = run(tmp_path, "select", sel_cfg, "sel")
        assert code == 0
        winner = json.loads((out / "winner.json").read_text())
        assert winner["chosen_tau"] in (3, 5)


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

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_threads_do_not_change_result(self, tmp_path, threads):
        # d = 8 < T: every fit takes the Gram path of linalg.top_k.
        _, out1 = run(tmp_path, "rate-check", self.small_cfg(), "rate1",
                      threads=1)
        _, out2 = run(tmp_path, "rate-check", self.small_cfg(), "rate_n",
                      threads=threads)
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
    ])
    def test_invalid_sweep_config_rejected(self, tmp_path, capsys, changes):
        cfg = dict(self.small_cfg(), **changes)
        code, out = run(tmp_path, "rate-check", cfg, "rate_bad")
        assert_rejected(capsys, code, out)

    @pytest.mark.parametrize("changes", [
        {"d": 6, "k": 7},       # k > min(d, tau) at every cutoff point
        {"k": 4},               # k > tau = 3 at the cutoff N = 1
        {"c_beta_l": "x"}, {"c_beta_l": 0},
        {"T": 3},               # T < 2 n_terms + 2
        {"T": 64.0},
        {"smooth": None},
    ])
    def test_invalid_smooth_config_rejected(self, tmp_path, capsys, changes):
        cfg = {**SMOOTH_RATE_CFG,
               "smooth": {"beta": 2, "ell": 10.0, "n_terms": 16}, **changes}
        code, out = run(tmp_path, "rate-check", cfg, "rate_bad")
        assert_rejected(capsys, code, out)


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


@pytest.mark.parametrize("command", ["simulate", "fit", "select", "rate-check"])
def test_negative_seed_override_exits_2_without_output(tmp_path, capsys,
                                                       command):
    cfg = {"simulate": SIM_CFG, "rate-check": TestRateCheck().small_cfg(),
           "fit": {"x": "X.csv", "basis": {"kind": "identity"}, "k": 1},
           "select": {"x": "X.csv", "ranks": [1], "taus": [2],
                      "penalty": {}}}[command]
    code, out = run(tmp_path, command, cfg, "neg_seed", seed=-1)
    assert_rejected(capsys, code, out)


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


WRITER_CASES = {
    "1x1": np.array([[0.1]]),
    "1xn": np.linspace(-1.0, 1.0, 7)[None, :],
    "nx1": np.linspace(-1.0, 1.0, 7)[:, None],
    "1-D": np.linspace(-1.0, 1.0, 7),  # written as one row, like atleast_2d
    "negative zero": np.array([[-0.0, 0.0], [1.0, -0.0]]),
    "subnormal": np.array([[5e-324, -5e-324], [np.finfo(float).tiny / 3, 1.0]]),
    "extreme": np.array([[1e308, -1e308],
                         [np.finfo(float).max, -np.finfo(float).max]]),
    "integer-valued": np.array([[1.0, -2.0, 3e16], [2.0 ** 53, 0.0, 12.0]]),
    "random": np.random.default_rng(0).standard_normal((5, 9)),
}


class TestWriteMatrix:
    @pytest.mark.parametrize("name", list(WRITER_CASES))
    def test_bytes_equal_savetxt(self, tmp_path, name):
        m = WRITER_CASES[name]
        write_matrix(tmp_path / "got.csv", m)
        assert (tmp_path / "got.csv").read_bytes() == savetxt_bytes(
            tmp_path / "ref.csv", np.atleast_2d(m))

    @pytest.mark.parametrize("repeats", [2, 5])
    @pytest.mark.parametrize("name", list(WRITER_CASES))
    def test_repeats_equal_savetxt_of_the_tiling(self, tmp_path, name, repeats):
        m = WRITER_CASES[name]
        write_matrix(tmp_path / "got.csv", m, repeats)
        assert (tmp_path / "got.csv").read_bytes() == savetxt_bytes(
            tmp_path / "ref.csv", np.tile(np.atleast_2d(m), repeats))

    def test_memory_stays_at_one_row(self, tmp_path):
        # The writer holds one row of text and objects at a time: its traced
        # peak measured 0.15 MB at 200 x 2400 (np.savetxt 0.29 MB), where
        # m.tolist() alone measured 15.4 MB.
        m = np.random.default_rng(0).standard_normal((200, 2400))
        tracemalloc.start()
        try:
            write_matrix(tmp_path / "m.csv", m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


# Fit bases as (config, basis) at the shape of SIM_CFG: d = 6, T = 24.
FIT_BASES = {
    "identity": ({"kind": "identity"}, build_identity(24)),
    "periodic": ({"kind": "periodic", "tau": 4}, build_periodic(4, 24)),
    "trig": ({"kind": "trig", "n_freq": 3}, build_trig(3, 24)),
}
SMOOTH_CFG = {"beta": 2, "ell": 10.0, "n_terms": 4}


class TestTiledOutputs:
    """Signal files written from one period equal np.savetxt of the whole."""

    @pytest.mark.parametrize("scenario", ["unstructured", "periodic", "smooth"])
    def test_simulate_m_equals_savetxt(self, tmp_path, scenario):
        cfg = dict(SIM_CFG, scenario=scenario, smooth=SMOOTH_CFG)
        code, out = run(tmp_path, "simulate", cfg, "sim")
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


def test_simulate_then_fit_run_clean_in_dev_mode(tmp_path):
    # -X dev turns on ResourceWarning, so an unclosed file would reach stderr.
    configs = {"simulate": SIM_CFG,
               "fit": {"x": str(tmp_path / "data" / "X.csv"), "k": 2,
                       "basis": {"kind": "periodic", "tau": 4}}}
    for command, out in (("simulate", "data"), ("fit", "fitted")):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(configs[command]))
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "strucfact.cli",
             command, "--config", str(cfg), "--out", str(tmp_path / out)],
            env=_package_env(), capture_output=True, text=True)
        assert result.returncode == 0 and result.stderr == "", result.stderr
    assert (tmp_path / "fitted" / "M_hat.csv").exists()


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
    "fit": {"x": "X.csv", "basis": {"kind": "periodic", "tau": 4}, "k": 2},
    "select": {"x": "X.csv", "taus": [4, 8], "n_freqs": [2], "ranks": [1, 2],
               "penalty": {"lambda": 0.5, "c_pen": 2.0, "noise_level": 0.25}},
    "rate-check": {"scenario": "unstructured", "d": 4, "k": 1,
                   "noise": {"kind": "iid", "sigma": 0.5},
                   "sweep_T": [8, 16, 24, 32], "replications": 2, "seed": 1},
    "rate-check smooth": {"scenario": "smooth", "d": 4, "k": 1, "T": 16,
                          "smooth": {"beta": 2, "ell": 10.0, "n_terms": 4},
                          "noise": {"kind": "ar1", "sigma": 0.5, "rho": 0.5},
                          "replications": 2, "seed": 3},
}


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
    @given(path=st.sampled_from(_key_paths(base)), value=FUZZ_VALUES)
    def check(path, value):
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
