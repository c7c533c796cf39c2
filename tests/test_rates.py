"""The benchmark's span tracer still sees the rate-check engine.

``perfbench/spantrace.py`` rebinds traced functions only in the modules of
its ``TRACED`` table, which does not list ``strucfact.rates``.  So the engine
must reach those functions through their modules' attributes, and the pool
must run the replication that ``cli`` binds as ``_one_replication``.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strucfact

SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"
SRC = Path(strucfact.__file__).resolve().parent.parent

NOISE = {"kind": "ar1", "sigma": 0.5, "rho": 0.5}
SWEEP = {"d": 6, "k": 2, "noise": NOISE, "sweep_T": [8, 12, 16, 24],
         "replications": 2, "seed": 1}
CONFIGS = {
    "unstructured": {"scenario": "unstructured", **SWEEP},
    # iid noise and T - k >= d at every point: the Bartlett route.
    "bartlett": {"scenario": "unstructured", **SWEEP,
                 "noise": {"kind": "iid", "sigma": 0.5}},
    "periodic": {"scenario": "periodic", **SWEEP, "tau": 4},
    "smooth": {"scenario": "smooth", "d": 6, "k": 2, "noise": NOISE, "T": 32,
               "replications": 2, "seed": 1,
               "smooth": {"beta": 2, "ell": 10.0, "n_terms": 4}},
}
ALWAYS = {"cli._one_replication", "cli._mean_risks", "cli.pool_job",
          "estimator.fit", "noise.sigma_op_norm"}


@pytest.mark.parametrize("scenario", list(CONFIGS))
def test_traced_rate_check_records_the_engine_calls(tmp_path, scenario):
    cfg_path, spans_path = tmp_path / "rate.json", tmp_path / "spans.json"
    cfg_path.write_text(json.dumps(CONFIGS[scenario]))
    result = subprocess.run(
        [sys.executable, str(SPANTRACE), str(spans_path), "rate-check",
         "--config", str(cfg_path), "--out", str(tmp_path / "out"),
         "--threads", "2"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    names = {span[0] for span in json.loads(spans_path.read_text())["spans"]}
    # A trig point draws its projected noise through a factor, and a Bartlett
    # point through E1 and a Bartlett factor, not a sample.
    want = ALWAYS | ({"noise.sample_noise"}
                     if scenario in ("unstructured", "periodic") else set())
    assert want <= names, sorted(want - names)
    if scenario == "bartlett":
        assert "noise.sample_noise" not in names
