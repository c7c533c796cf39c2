"""Command-line front end: simulate, fit, select, rate-check.

All commands read a strict JSON config (UTF-8, each key once per object),
write CSV matrices (17 significant digits, comma delimiter, no header) plus
strict JSON manifests/reports.  Every command runs numpy's bundled OpenBLAS
at one thread, so its bytes depend on config and seed alone.  Only
rate-check uses --threads: its blocks of replications (strucfact.rates) run
on the calling thread and --threads - 1 pool threads.  Each command checks its
config against the typed table of its scenario, basis kind and noise kind
before computing anything, computes every output before it writes a file,
and publishes the output directory atomically.  The CSV writer formats each
value once: a tiled matrix (a periodic signal, an identity or periodic fit)
repeats its formatted period.  It formats with numpy, a chunk of values at a
time, and writes the bytes of CSV_FMT (so np.savetxt's): Dekker's exact
product gives the 17 digits of each value in fixed notation, and CSV_FMT
itself formats the rest (exponent notation, zeros, non-finite values, ties).

Exit codes: 0 success, 2 config error, 3 numeric failure or out of memory,
4 I/O error, 130 interrupted (Ctrl-C).  The console script and
`python -m strucfact.cli` go through `run`, which exits without interpreter
teardown once the output is published; `main` returns the code instead.
"""
from __future__ import annotations

import argparse
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
from .linalg import ConvergenceError
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

# write_matrix formats a chunk of _CHUNK values at a time.  Each value gets a
# row of _ROW bytes, NUL wherever no character goes, and the NULs are dropped.
# The row is five uint64 words: bytes 0-7 hold "-", "0." and up to three
# zeros (for |x| < 1), the leading digit and the point after it; each further
# word holds four (digit, point after it) pairs of the other 16 significant
# digits, and the last point byte holds the delimiter.  A value off the fast
# path puts CSV_FMT itself in its row, and one % formats the chunk's text.
_CHUNK = 2048
_ROW = 40
# The numpy pass costs about what CSV_FMT takes for 200 values, so a chunk
# with fewer values in fixed notation is left to CSV_FMT.
_FAST_MIN = 200
_MAGNITUDE = np.int64(2 ** 63 - 1)  # the bits of |x|, as an int64
_FIXED_LOW = np.float64(1e-4).view(np.int64)  # 1e-4 <= |x| < 1e17: fixed
_FIXED_SPAN = np.uint64(np.float64(1e17).view(np.int64) - _FIXED_LOW)
_SIG_LOW = np.int64(10 ** 16 + 1)  # the fast path needs 10^16 < D < 10^17
_SIG_SPAN = np.uint64(10 ** 17 - _SIG_LOW)
_EXACT_ROW = np.zeros(_ROW, np.uint8)  # a row that CSV_FMT itself fills
_EXACT_ROW[:len(CSV_FMT)] = list(CSV_FMT.encode())


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split v = high + low into halves of at most 26 bits, so
    that the product of two halves is exact in a double."""
    c = v * (2.0 ** 27 + 1)
    high = c - (c - v)
    return high, v - high


# 10^(16 - E) at E + 5 for -5 <= E <= 16, exact, and its Veltkamp halves.
# log10 gives E = 17 just below 1e17, where 0.1 puts D below 10^16.
_TENS = np.array([float(10 ** j) for j in range(21, -1, -1)] + [0.1])
_TENS_HI, _TENS_LO = _halves(_TENS)


def _split(v: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """(v // unit, v % unit) for v >= 0; np.divmod takes three times as long."""
    q = v // unit
    return q, v - q * unit


@functools.cache
def _format_tables():
    """Tables of the fast path, built on its first use.

    words[g]: the digits of a group 0 <= g < 10^4 in the even bytes of a
    uint64; last[i, g]: the index among the 17 digits of the last nonzero
    digit of g as the group of digits 4i+1..4i+4 (0, the leading digit, when
    g = 0); keep[12 + j]: the mask of a word's first min(max(j, 0), 4) pairs;
    lead[(negative * 23 + E + 5) * 10 + d0]: bytes 0-7 for the sign, decimal
    exponent E and leading digit d0.
    """
    groups = np.arange(10 ** 4, dtype=np.int16)
    digits = groups[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    pairs = np.zeros((10 ** 4, 8), np.uint8)
    pairs[:, ::2] = digits + ord("0")
    nonzero = digits != 0
    last = (4 - nonzero[:, ::-1].argmax(axis=1)).astype(np.int8)
    last = np.where(nonzero.any(axis=1), last, 0)[None, :]
    keep = [(1 << 16 * min(max(j - 12, 0), 4)) - 1 for j in range(29)]
    lead = np.zeros((2, 23, 10, 8), np.uint8)
    lead[1, ..., 0] = ord("-")
    for exp in range(-4, 0):
        lead[:, exp + 5, :, 1:2 - exp] = list(b"0.000"[:1 - exp])
    lead[..., 6] = np.arange(10) + ord("0")
    offsets = np.arange(0, 16, 4, dtype=np.int8)[:, None]
    return (pairs.view(np.uint64).ravel(), np.where(last > 0, last + offsets, 0),
            np.array(keep, np.uint64), lead.view(np.uint64).ravel())


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, E, D) for magnitudes 1e-4 <= a < 1e17: where ok, a rounds to
    D 10^(E - 16) at 17 significant digits, with 10^16 < D < 10^17.

    With E from log10, Dekker's product gives s = a 10^(16 - E) exactly as
    hi + lo, where hi is the rounded product and lo its error.  When E is
    right, hi >= 10^16 > 2^53 is an integer, so D = hi + rint(lo), and s is a
    tie exactly when |lo - rint(lo)| = 1/2.  ok fails on a tie and on a D
    outside (10^16, 10^17), which an E that log10 got off by one gives.
    """
    exp5 = (np.log10(a) + 5).astype(np.int64)  # E + 5, for E >= -5
    hi = a * _TENS.take(exp5)
    a_hi, a_lo = _halves(a)
    p_hi, p_lo = _TENS_HI.take(exp5), _TENS_LO.take(exp5)
    lo = a_hi * p_hi  # ((a_hi p_hi - hi) + a_hi p_lo + a_lo p_hi) + a_lo p_lo
    lo -= hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    rounded = np.rint(lo)
    sig = hi.astype(np.int64) + rounded.astype(np.int64)
    ok = (sig - _SIG_LOW).view(np.uint64) < _SIG_SPAN
    ok &= np.abs(lo - rounded) != 0.5
    return ok, exp5 - 5, sig


def _lay_out_digits(x: np.ndarray, a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Lay out x, with a = |x| in fixed notation, in rows; return _decimal's
    ok, which marks the rows laid out."""
    words, last_digit, keep_mask, lead = _format_tables()
    ok, exp, sig = _decimal(a)
    high, low = _split(sig, 10 ** 8)
    lead_digit, high = _split(high, 10 ** 8)
    groups = (*_split(high, 10 ** 4), *_split(low, 10 ** 4))
    last = np.maximum(
        np.maximum(last_digit[0].take(groups[0]), last_digit[1].take(groups[1])),
        np.maximum(last_digit[2].take(groups[2]), last_digit[3].take(groups[3])))
    kept = np.maximum(last, exp) + 12  # the digits up to the point stay
    words64 = rows.view(np.uint64)
    for i, g in enumerate(groups):
        np.bitwise_and(words.take(g), keep_mask.take(kept - 4 * i, mode="clip"),
                       out=words64[:, i + 1])
    negative = (x.view(np.uint64) >> np.uint64(63)).view(np.int64)
    np.take(lead, (negative * 23 + exp + 5) * 10 + lead_digit, mode="clip",
            out=words64[:, 0])
    point = np.flatnonzero(ok & (last > exp) & (exp >= 0))
    rows[point, 7 + 2 * exp[point]] = ord(".")
    return ok


def _format_values(x: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(rows, values): CSV_FMT % x[i] laid out in rows[i, :-1], a view of
    `buf` (uint8), NUL-padded; the last byte of each row is the caller's.

    A value in fixed notation (1e-4 <= |x| < 1e17) gets its digits from
    _decimal where that proves them, in a row of _ROW bytes.  Any other row
    (exponent notation, zeros, non-finite values, ties) holds CSV_FMT itself,
    and `values` lists their x, in order, for one `%` over the text.  A chunk
    with fewer than _FAST_MIN values in fixed notation leaves every value to
    CSV_FMT, in rows just wide enough for it.
    """
    bits = x.view(np.int64) & _MAGNITUDE  # integer compares raise no FP error
    fixed = np.flatnonzero((bits - _FIXED_LOW).view(np.uint64) < _FIXED_SPAN)
    if fixed.size < _FAST_MIN:
        rows = buf[:x.size * (len(CSV_FMT) + 1)].reshape(x.size, -1)
        rows[:, :-1] = _EXACT_ROW[:len(CSV_FMT)]
        return rows, tuple(x.tolist())
    rows = buf[:x.size * _ROW].reshape(x.size, _ROW)
    if fixed.size == x.size:
        ok = _lay_out_digits(x, bits.view(np.float64), rows)
    else:  # the digits of the fixed-notation values alone
        digits = np.empty((fixed.size, _ROW), np.uint8)
        ok = np.zeros(x.size, bool)
        ok[fixed] = _lay_out_digits(x[fixed], bits[fixed].view(np.float64), digits)
        rows[fixed] = digits
    exact = np.flatnonzero(~ok)
    rows[exact] = _EXACT_ROW
    return rows, tuple(x[exact].tolist())


def write_matrix(path: Path, m: np.ndarray, repeats: int = 1) -> None:
    """Write `m` tiled `repeats` times as CSV.

    Each value is formatted once, by _format_values, in chunks of about
    _CHUNK values; a tiled matrix is formatted whole rows at a time and each
    row's text is written `repeats` times.  The bytes are np.savetxt's of
    np.tile(np.atleast_2d(m), repeats) with fmt=CSV_FMT and delimiter=",".
    """
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    cols = m.shape[1]
    with open(path, "w") as fh:
        if m.size == 0:  # rows without columns are empty lines
            fh.write("\n" * m.shape[0])
            return
        step = _CHUNK if repeats == 1 else max(_CHUNK // cols, 1) * cols
        buf = np.empty(min(step, m.size) * _ROW, np.uint8)
        for start in range(0, m.size, step):
            x = m.flat[start:start + step]
            rows, exact = _format_values(x, buf)
            rows[:, -1] = ord(",")
            rows[(-start - 1) % cols::cols, -1] = ord("\n")
            text = rows.tobytes().translate(None, b"\0").decode("ascii")
            if exact:
                text %= exact
            if repeats == 1:
                fh.write(text)
                continue
            for line in text.split("\n")[:-1]:
                fh.write(",".join([line] * repeats) + "\n")


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
    where the columns of M repeat every `period`.  The periodic basis is
    built before anything is drawn, so a tau that misfits the horizon is a
    config error that names tau."""
    if scenario == "periodic":
        basis = _spec("tau", structure.build_periodic, tau=tau, horizon=horizon)
        u, v = rates.truth(d, k, seed, tau, None)
        return structure.expand(u @ v, basis), u, v, basis.period
    u, v = rates.truth(d, k, seed, horizon, smooth if scenario == "smooth" else None)
    if scenario == "smooth":
        w = structure.expand(v, structure.build_trig(smooth.n_terms, horizon))
        return u @ w, u, w, horizon
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

    _publish(out, {"M.csv": (m[:, :period], horizon // period), "X.csv": (x, 1),
                   "U.csv": (u, 1), "V.csv": (v, 1), "manifest.json": manifest})


# ---------- fit ----------

def cmd_fit(cfg: dict, out: Path, seed_override: int | None) -> None:
    p = _parse(cfg, FIT, "fit")
    params = dict(p["basis"])  # the builder's keyword arguments, and its kind
    x = read_matrix(p["x"])
    horizon = x.shape[1]
    # Looked up on the modules at call time, where perfbench's tracer wraps them.
    basis = _spec("basis", getattr(structure, "build_" + params.pop("kind")),
                  horizon=horizon, **params)
    model = _spec("k", estimator.fit, x=x, basis=basis, k=p["k"])
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

    _publish(out, {"M_hat.csv": (m_hat[:, :basis.period], horizon // basis.period),
                   "U.csv": (model.u, 1), "V.csv": (model.v, 1),
                   "summary.json": summary})


# ---------- select ----------

def cmd_select(cfg: dict, out: Path, seed_override: int | None) -> None:
    p = _parse(cfg, SELECT, "select")
    pen = p["penalty"]
    for key in ("taus", "n_freqs"):
        if len(set(p[key])) != len(p[key]):
            raise ConfigError(f"select: {key} must be distinct, got {_shown(p[key])}")
    x = read_matrix(p["x"])
    horizon = x.shape[1]
    bases = [_spec("taus", structure.build_periodic, tau=tau, horizon=horizon)
             for tau in p["taus"]]
    bases += [_spec("n_freqs", structure.build_trig, n_freq=n_freq, horizon=horizon)
              for n_freq in p["n_freqs"]]
    params = _spec("penalty", PenaltyParams, lam=pen["lambda"], c_pen=pen["c_pen"],
                   noise_level=pen["noise_level"], s=pen["s"])
    grid = _spec("select", CandidateGrid, bases=bases, ranks=p["ranks"])
    result = select(x, grid, params)
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

def _mean_risks(replicate, points, replications, threads, block_sizes):
    """Mean and std risk per point i of its replications i * replications + r,
    r < replications, in blocks of block_sizes[i] consecutive ones, each the
    risks of replicate(point i, range of its indices).  min(threads, blocks)
    tasks run them: all but one on a pool, submitted first, and the last on
    the calling thread.

    The tasks take blocks from one shared iterator until a failure is
    recorded: a block's error (the lowest block's is raised, and a block
    stops at its first failing replication), a pool thread that cannot start
    (a MemoryError, ranked last; the calling thread then takes no block) or
    an interrupt, which ranks first and is raised once the pool has joined,
    also when it lands inside a pool thread's start."""
    risks, failed = np.empty((len(points), replications)), {}
    starts = [range(0, replications, size) for size in block_sizes]
    # The (point, start) of every block in order, drawn by every task.  No
    # lock and no object per block: these iterators' __next__ runs in C,
    # atomic under the GIL.
    blocks = itertools.chain(*(zip(itertools.repeat(i), r)
                               for i, r in enumerate(starts)))

    def task():
        for i, start in blocks:
            if failed:
                return
            row = risks[i, start:start + block_sizes[i]]
            first = i * replications + start
            try:
                row[:] = replicate(points[i], range(first, first + row.size))
            except BaseException as exc:  # Ctrl-C lands on the calling thread
                failed[-1 if isinstance(exc, KeyboardInterrupt) else first] = exc

    tasks = min(threads, sum(map(len, starts)))
    with ThreadPoolExecutor(max_workers=max(tasks - 1, 1)) as pool:
        try:
            for _ in range(tasks - 1):
                pool.submit(task)
            task()
            pool.shutdown()  # the join that Ctrl-C interrupts
        except RuntimeError as exc:  # Thread.start: "can't start new thread"
            interrupt = exc.__context__
            if isinstance(interrupt, KeyboardInterrupt):
                # Ctrl-C inside Thread.start, whose lock then raised this
                failed[-1] = interrupt
                raise interrupt from None
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
                 else _spec("tau", structure.build_periodic, tau=p["tau"],
                            horizon=horizon)
                 for horizon in sweep]
    replicate = functools.partial(_one_replication, d, k, spec, seed, smooth)
    rows, points = zip(*[rates.build_point(spec, b, d, k, p["s"], smooth,
                                           p.get("c_beta_l")) for b in bases])
    means, stds = _mean_risks(replicate, points, reps, threads,
                              [rates.block_size(d, k, smooth, point)
                               for point in points])
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
    _publish(out, {"rate_report.json": _json_text(report)})


# ---------- entry point ----------

COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "select": cmd_select,
    "rate-check": cmd_rate_check,
}


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
        # One OpenBLAS thread: no product rounds another way at another thread
        # count (OpenBLAS may), and rate-check's pool is its only parallelism.
        get, set_ = _bundled_openblas() or (lambda: 1, None)
        old = get()
        if old != 1:
            set_(1)
        try:
            with np.errstate(**rates.FP_ERRORS):
                if args.command == "rate-check":
                    cmd_rate_check(cfg, out, args.seed, threads=args.threads)
                else:
                    COMMANDS[args.command](cfg, out, args.seed)
        finally:  # the old count comes back on every exit path
            if old != 1:
                set_(old)
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


def run() -> None:
    """The console script and `python -m strucfact.cli`: main(), then exit
    without interpreter teardown.  Once main returns, every output is closed
    and published and the pool has joined, so only the final garbage
    collection and module cleanup are skipped."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
