"""Structured low-rank factorization of multivariate time series.

Public surface: structure bases and projections, the rank-constrained
estimator, dependent-noise samplers with exact covariance operator norms,
smooth factor generation on Sobolev ellipsoids, and penalized selection of
(tau, k).
"""
from .estimator import FactorModel, empirical_risk, fit, predict, risk
from .linalg import ConvergenceError, SvdResult, svd
from .noise import (NoiseSpec, covariance_matrix, replication_seed,
                    sample_noise, sigma_op_norm)
from .select import (CandidateGrid, PenaltyParams, SelectionResult,
                     calibrate_noise_level, penalty, select)
from .sobolev import (SmoothFactorSpec, bias_of_truncation,
                      gen_smooth_dictionary, optimal_cutoff)
from .structure import (StructureBasis, build_identity, build_periodic,
                        build_trig, expand, project)

__all__ = [
    "ConvergenceError",
    "FactorModel", "empirical_risk", "fit", "predict", "risk",
    "SvdResult", "svd",
    "NoiseSpec", "covariance_matrix", "replication_seed", "sample_noise",
    "sigma_op_norm",
    "CandidateGrid", "PenaltyParams", "SelectionResult",
    "calibrate_noise_level", "penalty", "select",
    "SmoothFactorSpec", "bias_of_truncation", "gen_smooth_dictionary",
    "optimal_cutoff",
    "StructureBasis", "build_identity", "build_periodic", "build_trig",
    "expand", "project",
]

__version__ = "0.1.0"
