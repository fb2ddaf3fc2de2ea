"""OD traffic estimation from link loads via constrained nonnegative factorization."""

from .errors import (ConfigError, NumericalFailure, ParseError, ShapeError,
                     TtnmfError, UsageError, ValidationError)
from .estimation import (estimate_latent, estimate_od_flow, estimate_od_flows,
                         refine_em)
from .factors import (FactorModel, LagSet, RegularizationWeights,
                      TemporalGraph, build_temporal_graph, objective_value,
                      ortho_penalty_value, temporal_penalty_value)
from .fileio import (ModelArchive, load_matrix_csv, load_model, save_model,
                     write_matrix_csv)
from .initialization import init_factors_svd, init_lag_weights
from .metrics import ErrorVector, cdf_points, sre, summary_stats, tre
from .network import (LinkFlowMatrix, RoutingMatrix, SyntheticScenario,
                      TrafficMatrix, compute_link_flows, generate_synthetic,
                      split_train_test)
from .training import (TrainConfig, TrainReport, block_gradient,
                       em_mask_step, train, tune_penalties)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "NumericalFailure", "ParseError", "ShapeError",
    "TtnmfError", "UsageError", "ValidationError",
    "estimate_latent", "estimate_od_flow", "estimate_od_flows", "refine_em",
    "FactorModel", "LagSet", "RegularizationWeights", "TemporalGraph",
    "build_temporal_graph", "objective_value", "ortho_penalty_value",
    "temporal_penalty_value",
    "ModelArchive", "load_matrix_csv", "load_model", "save_model",
    "write_matrix_csv",
    "init_factors_svd", "init_lag_weights",
    "ErrorVector", "cdf_points", "sre", "summary_stats", "tre",
    "LinkFlowMatrix", "RoutingMatrix", "SyntheticScenario", "TrafficMatrix",
    "compute_link_flows", "generate_synthetic", "split_train_test",
    "TrainConfig", "TrainReport", "block_gradient", "em_mask_step", "train",
    "tune_penalties",
]
