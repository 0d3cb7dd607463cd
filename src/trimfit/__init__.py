"""Robust mixed linear regression via iterative trimming.

The package fits mixed linear models whose responses carry adversarial
corruptions. Local refinement alternates residual-based trimming with exact
or gradient-descent least squares; the global pipeline seeds those runs from
an estimated parameter subspace and peels off one component at a time.
"""

from .diagnostics import (AffineErrorEstimate, RegularityEstimate,
                          affine_error_estimate, contraction_bound,
                          contraction_bound_trace, feature_regularity_exact,
                          feature_regularity_sampled, q_separation)
from .gd import (DivergenceError, GdConfig, gd_ilts_run, largest_curvature,
                 stopping_steps)
from .ilts import (IltsConfig, RankDeficientError, SolverTrace,
                   contraction_ratio, ilts_run, least_squares, normal_system,
                   select_trimmed_set, trimmed_loss)
from .model import (CorruptionSpec, Dataset, GroundTruth, MixtureSpec,
                    generate_mlrc, inject_corruptions, load_dataset,
                    load_truth, realized_gamma_star, reconstruction_error,
                    save_dataset, save_truth)
from .pipeline import (GlobalConfig, RecoveryReport, SubspaceEstimate,
                       accept_component, default_delta, default_radius,
                       epsilon_recovery, estimate_subspace, generate_candidates,
                       global_ilts, subspace_distance)

__version__ = "0.1.0"

__all__ = [
    "AffineErrorEstimate", "CorruptionSpec", "Dataset", "DivergenceError",
    "GdConfig", "GlobalConfig", "GroundTruth", "IltsConfig", "MixtureSpec",
    "RankDeficientError", "RecoveryReport", "RegularityEstimate",
    "SolverTrace", "SubspaceEstimate", "accept_component",
    "affine_error_estimate", "contraction_bound", "contraction_bound_trace",
    "contraction_ratio", "default_delta", "default_radius", "epsilon_recovery",
    "estimate_subspace", "feature_regularity_exact",
    "feature_regularity_sampled", "gd_ilts_run", "generate_candidates",
    "generate_mlrc", "global_ilts", "ilts_run", "inject_corruptions", "largest_curvature",
    "least_squares", "load_dataset", "load_truth", "normal_system", "q_separation",
    "realized_gamma_star", "reconstruction_error", "save_dataset",
    "save_truth", "select_trimmed_set", "stopping_steps", "subspace_distance",
    "trimmed_loss", "__version__",
]
