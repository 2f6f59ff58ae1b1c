"""Differentially private quantile estimation without data bounds.

The estimator runs AboveThreshold over counting queries on a geometric
candidate grid, so its error depends on the data's magnitude, not on a
promised range. The package bundles the noisy-threshold machinery, privacy
accounting for several query classes and neighbor models, an
exponential-mechanism interval baseline, private sums and means via private
clipping, and a benchmark/verification harness.

The names below are the ones the demos, the README and the CLI use, plus
their result and config types. Every other public name is importable from
its submodule.
"""

from .accounting import (
    MultiQuantileBudget,
    NeighborModel,
    PrivacyGuarantee,
    QueryClass,
    compose_zcdp,
    guarantee_for,
    multi_quantile_guarantee,
    zcdp_of_dp,
)
from .aggregates import ClipMethod, SumConfig, SumResult, dp_mean, dp_sum
from .bench import (
    ExperimentSpec,
    ResultRecord,
    emit_pdf_figures,
    normalized_error_rows,
    records_to_json,
    run_quantile_experiment,
    run_sum_experiment,
)
from .datasets import generate_synthetic, load_csv
from .emq import BoundedRange, emq_interval_pmf
from .noise import NoiseKind, RandomSource
from .quantile import (
    Dataset,
    MultiQuantileResult,
    QuantileEstimate,
    QuantileRequest,
    UnboundedEstimate,
    estimate_multiple_quantiles,
    estimate_quantile,
    estimate_quantile_unbounded,
    estimate_small_quantile_inverted,
    request_guarantee,
)
from .sparse_vector import (
    DEFAULT_MAX_QUERIES,
    SvtConfig,
    gumbel_halt_log_pmf,
    gumbel_no_halt_prob,
)
from .verify import run_verification_suite

__version__ = "0.1.0"

__all__ = [
    "BoundedRange",
    "ClipMethod",
    "DEFAULT_MAX_QUERIES",
    "Dataset",
    "ExperimentSpec",
    "MultiQuantileBudget",
    "MultiQuantileResult",
    "NeighborModel",
    "NoiseKind",
    "PrivacyGuarantee",
    "QuantileEstimate",
    "QuantileRequest",
    "QueryClass",
    "RandomSource",
    "ResultRecord",
    "SumConfig",
    "SumResult",
    "SvtConfig",
    "UnboundedEstimate",
    "compose_zcdp",
    "dp_mean",
    "dp_sum",
    "emit_pdf_figures",
    "emq_interval_pmf",
    "estimate_multiple_quantiles",
    "estimate_quantile",
    "estimate_quantile_unbounded",
    "estimate_small_quantile_inverted",
    "generate_synthetic",
    "guarantee_for",
    "gumbel_halt_log_pmf",
    "gumbel_no_halt_prob",
    "load_csv",
    "multi_quantile_guarantee",
    "normalized_error_rows",
    "records_to_json",
    "request_guarantee",
    "run_quantile_experiment",
    "run_sum_experiment",
    "run_verification_suite",
    "zcdp_of_dp",
]
