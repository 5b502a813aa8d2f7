"""Online probabilistic forecasting of operational times in production processes."""

import types as _types

from .benchmarks import VarxModel, fit_varx, persistence_forecast, predict_varx
from .clustering import ClusterModel, OeeBand, Standardizer, fit_auto_k, oee_band
from .dirichlet import DirichletTable
from .errors import (ConditioningWarning, ConfigurationError, DataError,
                     DegenerateDataError, DimensionError, FittingError,
                     ForecastUnavailableError, InputError,
                     InsufficientHistoryError, NumericError, OpcastError,
                     OrderingError, RestoreError, SchemaError, StateIndexError,
                     ThresholdWarning, TimeConsistencyError)
from .estimator import AdaptiveState
from .features import (CovariateSpec, FeatureConfig, FeatureTable,
                       assemble_next_features, build_features,
                       classification_vector, default_feature_config,
                       pattern_key)
from .harness import (DEFAULT_MODELS, MetricsReport, ReportRow, emit_report,
                      leave_one_week_out, parse_model_name, response_summary, week_key)
from .model import (ForecastResult, IoHmmModel, ModelConfig, StepResult, combine,
                    fit_states)
from .records import (DerivedTimes, EffectivenessIndices, ParseResult,
                      ProductionRecord, RowError, check_chronological,
                      compute_indices, derive_time_variables, parse_dataset,
                      write_dataset)
from .synthetic import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

# the names imported above; the submodules bound by importing them stay out
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
