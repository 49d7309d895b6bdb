"""fairfix: repair unfair binary classifiers by fairness-aware hyperparameter search."""

from .fairea import (
    TradeoffBaseline,
    TradeoffPoint,
    TradeoffRegion,
    build_baseline,
    classify_region,
)
from .metrics import MetricKind, bias_value
from .model_zoo import (
    AlgorithmKind,
    ComponentKind,
    default_config,
    default_space,
    predict,
    train,
)
from .prune_db import BuildConfig, Database, DatabaseEntry, build_entry, match_input
from .repair_core import AlreadyFair, RepairConfig, RepairResult, repair
from .tabular import Dataset, Schema, encode, load_csv, split

__version__ = "0.1.0"

__all__ = [
    "AlgorithmKind",
    "AlreadyFair",
    "BuildConfig",
    "ComponentKind",
    "Database",
    "DatabaseEntry",
    "Dataset",
    "MetricKind",
    "RepairConfig",
    "RepairResult",
    "Schema",
    "TradeoffBaseline",
    "TradeoffPoint",
    "TradeoffRegion",
    "bias_value",
    "build_baseline",
    "build_entry",
    "classify_region",
    "default_config",
    "default_space",
    "encode",
    "load_csv",
    "match_input",
    "predict",
    "repair",
    "split",
    "train",
    "__version__",
]
