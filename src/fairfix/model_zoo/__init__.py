"""Native classifiers with declared hyperparameter spaces plus preprocessing
components; together they form the pipeline search space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tabular import Encoder, FeatureMatrix, Layout
from ._boosting import GradientBoostingModel
from ._components import FittedComponent, fit_component, top_k_count
from ._linear import LogisticModel, NumericOverflow
from ._neighbors import KNNModel
from ._spaces import (
    AlgorithmKind,
    ComponentKind,
    HyperparameterSpace,
    ParamDef,
    PipelineConfig,
    component_rank,
    decode_config,
    default_config,
    default_space,
    encode_config,
    sample,
    sample_rows,
    space_default,
)
from ._trees import ClassificationTree, RandomForestModel, RegressionTree

__all__ = [
    "AlgorithmKind",
    "ComponentKind",
    "HyperparameterSpace",
    "ParamDef",
    "PipelineConfig",
    "FittedPipeline",
    "NumericOverflow",
    "ClassificationTree",
    "RegressionTree",
    "component_rank",
    "decode_config",
    "default_config",
    "default_space",
    "encode_config",
    "space_default",
    "sample",
    "sample_rows",
    "train",
    "predict",
    "top_k_count",
]


@dataclass
class FittedPipeline:
    """Frozen result of train(): encoder + component + classifier + metadata."""

    config: PipelineConfig
    encoder: Encoder
    component: FittedComponent
    model: object
    train_majority: int  # majority true label of the training split, ties to 1


def _build_model(cfg: PipelineConfig, rng: np.random.Generator, X: Layout, y):
    p = cfg.params
    a = cfg.algorithm
    if a is AlgorithmKind.LOGISTIC_REGRESSION:  # reads the layout's codes
        return LogisticModel(p["learning_rate"], p["l2"], p["epochs"]).fit(X, y)
    X = X.dense  # every other model reads the dense matrix
    if a is AlgorithmKind.DECISION_TREE:
        return ClassificationTree(p["max_depth"], p["min_leaf"], p["criterion"]).fit(X, y)
    if a is AlgorithmKind.RANDOM_FOREST:
        return RandomForestModel(
            p["trees"],
            p["max_depth"],
            p["max_features"],
            p["min_leaf"],
            p["bootstrap"] == "true",
        ).fit(X, y, rng)
    if a is AlgorithmKind.GRADIENT_BOOSTING:
        return GradientBoostingModel(
            p["stages"], p["learning_rate"], p["max_depth"], p["subsample"]
        ).fit(X, y, rng)
    if a is AlgorithmKind.KNN:
        return KNNModel(p["k"], p["weights"]).fit(X, y)
    raise ValueError(f"unknown algorithm {a!r}")


# components whose fit computes statistics of the training matrix
_FITTED_STATISTICS = (
    ComponentKind.STANDARDIZE,
    ComponentKind.MINMAX,
    ComponentKind.VARIANCE_TOPK,
)


def train(cfg: PipelineConfig, fm: FeatureMatrix, seed: int) -> FittedPipeline:
    """Fit component and classifier on an encoded training split. A repair
    encodes its split once and passes the FeatureMatrix to every trial.

    A component's statistics depend only on the layout, so each kind is
    fitted once per FeatureMatrix and applied as fitted on later calls."""
    rng = np.random.default_rng(seed)
    X = fm.layout
    if X.shape[1] == 0:
        raise ValueError("encoded feature width is 0")
    y = fm.y.astype(np.int64)
    component = fm._components.get(cfg.component)
    if component is not None:
        Xt, yt = component.apply(X), y
    else:
        component, Xt, yt = fit_component(
            cfg.component, X, y, f_pre=len(fm.encoder.feature_names)
        )
        if cfg.component in _FITTED_STATISTICS:
            fm._components[cfg.component] = component
    model = _build_model(cfg, rng, Xt, yt)
    majority = 1 if int((y == 1).sum()) >= int((y == 0).sum()) else 0
    return FittedPipeline(cfg, fm.encoder, component, model, majority)


def predict(fp: FittedPipeline, fm: FeatureMatrix) -> np.ndarray:
    """Labels for a FeatureMatrix made by `fp.encoder`."""
    if fm.encoder != fp.encoder:
        raise ValueError("feature matrix was not made by the pipeline's encoder")
    X = fp.component.apply(fm.layout)
    X = X if fp.config.algorithm is AlgorithmKind.LOGISTIC_REGRESSION else X.dense
    return np.asarray(fp.model.predict(X), dtype=np.int8)
