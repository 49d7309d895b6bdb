"""Cost scalarization, adaptive fairness weight, and repair orchestration.

The repair objective is Cost = beta*f + (1-beta)*(1-a) for bias score f and
accuracy a. A constant majority-label predictor ("pseudo model") reaches
accuracy a0 with zero bias, so (1-beta)*(1-a0) upper-bounds what any useful
candidate must beat. Requiring the buggy model (a1, f1) to sit exactly at
that threshold yields the lower bound L = (a1-a0)/(a1-a0+f1) for beta; the
greedy weight identifier then raises beta from L while candidates keep
improving and freezes it after a patience run of misses.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, replace

from . import smbo
from .fairea import (
    TradeoffBaseline,
    TradeoffPoint,
    TradeoffRegion,
    build_baseline,
    classify_region,
    pseudo_accuracy,
)
from .metrics import MetricKind, accuracy, bias_value
from .model_zoo import (
    AlgorithmKind,
    FittedPipeline,
    PipelineConfig,
    default_config,
    default_space,
    predict,
    train,
)
from .tabular import Dataset, characteristics, encode, split

EPSILON = 0.01  # keeps 1-beta positive so the pseudo-cost threshold stays live
FAIRNESS_TOLERANCE = 1e-6
DEFAULT_ALPHA = 0.05
DEFAULT_PATIENCE = 20
DEFAULT_TRAIN_FRACTION = 0.7
# fewer val rows of a protected group than this, and the report warns that
# the group's rates, and so the bias and the region, rest on those rows
MIN_VAL_GROUP_ROWS = 5


class AlreadyFair(Exception):
    """The unrepaired model is already below the bias tolerance."""

    def __init__(self, message, pipeline=None, accuracy=None, bias=None):
        super().__init__(message)
        self.pipeline = pipeline
        self.accuracy = accuracy
        self.bias = bias


def pseudo_cost(beta: float, a0: float) -> float:
    """Cost of the constant majority predictor; candidates must beat this."""
    return smbo.trial_cost(beta, 0.0, a0)


def beta_lower_bound(a1: float, a0: float, f1: float) -> float:
    """Smallest beta at which the buggy model stops beating the pseudo model.

    At beta = L the buggy model's cost equals the pseudo cost exactly; below
    it, accuracy alone would keep the buggy model the winner.
    """
    if f1 < FAIRNESS_TOLERANCE and a1 > a0:
        raise AlreadyFair(
            f"bias {f1!r} is below tolerance and accuracy beats the pseudo model"
        )
    num = a1 - a0
    den = num + f1
    if den == 0.0:
        if num == 0.0:
            raise ValueError("lower bound undefined: f1 = 0 and a1 = a0")
        raw = 0.0  # num < 0 with f1 = -num: the ratio is negative in the limit
    else:
        raw = num / den
    return min(max(raw, 0.0), 1.0 - EPSILON)


@dataclass(frozen=True)
class BetaState:
    """Greedy weight identifier state; immutable snapshots per trial."""

    beta: float
    alpha: float
    count: int
    checker: bool
    patience: int
    L: float
    a0: float
    a1: float
    f1: float


def initial_beta_state(
    a1, a0, f1, alpha: float = DEFAULT_ALPHA, patience: int = DEFAULT_PATIENCE
) -> BetaState:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    L = beta_lower_bound(a1, a0, f1)
    return BetaState(
        beta=L, alpha=alpha, count=0, checker=False, patience=patience,
        L=L, a0=a0, a1=a1, f1=f1,
    )


def greedy_update(s: BetaState, improved: bool) -> BetaState:
    """One step of the greedy weight identifier.

    Improvements push beta up by alpha; a patience run of misses steps it
    back down once and freezes it there for the rest of the search.
    """
    if improved and not s.checker:
        return replace(s, beta=min(s.beta + s.alpha, 1.0 - EPSILON), count=0)
    if not improved:
        count = s.count + 1
        if count >= s.patience and not s.checker:
            return replace(
                s, beta=max(s.beta - s.alpha, s.L), count=count, checker=True
            )
        return replace(s, count=count)
    return s


def check_counts(**counts) -> None:
    """ValueError unless each value is an integer >= 1; a bool is not."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class RepairConfig:
    metric: MetricKind
    trials: int
    seconds: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_counts(trials=self.trials)
        if self.seconds is not None and not self.seconds > 0:
            raise ValueError("seconds must be positive when given")


@dataclass(frozen=True)
class RepairResult:
    """What a repair computed, and the input it repaired; the rest is
    derived from those."""

    pipeline: FittedPipeline
    log: smbo.TrialLog
    state: BetaState
    baseline: TradeoffBaseline
    data: Dataset
    warnings: tuple = ()

    @property
    def input_digest(self) -> str:
        """The input's content hash, computed when it is asked for."""
        return self.data.digest()

    @property
    def best_config(self) -> PipelineConfig:
        return self.pipeline.config

    @property
    def metric(self) -> MetricKind:
        return self.baseline.metric

    @property
    def original(self) -> TradeoffPoint:
        return self.baseline.original

    @property
    def repaired(self) -> TradeoffPoint:
        best = smbo.best(self.log, self.state.beta)
        return TradeoffPoint(bias=best.bias, acc=best.accuracy)

    @property
    def region(self) -> TradeoffRegion:
        return classify_region(self.baseline, self.repaired)

    def beta_trace(self) -> list:
        return [(r.index, r.beta) for r in self.log.records]

    def report_payload(self) -> dict:
        return {
            "input_digest": self.input_digest,
            "metric": self.metric.value,
            "a0": self.state.a0,
            "a1": self.state.a1,
            "f1": self.state.f1,
            "L": self.state.L,
            "beta_trace": [[i, b] for i, b in self.beta_trace()],
            "best_config": self.best_config.to_dict(),
            "repaired": {"acc": self.repaired.acc, "bias": self.repaired.bias},
            "original": {"acc": self.original.acc, "bias": self.original.bias},
            "region": self.region.value,
            "baseline": self.baseline.payload(),
            # only when there are some, so a report without keeps its bytes
            **({"warnings": list(self.warnings)} if self.warnings else {}),
        }

    def report_json(self) -> str:
        return json.dumps(self.report_payload(), indent=2) + "\n"


class _TrialObjective:
    """Train-and-score closure over the split, encoded once.

    A trial fits on the encoded train matrix and scores on the encoded val
    matrix; no cell is re-parsed. Training reseeds from `seed`, so a config
    always ends the same way: each outcome, a score or the exception of a
    failed trial, is kept under the config's canonical JSON, and a repeated
    config is looked up, not refitted. `fitted` is the pipeline the last
    call fitted, None when that call looked its outcome up or failed.
    """

    def __init__(self, train_fm, val_fm, kind, seed):
        self.train_fm = train_fm
        self.val_fm = val_fm
        self.kind = kind
        self.seed = seed
        self.outcomes = {}
        self.fitted = None

    def score(self, fp: FittedPipeline):
        val = self.val_fm
        yhat = predict(fp, val)
        acc = accuracy(val.y, yhat)
        bias = bias_value(self.kind, val.y, yhat, val.z)
        self.outcomes[_config_key(fp.config)] = acc, bias
        return acc, bias

    def __call__(self, cfg: PipelineConfig):
        self.fitted = None
        key = _config_key(cfg)
        if key not in self.outcomes:
            try:
                fp = train(cfg, self.train_fm, seed=self.seed)
                self.score(fp)
            except smbo.FAILED_TRIAL_CAUSES as exc:
                self.outcomes[key] = exc
            else:
                self.fitted = fp
        known = self.outcomes[key]
        if isinstance(known, Exception):
            # raised without its traceback, which holds the failed fit's arrays
            raise known.with_traceback(None)
        return known


def _config_key(cfg: PipelineConfig) -> str:
    return json.dumps(cfg.to_dict(), sort_keys=True)


def _group_warnings(z) -> tuple:
    """A warning for each protected group with fewer than
    MIN_VAL_GROUP_ROWS rows in the val groups `z`."""
    counts = {"unprivileged": int((z == 0).sum()), "privileged": int((z == 1).sum())}
    return tuple(
        f"the val split holds {n} row{'s' * (n != 1)} of the {name} group,"
        f" fewer than {MIN_VAL_GROUP_ROWS}; the bias and region rest on them"
        for name, n in counts.items()
        if n < MIN_VAL_GROUP_ROWS
    )


def fit_buggy(ds: Dataset, algorithm: AlgorithmKind, seed: int):
    """Split at DEFAULT_TRAIN_FRACTION, encode both sides with the train
    encoder and fit the default config on train, as a repair and its
    baseline both do. Returns (train_fm, val_fm, buggy)."""
    train_ds, val_ds = split(ds, DEFAULT_TRAIN_FRACTION, seed)
    train_fm = encode(train_ds)
    val_fm = encode(val_ds, train_fm.encoder)
    del train_ds, val_ds  # the split's cells, not needed past encoding
    return train_fm, val_fm, train(default_config(algorithm), train_fm, seed=seed)


def repair(
    ds: Dataset,
    algorithm: AlgorithmKind,
    cfg: RepairConfig,
    db=None,
) -> RepairResult:
    """Search for a fairer pipeline configuration on a 7:3 split of `ds`.

    The split is encoded once; every trial, the buggy model's score and the
    mutation baseline use those matrices. The buggy model is the algorithm's
    default configuration; it is fitted once and its outcome is logged as
    trial 0. No configuration is fitted twice: as trials are logged, the
    search keeps the pipeline of the fitted trial that `smbo.ranking` puts
    first at that trial's β. The winner at the final β is returned as its
    trial fitted it, and refitted only when β has moved the win away from
    the kept trial. When a database is given and an entry matches this
    input, the search uses that entry's pruned space instead of the default
    one.
    """
    train_fm, val_fm, buggy = fit_buggy(ds, algorithm, cfg.seed)
    objective = _TrialObjective(train_fm, val_fm, cfg.metric, cfg.seed)
    a1, f1 = objective.score(buggy)  # trial 0 reuses this outcome
    a0 = pseudo_accuracy(val_fm.y)
    if f1 < FAIRNESS_TOLERANCE:
        raise AlreadyFair(
            f"default model bias {f1!r} is already below tolerance",
            pipeline=buggy, accuracy=a1, bias=f1,
        )
    state = initial_beta_state(a1, a0, f1)

    space = default_space(algorithm)
    if db is not None:
        entry = db.match(characteristics(ds), state.L, algorithm)
        if entry is not None:
            space = entry.space()

    kept = None  # (record, pipeline) of the fitted trial ranked first so far

    def on_trial(record):
        nonlocal state, kept
        if objective.fitted is not None:
            rank = smbo.ranking(record.beta)
            if kept is None or rank(record) < rank(kept[0]):
                kept = record, objective.fitted
        improved = (
            record.status == "ok"
            and record.cost < pseudo_cost(record.beta, a0)
        )
        state = greedy_update(state, improved)

    deadline = time.monotonic() + cfg.seconds if cfg.seconds else None
    log = smbo.run(
        objective,
        space,
        cfg.trials,
        cfg.seed,
        beta_fn=lambda: state.beta,
        on_trial=on_trial,
        initial=buggy.config,
        deadline=deadline,
    )
    best_config = smbo.best(log, state.beta).config
    if best_config == buggy.config:
        pipeline = buggy
    elif kept is not None and kept[0].config == best_config:
        pipeline = kept[1]
    else:  # β moved the win to a trial whose fit was not kept
        # bitwise-identical to the logged trial's fit: same seed, same split
        pipeline = train(best_config, train_fm, seed=cfg.seed)
    baseline = build_baseline(buggy, val_fm, cfg.metric, seed=cfg.seed)
    return RepairResult(pipeline, log, state, baseline, ds, _group_warnings(val_fm.z))
