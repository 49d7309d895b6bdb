"""Sequential model-based optimization over mixed pipeline spaces.

SMAC-style loop: the default configuration first, a short random design,
then an ensemble of regression trees scoring random candidates by expected
improvement. One trial at a time, in this process: propose, evaluate,
record; a fixed seed reproduces the same log.

A proposal's candidates come from one `sample_rows` array draw, the rows
and generator state of as many `sample` calls; it relies on numpy's PCG64
word use, which tests/test_smbo.py pins (`test_sample_rows_*`).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .metrics import NonPositiveDI, UndefinedRate
from .model_zoo import (
    HyperparameterSpace,
    NumericOverflow,
    PipelineConfig,
    decode_config,
    encode_config,
    sample,
    sample_rows,
    space_default,
)
from .model_zoo._trees import RegressionTree

INIT_TRIALS = 10
MIN_SURROGATE_TRIALS = 5
EXPLORATION = 0.1
ENSEMBLE_SIZE = 10
CANDIDATES = 500

# trial-level failures; anything else is a bug and propagates
FAILED_TRIAL_CAUSES = (NumericOverflow, UndefinedRate, NonPositiveDI)


def trial_cost(beta: float, bias: float, accuracy: float) -> float:
    """The repair objective beta*bias + (1-beta)*(1-accuracy)."""
    return beta * bias + (1.0 - beta) * (1.0 - accuracy)


class BudgetExhaustedNoTrials(ValueError):
    """The trial budget does not allow even one evaluation."""


class NoSuccessfulTrial(RuntimeError):
    """Every logged trial failed; there is nothing to return."""


@dataclass(frozen=True)
class TrialRecord:
    index: int
    config: PipelineConfig
    accuracy: float | None
    bias: float | None
    cost: float | None
    beta: float
    wall_time: float
    status: str  # "ok" | "failed"
    proposal: str  # "default" | "init" | "surrogate" | "random"
    error: str | None = None

    def to_dict(self) -> dict:
        """Every field in declaration order, the config as its dict."""
        return dict(vars(self), config=self.config.to_dict())


@dataclass
class TrialLog:
    """Append-only trial history."""

    records: list = field(default_factory=list)

    def append(self, record: TrialRecord) -> None:
        if record.index != len(self.records):
            raise ValueError(
                f"record index {record.index} out of order, expected {len(self.records)}"
            )
        self.records.append(record)

    def ok_records(self) -> list:
        return [r for r in self.records if r.status == "ok"]

    def to_ndjson(self) -> str:
        return "".join(json.dumps(r.to_dict()) + "\n" for r in self.records)

    def digest(self) -> str:
        """64-bit hex digest over everything except wall times."""
        rows = []
        for r in self.records:
            d = r.to_dict()
            del d["wall_time"]
            rows.append(json.dumps(d, sort_keys=True, separators=(",", ":")))
        h = hashlib.sha256("\n".join(rows).encode("utf-8"))
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# acquisition


def _expected_improvement(incumbent: float, mu, sigma):
    """EI of each candidate; max(d, 0) where the ensemble agrees (sigma 0).
    erf and exp are math's, per candidate: numpy has no erf, and its exp
    can differ from math.exp in the last bit."""
    d = incumbent - mu
    flat = sigma <= 0.0
    s = np.where(flat, 1.0, sigma)  # a flat row's EI is taken from d alone
    u = d / s
    erf = np.array([math.erf(x) for x in (u / math.sqrt(2.0)).tolist()])
    gauss = np.array([math.exp(x) for x in (-0.5 * u * u).tolist()])
    cdf = 0.5 * (1.0 + erf)
    pdf = gauss / math.sqrt(2.0 * math.pi)
    return np.where(flat, np.where(0.0 > d, 0.0, d), d * cdf + s * pdf)


def _suggest_tagged(log: TrialLog, space: HyperparameterSpace, rng):
    """Next configuration to try, tagged "surrogate" or "random"."""
    # records from outside the space (a pruned space may not contain the
    # initial configuration) do not encode, so the surrogate skips them
    rows, costs = [], []
    for r in log.ok_records():
        try:
            rows.append(encode_config(r.config, space))
        except ValueError:
            continue
        costs.append(r.cost)
    if len(rows) < MIN_SURROGATE_TRIALS or rng.uniform() < EXPLORATION:
        return decode_config(sample(space, rng), space), "random"
    X = np.array(rows)
    y = np.array(costs)
    incumbent = float(y.min())
    n = len(rows)
    # one stacked fit grows the ensemble, tree t on the t-th bootstrap row;
    # one draw of all rows reads the words ten draws of n would
    idx = rng.integers(0, n, (ENSEMBLE_SIZE, n)).ravel()
    ensemble = RegressionTree(max_depth=8, min_leaf=1)
    ensemble.fit(X[idx], y[idx], trees=ENSEMBLE_SIZE)
    drawn = sample_rows(space, rng, CANDIDATES)
    C = drawn.copy()  # each param column snapped to its config's coordinate
    for j, p in enumerate(space.params, 1):
        C[:, j] = p.snap(drawn[:, j])
    preds = ensemble.predict(C)  # (trees, candidates)
    ei = _expected_improvement(incumbent, preds.mean(axis=0), preds.std(axis=0))
    return decode_config(drawn[int(np.argmax(ei))].tolist(), space), "surrogate"


# ---------------------------------------------------------------------------
# the loop


def _call_objective(objective, cfg):
    start = time.perf_counter()
    try:
        acc, bias = objective(cfg)
        return "ok", float(acc), float(bias), None, time.perf_counter() - start
    except FAILED_TRIAL_CAUSES as exc:
        err = f"{type(exc).__name__}: {exc}"
        return "failed", None, None, err, time.perf_counter() - start


def run(
    objective,
    space: HyperparameterSpace,
    budget: int,
    seed,
    beta_fn=None,
    on_trial=None,
    initial: PipelineConfig | None = None,
    deadline: float | None = None,
) -> TrialLog:
    """Evaluate up to `budget` configurations and return the trial log.

    objective: config -> (accuracy, bias score); raising one of
    FAILED_TRIAL_CAUSES records a failed trial instead of aborting the run.
    beta_fn supplies the weight each trial's cost is recorded at; on_trial
    fires once per completed trial, in index order. A deadline (absolute
    time.monotonic value) stops the loop after the trial during which it
    passes, after at least one trial.
    """
    if budget < 1:
        raise BudgetExhaustedNoTrials(f"budget must be >= 1, got {budget}")
    if beta_fn is None:
        beta_fn = lambda: 0.0  # noqa: E731
    rng = np.random.default_rng(seed)
    log = TrialLog()
    for index in range(budget):
        if index > 0 and deadline is not None and time.monotonic() >= deadline:
            break
        if index == 0:
            cfg = initial if initial is not None else space_default(space)
            tag = "default"
        elif index <= INIT_TRIALS:
            cfg, tag = decode_config(sample(space, rng), space), "init"
        else:
            cfg, tag = _suggest_tagged(log, space, rng)
        status, acc, bias, err, elapsed = _call_objective(objective, cfg)
        beta = float(beta_fn())
        record = TrialRecord(
            index=index,
            config=cfg,
            accuracy=acc,
            bias=bias,
            cost=trial_cost(beta, bias, acc) if status == "ok" else None,
            beta=beta,
            wall_time=elapsed,
            status=status,
            proposal=tag,
            error=err,
        )
        log.append(record)
        if on_trial is not None:
            on_trial(record)
    return log


def ranking(beta: float):
    """Sort key of ok trials: cost at `beta`, then index, so the earliest
    of equal-cost trials comes first."""
    return lambda r: (trial_cost(beta, r.bias, r.accuracy), r.index)


def best(log: TrialLog, beta: float) -> TrialRecord:
    """The ok trial minimizing cost at `beta`; earliest index wins ties."""
    ok = log.ok_records()
    if not ok:
        raise NoSuccessfulTrial("every trial failed, nothing to return")
    return min(ok, key=ranking(beta))
