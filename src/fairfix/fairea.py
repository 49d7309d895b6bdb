"""Mutation baseline and trade-off region classification.

A repaired model is only worth shipping if it beats the cheapest possible
mitigation: randomly overwriting a share of the predictions with the majority
label. Sweeping that share from 10% to 100% traces a bias/accuracy curve; a
candidate model is judged by where it lands relative to the original point
and that curve.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .metrics import (
    GroupCounts,
    MetricKind,
    accuracy,
    bias_score,
    bias_value,
    raw_metric,
    stacked_counts,
)
from .model_zoo import FittedPipeline, predict
from .tabular import DataError, FeatureMatrix, round_half_up

DEFAULT_DEGREES = tuple(d / 10 for d in range(1, 11))
DEFAULT_REPETITIONS = 50


class TradeoffRegion(Enum):
    LOSE = "lose"
    BAD = "bad"
    INVERTED = "inverted"
    GOOD = "good"
    WIN = "win"


@dataclass(frozen=True)
class TradeoffPoint:
    """A (bias, accuracy) position; bias >= 0, acc in [0, 1]."""

    bias: float
    acc: float

    @classmethod
    def from_payload(cls, obj, where: str) -> "TradeoffPoint":
        """The point a parsed {"bias": b, "acc": a} object holds; DataError
        unless both are finite numbers."""
        return cls(bias=_number(obj, "bias", where), acc=_number(obj, "acc", where))


def _number(obj, key: str, where: str):
    """obj[key]; DataError unless obj is a dict and obj[key] a finite number.
    abs(nan) <= max is False, and a large int compares exactly."""
    value = obj.get(key) if isinstance(obj, dict) else None
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise DataError(f"{where} {key} is not a finite number: {value!r:.80}")
    return value


@dataclass(frozen=True)
class TradeoffBaseline:
    metric: MetricKind
    original: TradeoffPoint
    a0: float
    points: tuple[tuple[float, TradeoffPoint], ...]
    repetitions: int
    seed: int

    def __post_init__(self):
        if not self.points:  # the curve ends at degree 1
            raise ValueError("baseline needs at least one point")

    def payload(self) -> dict:
        """The file form, which `from_payload` reads back."""
        return {
            "metric": self.metric.value,
            "original": {"bias": self.original.bias, "acc": self.original.acc},
            "a0": self.a0,
            "points": [
                {"degree": degree, "bias": pt.bias, "acc": pt.acc}
                for degree, pt in self.points
            ],
            "repetitions": self.repetitions,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TradeoffBaseline":
        return cls.from_payload(json.loads(text))

    @classmethod
    def from_payload(cls, payload) -> "TradeoffBaseline":
        """A baseline from a parsed `payload`; DataError if it holds none."""
        rows = payload.get("points") if isinstance(payload, dict) else None
        if not (isinstance(rows, list) and rows):  # the curve ends at degree 1
            raise DataError("baseline is not an object with a non-empty list of points")
        try:
            metric = MetricKind(payload.get("metric"))
        except ValueError as exc:
            raise DataError(f"baseline metric: {exc}") from None
        return cls(
            metric=metric,
            original=TradeoffPoint.from_payload(payload.get("original"), "baseline"),
            a0=_number(payload, "a0", "baseline"),
            points=tuple(
                (_number(r, "degree", "point"), TradeoffPoint.from_payload(r, "point"))
                for r in rows
            ),
            repetitions=payload.get("repetitions"),
            seed=payload.get("seed"),
        )


def pseudo_accuracy(y) -> float:
    """Accuracy of always predicting the majority class."""
    n = len(y)
    ones = int((y == 1).sum())
    return max(ones, n - ones) / n


def mutate_predictions(yhat, degree, replacement, rng) -> np.ndarray:
    """Set round(degree*n) uniformly chosen positions to `replacement`."""
    if not 0.0 <= degree <= 1.0:
        raise ValueError(f"mutation degree must be in [0, 1], got {degree}")
    out = np.asarray(yhat).copy()
    n = out.shape[0]
    count = round_half_up(degree * n)
    if count:
        pos = rng.choice(n, size=count, replace=False)
        out[pos] = replacement
    return out


def build_baseline(
    fp: FittedPipeline,
    val: FeatureMatrix,
    kind: MetricKind,
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = 0,
) -> TradeoffBaseline:
    """The mutation curve of `fp` on the encoded val split, one point per
    DEFAULT_DEGREES entry."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")

    yhat = predict(fp, val)
    y = val.y
    acc_o = accuracy(y, yhat)
    bias_o = bias_value(kind, y, yhat, val.z)
    a0 = pseudo_accuracy(y)

    rng = np.random.default_rng(seed)
    points = []
    for degree in DEFAULT_DEGREES:
        if degree == 1.0:
            # full mutation is the constant majority predictor: computed, not
            # sampled, so the endpoint is exact
            points.append((degree, TradeoffPoint(0.0, a0)))
            continue
        # one row per repetition, drawn in order and scored in order, so an
        # undefined metric raises at the repetition where bias_value would
        mutated = np.empty((repetitions, len(yhat)), dtype=np.int8)
        for r in range(repetitions):
            mutated[r] = mutate_predictions(yhat, degree, fp.train_majority, rng)
        cells = stacked_counts(y, mutated, val.z)
        biases = [bias_score(kind, raw_metric(kind, GroupCounts(c))) for c in cells]
        # a row's matches are its y == yhat cells, so accs[r] is accuracy(y, row r)
        matches = cells[:, :, (0, 1), (0, 1)].sum(axis=(1, 2))
        accs = [m / len(y) for m in matches.tolist()]
        points.append(
            (
                degree,
                TradeoffPoint(
                    math.fsum(biases) / repetitions, math.fsum(accs) / repetitions
                ),
            )
        )
    return TradeoffBaseline(
        metric=kind,
        original=TradeoffPoint(bias_o, acc_o),
        a0=a0,
        points=tuple(points),
        repetitions=repetitions,
        seed=seed,
    )


def _polyline_accuracy(baseline: TradeoffBaseline, bias: float) -> float:
    """Baseline accuracy interpolated at `bias` along original->degree points.

    Queries outside the vertex bias range clamp to the nearest end; where
    several segments span the query the highest accuracy wins, so a candidate
    is never credited against a weaker stretch of the curve.
    """
    verts = [(baseline.original.bias, baseline.original.acc)]
    verts.extend((pt.bias, pt.acc) for _, pt in baseline.points)
    xs = [v[0] for v in verts]
    x = min(max(bias, min(xs)), max(xs))
    best = None
    for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
        if not (min(x1, x2) <= x <= max(x1, x2)):
            continue
        if x1 == x2:
            y = max(y1, y2)
        else:
            y = y1 + (x - x1) / (x2 - x1) * (y2 - y1)
        best = y if best is None else max(best, y)
    return best


def classify_region(
    baseline: TradeoffBaseline, candidate: TradeoffPoint
) -> TradeoffRegion:
    """Place a candidate in one of the five trade-off regions.

    Ties never count as improvement, so a candidate matching the original
    point exactly classifies as Bad rather than Win.
    """
    orig = baseline.original
    acc_up = candidate.acc > orig.acc
    if acc_up and candidate.bias < orig.bias:
        return TradeoffRegion.WIN
    if acc_up:
        return TradeoffRegion.INVERTED
    if candidate.bias > orig.bias:
        return TradeoffRegion.LOSE
    reference = _polyline_accuracy(baseline, candidate.bias)
    if candidate.acc > reference:
        return TradeoffRegion.GOOD
    return TradeoffRegion.BAD
