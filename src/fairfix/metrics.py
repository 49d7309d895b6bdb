"""Accuracy and group-fairness metrics with the >=0 bias-score normalization.

Group orientation: z=0 is the unprivileged group, z=1 the privileged group.
All raw metrics are computed from joint (z, y, yhat) counts; bias scores fold
raw values into a single "distance from fair" number with 0 meaning fair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DI_CAP = 5.0


class MetricKind(enum.Enum):
    """The four group metrics; values are the serialized names."""

    DI = "di"
    SPD = "spd"
    EOD = "eod"
    AOD = "aod"


class RateSentinel(enum.Enum):
    """Non-numeric outcomes of the disparate-impact ratio."""

    INFINITE_DI = "infinite_di"  # rate(z=1)=0 while rate(z=0)>0
    BOTH_RATES_ZERO = "both_rates_zero"  # nobody selected in either group


class LengthMismatch(ValueError):
    pass


class UndefinedRate(ValueError):
    """A TPR/FPR conditioning set is empty (EOD/AOD only)."""


class NonPositiveDI(ValueError):
    """log of a non-positive ratio; only the two sentinels bypass this."""


@dataclass(frozen=True)
class GroupCounts:
    """Joint occurrence counts indexed cells[z, y, yhat]."""

    cells: np.ndarray

    def __post_init__(self):
        if self.cells.shape != (2, 2, 2):
            raise ValueError("cells must be (2,2,2)")
        if self.cells.min() < 0:
            raise ValueError("negative count")
        self.cells.flags.writeable = False
        # the counts as Python ints: the rates add and divide eight small
        # numbers, where a numpy reduction per sum costs more than the sum
        object.__setattr__(self, "_n", self.cells.tolist())
        for g in (0, 1):
            if self.group_total(g) == 0:
                raise ValueError(f"group z={g} is empty")

    def group_total(self, z: int) -> int:
        (a, b), (c, d) = self._n[z]
        return a + b + c + d

    def rate(self, z: int) -> float:
        """Pr[yhat=1 | z]."""
        (_, a), (_, b) = self._n[z]
        return (a + b) / self.group_total(z)

    def tpr(self, z: int) -> float:
        fn, tp = self._n[z][1]
        if fn + tp == 0:
            raise UndefinedRate(f"no positive labels in group z={z}")
        return tp / (fn + tp)

    def fpr(self, z: int) -> float:
        tn, fp = self._n[z][0]
        if tn + fp == 0:
            raise UndefinedRate(f"no negative labels in group z={z}")
        return fp / (tn + fp)


def _as_binary(v, name: str) -> np.ndarray:
    """v as a 1-d 0/1 integer array; an integer array is used as it is,
    not copied to int64 (4*z + 2*y + yhat <= 7 fits any integer type)."""
    a = np.asarray(v)
    if a.dtype.kind not in "iu":
        a = a.astype(np.int64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-d")
    if a.size and (a.min() < 0 or a.max() > 1):
        raise ValueError(f"{name} must be binary")
    return a


def accuracy(y, yhat) -> float:
    y = _as_binary(y, "y")
    yhat = _as_binary(yhat, "yhat")
    if len(y) != len(yhat) or len(y) == 0:
        raise LengthMismatch(f"|y|={len(y)} vs |yhat|={len(yhat)}")
    return int((y == yhat).sum()) / len(y)


def group_counts(y, yhat, z) -> GroupCounts:
    y = _as_binary(y, "y")
    yhat = _as_binary(yhat, "yhat")
    z = _as_binary(z, "z")
    if not (len(y) == len(yhat) == len(z)) or len(y) == 0:
        raise LengthMismatch("y, yhat, z must share a positive length")
    return GroupCounts(stacked_counts(y, yhat[None, :], z)[0])


def stacked_counts(y, yhats: np.ndarray, z) -> np.ndarray:
    """The (z, y, yhat) count table of each row of `yhats`, a 2-d 0/1
    integer array, as a (rows, 2, 2, 2) array: row r holds the cells of
    group_counts(y, yhats[r], z). Nothing is checked; the codes are counted
    a row at a time in the rows' own dtype, so no (rows, n) intp copy is made."""
    base = 4 * z + 2 * y
    counts = [np.bincount(base + row, minlength=8) for row in yhats]
    return np.array(counts).reshape(-1, 2, 2, 2)


def raw_metric(kind: MetricKind, c: GroupCounts):
    """Raw metric value; DI may return a RateSentinel instead of a float."""
    if kind is MetricKind.DI:
        r0, r1 = c.rate(0), c.rate(1)
        if r1 == 0.0:
            return RateSentinel.INFINITE_DI if r0 > 0.0 else RateSentinel.BOTH_RATES_ZERO
        return r0 / r1
    if kind is MetricKind.SPD:
        return c.rate(0) - c.rate(1)
    if kind is MetricKind.EOD:
        return c.tpr(0) - c.tpr(1)
    if kind is MetricKind.AOD:
        return 0.5 * (abs(c.fpr(0) - c.fpr(1)) + abs(c.tpr(0) - c.tpr(1)))
    raise ValueError(f"unknown metric kind {kind!r}")


def bias_score(kind: MetricKind, raw) -> float:
    """Fold a raw metric value into a >=0 score (0 = perfectly fair)."""
    if raw is RateSentinel.BOTH_RATES_ZERO:
        return 0.0
    if raw is RateSentinel.INFINITE_DI:
        return DEFAULT_DI_CAP
    if kind is MetricKind.DI:
        if raw <= 0.0:
            raise NonPositiveDI(f"cannot take log of DI ratio {raw!r}")
        return abs(math.log(raw))
    if kind in (MetricKind.SPD, MetricKind.EOD):
        return abs(raw)
    return float(raw)  # AOD is >=0 by construction


def bias_value(kind: MetricKind, y, yhat, z) -> float:
    """Convenience chain: counts -> raw metric -> bias score."""
    return bias_score(kind, raw_metric(kind, group_counts(y, yhat, z)))
