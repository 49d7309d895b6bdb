"""The mutation baseline before a degree's repetitions were stacked: each
mutation drawn, then scored through `accuracy` and `bias_value`, one at a
time. Kept as the oracle for `fairea.build_baseline`."""

import math

import numpy as np

from fairfix.fairea import (
    DEFAULT_DEGREES,
    TradeoffBaseline,
    TradeoffPoint,
    mutate_predictions,
    pseudo_accuracy,
)
from fairfix.metrics import accuracy, bias_value
from fairfix.model_zoo import predict


def build_baseline(fp, val, kind, repetitions, seed):
    yhat = predict(fp, val)
    y = val.y
    acc_o = accuracy(y, yhat)
    bias_o = bias_value(kind, y, yhat, val.z)
    a0 = pseudo_accuracy(y)

    rng = np.random.default_rng(seed)
    points = []
    for degree in DEFAULT_DEGREES:
        if degree == 1.0:
            points.append((degree, TradeoffPoint(0.0, a0)))
            continue
        accs = []
        biases = []
        for _ in range(repetitions):
            mutated = mutate_predictions(yhat, degree, fp.train_majority, rng)
            accs.append(accuracy(y, mutated))
            biases.append(bias_value(kind, y, mutated, val.z))
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
