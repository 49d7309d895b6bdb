"""Mutation baseline construction and region classification."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_fairea as ref
from fairfix import fairea, metrics
from fairfix.fairea import (
    DEFAULT_DEGREES,
    TradeoffBaseline,
    TradeoffPoint,
    TradeoffRegion,
    build_baseline,
    classify_region,
    mutate_predictions,
)
from fairfix.metrics import GroupCounts, MetricKind, NonPositiveDI, UndefinedRate
from fairfix.model_zoo import AlgorithmKind, default_config, train
from fairfix.tabular import encode

from test_model_zoo import float_ds, random_ds


def two_point_baseline(orig=(0.10, 0.85), end_acc=0.70):
    # degenerate hand-built curve: original point plus the forced endpoint
    return TradeoffBaseline(
        metric=MetricKind.SPD,
        original=TradeoffPoint(*orig),
        a0=end_acc,
        points=((1.0, TradeoffPoint(0.0, end_acc)),),
        repetitions=1,
        seed=0,
    )


# ---------------------------------------------------------------------------
# mutation


def test_mutate_degree_zero_is_identity():
    yhat = np.array([0, 1, 1, 0, 1], dtype=np.int8)
    out = mutate_predictions(yhat, 0.0, 1, np.random.default_rng(0))
    assert out.tolist() == yhat.tolist()
    assert out is not yhat


def test_mutate_degree_one_is_constant_replacement():
    yhat = np.array([0, 1, 1, 0, 1], dtype=np.int8)
    out = mutate_predictions(yhat, 1.0, 0, np.random.default_rng(0))
    assert out.tolist() == [0, 0, 0, 0, 0]


def test_mutate_changes_at_most_the_requested_positions():
    rng = np.random.default_rng(3)
    yhat = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int8)
    for _ in range(200):
        out = mutate_predictions(yhat, 0.3, 1, rng)
        changed = np.flatnonzero(out != yhat)
        assert len(changed) <= 3
        assert (out[changed] == 1).all()


def test_mutate_rejects_out_of_range_degree():
    yhat = np.zeros(4, dtype=np.int8)
    with pytest.raises(ValueError):
        mutate_predictions(yhat, 1.5, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# baseline construction


def fit_default(fm):
    return train(default_config(AlgorithmKind.DECISION_TREE), fm, seed=0)


def test_baseline_shape_and_endpoint():
    fm = encode(random_ds(150, 3, seed=21))
    fp = fit_default(fm)
    for kind in MetricKind:
        b = build_baseline(fp, fm, kind, repetitions=10, seed=4)
        assert [d for d, _ in b.points] == list(DEFAULT_DEGREES)
        last_degree, last = b.points[-1]
        assert last_degree == 1.0
        assert last.bias == 0.0
        ones = int((fm.y == 1).sum())
        assert last.acc == max(ones, len(fm.y) - ones) / len(fm.y)
        assert last.acc == b.a0


def test_baseline_monte_carlo_concentration():
    # two independent seeds agree per degree within 0.05 on a 300-row fixture
    fm = encode(random_ds(300, 3, seed=22))
    fp = fit_default(fm)
    b1 = build_baseline(fp, fm, MetricKind.SPD, repetitions=50, seed=1)
    b2 = build_baseline(fp, fm, MetricKind.SPD, repetitions=50, seed=2)
    for (_, p1), (_, p2) in zip(b1.points, b2.points):
        assert abs(p1.acc - p2.acc) < 0.05


def test_baseline_deterministic():
    fm = encode(random_ds(120, 3, seed=23))
    fp = fit_default(fm)
    b1 = build_baseline(fp, fm, MetricKind.EOD, repetitions=20, seed=9)
    b2 = build_baseline(fp, fm, MetricKind.EOD, repetitions=20, seed=9)
    assert b1.to_json() == b2.to_json()


def test_baseline_json_shape_and_round_trip():
    fm = encode(random_ds(100, 3, seed=25))
    fp = fit_default(fm)
    b = build_baseline(fp, fm, MetricKind.AOD, repetitions=5, seed=3)
    payload = json.loads(b.to_json())
    assert set(payload) == {"metric", "original", "a0", "points", "repetitions", "seed"}
    assert set(payload["original"]) == {"bias", "acc"}
    assert all(set(row) == {"degree", "bias", "acc"} for row in payload["points"])
    again = TradeoffBaseline.from_json(b.to_json())
    assert again.metric is b.metric
    assert again.points == b.points
    assert again.original == b.original


def test_baseline_json_round_trip_is_equal():
    fm = encode(random_ds(100, 3, seed=26))
    fp = fit_default(fm)
    b = build_baseline(fp, fm, MetricKind.SPD, repetitions=5, seed=4)
    assert TradeoffBaseline.from_json(b.to_json()) == b


# ---------------------------------------------------------------------------
# stacked baseline against the per-mutation loop


class FixedPredictions:
    """A stand-in classifier that predicts the same labels for any matrix."""

    def __init__(self, yhat):
        self.yhat = np.asarray(yhat, dtype=np.int8)

    def predict(self, X):
        return self.yhat


def scored(monkeypatch, build, *args):
    """What one baseline build ends with, its JSON or the type and message
    of what it raised, how many count tables it scored on the way, and
    those tables."""
    tables = []

    def counted(cells):
        tables.append(cells)
        return GroupCounts(cells)

    with monkeypatch.context() as mp:
        mp.setattr(metrics, "GroupCounts", counted)
        mp.setattr(fairea, "GroupCounts", counted)
        try:
            end = build(*args).to_json()
        except (NonPositiveDI, UndefinedRate) as exc:
            end = (type(exc), str(exc))
    return end, len(tables), tables


@pytest.mark.parametrize("repetitions", [1, 7, 50])
@pytest.mark.parametrize("replacement", [0, 1])
@pytest.mark.parametrize("kind", list(MetricKind))
def test_baseline_equals_the_per_mutation_loop(monkeypatch, kind, replacement, repetitions):
    fm = encode(random_ds(150, 3, seed=31))
    fp = dataclasses.replace(fit_default(fm), train_majority=replacement)
    got = scored(monkeypatch, build_baseline, fp, fm, kind, repetitions, 5)
    want = scored(monkeypatch, ref.build_baseline, fp, fm, kind, repetitions, 5)
    assert got[:2] == want[:2]


def fixed_case(y, z):
    """A pipeline that predicts 1 for all of `y`'s rows and mutates to 0."""
    fm = encode(float_ds(np.arange(len(y), dtype=float)[:, None], y, z))
    fp = fit_default(fm)
    fp = dataclasses.replace(fp, model=FixedPredictions([1] * len(y)), train_majority=0)
    return fp, fm


# 40 rows, 37 in one group and 3 in the other, all predicted 1. Degree 0.9
# overwrites 36 positions with 0, so it can empty the small group's positive
# predictions, never the large group's.
SMALL_Z1 = [0] * 37 + [1] * 3
SMALL_Z0 = [1] * 37 + [0] * 3
MIXED = [0, 1] * 20


@pytest.mark.parametrize(
    "kind, y, z, raised",
    [
        # rate(z=1) reaches 0 while rate(z=0) stays > 0: the DI sentinel
        (MetricKind.DI, MIXED, SMALL_Z1, None),
        # rate(z=0) reaches 0 while rate(z=1) stays > 0: log of a zero ratio
        (MetricKind.DI, MIXED, SMALL_Z0, NonPositiveDI),
        # no positive label in z=1 leaves its TPR undefined
        (MetricKind.EOD, MIXED[:37] + [0] * 3, SMALL_Z1, UndefinedRate),
    ],
)
def test_baseline_edge_cases_match_the_loop(monkeypatch, kind, y, z, raised):
    fp, fm = fixed_case(y, z)
    got = scored(monkeypatch, build_baseline, fp, fm, kind, 50, 2)
    want = scored(monkeypatch, ref.build_baseline, fp, fm, kind, 50, 2)
    assert got[:2] == want[:2]
    end, _, tables = got
    if raised is None:
        assert any(t[1, :, 1].sum() == 0 for t in tables)  # the sentinel was hit
    else:
        assert end[0] is raised


# ---------------------------------------------------------------------------
# region classification


def test_win_lose_inverted_corners():
    b = two_point_baseline()
    assert classify_region(b, TradeoffPoint(0.01, 0.90)) is TradeoffRegion.WIN
    assert classify_region(b, TradeoffPoint(0.20, 0.80)) is TradeoffRegion.LOSE
    assert classify_region(b, TradeoffPoint(0.20, 0.90)) is TradeoffRegion.INVERTED


def test_interpolated_good_bad_boundary():
    b = two_point_baseline()
    # halfway along the curve the baseline sits at 0.775
    assert classify_region(b, TradeoffPoint(0.05, 0.80)) is TradeoffRegion.GOOD
    assert classify_region(b, TradeoffPoint(0.05, 0.76)) is TradeoffRegion.BAD
    # exact tie with the curve (dyadic coordinates, no rounding) is not good
    b2 = two_point_baseline(orig=(0.25, 0.75), end_acc=0.5)
    assert classify_region(b2, TradeoffPoint(0.125, 0.625)) is TradeoffRegion.BAD
    assert classify_region(b2, TradeoffPoint(0.125, 0.6251)) is TradeoffRegion.GOOD


def test_baseline_without_points_is_rejected():
    # without the degree-1 endpoint, a candidate below the original in both
    # bias and accuracy has no curve to be judged against
    with pytest.raises(ValueError, match="point"):
        TradeoffBaseline(MetricKind.SPD, TradeoffPoint(0.3, 0.8), 0.7, (), 1, 0)
    # with the endpoint the same candidate lies under the curve (0.733 there)
    b = two_point_baseline(orig=(0.3, 0.8))
    assert classify_region(b, TradeoffPoint(0.1, 0.7)) is TradeoffRegion.BAD


def test_exact_tie_with_original_is_bad():
    b = two_point_baseline()
    assert classify_region(b, TradeoffPoint(0.10, 0.85)) is TradeoffRegion.BAD


def test_every_candidate_gets_one_region():
    b = two_point_baseline()
    rng = np.random.default_rng(6)
    for _ in range(500):
        pt = TradeoffPoint(float(rng.uniform(0, 0.3)), float(rng.uniform(0.5, 1.0)))
        assert classify_region(b, pt) in TradeoffRegion


def test_region_invariant_under_bias_rescaling():
    rng = np.random.default_rng(8)
    for _ in range(300):
        b_o = float(rng.uniform(0.05, 0.5))
        a_o = float(rng.uniform(0.6, 0.95))
        a0 = float(rng.uniform(0.5, 0.9))
        mids = sorted(float(rng.uniform(0, b_o)) for _ in range(3))[::-1]
        points = tuple(
            (0.25 * (i + 1), TradeoffPoint(m, float(rng.uniform(0.5, 1.0))))
            for i, m in enumerate(mids)
        ) + ((1.0, TradeoffPoint(0.0, a0)),)
        base = TradeoffBaseline(MetricKind.SPD, TradeoffPoint(b_o, a_o), a0, points, 1, 0)
        cand = TradeoffPoint(float(rng.uniform(0, 0.6)), float(rng.uniform(0.5, 1.0)))
        expected = classify_region(base, cand)
        for lam in (0.5, 2.0, 7.0):
            scaled = TradeoffBaseline(
                MetricKind.SPD,
                TradeoffPoint(b_o * lam, a_o),
                a0,
                tuple((d, TradeoffPoint(p.bias * lam, p.acc)) for d, p in points),
                1,
                0,
            )
            assert classify_region(scaled, TradeoffPoint(cand.bias * lam, cand.acc)) is expected


REGION_RANK = (
    TradeoffRegion.LOSE,
    TradeoffRegion.BAD,
    TradeoffRegion.GOOD,
    TradeoffRegion.INVERTED,
    TradeoffRegion.WIN,
)
unit = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    original=st.tuples(unit, unit),
    curve=st.lists(st.tuples(unit, unit), max_size=9),
    a0=unit,
    bias=unit,
    accs=st.tuples(unit, unit),
)
def test_region_rank_never_falls_as_accuracy_rises(original, curve, a0, bias, accs):
    points = tuple(
        ((i + 1) / 10, TradeoffPoint(b, a)) for i, (b, a) in enumerate(curve)
    ) + ((1.0, TradeoffPoint(0.0, a0)),)
    base = TradeoffBaseline(MetricKind.SPD, TradeoffPoint(*original), a0, points, 1, 0)
    lower, higher = sorted(accs)
    rank = REGION_RANK.index
    assert rank(classify_region(base, TradeoffPoint(bias, lower))) <= rank(
        classify_region(base, TradeoffPoint(bias, higher))
    )
