"""Cost algebra, greedy weight identifier, and the repair orchestration."""

import functools
import gc
import hashlib
import json
import math
import types
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfix import model_zoo, prune_db, repair_core, smbo
from fairfix.fairea import TradeoffRegion
from fairfix.metrics import MetricKind, bias_value
from fairfix.model_zoo import (
    AlgorithmKind,
    decode_config,
    default_config,
    default_space,
    sample,
)
from fairfix.model_zoo._linear import MIN_BLOCK
from fairfix.prune_db import BuildConfig, Database, build_entry
from fairfix.repair_core import (
    EPSILON,
    AlreadyFair,
    BetaState,
    RepairConfig,
    beta_lower_bound,
    greedy_update,
    initial_beta_state,
    pseudo_accuracy,
    pseudo_cost,
    repair,
)
from fairfix.synth import biased_dataset
from fairfix.tabular import Dataset, Encoder, Layout, encode, split

# ---------------------------------------------------------------------------
# scalar pieces


def test_pseudo_accuracy_definition():
    assert pseudo_accuracy(np.array([1] * 70 + [0] * 30)) == 0.7
    assert pseudo_accuracy(np.array([1, 1, 1])) == 1.0
    assert pseudo_accuracy(np.array([1, 0, 1])) == 2 / 3
    assert pseudo_accuracy(np.array([0, 0, 1])) == 2 / 3


def test_cost_definition():
    assert smbo.trial_cost(0.0, 0.7, 0.9) == pytest.approx(0.1)
    assert smbo.trial_cost(0.5, 0.2, 0.9) == pytest.approx(0.15)


def test_logged_costs_and_best_use_the_cost_definition():
    ds = biased_dataset(300, 0.3, seed=1)
    res = repair(ds, AlgorithmKind.DECISION_TREE, RepairConfig(MetricKind.SPD, trials=12))
    ok = res.log.ok_records()
    for r in ok:
        assert r.cost == smbo.trial_cost(r.beta, r.bias, r.accuracy)
    beta = res.state.beta
    best = min(ok, key=lambda r: smbo.trial_cost(beta, r.bias, r.accuracy))
    assert res.best_config == best.config


def test_pseudo_cost_definition():
    assert pseudo_cost(0.5, 0.8) == pytest.approx(0.10)
    assert pseudo_cost(0.3, 1.0) == 0.0
    assert pseudo_cost(0.99, 0.5) == pytest.approx(0.005)


@settings(max_examples=300, deadline=None)
@given(beta=st.floats(0.0, 1e6), a0=st.floats(-1e6, 1e6))
def test_pseudo_cost_is_the_trial_cost_at_zero_bias(beta, a0):
    # one cost formula: the trial cost at zero bias, equal to the closed form
    got = pseudo_cost(beta, a0)
    assert got == (1.0 - beta) * (1.0 - a0)
    assert got == smbo.trial_cost(beta, 0.0, a0)


def test_beta_lower_bound_examples():
    assert beta_lower_bound(0.85, 0.75, 0.10) == pytest.approx(0.5)
    assert beta_lower_bound(0.8, 0.8, 0.1) == 0.0
    assert beta_lower_bound(0.70, 0.75, 0.10) == 0.0  # raw -1 clamps to 0
    assert beta_lower_bound(0.9, 0.1, 1e-5) == 1.0 - EPSILON  # raw ~0.99999 clamps


def test_beta_lower_bound_degenerate():
    # f1 exactly cancelling the accuracy deficit: negative limit, clamps to 0
    assert beta_lower_bound(0.5, 0.75, 0.25) == 0.0


def test_identity_at_the_bound():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a0 = float(rng.uniform(0.0, 0.95))
        a1 = float(rng.uniform(a0 + 1e-6, 1.0))
        f1 = float(rng.uniform(0.05, 1.0))  # keeps L inside [0, 1-eps]
        L = beta_lower_bound(a1, a0, f1)
        assert abs(smbo.trial_cost(L, f1, a1) - pseudo_cost(L, a0)) <= 1e-12


def test_improvement_predicate_equivalence():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        beta = float(rng.uniform(0.0, 1.0 - EPSILON))
        f = float(rng.uniform(0.0, 1.0))
        a = float(rng.uniform(0.0, 1.0))
        a0 = float(rng.uniform(0.0, 1.0))
        lhs = smbo.trial_cost(beta, f, a) < pseudo_cost(beta, a0)
        rhs = beta * f < (1.0 - beta) * (a - a0)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# greedy weight identifier


def make_state(beta, count=0, checker=False, alpha=0.05, patience=20, L=0.3):
    return BetaState(beta=beta, alpha=alpha, count=count, checker=checker,
                     patience=patience, L=L, a0=0.6, a1=0.8, f1=0.2)


def test_greedy_improvement_raises_beta():
    s = greedy_update(make_state(0.50, count=3), improved=True)
    assert s.beta == pytest.approx(0.55)
    assert s.count == 0 and not s.checker


def test_greedy_patience_exhaustion_freezes():
    s = greedy_update(make_state(0.55, count=19), improved=False)
    assert s.beta == pytest.approx(0.50)
    assert s.checker


def test_greedy_frozen_state_is_immutable():
    frozen = make_state(0.50, checker=True)
    assert greedy_update(frozen, improved=True) == frozen
    after = greedy_update(frozen, improved=False)
    assert after.beta == frozen.beta and after.checker


def test_greedy_clamps_at_both_ends():
    high = greedy_update(make_state(0.97), improved=True)
    assert high.beta == 1.0 - EPSILON
    low = greedy_update(make_state(0.31, count=19, L=0.3), improved=False)
    assert low.beta == 0.3  # never below the lower bound


def test_initial_state_starts_at_the_bound():
    s = initial_beta_state(0.85, 0.75, 0.10)
    assert s.beta == s.L == pytest.approx(0.5)
    assert s.count == 0 and not s.checker
    with pytest.raises(ValueError):
        initial_beta_state(0.85, 0.75, 0.10, alpha=0.0)
    with pytest.raises(ValueError):
        initial_beta_state(0.85, 0.75, 0.10, patience=0)


@pytest.mark.parametrize("trials, seconds", [
    (3, math.nan),
    (2.5, None),
    (3.0, None),
    (True, None),
])
def test_repair_config_rejects_nan_seconds_and_non_integer_trials(trials, seconds):
    with pytest.raises(ValueError):
        RepairConfig(MetricKind.SPD, trials, seconds=seconds)


def test_greedy_trace_properties():
    # randomized long traces: monotone rise, single drop at freeze, then flat
    for seed in range(50):
        rng = np.random.default_rng(seed)
        s = initial_beta_state(0.9, 0.6, float(rng.uniform(0.1, 0.6)),
                               patience=int(rng.integers(2, 25)))
        lo, hi = s.L, 1.0 - EPSILON
        prev = s
        decrements = 0
        for _ in range(200):
            s = greedy_update(s, improved=bool(rng.uniform() < 0.3))
            assert lo <= s.beta <= hi + 1e-15
            if s.beta < prev.beta:
                decrements += 1
                assert s.checker and not prev.checker  # drop only at freeze
            if not prev.checker and not s.checker:
                assert s.beta >= prev.beta
            if prev.checker:
                assert s.beta == prev.beta
            prev = s
        assert decrements <= 1


# ---------------------------------------------------------------------------
# repair orchestration


@functools.lru_cache(maxsize=1)
def repaired_fixture():
    ds = biased_dataset(rows=1200, seed=5)
    cfg = RepairConfig(metric=MetricKind.SPD, trials=40, seed=2)
    return ds, cfg, repair(ds, AlgorithmKind.DECISION_TREE, cfg)


def test_trial_zero_is_the_buggy_default():
    _, _, res = repaired_fixture()
    first = res.log.records[0]
    assert first.proposal == "default"
    assert first.config.to_dict()["params"] == {
        "criterion": "gini", "max_depth": 16, "min_leaf": 6,
    }
    # the buggy model's measurements are the recorded a1/f1, bit for bit
    assert first.accuracy == res.state.a1
    assert first.bias == res.state.f1


def test_beta_trace_starts_at_bound_and_stays_in_range():
    _, _, res = repaired_fixture()
    trace = res.beta_trace()
    assert trace[0][1] == res.state.L
    assert all(res.state.L <= b <= 1.0 - EPSILON for _, b in trace)
    assert len(trace) == len(res.log.records)


def test_best_minimizes_final_beta_cost():
    _, _, res = repaired_fixture()
    beta = res.state.beta
    costs = [
        beta * r.bias + (1.0 - beta) * (1.0 - r.accuracy)
        for r in res.log.ok_records()
    ]
    best_cost = beta * res.repaired.bias + (1.0 - beta) * (1.0 - res.repaired.acc)
    assert best_cost == min(costs)


def test_original_point_matches_buggy_measurements():
    _, _, res = repaired_fixture()
    assert res.original.acc == res.state.a1
    assert res.original.bias == res.state.f1
    assert res.region in TradeoffRegion


def test_report_shape():
    _, _, res = repaired_fixture()
    payload = json.loads(res.report_json())
    assert list(payload) == [
        "input_digest", "metric", "a0", "a1", "f1", "L", "beta_trace",
        "best_config", "repaired", "original", "region", "baseline",
    ]
    assert payload["metric"] == "spd"
    assert set(payload["repaired"]) == {"acc", "bias"}
    assert set(payload["original"]) == {"acc", "bias"}
    assert payload["region"] in {"win", "good", "bad", "lose", "inverted"}
    assert len(payload["beta_trace"]) == len(res.log.records)
    assert all(len(pair) == 2 for pair in payload["beta_trace"])
    assert set(payload["baseline"]) == {
        "metric", "original", "a0", "points", "repetitions", "seed",
    }


def test_repair_is_deterministic():
    ds = biased_dataset(rows=600, seed=7)
    cfg = RepairConfig(metric=MetricKind.EOD, trials=20, seed=3)
    r1 = repair(ds, AlgorithmKind.LOGISTIC_REGRESSION, cfg)
    r2 = repair(ds, AlgorithmKind.LOGISTIC_REGRESSION, cfg)
    assert r1.log.digest() == r2.log.digest()
    assert r1.report_json() == r2.report_json()


def test_wall_clock_budget_stops_early():
    ds = biased_dataset(rows=600, seed=7)
    cfg = RepairConfig(metric=MetricKind.SPD, trials=50, seconds=1e-6, seed=0)
    res = repair(ds, AlgorithmKind.DECISION_TREE, cfg)
    assert len(res.log.records) < 50
    assert res.log.records[0].proposal == "default"  # at least the default ran


def already_fair_dataset():
    # two clean clusters: any reasonable model classifies perfectly, and a
    # perfect classifier has zero TPR gap by construction
    n = 200
    y = np.array([0, 1] * (n // 2), dtype=np.int8)
    z = np.array([0, 0, 1, 1] * (n // 4), dtype=np.int8)
    rng = np.random.default_rng(11)
    x = 10.0 * y + rng.normal(0.0, 0.1, n)
    cells = np.array([[repr(float(v))] for v in x], dtype=object)
    return Dataset(("x",), cells, y, z, {"source": "clusters"})


def test_repair_raises_already_fair_with_original_attached():
    ds = already_fair_dataset()
    cfg = RepairConfig(metric=MetricKind.EOD, trials=10, seed=0)
    with pytest.raises(AlreadyFair) as info:
        repair(ds, AlgorithmKind.KNN, cfg)
    assert info.value.bias == 0.0
    assert info.value.accuracy == 1.0
    assert info.value.pipeline is not None


# ---------------------------------------------------------------------------
# one encoding per repair, one buggy fit


def test_objective_scores_like_train_and_predict_and_reuses_outcomes(monkeypatch):
    train_ds, val_ds = split(biased_dataset(rows=400, seed=4), 0.7, 0)
    train_fm = encode(train_ds)
    val_fm = encode(val_ds, train_fm.encoder)
    objective = repair_core._TrialObjective(train_fm, val_fm, MetricKind.SPD, 3)
    space = default_space(AlgorithmKind.LOGISTIC_REGRESSION)
    cfg = decode_config(sample(space, np.random.default_rng(1)), space)
    yhat = model_zoo.predict(model_zoo.train(cfg, train_fm, seed=3), val_fm)
    expected = (
        float((yhat == val_ds.y).mean()),
        bias_value(MetricKind.SPD, val_ds.y, yhat, val_ds.z),
    )
    fits = []
    train = repair_core.train

    def spy_train(cfg, data, seed):
        fits.append(cfg)
        return train(cfg, data, seed=seed)

    monkeypatch.setattr(repair_core, "train", spy_train)
    assert objective(cfg) == expected
    assert objective(cfg) == expected
    assert fits == [cfg]


def test_repair_encodes_once_and_fits_the_default_once(monkeypatch):
    ds = biased_dataset(rows=600, seed=7)
    calls = {"fit": 0, "transform": 0, "default": 0}
    encoder_fit = Encoder.fit.__func__
    transform = Encoder.transform
    build = model_zoo._build_model
    default = default_config(AlgorithmKind.LOGISTIC_REGRESSION)

    def spy_fit(cls, data, *parsed):
        calls["fit"] += 1
        return encoder_fit(cls, data, *parsed)

    def spy_transform(self, data, *parsed):
        calls["transform"] += 1
        return transform(self, data, *parsed)

    def spy_build(cfg, rng, X, y):
        calls["default"] += cfg == default
        return build(cfg, rng, X, y)

    monkeypatch.setattr(Encoder, "fit", classmethod(spy_fit))
    monkeypatch.setattr(Encoder, "transform", spy_transform)
    monkeypatch.setattr(model_zoo, "_build_model", spy_build)
    cfg = RepairConfig(metric=MetricKind.SPD, trials=6, seed=0)
    res = repair(ds, AlgorithmKind.LOGISTIC_REGRESSION, cfg)
    assert len(res.log.records) == 6
    assert res.log.records[0].config == default
    assert calls["fit"] == 1
    assert calls["transform"] == 2  # the train split and the val split
    assert calls["default"] == 1


def test_the_split_cells_are_freed_before_the_buggy_fit(monkeypatch):
    split_cells, alive = [], []
    split_fn, train_fn = repair_core.split, repair_core.train

    def spy_split(*args):
        sides = split_fn(*args)
        split_cells.extend(weakref.ref(side.cells) for side in sides)
        return sides

    def spy_train(*args, **kwargs):
        if not alive:
            alive.extend(ref() is not None for ref in split_cells)
        return train_fn(*args, **kwargs)

    monkeypatch.setattr(repair_core, "split", spy_split)
    monkeypatch.setattr(repair_core, "train", spy_train)
    ds = categorical_ds(600, seed=2)
    repair(ds, AlgorithmKind.DECISION_TREE, RepairConfig(MetricKind.SPD, trials=3))
    assert alive == [False, False]


def counting_train(monkeypatch):
    """Patch repair_core.train to record each config it fits."""
    fits = []
    train = repair_core.train

    def spy_train(cfg, data, seed):
        fits.append(cfg)
        return train(cfg, data, seed=seed)

    monkeypatch.setattr(repair_core, "train", spy_train)
    return fits


def distinct_configs(log):
    return {r.config for r in log.records}


def huge_objective():
    """An objective over one column near 1e300, which overflows logreg's
    logits in its second epoch."""
    rng = np.random.default_rng(0)
    n = 200
    y = np.array([0, 1] * (n // 2), dtype=np.int8)
    z = np.array([0, 0, 1, 1] * (n // 4), dtype=np.int8)
    cells = np.array([[repr(float(v) * 1e300)] for v in rng.uniform(1, 2, n)], dtype=object)
    train_ds, val_ds = split(Dataset(("x",), cells, y, z, {"source": "huge"}), 0.7, 0)
    train_fm = encode(train_ds)
    return repair_core._TrialObjective(
        train_fm, encode(val_ds, train_fm.encoder), MetricKind.SPD, 0
    )


def test_a_failed_config_is_trained_once_and_fails_the_same_way(monkeypatch):
    objective = huge_objective()
    cfg = default_config(AlgorithmKind.LOGISTIC_REGRESSION)
    assert cfg.component is model_zoo.ComponentKind.NONE
    fits = counting_train(monkeypatch)
    outcomes = [smbo._call_objective(objective, cfg) for _ in range(2)]
    assert len(fits) == 1
    assert [o[:4] for o in outcomes] == [
        ("failed", None, None, "NumericOverflow: logits overflowed during training")
    ] * 2
    assert objective.fitted is None


def test_fitted_is_the_pipeline_of_the_last_call_that_fitted():
    objective = huge_objective()
    dtree = default_config(AlgorithmKind.DECISION_TREE)
    shallow = model_zoo.PipelineConfig(dtree.algorithm, dtree.component,
                                       {**dtree.params, "max_depth": 2})
    logreg = default_config(AlgorithmKind.LOGISTIC_REGRESSION)
    objective(dtree)
    assert isinstance(objective.fitted, model_zoo.FittedPipeline)
    assert objective.fitted.config == dtree
    objective(dtree)  # looked up, not fitted
    assert objective.fitted is None
    objective(shallow)
    assert objective.fitted.config == shallow
    with pytest.raises(smbo.FAILED_TRIAL_CAUSES):
        objective(logreg)
    assert objective.fitted is None


def test_a_searched_winner_is_returned_as_fitted(monkeypatch):
    ds = biased_dataset(600, 0.3, seed=0)
    cfg = RepairConfig(metric=MetricKind.EOD, trials=40, seed=0)
    fits = counting_train(monkeypatch)
    res = repair(ds, AlgorithmKind.DECISION_TREE, cfg)
    assert res.best_config != res.log.records[0].config
    # the default's fit and one per other distinct config: no refit
    assert Counter(fits) == Counter(distinct_configs(res.log))


def test_the_winner_is_refitted_when_its_pipeline_was_dropped(monkeypatch):
    ds = biased_dataset(600, 0.3, seed=0)
    cfg = RepairConfig(metric=MetricKind.EOD, trials=40, seed=0)
    want = repair(ds, AlgorithmKind.DECISION_TREE, cfg)
    call = repair_core._TrialObjective.__call__
    shown = []

    def show_first_fit_only(self, cfg):
        # repair() sees the first fitted pipeline only, so it keeps that one
        outcome = call(self, cfg)
        if self.fitted is not None:
            shown.append(cfg)
            if len(shown) > 1:
                self.fitted = None
        return outcome

    monkeypatch.setattr(repair_core._TrialObjective, "__call__", show_first_fit_only)
    fits = counting_train(monkeypatch)
    res = repair(ds, AlgorithmKind.DECISION_TREE, cfg)
    assert res.log.digest() == want.log.digest()
    assert res.best_config == want.best_config
    assert res.best_config == smbo.best(res.log, res.state.beta).config
    assert res.best_config != res.log.records[1].config  # the kept one
    assert len(fits) == len(distinct_configs(res.log)) + 1
    assert fits[-1] == res.best_config
    _, val_fm, _ = repair_core.fit_buggy(ds, AlgorithmKind.DECISION_TREE, cfg.seed)
    assert np.array_equal(model_zoo.predict(res.pipeline, val_fm),
                          model_zoo.predict(want.pipeline, val_fm))


@pytest.mark.parametrize("algorithm", list(AlgorithmKind))
def test_the_returned_pipeline_predicts_like_a_fresh_fit(algorithm):
    ds = biased_dataset(600, 0.3, seed=1)
    cfg = RepairConfig(metric=MetricKind.SPD, trials=12, seed=1)
    res = repair(ds, algorithm, cfg)
    assert res.best_config != res.log.records[0].config
    train_fm, val_fm, _ = repair_core.fit_buggy(ds, algorithm, cfg.seed)
    fresh = model_zoo.train(res.best_config, train_fm, seed=cfg.seed)
    for fm in (train_fm, val_fm):
        got = model_zoo.predict(res.pipeline, fm)
        assert got.tobytes() == model_zoo.predict(fresh, fm).tobytes()


def test_each_component_is_fitted_once_per_split(monkeypatch):
    calls = []
    fit_component = model_zoo.fit_component

    def spy(kind, X, y, f_pre):
        calls.append((id(X), kind))
        return fit_component(kind, X, y, f_pre)

    monkeypatch.setattr(model_zoo, "fit_component", spy)
    ds = biased_dataset(600, 0.3, seed=0)
    res = repair(ds, AlgorithmKind.DECISION_TREE,
                 RepairConfig(metric=MetricKind.EOD, trials=40, seed=0))
    statistics = {model_zoo.ComponentKind.STANDARDIZE, model_zoo.ComponentKind.MINMAX,
                  model_zoo.ComponentKind.VARIANCE_TOPK}
    searched = [r.config.component for r in res.log.records]
    assert all(searched.count(kind) > 1 for kind in statistics)
    fitted = [c for c in calls if c[1] in statistics]
    assert sorted(k.value for _, k in fitted) == sorted(k.value for k in statistics)
    assert len({x for x, _ in calls}) == 1  # every trial fits the one train split


def test_repair_hashes_its_input_only_when_asked(monkeypatch):
    ds = biased_dataset(300, 0.3, seed=1)
    digests = []
    digest = Dataset.digest

    def spy(self):
        digests.append(self)
        return digest(self)

    monkeypatch.setattr(Dataset, "digest", spy)
    res = repair(ds, AlgorithmKind.DECISION_TREE, RepairConfig(MetricKind.SPD, trials=4))
    assert digests == []
    assert res.input_digest == digest(ds)
    assert json.loads(res.report_json())["input_digest"] == digest(ds)
    assert digests == [ds, ds]


# 11 trials: the default and the random design; digests recorded before the
# split was encoded once per repair, and unchanged by it. rforest's moved
# twice: when trees began to grow level by level, and a forest drew each
# node's candidate features in level order, not depth-first; then when each
# tree took a generator of its own, seeded from the trial generator, so
# that a forest's trees grow in stacked fits
PINNED_DIGESTS = {
    AlgorithmKind.GRADIENT_BOOSTING: "5fc6f389d57ce0e6",
    AlgorithmKind.RANDOM_FOREST: "7ddcbfd2f68162e9",
    AlgorithmKind.DECISION_TREE: "ecc9b4937025e607",
    AlgorithmKind.LOGISTIC_REGRESSION: "d76f8db932278139",
    AlgorithmKind.KNN: "73f0cb7134dc62da",
}


@pytest.mark.parametrize("algorithm", list(PINNED_DIGESTS))
def test_trial_log_digests_are_pinned(algorithm):
    ds = biased_dataset(2000, 0.3, seed=0)
    cfg = RepairConfig(metric=MetricKind.SPD, trials=11, seed=0)
    assert repair(ds, algorithm, cfg).log.digest() == PINNED_DIGESTS[algorithm]


# report_json() of a 25-trial repair of the SURROGATE_DIGESTS input, each
# returning its kept pipeline, and of a 60-trial logreg repair of
# biased_dataset(800, 0.3) at seed 1, the one repair to refit its winner
# among dtree (80 trials), logreg (60) and k-NN (40) repairs of that input
# at seeds 0-5; recorded while the objective kept the winning pipeline
REPORT_DIGESTS = {
    AlgorithmKind.LOGISTIC_REGRESSION: "1a75595873076700",
    AlgorithmKind.DECISION_TREE: "d3800d9428f2e70e",
    AlgorithmKind.RANDOM_FOREST: "a9fcb98017243005",
    AlgorithmKind.GRADIENT_BOOSTING: "cc6fb874f339165e",
    AlgorithmKind.KNN: "1fa7e0fc55264450",
}
REFIT_REPORT_DIGEST = "e2aeace1b310deea"


def report_digest(res):
    return hashlib.sha256(res.report_json().encode("utf-8")).hexdigest()[:16]


def replayed_repair(monkeypatch, ds, algorithm, cfg):
    """repair(ds, algorithm, cfg) and which pipeline it returned. Replays
    smbo.ranking over the log and the pipelines the objective fitted, and
    checks that repair() returns the buggy pipeline, else the kept one,
    else a refit, in that order."""
    buggy, fitted = [], []  # fitted: each trial's pipeline, None if it fitted none
    fit_buggy, call = repair_core.fit_buggy, repair_core._TrialObjective.__call__

    def spy_fit_buggy(*args):
        split_and_buggy = fit_buggy(*args)
        buggy.append(split_and_buggy[2])
        return split_and_buggy

    def spy_call(self, cfg):
        fitted.append(None)
        outcome = call(self, cfg)
        fitted[-1] = self.fitted
        return outcome

    monkeypatch.setattr(repair_core, "fit_buggy", spy_fit_buggy)
    monkeypatch.setattr(repair_core._TrialObjective, "__call__", spy_call)
    fits = counting_train(monkeypatch)
    res = repair(ds, algorithm, cfg)
    [buggy] = buggy
    assert len(fitted) == len(res.log.records)
    kept = None
    for record, fp in zip(res.log.records, fitted):
        rank = smbo.ranking(record.beta)
        if fp is not None and (kept is None or rank(record) < rank(kept[0])):
            kept = record, fp
    best = smbo.best(res.log, res.state.beta).config
    assert res.best_config == best
    refits = len(fits) - len(distinct_configs(res.log))
    if best == buggy.config:
        assert res.pipeline is buggy and refits == 0
        return res, "buggy"
    if kept is not None and kept[0].config == best:
        assert res.pipeline is kept[1] and refits == 0
        return res, "kept"
    assert refits == 1 and fits[-1] == best
    assert all(res.pipeline is not fp for fp in (buggy, *fitted))
    return res, "refit"


@pytest.mark.parametrize("algorithm", list(REPORT_DIGESTS))
def test_report_digests_are_pinned_and_the_kept_winner_returned(monkeypatch, algorithm):
    cfg = RepairConfig(metric=MetricKind.SPD, trials=25, seed=2)
    ds = biased_dataset(600, 0.3, seed=1)
    res, returned = replayed_repair(monkeypatch, ds, algorithm, cfg)
    assert returned == "kept"
    assert report_digest(res) == REPORT_DIGESTS[algorithm]


def test_a_refitted_winner_s_report_digest_is_pinned(monkeypatch):
    cfg = RepairConfig(metric=MetricKind.SPD, trials=60, seed=1)
    ds = biased_dataset(800, 0.3)
    res, returned = replayed_repair(monkeypatch, ds, AlgorithmKind.LOGISTIC_REGRESSION, cfg)
    assert returned == "refit"
    assert report_digest(res) == REFIT_REPORT_DIGEST


def categorical_ds(n, seed):
    """biased_dataset's two numeric columns plus three categorical columns
    of 4, 5 and 3 levels; `job` leans on the protected group."""
    base = biased_dataset(n, 0.3, seed=seed)
    rng = np.random.default_rng(seed)
    city = rng.choice(["york", "leeds", "paris", "oslo"], n)
    job = np.array([f"job{k}" for k in rng.integers(0, 4, n) + base.z])
    tier = rng.choice(["low", "mid", "top"], n, p=[0.5, 0.3, 0.2])
    cells = np.column_stack([base.cells, city.astype(object), job.astype(object),
                             tier.astype(object)])
    return Dataset((*base.feature_names, "city", "job", "tier"), cells, base.y, base.z,
                   {"source": "test"})


# logreg on one-hot blocks: recorded while every fit was dense, and
# unchanged since logreg reads its blocks by code
CATEGORICAL_LOGREG_DIGEST = "f2b8a1953d92d14d"


def test_categorical_logreg_trial_log_digest_is_pinned():
    ds = categorical_ds(1500, seed=4)
    assert encode(ds).layout.fill().shape[1] == 2 + 4 + 5 + 3
    cfg = RepairConfig(metric=MetricKind.EOD, trials=11, seed=3)
    log = repair(ds, AlgorithmKind.LOGISTIC_REGRESSION, cfg).log
    assert log.digest() == CATEGORICAL_LOGREG_DIGEST


def coded_split():
    """categorical_ds's split, encoded as a repair encodes it."""
    train_ds, val_ds = split(categorical_ds(1500, seed=4), 0.7, seed=0)
    train_fm = encode(train_ds)
    return train_fm, encode(val_ds, train_fm.encoder)


def test_logreg_fills_no_one_hot_block_and_dtree_once_per_call(monkeypatch):
    train_fm, val_fm = coded_split()
    assert all(len(c.lo) >= MIN_BLOCK for c in train_fm.layout.coded)  # three blocks
    filled = []
    fill = Layout.fill

    def spy(layout, out=None):
        if out is None:  # the whole matrix, not a row block
            filled.append(layout)
        return fill(layout, out)

    monkeypatch.setattr(Layout, "fill", spy)
    # logistic regression reads its one-hot blocks by code; it fills a whole
    # matrix only of a layout with no block, as a VarianceTopK selection of
    # one column of a feature leaves
    logreg = AlgorithmKind.LOGISTIC_REGRESSION
    for component in model_zoo.ComponentKind:
        cfg = model_zoo.PipelineConfig(logreg, component, default_config(logreg).params)
        model_zoo.predict(model_zoo.train(cfg, train_fm, seed=0), val_fm)
    repair(categorical_ds(1500, seed=4), logreg, RepairConfig(metric=MetricKind.EOD, trials=6, seed=0))
    assert all(len(c.lo) < MIN_BLOCK for X in filled for c in X.coded)
    assert all(X.width < train_fm.layout.width for X in filled)
    filled.clear()

    # a tree fills the dense matrix once per fit and once per predict
    dtree = default_config(AlgorithmKind.DECISION_TREE)
    assert dtree.component is model_zoo.ComponentKind.NONE
    for _ in range(2):
        fp = model_zoo.train(dtree, train_fm, seed=0)
        assert filled == [train_fm.layout]
        model_zoo.predict(fp, val_fm)
        model_zoo.predict(fp, train_fm)
        assert filled == [train_fm.layout, val_fm.layout, train_fm.layout]
        filled.clear()


def reachable_arrays(root):
    """Every numpy array reachable from `root` through objects' attributes
    and containers, and every Layout among those objects."""
    arrays, layouts, seen, stack = [], [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
            continue
        if isinstance(obj, Layout):
            layouts.append(obj)
        stack.extend(gc.get_referents(obj))
    return arrays, layouts


def dense_arrays(root, shapes):
    """The arrays reachable from `root` of a shape in `shapes` or of the
    whole shape of a reachable layout with coded columns."""
    arrays, layouts = reachable_arrays(root)
    shapes = {*shapes, *(X.shape for X in layouts if X.coded)}
    return [a.shape for a in arrays if a.ndim == 2 and a.shape in shapes]


def test_no_split_model_or_repair_keeps_a_dense_matrix():
    train_fm, val_fm = coded_split()
    shapes = {train_fm.layout.shape, val_fm.layout.shape}
    fitted = []
    for algorithm in (AlgorithmKind.DECISION_TREE, AlgorithmKind.KNN):
        params = default_config(algorithm).params
        for component in model_zoo.ComponentKind:
            cfg = model_zoo.PipelineConfig(algorithm, component, params)
            fp = model_zoo.train(cfg, train_fm, seed=0)
            model_zoo.predict(fp, val_fm)
            fitted.append(fp)
    assert dense_arrays((train_fm, val_fm, fitted), shapes) == []
    # a k-NN pipeline keeps its training layout, not a dense copy
    assert fitted[-len(model_zoo.ComponentKind)].model.X is train_fm.layout
    for algorithm in (AlgorithmKind.DECISION_TREE, AlgorithmKind.KNN):
        cfg = RepairConfig(metric=MetricKind.EOD, trials=6, seed=0)
        result = repair(categorical_ds(1500, seed=4), algorithm, cfg)
        assert dense_arrays(result, shapes) == []


# 25 trials reach the surrogate; a db entry built at that input sets a pruned
# space for a second input of the same shape. Digests recorded before ranges
# moved into ParamDef, and unchanged by it
SURROGATE_DIGESTS = {
    AlgorithmKind.DECISION_TREE: "06e366d09a46af46",
    AlgorithmKind.LOGISTIC_REGRESSION: "76c14deb4b61c79e",
    AlgorithmKind.GRADIENT_BOOSTING: "118fb006eded5ca1",
}
PRUNED_DIGESTS = {  # algorithm: (entry payload digest, pruned repair digest)
    AlgorithmKind.DECISION_TREE: ("024430df1bc92ea0", "339db76ec5a2d6a1"),
    AlgorithmKind.LOGISTIC_REGRESSION: ("fc680a89e6cc2244", "c80afa94c4a477b1"),
}


@pytest.mark.parametrize("algorithm", list(SURROGATE_DIGESTS))
def test_surrogate_trial_log_digests_are_pinned(algorithm):
    ds = biased_dataset(600, 0.3, seed=1)
    cfg = RepairConfig(metric=MetricKind.SPD, trials=25, seed=2)
    log = repair(ds, algorithm, cfg).log
    assert "surrogate" in {r.proposal for r in log.records}
    assert log.digest() == SURROGATE_DIGESTS[algorithm]


@pytest.mark.parametrize("algorithm", list(PRUNED_DIGESTS))
def test_entry_payload_and_pruned_space_digests_are_pinned(algorithm):
    entry = build_entry(biased_dataset(600, 0.3, seed=1), "d", "group", algorithm,
                        BuildConfig(runs=2, trials=20), 0)
    blob = json.dumps(entry.payload(), sort_keys=True).encode("utf-8")
    entry_digest, repair_digest = PRUNED_DIGESTS[algorithm]
    assert hashlib.sha256(blob).hexdigest()[:16] == entry_digest
    cfg = RepairConfig(metric=MetricKind.SPD, trials=25, seed=0)
    res = repair(biased_dataset(600, 0.3, seed=2), algorithm, cfg,
                 db=Database(entries=(entry,)))
    assert res.log.digest() == repair_digest


def test_build_entry_and_a_db_repair_go_through_the_module_names(monkeypatch):
    # build_entry calls repair_core.repair, and repair() matches through
    # prune_db.match_input, each looked up at call time, so a wrapper set on
    # either name sees every call
    calls = {"repair": 0, "match": 0}
    real_repair = repair_core.repair
    real_match = prune_db.match_input

    def spy_repair(*args, **kwargs):
        calls["repair"] += 1
        return real_repair(*args, **kwargs)

    def spy_match(*args, **kwargs):
        calls["match"] += 1
        return real_match(*args, **kwargs)

    monkeypatch.setattr(repair_core, "repair", spy_repair)
    monkeypatch.setattr(prune_db, "match_input", spy_match)
    ds = biased_dataset(300, 0.3, seed=1)
    entry = build_entry(ds, "d", "group", AlgorithmKind.DECISION_TREE,
                        BuildConfig(runs=2, trials=6), 0)
    assert calls == {"repair": 2, "match": 0}
    cfg = RepairConfig(metric=MetricKind.SPD, trials=4, seed=0)
    res = repair_core.repair(ds, AlgorithmKind.DECISION_TREE, cfg,
                             db=Database(entries=(entry,)))
    assert calls == {"repair": 3, "match": 1}
    assert res.log.records[1].config.component in entry.components
