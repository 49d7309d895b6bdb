"""Acceptance gate: the eight shipped guarantees, one verdict line each.

Run `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines. Checks
5-7 run scaled-down repair experiments and take a few minutes combined; the
Adult Census check skips unless the data file is present (see README).
"""

import functools
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from fairfix.fairea import TradeoffBaseline, TradeoffRegion, build_baseline
from fairfix.metrics import (
    MetricKind,
    RateSentinel,
    UndefinedRate,
    accuracy,
    group_counts,
    raw_metric,
)
from fairfix.model_zoo import AlgorithmKind, default_config, train
from fairfix.prune_db import BuildConfig, Database, build_entry, match_input
from fairfix.repair_core import (
    AlreadyFair,
    RepairConfig,
    beta_lower_bound,
    greedy_update,
    initial_beta_state,
    pseudo_accuracy,
    pseudo_cost,
    repair,
)
from fairfix.smbo import trial_cost
from fairfix.synth import biased_dataset
from fairfix.tabular import Schema, characteristics, encode, load_csv, split

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
ADULT_CSV = Path(os.environ.get("FAIRFIX_ADULT_CSV", DATA_DIR / "adult.csv"))

BENCHMARK_FIXTURES = (
    {"rows": 2000, "disparity": 0.3, "seed": 0},
    {"rows": 800, "disparity": 0.1, "seed": 3},
    {"rows": 1200, "disparity": 0.5, "seed": 7},
)


def _verdict(ordinal: str, name: str, ok: bool, detail: str) -> None:
    print(f"\n[{ordinal}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@functools.lru_cache(maxsize=1)
def _repair_fixture():
    return biased_dataset(rows=2000, disparity=0.3, seed=0)


# ---------------------------------------------------------------------------
# 1. raw metrics and accuracy against a brute-force counting oracle


def _oracle(y, yhat, z):
    """Recompute every rate by explicit enumeration, no shared code paths."""
    n = len(y)
    out = {"acc": sum(1 for i in range(n) if y[i] == yhat[i]) / n}

    def members(g):
        return [i for i in range(n) if z[i] == g]

    def picked(idx):
        return sum(1 for i in idx if yhat[i] == 1)

    r0 = picked(members(0)) / len(members(0))
    r1 = picked(members(1)) / len(members(1))
    out["spd"] = r0 - r1
    out["di"] = None if r1 == 0.0 else r0 / r1
    out["di_zero_over_zero"] = r1 == 0.0 and r0 == 0.0

    def cond(g, label):
        idx = [i for i in members(g) if y[i] == label]
        return None if not idx else picked(idx) / len(idx)

    tpr0, tpr1 = cond(0, 1), cond(1, 1)
    fpr0, fpr1 = cond(0, 0), cond(1, 0)
    out["eod"] = None if None in (tpr0, tpr1) else tpr0 - tpr1
    out["aod"] = (
        None
        if None in (tpr0, tpr1, fpr0, fpr1)
        else 0.5 * (abs(fpr0 - fpr1) + abs(tpr0 - tpr1))
    )
    return out


def test_metric_oracle_equivalence():
    rng = np.random.default_rng(20260816)
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, n)
        yhat = rng.integers(0, 2, n)
        z = rng.integers(0, 2, n)
        z[0], z[1] = 0, 1  # both groups inhabited
        o = _oracle(list(y), list(yhat), list(z))
        c = group_counts(y, yhat, z)

        assert abs(accuracy(y, yhat) - o["acc"]) <= 1e-12
        assert abs(raw_metric(MetricKind.SPD, c) - o["spd"]) <= 1e-12

        di = raw_metric(MetricKind.DI, c)
        if isinstance(di, RateSentinel):
            assert o["di"] is None
            assert (di is RateSentinel.BOTH_RATES_ZERO) == o["di_zero_over_zero"]
        else:
            assert abs(di - o["di"]) <= 1e-12

        for kind, key in ((MetricKind.EOD, "eod"), (MetricKind.AOD, "aod")):
            try:
                raw = raw_metric(kind, c)
            except UndefinedRate:
                raw = None
            if raw is None:
                assert o[key] is None
            else:
                assert abs(raw - o[key]) <= 1e-12
    elapsed = time.monotonic() - start
    _verdict("1/8", "metric oracle equivalence", elapsed < 5.0,
             f"1000 random instances agree within 1e-12 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. cost identity and improvement predicate at the beta lower bound


def test_cost_identity_at_beta_bound():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(1000):
        # f1 bounded away from 0 keeps the bound interior (no clamping),
        # which is where the identity is exact
        a0 = float(rng.uniform(0.05, 0.90))
        a1 = float(rng.uniform(a0 + 1e-6, 1.0))
        f1 = float(rng.uniform(0.05, 1.0))
        beta = beta_lower_bound(a1, a0, f1)
        gap = abs(trial_cost(beta, f1, a1) - pseudo_cost(beta, a0))
        worst = max(worst, gap)
    assert worst <= 1e-12

    mismatches = 0
    for _ in range(10_000):
        beta = float(rng.uniform(0.0, 0.99))
        f = float(rng.uniform(0.0, 1.0))
        a = float(rng.uniform(0.0, 1.0))
        a0 = float(rng.uniform(0.0, 1.0))
        lhs = trial_cost(beta, f, a) < pseudo_cost(beta, a0)
        rhs = beta * f < (1.0 - beta) * (a - a0)
        mismatches += lhs != rhs
    _verdict("2/8", "cost identity at the bound", mismatches == 0,
             f"worst identity gap {worst:.2e}, 10^4 predicate tuples agree")


# ---------------------------------------------------------------------------
# 3. pseudo-model fixed point of the mutation baseline


def test_pseudo_model_endpoint():
    checked = 0
    for fx in BENCHMARK_FIXTURES:
        ds = biased_dataset(**fx)
        train_ds, val_ds = split(ds, 0.7, 0)
        train_fm = encode(train_ds)
        fp = train(default_config(AlgorithmKind.DECISION_TREE), train_fm, seed=0)
        val_fm = encode(val_ds, train_fm.encoder)
        a0 = pseudo_accuracy(val_ds.y)
        for kind in MetricKind:
            baseline = build_baseline(fp, val_fm, kind, repetitions=10, seed=0)
            degree, pt = baseline.points[-1]
            assert degree == 1.0
            assert pt.bias == 0.0
            assert pt.acc == a0
            assert baseline.a0 == a0
            checked += 1
    _verdict("3/8", "pseudo-model fixed point", checked == 12,
             f"{checked} fixture x metric baselines end exactly at (0, a0)")


# ---------------------------------------------------------------------------
# 4. greedy weight identifier state machine


def test_weight_state_machine_traces():
    rng = np.random.default_rng(17)
    for trace in range(5):
        a0 = float(rng.uniform(0.3, 0.7))
        a1 = float(rng.uniform(a0 + 0.05, min(a0 + 0.4, 0.999)))
        f1 = float(rng.uniform(0.1, 0.8))
        state = initial_beta_state(a1, a0, f1)
        assert state.L <= 0.90  # first improvement strictly raises beta
        p_improve = 0.05 + 0.05 * trace
        betas = [state.beta]
        freeze_step = None
        for step in range(10_000):
            improved = step == 0 or bool(rng.uniform() < p_improve)
            state = greedy_update(state, improved)
            if state.checker and freeze_step is None:
                freeze_step = step
            betas.append(state.beta)

        assert freeze_step is not None, "trace never froze"
        assert all(b2 >= b1 for b1, b2 in zip(betas[: freeze_step + 1],
                                              betas[1 : freeze_step + 1]))
        drops = [i for i in range(len(betas) - 1) if betas[i + 1] < betas[i]]
        assert drops == [freeze_step]
        frozen = set(betas[freeze_step + 1 :])
        assert frozen == {betas[freeze_step + 1]}
        assert all(state.L <= b <= 1.0 - 0.01 for b in betas)
    _verdict("4/8", "greedy weight state machine", True,
             "5 x 10^4-step traces: monotone rise, one drop, frozen tail")


# ---------------------------------------------------------------------------
# 5. desk-scale repair on the shipped synthetic fixture


def test_synthetic_repair_lands_good_or_win():
    ds = _repair_fixture()
    train_ds, val_ds = split(ds, 0.7, 0)
    from fairfix.metrics import bias_value
    from fairfix.model_zoo import predict

    train_fm = encode(train_ds)
    fp = train(default_config(AlgorithmKind.DECISION_TREE), train_fm, seed=0)
    yhat = predict(fp, encode(val_ds, train_fm.encoder))
    buggy_bias = bias_value(MetricKind.SPD, val_ds.y, yhat, val_ds.z)
    assert buggy_bias >= 0.15, f"fixture not biased enough: {buggy_bias}"

    start = time.monotonic()
    hits = 0
    regions = []
    for seed in range(10):
        res = repair(ds, AlgorithmKind.DECISION_TREE,
                     RepairConfig(MetricKind.SPD, trials=200, seed=seed))
        regions.append(res.region.value)
        hits += res.region in (TradeoffRegion.GOOD, TradeoffRegion.WIN)
    elapsed = time.monotonic() - start
    _verdict("5/8", "desk-scale repair", hits >= 8 and elapsed < 300.0,
             f"{hits}/10 seeds in (good, win) [{','.join(regions)}] in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. pruned search space finds its first improvement sooner


def _first_improvement(res, budget):
    # trial 0 is the unrepaired starting point, not a searched candidate
    for r in res.log.records:
        if (r.index > 0 and r.status == "ok"
                and r.cost < pseudo_cost(r.beta, res.state.a0)):
            return r.index
    return budget


def test_pruned_space_speedup():
    ds = _repair_fixture()
    start = time.monotonic()
    bcfg = BuildConfig()
    entry = build_entry(ds, "synth-2000", "group", AlgorithmKind.DECISION_TREE,
                        bcfg, seed=42)
    db = Database(provenance=bcfg.provenance(42), entries=(entry,))

    assert match_input(db, characteristics(ds), entry.L, AlgorithmKind.DECISION_TREE)

    budget = 100
    firsts_default, firsts_db = [], []
    for seed in range(10):
        cfg = RepairConfig(MetricKind.SPD, trials=budget, seed=seed)
        firsts_default.append(_first_improvement(
            repair(ds, AlgorithmKind.DECISION_TREE, cfg), budget))
        firsts_db.append(_first_improvement(
            repair(ds, AlgorithmKind.DECISION_TREE, cfg, db=db), budget))
    med_default = statistics.median(firsts_default)
    med_db = statistics.median(firsts_db)
    elapsed = time.monotonic() - start
    _verdict("6/8", "pruned-space speedup", med_db <= med_default and elapsed < 600.0,
             f"median trials to first improvement {med_db} (pruned)"
             f" vs {med_default} (default) in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. soft reference anchor on Adult Census


@pytest.mark.skipif(
    not ADULT_CSV.exists(),
    reason="adult.csv not present; put it at data/adult.csv or set FAIRFIX_ADULT_CSV",
)
def test_adult_reference_anchor():
    """Soft anchor: a miss here warrants investigation, not auto-rejection."""
    schema = Schema.from_json(DATA_DIR / "adult.schema.json")
    ds = load_csv(ADULT_CSV, schema)
    hits = 0
    outcomes = []
    for seed in range(10):
        try:
            res = repair(ds, AlgorithmKind.LOGISTIC_REGRESSION,
                         RepairConfig(MetricKind.EOD, trials=300, seed=seed))
        except AlreadyFair:
            hits += 1
            outcomes.append("already-fair")
            continue
        ok = res.repaired.acc >= 0.79 and res.repaired.bias <= 0.06
        hits += ok
        outcomes.append(f"{res.repaired.acc:.3f}/{res.repaired.bias:.3f}")
    _verdict("7/8", "Adult Census anchor", hits >= 7,
             f"{hits}/10 seeds reach acc>=0.79 and EOD<=0.06 ({'; '.join(outcomes)})")


# ---------------------------------------------------------------------------
# 8. determinism and on-disk formats


REPORT_KEYS = ["input_digest", "metric", "a0", "a1", "f1", "L", "beta_trace",
               "best_config", "repaired", "original", "region", "baseline"]
BASELINE_KEYS = ["metric", "original", "a0", "points", "repetitions", "seed"]
ENTRY_KEYS = ["dataset", "p", "f", "protected", "L", "algorithm", "components",
              "params"]


def test_determinism_and_formats(tmp_path):
    ds = biased_dataset(rows=800, disparity=0.3, seed=1)
    cfg = RepairConfig(MetricKind.SPD, trials=30, seed=11)
    res_a = repair(ds, AlgorithmKind.DECISION_TREE, cfg)
    res_b = repair(ds, AlgorithmKind.DECISION_TREE, cfg)
    assert res_a.log.digest() == res_b.log.digest()
    assert res_a.report_json() == res_b.report_json()

    report = res_a.report_json()
    payload = json.loads(report)
    assert list(payload) == REPORT_KEYS
    assert list(payload["baseline"]) == BASELINE_KEYS
    assert json.dumps(payload, indent=2) + "\n" == report

    baseline_text = res_a.baseline.to_json()
    assert TradeoffBaseline.from_json(baseline_text).to_json() == baseline_text

    entry = build_entry(ds, "mini", "group", AlgorithmKind.DECISION_TREE,
                        BuildConfig(runs=1, trials=8, top_k=2, top_m=2), seed=5)
    db = Database(provenance={"runs": 1}, entries=(entry,))
    from fairfix.prune_db import load as load_db, save as save_db

    path = tmp_path / "db.json"
    save_db(db, path)
    text = path.read_text(encoding="utf-8")
    assert load_db(path).to_json() == text
    db_payload = json.loads(text)
    assert list(db_payload) == ["version", "provenance", "entries"]
    assert db_payload["version"] == "fairfix-db/1"
    assert all(list(e) == ENTRY_KEYS for e in db_payload["entries"])
    _verdict("8/8", "determinism and formats", True,
             "equal digests on reruns; report, baseline, db round-trip byte-exact")
