"""Per-layer metrics of a traced pass, from its spans and its trial logs.

Times and counts are totals over the traced pass, which runs each of the
workload's jobs once. `_s` metrics named after a span are inclusive of the
spans under it; `<layer>.self_s` is the layer's self time.
"""

from __future__ import annotations

import statistics

from fairfix import repair_core

from spans import (
    PROPOSE,
    ROOT,
    SpanLog,
    children,
    count,
    inclusive,
    layer_self_times,
    self_times,
)

LAYERS = ("tabular", "model_zoo", "metrics", "smbo", "fairea", "prune_db")
REPAIR = "repair_core.repair"
TRAIN = "model_zoo.train"


def freeze_index(record) -> int:
    """Trial at which the weight controller froze beta; the trial count if
    it never did. Replays the controller over the trial log."""
    s = record.state
    state = repair_core.initial_beta_state(s.a1, s.a0, s.f1, s.alpha, s.patience)
    for r in record.log.records:
        improved = r.status == "ok" and r.cost < repair_core.pseudo_cost(r.beta, s.a0)
        state = repair_core.greedy_update(state, improved)
        if state.checker:
            return r.index
    return len(record.log.records)


def improved_trials(record) -> int:
    """Trials whose cost beat the pseudo-model cost at their own beta."""
    a0 = record.state.a0
    return sum(
        1
        for r in record.log.records
        if r.status == "ok" and r.cost < repair_core.pseudo_cost(r.beta, a0)
    )


def repair_subtree_self(log: SpanLog) -> float:
    """Self time of every span inside a repair() span, that span included."""
    in_repair = [False] * len(log)
    total = 0.0
    for i, s in enumerate(self_times(log)):
        p = log.parents[i]
        in_repair[i] = log.names[i] == REPAIR or (p != ROOT and in_repair[p])
        if in_repair[i]:
            total += s
    return total


def repair_core_fits(log: SpanLog) -> tuple:
    """(buggy fit, refit) seconds: the first train() directly under each
    repair, and the train() after its smbo.run."""
    buggy = refit = 0.0
    for i, name in enumerate(log.names):
        if name != REPAIR:
            continue
        direct = children(log, i)
        trains = [c for c in direct if log.names[c] == TRAIN]
        runs = [c for c in direct if log.names[c] == "smbo.run"]
        if trains:
            buggy += log.ends[trains[0]] - log.starts[trains[0]]
        after = [c for c in trains if runs and log.starts[c] >= log.ends[runs[-1]]]
        if after:
            refit += log.ends[after[-1]] - log.starts[after[-1]]
    return buggy, refit


def layer_metrics(log: SpanLog, plain: list, traced: list) -> dict:
    """plain/traced: RepairTap records of the untraced and traced passes."""
    done = [r for r in traced if r.done]
    records = [t for r in done for t in r.log.records]
    self_by_layer = layer_self_times(log)
    objective = sum(t.wall_time for t in records)
    run_wall = inclusive(log, "smbo.run")
    propose_spans = inclusive(log, PROPOSE)
    surrogate_fit = inclusive(log, "smbo.surrogate_fit")
    sample = inclusive(log, "smbo.sample")
    buggy, refit = repair_core_fits(log)
    traced_walls = [r.wall for r in traced if r.done]
    plain_walls = [r.wall for r in plain if r.done]

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for layer in LAYERS:
        put(f"{layer}.self_s", self_by_layer.get(layer, 0.0), "s")
    put("tabular.load_csv_s", inclusive(log, "tabular.load_csv"), "s")
    put("tabular.encoder_fit_s", inclusive(log, "tabular.encoder_fit"), "s")
    put("tabular.encoder_transform_s", inclusive(log, "tabular.encoder_transform"), "s")
    put("tabular.encode_calls", count(log, "tabular.encoder_transform"), "count")
    put("tabular.split_s", inclusive(log, "tabular.split"), "s")
    put("model_zoo.train_s", inclusive(log, TRAIN), "s")
    put("model_zoo.train_calls", count(log, TRAIN), "count")
    put("model_zoo.component_s", inclusive(log, "model_zoo.component"), "s")
    put("model_zoo.fit_s", inclusive(log, "model_zoo.fit"), "s")
    put("model_zoo.predict_s", inclusive(log, "model_zoo.predict"), "s")
    put("metrics.score_s", inclusive(log, "metrics.score"), "s")
    put("metrics.score_calls", count(log, "metrics.score"), "count")
    put("smbo.objective_s", objective, "s")
    put("smbo.propose_s", run_wall - objective, "s")
    put("smbo.surrogate_fit_s", surrogate_fit, "s")
    put("smbo.surrogate_fits", count(log, "smbo.surrogate_fit"), "count")
    put("smbo.sample_s", sample, "s")
    put("smbo.samples", count(log, "smbo.sample"), "count")
    put("smbo.acquisition_s", propose_spans - surrogate_fit - sample, "s")
    for kind in ("surrogate", "random"):
        put(f"smbo.proposals.{kind}", sum(t.proposal == kind for t in records), "count")
    put(
        "smbo.improve_ratio",
        sum(improved_trials(r) for r in done) / len(records),
        "ratio",
    )
    put("repair_core.buggy_fit_s", buggy, "s")
    put("repair_core.refit_s", refit, "s")
    put("repair_core.other_s", self_by_layer.get("repair_core", 0.0), "s")
    put(
        "repair_core.beta_freeze_index",
        statistics.median(freeze_index(r) for r in done),
        "index",
    )
    put("fairea.baseline_s", inclusive(log, "fairea.baseline"), "s")
    put("fairea.mutations", count(log, "fairea.mutate"), "count")
    put("prune_db.build_entry_s", inclusive(log, "prune_db.build_entry"), "s")
    put("prune_db.match_s", inclusive(log, "prune_db.match"), "s")
    put("prune_db.load_s", inclusive(log, "prune_db.load"), "s")
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls)
    put("trace.overhead_ratio", overhead, "ratio")
    # traced repair() wall time that no span's self time accounts for
    put("trace.coverage_gap_s", sum(traced_walls) - repair_subtree_self(log), "s")
    # proposal time from the trial log that no proposal span accounts for
    put("trace.propose_gap_s", run_wall - objective - propose_spans, "s")
    put("trace.spans", len(log), "count")
    put("trace.repairs", len(done), "count")
    return m
