"""Tests of the benchmark's own code: inputs, span arithmetic, checks.

    python3 -m pytest benches
"""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from fairfix import repair_core, tabular
from fairfix.metrics import MetricKind
from fairfix.model_zoo import AlgorithmKind, Encoder
from fairfix.repair_core import RepairConfig
from fairfix.synth import biased_dataset

import calibrate
import inputs
import layers
import regions
import run
import spans
import workloads
from spans import ROOT, SpanLog

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _write(path, seed):
    schema = inputs.write_synthetic_csv(path, 400, seed, categorical=True)
    return path.read_bytes(), schema


def test_adult_csv_is_deterministic_per_seed(tmp_path):
    a, _ = _write(tmp_path / "a.csv", 7)
    b, _ = _write(tmp_path / "b.csv", 7)
    c, _ = _write(tmp_path / "c.csv", 8)
    assert a == b
    assert a != c


def test_adult_csv_loads_with_intended_categorical_columns(tmp_path):
    path = tmp_path / "adult.csv"
    _, schema = _write(path, 3)
    ds = tabular.load_csv(path, schema)
    enc = Encoder.fit(ds)
    kinds = dict(zip(enc.feature_names, enc.kinds))
    names = [name for name, _, _ in inputs.CATEGORICAL]
    assert list(ds.feature_names) == ["x1", "x2", *names]
    assert kinds == {"x1": "numeric", "x2": "numeric", **{n: "categorical" for n in names}}
    for name, levels, _ in inputs.CATEGORICAL:
        assert 2 <= len(enc.categories[name]) <= levels
    assert len(ds.y) == 400
    # the data columns are biased_dataset's, unchanged by the round trip
    ref = biased_dataset(400, 0.3, seed=3)
    assert np.array_equal(ds.y, ref.y) and np.array_equal(ds.z, ref.z)
    assert np.array_equal(ds.cells[:, :2], ref.cells)


def test_education_tracks_x1(tmp_path):
    path = tmp_path / "adult.csv"
    _, schema = _write(path, 5)
    ds = tabular.load_csv(path, schema)
    x1 = ds.cells[:, 0].astype(float)
    level = np.array([int(c[3:]) for c in ds.cells[:, ds.feature_names.index("education")]])
    assert np.corrcoef(x1, level)[0, 1] > 0.5


def _hand_built():
    """repair [0, 10] > smbo.run [1, 7] > two proposals and one fit."""
    log = SpanLog()
    rep = log.add("repair_core.repair", 0.0, 10.0)
    run_ = log.add("smbo.run", 1.0, 7.0, rep)
    p1 = log.add("smbo.propose", 1.0, 2.0, run_)
    log.add("smbo.sample", 1.25, 1.5, p1)
    log.add("smbo.propose", 3.0, 3.5, run_)
    fit = log.add("model_zoo.fit", 4.0, 6.0, run_)
    log.add("model_zoo.fit", 4.5, 5.0, fit)  # a stage tree inside a fit
    log.add("tabular.load_csv", 11.0, 12.0)  # outside any repair
    return log


def test_self_time_arithmetic_on_hand_built_tree():
    log = _hand_built()
    assert spans.self_times(log) == [4.0, 2.5, 0.75, 0.25, 0.5, 1.5, 0.5, 1.0]
    by_layer = spans.layer_self_times(log)
    assert by_layer == {
        "repair_core": 4.0,
        "smbo": 4.0,
        "model_zoo": 2.0,
        "tabular": 1.0,
    }
    # nested spans of the same name count once
    assert spans.inclusive(log, "model_zoo.fit") == 2.0
    assert spans.inclusive(log, "smbo.propose") == 1.5
    assert spans.count(log, "model_zoo.fit") == 2
    # self times under the repair add up to its duration
    assert layers.repair_subtree_self(log) == 10.0


def test_span_log_records_nesting():
    log = SpanLog()
    outer = log.begin("a.x")
    inner = log.begin("b.y")
    assert log.current() == "b.y"
    log.end(inner)
    log.end(outer)
    assert log.parents == [ROOT, outer]
    assert log.starts[outer] <= log.starts[inner] <= log.ends[inner] <= log.ends[outer]


def _originals():
    return [vars(owner).get(attr) for owner, attr, _ in spans.TARGETS]


def _repair(algorithm, trials):
    ds = biased_dataset(300, 0.3, seed=1)
    cfg = RepairConfig(metric=MetricKind.SPD, trials=trials, seed=0)
    return repair_core.repair(ds, algorithm, cfg)


@pytest.mark.parametrize(
    "algorithm", [AlgorithmKind.DECISION_TREE, AlgorithmKind.GRADIENT_BOOSTING]
)
def test_tracing_changes_no_result_and_is_undone(algorithm):
    before = _originals()
    plain = _repair(algorithm, 17)
    with spans.Tracer() as tracer:
        traced = _repair(algorithm, 17)
    assert _originals() == before
    assert traced.log.digest() == plain.log.digest()
    log = tracer.log
    assert all(end is not None for end in log.ends)
    # RegressionTree.fit is attributed by its caller
    for i, name in enumerate(log.names):
        if name == "smbo.surrogate_fit":
            assert log.names[log.parents[i]] == spans.PROPOSE
    assert spans.count(log, "smbo.surrogate_fit") > 0
    if algorithm is AlgorithmKind.GRADIENT_BOOSTING:
        stage_fits = [
            i for i, n in enumerate(log.names)
            if n == "model_zoo.fit" and log.names[log.parents[i]] == "model_zoo.fit"
        ]
        assert stage_fits


def test_metric_names_are_well_formed():
    root = run.ROOT
    bench = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert tuple(end_to_end) == run.GATED
    with spans.Tracer() as tracer, spans.RepairTap() as tap:
        _repair(AlgorithmKind.DECISION_TREE, 12)
    produced = layers.layer_metrics(tracer.log, tap.calls, tap.calls)
    produced.update({f"quality.{k}": v for k, v in run.quality(tap.calls).items()})
    assert sorted(per_layer) == sorted(produced)
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name


def _record(digest, region="good"):
    log = SimpleNamespace(digest=lambda: digest, records=[])
    return spans.TapRecord(1.0, 10, log, None, region, 0.2, 0.1, None)


def _call(key, *records, fingerprint="f"):
    return run.Call(key, 1.0, fingerprint, list(records), None)


def test_checks_catch_disagreeing_repeats_and_lose():
    ok = [_call("a", _record("d1")), _call("a", _record("d1")), _call("b", _record("d2"))]
    assert run.check_outputs(ok) == []
    differ = [_call("a", _record("d1")), _call("a", _record("d9"))]
    assert len(run.check_outputs(differ)) == 1
    lose = [_call("a", _record("d1", region="lose"))]
    assert len(run.check_outputs(lose)) == 1


def test_region_check_holds_repairs_to_their_recorded_region():
    recorded = {"a": ["good", "bad"]}
    same = _call("a", _record("d", "good"), _record("d", "bad"))
    better = _call("a", _record("d", "win"), _record("d", "inverted"))
    worse = _call("a", _record("d", "bad"), _record("d", "bad"))
    fewer = _call("a", _record("d", "good"))
    unknown = _call("b", _record("d", "win"))
    assert run.check_outputs([same, better], recorded) == []
    for call in (worse, fewer, unknown):
        assert len(run.check_outputs([call], recorded)) == 1


def test_region_table_holds_a_region_list_per_job():
    table = json.loads(run.REGION_TABLE.read_text())
    assert json.loads(regions.dump(table)) == table
    for name, seeds in table.items():
        workload = workloads.WORKLOADS[name](0, "unused")
        workload.datasets = [None] * workload.inputs  # jobs are not run
        keys = {job.key for job in workload.jobs()}
        for jobs in seeds.values():
            assert set(jobs) == keys
            assert all(r in run.RANK for regs in jobs.values() for r in regs)


def test_raised_repair_counts_its_budget_as_failed():
    done = _record("d1")
    done.log.records = [SimpleNamespace(status="ok")] * 10
    records = [done, spans.TapRecord(0.5, 30, None, None, None, None, None, "AlreadyFair: x")]
    q = run.quality(records)
    assert q["failed_trial_share"] == 30 / 40
    assert q["good_win_share"] == 0.5
    assert q["bias_reduction"] == pytest.approx(0.5)


def test_inputs_written_in_a_child_match_the_workload_files(tmp_path):
    run.prepare_inputs("fit-gboost", 3, tmp_path)
    workload = workloads.WORKLOADS["fit-gboost"](3, tmp_path)
    assert sorted(tmp_path.iterdir()) == sorted([*workload.csvs, workload.schema_path])
    expected = tmp_path / "expected.csv"
    inputs.write_synthetic_csv(expected, 2000, inputs.sub_seed(3, 0))
    assert workload.csvs[0].read_bytes() == expected.read_bytes()


def test_closed_loop_runs_two_whole_passes_before_stopping():
    seen = []
    jobs = [
        SimpleNamespace(key=k, run=lambda k=k: seen.append(k) or k) for k in "ab"
    ]
    calls = run.closed_loop(jobs, 0.0, SimpleNamespace(calls=[]))
    assert [c.key for c in calls] == ["a", "b", "a", "b"]


def test_calibration_scales_by_the_kernel_median():
    nominal = calibrate.NOMINAL_S
    assert calibrate.speed([nominal] * 3) == pytest.approx(1.0)
    # a machine running at half speed doubles the kernel's time
    assert calibrate.speed([nominal, 2 * nominal, 3 * nominal]) == pytest.approx(0.5)
    assert calibrate.kernel() == calibrate.kernel()
    assert len(calibrate.sample()) == calibrate.SAMPLES
    assert sum(calibrate.sample(0.05)) >= 0.05


def test_end_to_end_scales_repair_timings_but_not_set_up():
    calls = [_call("a", _record("d1")), _call("a", _record("d1"))]
    for c in calls:
        c.repairs[0].log.records = [SimpleNamespace(status="ok")] * 10
    slow = [2 * calibrate.NOMINAL_S]
    m = run.end_to_end(calls, [0.3, 0.2, 0.5], slow)
    assert m["repair_wall_s"][0] == pytest.approx(1.0)
    assert m["repair_s"][0] == pytest.approx(0.5)
    assert m["trials_per_wall_s"][0] == pytest.approx(10.0)
    assert m["trials_per_s"][0] == pytest.approx(20.0)
    assert m["setup_s"][0] == pytest.approx(0.3)
