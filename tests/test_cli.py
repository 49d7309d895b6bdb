"""End-to-end checks of the command-line interface and its exit codes."""

import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfix import cli
from fairfix.cli import build_parser, main
from fairfix.fairea import TradeoffBaseline
from fairfix.prune_db import BuildConfig, load as load_db
from fairfix.synth import biased_dataset, fixture_schema, write_fixture
from fairfix.tabular import load_csv

NOT_UTF8 = b"\xff\xfe\x00"

# a db entry that the dtree repairs on the `corpus` fixture match
DTREE_ENTRY = {
    "dataset": "data.csv", "p": 800, "f": 2, "protected": "group", "L": 0.3,
    "algorithm": "dtree", "components": ["none", "standardize"],
    "params": {
        "max_depth": {"kind": "numeric", "lo": 2, "hi": 10},
        "criterion": {"kind": "categorical", "values": ["gini"]},
    },
}


def db_text(*entries) -> str:
    return json.dumps({"version": "fairfix-db/1", "entries": list(entries)})


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Fixture directory with data.csv, schema.json, and a one-row manifest."""
    root = tmp_path_factory.mktemp("corpus")
    write_fixture(root, rows=800, disparity=0.3, seed=1)
    (root / "manifest.json").write_text(
        json.dumps([{"data": "data.csv", "schema": "schema.json", "model": "dtree"}]),
        encoding="utf-8",
    )
    return root


@pytest.fixture(scope="module")
def repair_outputs(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("repair_out")
    report = out / "report.json"
    code = main([
        "repair", "--data", str(corpus / "data.csv"),
        "--schema", str(corpus / "schema.json"),
        "--model", "dtree", "--metric", "spd",
        "--trials", "25", "--seed", "0", "--out", str(report),
    ])
    assert code == 0
    baseline = out / "base.json"
    code = main([
        "baseline", "--data", str(corpus / "data.csv"),
        "--schema", str(corpus / "schema.json"),
        "--model", "dtree", "--metric", "spd",
        "--reps", "10", "--seed", "0", "--out", str(baseline),
    ])
    assert code == 0
    return report, baseline


def test_repair_summary_line_and_report(corpus, tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main([
        "repair", "--data", str(corpus / "data.csv"),
        "--schema", str(corpus / "schema.json"),
        "--model", "dtree", "--metric", "spd",
        "--trials", "8", "--seed", "0", "--out", str(report),
    ])
    assert code == 0
    out, err = capsys.readouterr()
    line = out.strip()
    assert err == ""  # no warning: both groups have enough val rows
    assert re.fullmatch(
        r"region=(win|good|bad|lose|inverted)"
        r" acc \d\.\d{4}→\d\.\d{4} bias \d\.\d{4}→\d\.\d{4}",
        line,
    )
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["metric"] == "spd"
    assert len(payload["beta_trace"]) == 8
    assert "warnings" not in payload


def test_repair_is_deterministic_across_invocations(corpus, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main([
            "repair", "--data", str(corpus / "data.csv"),
            "--schema", str(corpus / "schema.json"),
            "--model", "dtree", "--metric", "spd",
            "--trials", "10", "--seed", "7", "--out", str(p),
        ])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_baseline_writes_json_and_plot_csv(repair_outputs):
    _, baseline_path = repair_outputs
    baseline = TradeoffBaseline.from_json(baseline_path.read_text(encoding="utf-8"))
    assert len(baseline.points) == 10
    csv_path = baseline_path.with_suffix(".csv")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["degree", "bias", "acc"]
    assert len(rows) == 11
    # plot rows carry the same floats as the JSON points
    for row, (degree, pt) in zip(rows[1:], baseline.points):
        assert float(row[0]) == degree
        assert float(row[1]) == pt.bias
        assert float(row[2]) == pt.acc


@pytest.mark.parametrize("seed", [0, 3])
def test_baseline_command_writes_the_report_baseline(tmp_path, seed):
    # both commands split, encode and fit the default model the same way
    data, schema = write_fixture(tmp_path, rows=400)
    common = ["--data", str(data), "--schema", str(schema), "--model", "dtree",
              "--metric", "spd", "--seed", str(seed)]
    report, baseline = tmp_path / "report.json", tmp_path / "baseline.json"
    assert main(["repair", *common, "--trials", "2", "--out", str(report)]) == 0
    assert main(["baseline", *common, "--out", str(baseline)]) == 0
    block = json.loads(report.read_text(encoding="utf-8"))["baseline"]
    assert baseline.read_text(encoding="utf-8") == json.dumps(block, indent=2) + "\n"


def test_evaluate_exit_codes_follow_region(repair_outputs, tmp_path, capsys):
    report_path, baseline_path = repair_outputs
    template = json.loads(report_path.read_text(encoding="utf-8"))

    def run(acc, bias):
        fake = dict(template)
        fake["repaired"] = {"acc": acc, "bias": bias}
        p = tmp_path / "fake.json"
        p.write_text(json.dumps(fake), encoding="utf-8")
        return main(["evaluate", "--report", str(p), "--baseline", str(baseline_path)])

    orig = template["original"]
    assert run(orig["acc"] + 0.01, orig["bias"] / 2) == 0  # win
    assert run(0.5, orig["bias"] * 2) == 1                 # lose
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["region=win", "region=lose"]


def test_evaluate_rejects_mismatched_metric(corpus, repair_outputs, tmp_path, capsys):
    report_path, _ = repair_outputs
    eod_baseline = tmp_path / "base_eod.json"
    code = main([
        "baseline", "--data", str(corpus / "data.csv"),
        "--schema", str(corpus / "schema.json"),
        "--model", "dtree", "--metric", "eod",
        "--reps", "5", "--seed", "0", "--out", str(eod_baseline),
    ])
    assert code == 0
    capsys.readouterr()
    code = main([
        "evaluate", "--report", str(report_path), "--baseline", str(eod_baseline)
    ])
    assert code == 2
    assert "metric mismatch" in capsys.readouterr().err


def test_build_db_then_repair_with_it(corpus, tmp_path, capsys):
    db_path = tmp_path / "db.json"
    code = main([
        "build-db", "--corpus", str(corpus),
        "--runs", "1", "--trials", "6", "--top-k", "2", "--top-m", "2",
        "--seed", "0", "--out", str(db_path),
    ])
    assert code == 0
    assert "built 1 entries" in capsys.readouterr().out
    db = load_db(db_path)
    assert len(db.entries) == 1
    assert db.entries[0].dataset == "data.csv"
    assert db.entries[0].algorithm.value == "dtree"

    report = tmp_path / "r.json"
    code = main([
        "repair", "--data", str(corpus / "data.csv"),
        "--schema", str(corpus / "schema.json"),
        "--model", "dtree", "--metric", "spd",
        "--trials", "6", "--seed", "0", "--db", str(db_path),
        "--out", str(report),
    ])
    assert code == 0
    assert report.exists()


def test_build_db_without_manifest_exits_3(tmp_path, capsys):
    code = main([
        "build-db", "--corpus", str(tmp_path), "--seed", "0",
        "--out", str(tmp_path / "db.json"),
    ])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_build_db_with_a_manifest_not_utf8_exits_3(tmp_path, capsys):
    (tmp_path / "manifest.json").write_bytes(NOT_UTF8)
    code = main([
        "build-db", "--corpus", str(tmp_path), "--seed", "0",
        "--out", str(tmp_path / "db.json"),
    ])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def build_db_exits_3(corpus, tmp_path, capsys, manifest):
    """build-db on `manifest` beside the corpus's files exits 3 with a data
    error, no traceback and no db file."""
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    for name in ("data.csv", "schema.json"):
        (tmp_path / name).write_bytes((corpus / name).read_bytes())
    code = main([
        "build-db", "--corpus", str(tmp_path), "--seed", "0",
        "--out", str(tmp_path / "db.json"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "Traceback" not in err
    assert not (tmp_path / "db.json").exists()


@pytest.mark.parametrize("bad", [{"data": 5}, {"data": None}, {"schema": ["x"]}])
def test_build_db_with_a_path_that_is_not_a_string_exits_3(corpus, tmp_path, capsys, bad):
    row = {"data": "data.csv", "schema": "schema.json", "model": "dtree", **bad}
    build_db_exits_3(corpus, tmp_path, capsys, [row])


ROW = {"data": "data.csv", "schema": "schema.json"}


@pytest.mark.parametrize("manifest", [
    {**ROW, "model": "dtree"},
    [ROW],
    [{**ROW, "model": "svm"}],
    [{**ROW, "model": "dtree", "metric": "f1"}],
], ids=["not-a-list", "no-model", "unknown-model", "unknown-metric"])
def test_build_db_with_a_bad_manifest_exits_3(corpus, tmp_path, capsys, manifest):
    build_db_exits_3(corpus, tmp_path, capsys, manifest)


def test_a_positive_seconds_and_dev_are_accepted(corpus, tmp_path):
    db_path = tmp_path / "db.json"
    code = main([
        "build-db", "--corpus", str(corpus), "--runs", "1", "--trials", "4",
        "--dev", "0.5", "--seed", "0", "--out", str(db_path),
    ])
    assert code == 0
    assert load_db(db_path).provenance["dev"] == 0.5
    code = main([
        "repair", "--data", str(corpus / "data.csv"),
        "--schema", str(corpus / "schema.json"),
        "--model", "dtree", "--metric", "spd",
        "--trials", "4", "--seconds", "30", "--seed", "0", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 0


def test_missing_data_file_exits_3(corpus, tmp_path, capsys):
    code = main([
        "repair", "--data", str(tmp_path / "nope.csv"),
        "--schema", str(corpus / "schema.json"),
        "--model", "dtree", "--metric", "spd",
        "--trials", "5", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_bad_db_files_exit_3(corpus, tmp_path, capsys):
    bad = {
        "not_json.json": "nope",
        "not_object.json": "[1,2]",
        "entries_not_list.json": json.dumps({"version": "fairfix-db/1", "entries": 5}),
        "nested_too_deep.json": "[" * 100_000,
        "params_array.json": db_text(dict(DTREE_ENTRY, params=[])),
        "params_string.json": db_text(dict(DTREE_ENTRY, params="abc")),
        "lo_nan.json": db_text(dict(
            DTREE_ENTRY, algorithm="logreg",
            params={"learning_rate": {"kind": "numeric", "lo": math.nan, "hi": 0.5}},
        )),
        "hi_nan.json": db_text(dict(
            DTREE_ENTRY, algorithm="logreg",
            params={"l2": {"kind": "numeric", "lo": 1e-6, "hi": math.nan}},
        )),
        "L_nan.json": db_text(dict(DTREE_ENTRY, L=math.nan)),
        "L_infinite.json": db_text(dict(DTREE_ENTRY, L=math.inf)),
        "L_huge_int.json": db_text(dict(DTREE_ENTRY, L=10**400)),
        "p_infinite.json": db_text(dict(DTREE_ENTRY, p=math.inf)),
    }
    for name, text in bad.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        out = tmp_path / "r.json"
        code = main([
            "repair", "--data", str(corpus / "data.csv"),
            "--schema", str(corpus / "schema.json"),
            "--model", "dtree", "--metric", "spd",
            "--trials", "3", "--db", str(tmp_path / name), "--out", str(out),
        ])
        assert code == 3, name
        assert capsys.readouterr().err.startswith("data error:"), name
        assert not out.exists()


def csv_bytes(header: str, rows: int = 300) -> bytes:
    """Fixture rows under `header`, with both feature columns categorical."""
    ds = biased_dataset(rows, 0.3, seed=0)
    lines = [header] + [
        f"{'hi' if float(a) > 0 else 'lo'},{'p' if float(b) > 0 else 'q'},{z},{y}"
        for (a, b), z, y in zip(ds.cells, ds.z, ds.y)
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def schema_bytes(**changes):
    """The fixture schema's JSON with `changes` applied to its keys."""
    payload = json.loads(fixture_schema().to_json())
    payload.update(changes)
    return json.dumps(payload).encode("utf-8")


@pytest.mark.parametrize("name, contents", [
    ("data.csv", NOT_UTF8),
    ("schema.json", NOT_UTF8),
    ("schema.json", b"[1]"),
    ("schema.json", b'"outcome"'),
    ("schema.json", b"null"),
    ("schema.json", b"label: outcome"),
    ("schema.json", schema_bytes(drop=5)),
    ("schema.json", schema_bytes(label="group")),  # label == protected
    ("schema.json", b"[" * 100_000),
    ("data.csv", csv_bytes("c,c,group,outcome")),
], ids=[
    "csv-not-utf8", "schema-not-utf8", "schema-array", "schema-string",
    "schema-null", "schema-not-json", "schema-drop-5", "schema-label-is-protected",
    "schema-nested-too-deep", "csv-repeated-column",
])
def test_bad_schema_or_csv_file_exits_3(tmp_path, capsys, name, contents):
    write_fixture(tmp_path, rows=300)
    (tmp_path / name).write_bytes(contents)
    out = tmp_path / "r.json"
    code = main([
        "repair", "--data", str(tmp_path / "data.csv"),
        "--schema", str(tmp_path / "schema.json"),
        "--model", "dtree", "--metric", "spd", "--trials", "3", "--out", str(out),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def malformed_csvs(header: str, rows: list) -> dict:
    """The fixture CSV, `header` and `rows`, broken in each way, by name."""

    def text(lines):
        return ("\n".join(lines) + "\n").encode("utf-8")

    group0 = [r for r in rows if r.split(",")[2] == "0"]
    return {
        "empty": b"",
        "header-only": text([header]),
        "every-row-incomplete": text([header] + [r.rsplit(",", 1)[0] + "," for r in rows]),
        "ragged-rows": text([header] + [r + ",9" if i % 7 == 0 else r for i, r in enumerate(rows)]),
        "field-over-csv-limit": text([header, "1," + "9" * 131_073 + ",0,1", *rows]),
        "header-not-utf8": b"x1,x\xff2,group,outcome\n" + text(rows),
        "bom": b"\xef\xbb\xbf" + text([header] + rows),
        "cr-line-ends": text([header] + rows).replace(b"\n", b"\r"),
        # one unprivileged row: no split puts the group on both sides
        "one-row-per-group": text([header, group0[0]] + [r for r in rows if r not in group0]),
        # row 0 falls in the train split at seed 0
        "stray-na": text([header, "NA," + rows[0].split(",", 1)[1], *rows[1:]]),
    }


@pytest.mark.parametrize("name, code", [
    ("empty", 3), ("header-only", 3), ("every-row-incomplete", 3), ("ragged-rows", 0),
    ("field-over-csv-limit", 3), ("header-not-utf8", 3), ("bom", 0), ("cr-line-ends", 0),
    ("one-row-per-group", 3), ("stray-na", 3),
])
def test_malformed_csv_exits_with_its_documented_code(tmp_path, name, code):
    write_fixture(tmp_path, rows=300)
    header, *rows = (tmp_path / "data.csv").read_text(encoding="utf-8").splitlines()
    (tmp_path / "data.csv").write_bytes(malformed_csvs(header, rows)[name])
    out = tmp_path / "r.json"
    got, err = run_quietly([
        "repair", "--data", str(tmp_path / "data.csv"),
        "--schema", str(tmp_path / "schema.json"),
        "--model", "dtree", "--metric", "spd", "--trials", "3", "--out", str(out),
    ])
    assert got == code, err
    assert "Traceback" not in err
    assert out.exists() == (code == 0)
    if code == 3:
        assert err.startswith("data error:")
    if name == "stray-na":
        assert "column 'x1'" in err and "'NA'" in err


def one_sided_group_csvs(header: str, rows: list) -> dict:
    """The fixture CSV, `header` and `rows`, with a tiny or one-sided group,
    by name."""

    def text(lines):
        return ("\n".join(lines) + "\n").encode("utf-8")

    def group(r):
        return r.split(",")[2]

    def relabelled(g, y):
        """The rows, each of group `g` given label `y`."""
        return [f"{r.rsplit(',', 1)[0]},{y}" if group(r) == g else r for r in rows]

    return {
        "no-favorable": text([header] + relabelled("0", 0)),
        "two-row-group": text(
            [header] + [r for r in rows if group(r) == "0"][:2]
            + [r for r in rows if group(r) == "1"]
        ),
        "always-favorable": text([header] + relabelled("1", 1)),
    }


@pytest.fixture(scope="module")
def one_sided_groups(tmp_path_factory):
    root = tmp_path_factory.mktemp("groups")
    write_fixture(root, rows=300)
    header, *rows = (root / "data.csv").read_text(encoding="utf-8").splitlines()
    for name, contents in one_sided_group_csvs(header, rows).items():
        (root / f"{name}.csv").write_bytes(contents)
    return root


# 3 where a rate the metric needs is undefined for the buggy model, as
# for any input the metric cannot judge; otherwise the repair runs. Every
# model exits alike, so no model has a row of its own
ONE_SIDED_GROUP_CODES = {
    "no-favorable": {"spd": 0, "di": 3, "eod": 3, "aod": 3},
    "two-row-group": {"spd": 0, "di": 3, "eod": 3, "aod": 3},
    "always-favorable": {"spd": 0, "di": 0, "eod": 0, "aod": 3},
}


@pytest.mark.parametrize("model", ["dtree", "logreg", "knn", "rforest", "gboost"])
@pytest.mark.parametrize("metric", ["spd", "di", "eod", "aod"])
@pytest.mark.parametrize("name", list(ONE_SIDED_GROUP_CODES))
def test_tiny_or_one_sided_group_exits_with_its_documented_code(
    one_sided_groups, tmp_path, name, metric, model
):
    out = tmp_path / "r.json"
    got, err = run_quietly([
        "repair", "--data", str(one_sided_groups / f"{name}.csv"),
        "--schema", str(one_sided_groups / "schema.json"),
        "--model", model, "--metric", metric, "--trials", "4", "--out", str(out),
    ])
    code = ONE_SIDED_GROUP_CODES[name][metric]
    assert got == code, err
    assert "Traceback" not in err
    assert out.exists() == (code == 0)
    if code == 3:
        assert err.startswith("data error:")
    if code == 0:
        # one of the two rows lands in val: the report warns, and says so
        warnings = json.loads(out.read_text(encoding="utf-8")).get("warnings", [])
        want = ["the val split holds 1 row of the unprivileged group, fewer than 5;"
                " the bias and region rest on them"] if name == "two-row-group" else []
        assert warnings == want
        assert err == "".join(f"warning: {w}\n" for w in want)


def test_a_bom_before_the_fixture_header_is_dropped(tmp_path):
    write_fixture(tmp_path, rows=300)
    header, *rows = (tmp_path / "data.csv").read_text(encoding="utf-8").splitlines()
    (tmp_path / "data.csv").write_bytes(malformed_csvs(header, rows)["bom"])
    assert load_csv(tmp_path / "data.csv", fixture_schema()).feature_names == ("x1", "x2")


@pytest.mark.parametrize("corrupt", [
    lambda report, baseline: ({k: report[k] for k in report if k != "repaired"}, baseline),
    lambda report, baseline: ([report], baseline),
    lambda report, baseline: (report, dict(baseline, metric="xyz")),
    lambda report, baseline: (b"[" * 100_000, baseline),
    lambda report, baseline: (dict(report, repaired={"bias": math.nan, "acc": 0}), baseline),
    lambda report, baseline: (report, dict(baseline, points=[])),
], ids=[
    "report-without-repaired", "report-array", "baseline-metric-xyz",
    "report-nested-too-deep", "report-bias-nan", "baseline-without-points",
])
def test_malformed_evaluate_input_exits_3(repair_outputs, tmp_path, capsys, corrupt):
    report_path, baseline_path = repair_outputs
    files = corrupt(
        json.loads(report_path.read_text(encoding="utf-8")),
        json.loads(baseline_path.read_text(encoding="utf-8")),
    )
    for name, payload in zip(("r.json", "b.json"), files):
        text = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        (tmp_path / name).write_bytes(text)
    code = main([
        "evaluate", "--report", str(tmp_path / "r.json"),
        "--baseline", str(tmp_path / "b.json"),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error:")


# ---------------------------------------------------------------------------
# fuzzed input files: every case ends in a documented exit code, never an
# exception out of main()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3)
    ),
    max_leaves=8,
)
SCHEMA_KEYS = ("label", "favorable", "protected", "unprivileged", "drop", "categorical")


def wrong_schema_value(key):
    """JSON values that a schema file's `key` may not hold."""
    if key in ("drop", "categorical"):
        return JSON_VALUES.filter(
            lambda v: not (isinstance(v, list) and all(isinstance(x, str) for x in v))
        )
    if key in ("favorable", "unprivileged"):  # a string or a number
        return JSON_VALUES.filter(lambda v: v is None or isinstance(v, (bool, list, dict)))
    return JSON_VALUES.filter(lambda v: not isinstance(v, str))


BAD_SCHEMA_FILES = st.binary(max_size=64) | st.sampled_from(SCHEMA_KEYS).flatmap(
    lambda key: wrong_schema_value(key).map(lambda v: schema_bytes(**{key: v}))
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_quietly(argv):
    """main(argv) with its output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(contents=BAD_SCHEMA_FILES)
def test_fuzzed_schema_file_exits_3(corpus, fuzz_dir, contents):
    (fuzz_dir / "schema.json").write_bytes(contents)
    code, err = run_quietly([
        "repair", "--data", str(corpus / "data.csv"),
        "--schema", str(fuzz_dir / "schema.json"),
        "--model", "dtree", "--metric", "spd",
        "--trials", "3", "--out", str(fuzz_dir / "r.json"),
    ])
    assert code == 3, err
    assert err.startswith("data error:")


REPORT_KEYS = [("repaired",), ("repaired", "bias"), ("repaired", "acc"), ("metric",)]
BASELINE_KEYS = [
    ("metric",), ("original",), ("original", "bias"), ("original", "acc"), ("a0",),
    ("points",), ("points", 0), ("points", 0, "degree"), ("points", 0, "bias"),
    ("points", -1, "acc"), ("repetitions",), ("seed",),
]


def replaced(payload, path, value):
    """A copy of `payload` holding `value` at the key path `path`."""
    if not path:
        return value
    copy = list(payload) if isinstance(payload, list) else dict(payload)
    copy[path[0]] = replaced(payload[path[0]], path[1:], value)
    return copy


def finite_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < float("inf")


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzzed_evaluate_inputs_exit_with_a_documented_code(
    repair_outputs, fuzz_dir, data
):
    paths = dict(zip(("report", "baseline"), repair_outputs))
    contents = {k: p.read_bytes() for k, p in paths.items()}
    target = data.draw(st.sampled_from(sorted(paths)))
    key = None
    if data.draw(st.booleans()):
        contents[target] = data.draw(st.binary(max_size=64))
    else:
        key = data.draw(st.sampled_from(REPORT_KEYS if target == "report" else BASELINE_KEYS))
        value = data.draw(JSON_VALUES)
        payload = replaced(json.loads(contents[target]), key, value)
        contents[target] = json.dumps(payload).encode("utf-8")
    for name, text in contents.items():
        (fuzz_dir / f"{name}.json").write_bytes(text)
    code, err = run_quietly([
        "evaluate", "--report", str(fuzz_dir / "report.json"),
        "--baseline", str(fuzz_dir / "baseline.json"),
    ])
    assert code in (0, 1, 2, 3)
    assert (code == 3) == err.startswith("data error:")
    if key and key[-1] in ("bias", "acc", "a0", "degree") and not finite_number(value):
        assert code == 3


ENTRY_KEYS = [(key,) for key in DTREE_ENTRY] + [
    ("params", name, key)
    for name, spec in DTREE_ENTRY["params"].items()
    for key in (None, *spec)
]


def _json_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _finite(v):
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


# what each typed field of an entry accepts; anything else exits 3
ENTRY_TYPES = {
    ("dataset",): lambda v: isinstance(v, str),
    ("protected",): lambda v: isinstance(v, str),
    ("p",): _json_int,
    ("f",): _json_int,
    ("L",): lambda v: (_json_int(v) or isinstance(v, float)) and _finite(v),
}
WRONG_TYPES = [[1, {}], None, True, False, 2.5, "800", float("nan"), {"a": 1}]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzzed_db_file_exits_0_or_3(corpus, fuzz_dir, data):
    path = tuple(k for k in data.draw(st.sampled_from(ENTRY_KEYS)) if k is not None)
    value = data.draw(JSON_VALUES)
    if path in ENTRY_TYPES and data.draw(st.booleans()):
        value = data.draw(st.sampled_from(WRONG_TYPES))
    (fuzz_dir / "db.json").write_text(db_text(replaced(DTREE_ENTRY, path, value)))
    code, err = run_quietly([
        "repair", "--data", str(corpus / "data.csv"),
        "--schema", str(corpus / "schema.json"),
        "--model", "dtree", "--metric", "spd",
        "--trials", "3", "--db", str(fuzz_dir / "db.json"),
        "--out", str(fuzz_dir / "r.json"),
    ])
    assert code in (0, 3), err
    assert (code == 3) == err.startswith("data error:")
    if path in ENTRY_TYPES and not ENTRY_TYPES[path](value):
        assert code == 3, err


def test_undefined_metric_outside_a_trial_exits_3(tmp_path, capsys):
    # inside the search such a metric fails one trial; on the buggy model or
    # in the mutation baseline it leaves the input without a verdict
    for name, rows, disparity, seed in [("eod", 24, 0.8, 1), ("di", 120, 0.6, 0)]:
        write_fixture(tmp_path / name, rows=rows, disparity=disparity, seed=seed)
    data = {
        name: ["--data", str(tmp_path / name / "data.csv"),
               "--schema", str(tmp_path / name / "schema.json")]
        for name in ("eod", "di")
    }
    for argv in [
        ["repair", *data["eod"], "--model", "logreg", "--metric", "eod", "--trials", "5"],
        ["baseline", *data["di"], "--model", "dtree", "--metric", "di"],
        ["repair", *data["di"], "--model", "dtree", "--metric", "di", "--trials", "20"],
    ]:
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err, argv
        assert not out.exists()


@pytest.fixture(scope="module")
def huge_cells(tmp_path_factory):
    """The 300-row fixture with every 7th x1 cell set to `value`, one CSV
    per value, beside the fixture's schema."""
    root = tmp_path_factory.mktemp("huge")
    write_fixture(root, rows=300)
    header, *rows = list(csv.reader(io.StringIO((root / "data.csv").read_text(encoding="utf-8"))))
    for name, value in HUGE_CELLS.items():
        edited = [[value, *row[1:]] if i % 7 == 0 else row for i, row in enumerate(rows)]
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([header, *edited])
        (root / f"{name}.csv").write_text(text.getvalue(), encoding="utf-8")
    return root


HUGE_CELLS = {"plus-1e300": "1e300", "minus-1e300": "-1e300", "1e154": "1e154"}


@pytest.mark.parametrize("model", ["dtree", "logreg", "knn", "rforest", "gboost"])
@pytest.mark.parametrize("command", ["repair", "baseline"])
@pytest.mark.parametrize("name", list(HUGE_CELLS))
def test_overflowing_arithmetic_exits_0_or_3_without_a_warning(
    huge_cells, tmp_path, name, command, model
):
    # inside the search an overflow (logreg's logits, k-NN's distances, a
    # component's statistics) fails one trial; on the buggy model or in the
    # baseline it leaves the input without a verdict: exit 3. A squared
    # 1e154 overflows only in k-NN's distance sums
    out = tmp_path / "out.json"
    argv = [command, "--data", str(huge_cells / f"{name}.csv"),
            "--schema", str(huge_cells / "schema.json"),
            "--model", model, "--metric", "spd", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = run_quietly(argv + (["--trials", "12"] if command == "repair" else []))
    want = 3 if model == "knn" or (model == "logreg" and name != "1e154") else 0
    assert code == want, err
    assert "Traceback" not in err
    assert out.exists() == (code == 0)
    if code == 3:
        assert err.startswith("data error:") and "overflowed" in err, err


def test_usage_errors_exit_2(corpus, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "repair", "--data", str(corpus / "data.csv"),
            "--schema", str(corpus / "schema.json"),
            "--model", "nosuch", "--metric", "spd",
            "--trials", "5", "--out", str(tmp_path / "r.json"),
        ])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()

    # out-of-range numbers are usage errors too, caught before any input is read
    inputs = {
        "repair": [
            "--data", str(corpus / "data.csv"), "--schema", str(corpus / "schema.json"),
            "--model", "dtree", "--metric", "spd",
        ],
        "build-db": ["--corpus", str(corpus)],
    }
    inputs["baseline"] = inputs["repair"]
    for command, flag, value in [
        ("repair", "--trials", "0"),
        ("repair", "--seconds", "-1"),
        ("baseline", "--reps", "0"),
        ("build-db", "--runs", "0"),
        ("build-db", "--trials", "0"),
        ("build-db", "--top-k", "0"),
        ("build-db", "--top-m", "0"),
        ("build-db", "--dev", "0"),
        ("repair", "--seed", "-1"),
        ("baseline", "--seed", "-1"),
        ("build-db", "--seed", "-1"),
    ]:
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs[command], flag, value, "--out", str(out)])
        assert exc.value.code == 2, (command, flag)
        err = capsys.readouterr().err
        assert err.startswith("usage:") and flag in err, (command, flag)
        assert "Traceback" not in err
        assert not out.exists()


def test_build_db_defaults_are_build_config_defaults():
    args = build_parser().parse_args(["build-db", "--corpus", "c", "--out", "o"])
    defaults = BuildConfig()
    for name in ("runs", "trials", "top_k", "top_m", "dev"):
        assert getattr(args, name) == getattr(defaults, name), name


def test_already_fair_input_exits_4(tmp_path, capsys):
    # perfectly separable clusters: the stock model has zero equal-odds gap
    rng = np.random.default_rng(0)
    n = 200
    with open(tmp_path / "fair.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "group", "outcome"])
        for i in range(n):
            y = i % 2
            w.writerow([repr(10.0 * y + float(rng.normal(0, 0.1))), (i // 2) % 2, y])
    schema = {"label": "outcome", "favorable": "1", "protected": "group",
              "unprivileged": "0", "categorical": [], "drop": []}
    (tmp_path / "fair.schema.json").write_text(json.dumps(schema), encoding="utf-8")
    code = main([
        "repair", "--data", str(tmp_path / "fair.csv"),
        "--schema", str(tmp_path / "fair.schema.json"),
        "--model", "knn", "--metric", "eod",
        "--trials", "5", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 4
    assert "already fair" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_ctrl_c_exits_130_without_a_traceback(corpus, tmp_path, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "repair", interrupted)
    code = main([
        "repair", "--data", str(corpus / "data.csv"),
        "--schema", str(corpus / "schema.json"),
        "--model", "dtree", "--metric", "spd", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert not (tmp_path / "r.json").exists()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fairfix.cli", "repair", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "--trials" in proc.stdout
