"""Outlier pruning, entry construction, matching, and db persistence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfix import smbo
from fairfix.metrics import MetricKind
from fairfix.model_zoo import (
    AlgorithmKind,
    ComponentKind,
    ParamDef,
    decode_config,
    default_space,
    encode_config,
    sample,
)
from fairfix.prune_db import (
    BuildConfig,
    Database,
    DatabaseEntry,
    MalformedEntry,
    UnknownVersion,
    build_entry,
    load,
    match_input,
    prune_numeric,
    save,
)
from fairfix.synth import biased_dataset
from fairfix.tabular import DataCharacteristics, characteristics


def entry(dataset="d", p=100, f=5, protected="g", L=0.4,
          algorithm=AlgorithmKind.DECISION_TREE, components=(ComponentKind.NONE,),
          params=None):
    """An entry narrowing the declared params: `params` maps a name to the
    keyword arguments of `ParamDef.narrowed` (`values=`, or `lo=`, `hi=`)."""
    space = default_space(algorithm)
    narrowed = {name: space.param(name).narrowed(**cut)
                for name, cut in (params or {}).items()}
    return DatabaseEntry(dataset, p, f, protected, L, algorithm, components, narrowed)


# ---------------------------------------------------------------------------
# prune_numeric


def test_prune_removes_outlier():
    assert prune_numeric([1, 2, 3, 100], dev=1.0) == (1, 3)


def test_prune_sigma_zero_falls_back():
    assert prune_numeric([5, 5, 5]) == (5, 5)
    assert prune_numeric([7]) == (7, 7)


def test_prune_boundary_is_exclusive():
    # both points sit exactly at one sigma, so the strict filter drops both
    assert prune_numeric([0, 10], dev=1.0) == (0, 10)


def test_prune_validation():
    with pytest.raises(ValueError):
        prune_numeric([])
    with pytest.raises(ValueError):
        prune_numeric([1, 2], dev=0.0)
    with pytest.raises(ValueError):  # not pruning switched off
        prune_numeric([1, 2, 3, 100], dev=float("nan"))


@pytest.mark.parametrize("name, value", [
    ("dev", float("nan")),
    ("runs", 1.5),
    ("trials", 2.5),
    ("top_k", True),
    ("top_m", 3.0),
])
def test_build_config_rejects_nan_and_non_integer_counts(name, value):
    with pytest.raises(ValueError):
        BuildConfig(**{name: value})


def test_pruned_range_within_observed():
    rng = np.random.default_rng(2)
    for _ in range(200):
        values = rng.normal(0, 1, int(rng.integers(1, 40))).tolist()
        lo, hi = prune_numeric(values, dev=float(rng.uniform(0.2, 3.0)))
        assert min(values) <= lo <= hi <= max(values)


# ---------------------------------------------------------------------------
# entries and spaces


def test_entry_space_pins_and_restricts():
    e = entry(params={
        "max_depth": dict(lo=3, hi=7),
        "min_leaf": dict(lo=4, hi=4),
        "criterion": dict(values=["entropy"]),
    }, components=(ComponentKind.REBALANCE, ComponentKind.NONE))
    space = e.space()
    assert space.components == (ComponentKind.NONE, ComponentKind.REBALANCE)
    rng = np.random.default_rng(0)
    for _ in range(300):
        cfg = decode_config(sample(space, rng), space)
        assert 3 <= cfg.params["max_depth"] <= 7
        assert cfg.params["min_leaf"] == 4
        assert cfg.params["criterion"] == "entropy"
        assert cfg.component in (ComponentKind.NONE, ComponentKind.REBALANCE)


def test_entry_rejects_foreign_params_and_bad_ranges():
    def direct(*params):
        return DatabaseEntry("d", 100, 5, "g", 0.4, AlgorithmKind.DECISION_TREE,
                             (ComponentKind.NONE,), {p.name: p for p in params})

    with pytest.raises(ValueError):
        direct(ParamDef("nope", "int", 1, 2))
    with pytest.raises(ValueError):
        entry(params={"max_depth": dict(lo=9, hi=2)})
    with pytest.raises(ValueError):
        entry(components=())
    # a param that is not a narrowing of the declared one: wider, or of
    # another kind, scale or value order
    declared = default_space(AlgorithmKind.DECISION_TREE)
    assert direct(*declared.params).space().params == declared.params
    for bad in [
        ParamDef("max_depth", "int", 1, 30),
        ParamDef("max_depth", "int", 2, 31),
        ParamDef("max_depth", "real", 3, 7),
        ParamDef("min_leaf", "int", 4, 8, "linear"),
        ParamDef("criterion", "cat", values=("gini", "entropy", "log_loss")),
        ParamDef("criterion", "cat", values=("entropy", "gini")),
    ]:
        with pytest.raises(ValueError):
            direct(bad)


def test_pinned_param_encodes_to_zero():
    e = entry(params={"min_leaf": dict(lo=4, hi=4)})
    space = e.space()
    cfg = decode_config(sample(space, np.random.default_rng(1)), space)
    vec = encode_config(cfg, space)
    j = 1 + [p.name for p in space.params].index("min_leaf")
    assert vec[j] == 0.0
    assert decode_config(vec, space).params["min_leaf"] == 4


# ---------------------------------------------------------------------------
# persistence


def two_entry_db():
    e1 = entry(dataset="a.csv", p=1000, f=10, L=0.35,
               algorithm=AlgorithmKind.DECISION_TREE,
               components=(ComponentKind.REBALANCE,),
               params={"max_depth": dict(lo=2, hi=9),
                       "criterion": dict(values=["gini"])})
    e2 = entry(dataset="b.csv", p=500, f=20, L=0.6,
               algorithm=AlgorithmKind.KNN,
               components=(ComponentKind.NONE, ComponentKind.STANDARDIZE),
               params={"k": dict(lo=5, hi=31)})
    return Database(provenance={"runs": 2, "trials": 10, "top_k": 3,
                                "top_m": 2, "dev": 1.0, "seed": 0},
                    entries=(e1, e2))


def test_save_load_round_trip_byte_exact(tmp_path):
    db = two_entry_db()
    path = tmp_path / "db.json"
    save(db, path)
    again = load(path)
    assert again == db
    assert again.to_json() == path.read_text()


def test_empty_db_round_trips(tmp_path):
    path = tmp_path / "db.json"
    save(Database(), path)
    db = load(path)
    assert db.entries == ()
    assert db.to_json() == path.read_text()


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(json.dumps({"version": "fairfix-db/9", "entries": []}))
    with pytest.raises(UnknownVersion):
        load(path)


def test_malformed_entry_reports_index(tmp_path):
    db = json.loads(two_entry_db().to_json())
    db["entries"][1]["params"]["k"] = {"kind": "numeric", "lo": 500, "hi": 900}
    path = tmp_path / "db.json"
    path.write_text(json.dumps(db))
    with pytest.raises(MalformedEntry) as info:
        load(path)
    assert info.value.index == 1


@pytest.mark.parametrize("key, value", [
    ("dataset", [1, {}]), ("dataset", None), ("protected", None), ("protected", 3),
    ("p", True), ("p", 2.5), ("p", 800.0), ("p", "800"), ("f", False), ("f", None),
    ("L", False), ("L", "0.3"), ("L", None), ("L", [0.3]),
])
def test_wrong_typed_entry_fields_are_malformed(tmp_path, key, value):
    db = json.loads(two_entry_db().to_json())
    db["entries"][0][key] = value
    path = tmp_path / "db.json"
    path.write_text(json.dumps(db))
    with pytest.raises(MalformedEntry) as info:
        load(path)
    assert info.value.index == 0


def test_load_intersects_with_default_ranges(tmp_path):
    db = json.loads(two_entry_db().to_json())
    # file claims a wider range than the declared space allows
    db["entries"][0]["params"]["max_depth"] = {"kind": "numeric", "lo": 1, "hi": 99}
    path = tmp_path / "db.json"
    path.write_text(json.dumps(db))
    e = load(path).entries[0]
    pd = default_space(AlgorithmKind.DECISION_TREE).param("max_depth")
    assert e.params["max_depth"] == pd


@st.composite
def file_entries(draw):
    """A file entry whose specs may be wider than, a subset of, partly
    outside or disjoint from the declared params, with foreign values."""
    algorithm = draw(st.sampled_from(list(AlgorithmKind)))
    specs = {}
    for p in default_space(algorithm).params:
        if draw(st.booleans()):
            continue
        if p.kind == "cat":
            values = st.sampled_from(p.values + ("foreign", "other"))
            specs[p.name] = {"kind": "categorical",
                             "values": draw(st.lists(values, unique=True, max_size=4))}
            continue
        width = p.hi - p.lo
        if p.kind == "int":
            # a file may write an integer bound as a float
            bound = st.integers(int(p.lo - width), int(p.hi + width))
            bound = bound | bound.map(float)
        else:
            bound = st.floats(p.lo - width, p.hi + width)
        lo, hi = sorted((draw(bound), draw(bound)))
        specs[p.name] = {"kind": "numeric", "lo": lo, "hi": hi}
    return {"dataset": "d.csv", "p": 100, "f": 3, "protected": "g", "L": 0.5,
            "algorithm": algorithm.value, "components": ["none"], "params": specs}


def survives(spec, declared):
    if spec["kind"] == "categorical":
        return bool(set(spec["values"]) & set(declared.values))
    return max(spec["lo"], declared.lo) <= min(spec["hi"], declared.hi)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(file_entries(), min_size=1, max_size=4))
def test_load_never_widens_the_default_space(rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("db") / "db.json"
    path.write_text(json.dumps({"version": "fairfix-db/1", "entries": rows}))
    spaces = [default_space(AlgorithmKind(row["algorithm"])) for row in rows]
    bad = [
        i for i, (row, space) in enumerate(zip(rows, spaces))
        if not all(survives(spec, space.param(name))
                   for name, spec in row["params"].items())
    ]
    if bad:
        # a disjoint range or an empty value set names its entry
        with pytest.raises(MalformedEntry) as info:
            load(path)
        assert info.value.index == bad[0]
        return
    for e, space in zip(load(path).entries, spaces):
        for p, declared in zip(e.space().params, space.params):
            assert (p.name, p.kind, p.scale) == (declared.name, declared.kind, declared.scale)
            if p.kind == "cat":
                assert set(p.values) <= set(declared.values)
            else:
                assert declared.contains(p.lo) and declared.contains(p.hi)
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = decode_config(sample(e.space(), rng), e.space())
            assert all(d.contains(cfg.params[d.name]) for d in space.params)


def test_load_rejects_a_foreign_param_name(tmp_path):
    db = json.loads(two_entry_db().to_json())
    db["entries"][1]["params"]["depth"] = {"kind": "numeric", "lo": 1, "hi": 2}
    path = tmp_path / "db.json"
    path.write_text(json.dumps(db))
    with pytest.raises(MalformedEntry) as info:
        load(path)
    assert info.value.index == 1


# ---------------------------------------------------------------------------
# matching


def test_match_prefers_nearest_dataset():
    db = two_entry_db()
    got = match_input(db, DataCharacteristics(p=900, f=12), 0.3,
                      AlgorithmKind.DECISION_TREE)
    assert got is db.entries[0]  # L1 distance 102 vs 408


def test_match_exact_characteristics():
    db = two_entry_db()
    got = match_input(db, DataCharacteristics(p=500, f=20), 0.1, AlgorithmKind.KNN)
    assert got is db.entries[1]


def test_match_algorithm_mismatch_returns_none():
    db = two_entry_db()
    assert match_input(db, DataCharacteristics(p=1000, f=10), 0.3,
                       AlgorithmKind.GRADIENT_BOOSTING) is None
    assert match_input(Database(), DataCharacteristics(p=10, f=2), 0.3,
                       AlgorithmKind.KNN) is None


def test_match_picks_closest_lower_bound_then_earliest():
    shared = dict(dataset="c.csv", p=50, f=4)
    e1 = entry(**shared, protected="sex", L=0.20, algorithm=AlgorithmKind.KNN)
    e2 = entry(**shared, protected="race", L=0.50, algorithm=AlgorithmKind.KNN)
    e3 = entry(**shared, protected="age", L=0.50, algorithm=AlgorithmKind.KNN)
    db = Database(entries=(e1, e2, e3))
    got = match_input(db, DataCharacteristics(p=50, f=4), 0.52, AlgorithmKind.KNN)
    assert got is e2  # 0.50 beats 0.20; tie between race/age -> earliest
    got = match_input(db, DataCharacteristics(p=50, f=4), 0.21, AlgorithmKind.KNN)
    assert got is e1


def test_match_attribute_chosen_before_algorithm_filter():
    shared = dict(dataset="c.csv", p=50, f=4)
    near = entry(**shared, protected="sex", L=0.30, algorithm=AlgorithmKind.KNN)
    far = entry(**shared, protected="race", L=0.80, algorithm=AlgorithmKind.DECISION_TREE)
    db = Database(entries=(near, far))
    # nearest-L attribute is "sex", which has no dtree entry: no match at all
    assert match_input(db, DataCharacteristics(p=50, f=4), 0.31,
                       AlgorithmKind.DECISION_TREE) is None


def test_match_agrees_with_exhaustive_scan():
    rng = np.random.default_rng(3)
    entries = []
    for i in range(30):
        entries.append(entry(dataset=f"d{i % 7}", p=int(rng.integers(50, 2000)),
                             f=int(rng.integers(2, 40)), protected=f"a{i % 3}",
                             L=float(rng.uniform(0, 0.9)),
                             algorithm=list(AlgorithmKind)[i % 5]))
    db = Database(entries=tuple(entries))
    for _ in range(100):
        chars = DataCharacteristics(p=int(rng.integers(50, 2000)),
                                    f=int(rng.integers(2, 40)))
        got = match_input(db, chars, 0.4, AlgorithmKind.KNN)
        best = min(abs(e.p - chars.p) + abs(e.f - chars.f) for e in entries)
        if got is not None:
            # the chosen dataset (not necessarily the chosen entry) must
            # minimize the L1 distance over the whole database
            dataset_best = min(
                abs(e.p - chars.p) + abs(e.f - chars.f)
                for e in entries if e.dataset == got.dataset
            )
            assert dataset_best == best


def three_pass_match(db, chars, L, algorithm):
    """match_input as three explicit passes, each strict `<` keeping the
    earliest of tied entries: the oracle for its `min` form."""
    if not db.entries:
        return None
    best_dataset = best_dist = None
    for e in db.entries:
        d = abs(e.p - chars.p) + abs(e.f - chars.f)
        if best_dist is None or d < best_dist:
            best_dataset, best_dist = e.dataset, d
    candidates = [e for e in db.entries if e.dataset == best_dataset]
    best_attr = best_gap = None
    for e in candidates:
        gap = abs(e.L - L)
        if best_gap is None or gap < best_gap:
            best_attr, best_gap = e.protected, gap
    for e in candidates:
        if e.protected == best_attr and e.algorithm is algorithm:
            return e
    return None


def test_match_equals_the_three_pass_scan_under_ties():
    # few distinct characteristics and bounds, so distances and gaps tie
    # often; a dataset name recurs at other characteristics
    rng = np.random.default_rng(11)
    algorithms = list(AlgorithmKind)[:3]
    matched = 0
    for _ in range(200):
        entries = tuple(
            entry(dataset=f"d{rng.integers(3)}", p=int(rng.integers(1, 4)) * 10,
                  f=int(rng.integers(1, 4)), protected=f"a{rng.integers(3)}",
                  L=float(rng.choice([0.1, 0.3, 0.5])),
                  algorithm=algorithms[rng.integers(3)])
            for _ in range(rng.integers(0, 12))
        )
        db = Database(entries=entries)
        for _ in range(5):
            chars = DataCharacteristics(p=int(rng.integers(0, 5)) * 10, f=int(rng.integers(0, 5)))
            L = float(rng.choice([0.0, 0.2, 0.3, 0.4]))
            for algorithm in algorithms:
                got = match_input(db, chars, L, algorithm)
                assert got is three_pass_match(db, chars, L, algorithm)
                matched += got is not None
    assert matched > 500  # the cases exercise matches, not only misses


# ---------------------------------------------------------------------------
# building


def test_build_entry_single_run_contains_best_config():
    ds = biased_dataset(rows=500, seed=3)
    bcfg = BuildConfig(runs=1, trials=12, top_k=1, top_m=1)
    e = build_entry(ds, "synth.csv", "group", AlgorithmKind.DECISION_TREE,
                    bcfg, seed=10)
    assert e.dataset == "synth.csv"
    assert (e.p, e.f) == characteristics(ds)
    assert len(e.components) == 1
    # with one run and k=1, every range collapses onto the single winner
    from fairfix.repair_core import RepairConfig, repair

    run_seed = int(np.random.SeedSequence(10).generate_state(1)[0])
    res = repair(ds, AlgorithmKind.DECISION_TREE,
                 RepairConfig(metric=MetricKind.SPD, trials=12, seed=run_seed))
    winner = smbo.best(res.log, res.state.beta)
    assert e.components == (winner.config.component,)
    assert e.L == res.state.L
    for name, pd in e.params.items():
        v = winner.config.params[name]
        if pd.kind == "cat":
            assert pd.values == (v,)
        else:
            assert pd.lo == pd.hi == v


def test_build_entry_aggregates_runs(tmp_path):
    ds = biased_dataset(rows=400, seed=8)
    bcfg = BuildConfig(runs=2, trials=10, top_k=5, top_m=3)
    e = build_entry(ds, "synth.csv", "group", AlgorithmKind.DECISION_TREE,
                    bcfg, seed=4)
    assert 1 <= len(e.components) <= 3
    space = e.space()
    rng = np.random.default_rng(0)
    for _ in range(100):
        cfg = decode_config(sample(space, rng), space)
        for p in space.params:
            assert p.contains(cfg.params[p.name])
    # entries built this way survive a save/load round trip unchanged
    db = Database(provenance=bcfg.provenance(4), entries=(e,))
    path = tmp_path / "db.json"
    save(db, path)
    assert load(path) == db
    assert load(path).to_json() == path.read_text()
