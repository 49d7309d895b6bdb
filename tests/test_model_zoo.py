"""Spaces, sampling, native classifiers, and component behavior."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairfix.model_zoo import (
    AlgorithmKind,
    ComponentKind,
    NumericOverflow,
    ParamDef,
    PipelineConfig,
    decode_config,
    default_config,
    default_space,
    predict,
    sample,
    top_k_count,
    train,
)
from fairfix.model_zoo._components import fit_component
from fairfix.model_zoo._neighbors import KNNModel
from fairfix.tabular import Dataset, Layout, encode, round_half_up


def float_ds(rows, y, z):
    cells = np.array([[repr(float(v)) for v in row] for row in rows], dtype=object)
    names = tuple(f"x{i}" for i in range(cells.shape[1]))
    return Dataset(names, cells, np.array(y), np.array(z), {"source": "test"})


def random_ds(n, f, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, f))
    y = (rows[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(int)
    z = rng.integers(0, 2, n)
    y[:4] = [0, 1, 0, 1]
    z[:4] = [0, 0, 1, 1]
    return float_ds(rows, y, z)


# ---------------------------------------------------------------------------
# spaces


def test_space_shapes():
    assert len(default_space(AlgorithmKind.KNN).params) == 2
    for a in AlgorithmKind:
        space = default_space(a)
        assert space.components == tuple(ComponentKind)
        for p in space.params:
            if p.kind in ("int", "real"):
                assert p.lo < p.hi
                if p.scale == "log":
                    assert p.lo > 0


def test_default_configs_frozen():
    lr = default_config(AlgorithmKind.LOGISTIC_REGRESSION)
    assert lr.component is ComponentKind.NONE
    assert lr.params == {"learning_rate": 0.01, "l2": 0.001, "epochs": 160}
    dt = default_config(AlgorithmKind.DECISION_TREE)
    assert dt.params == {"max_depth": 16, "min_leaf": 6, "criterion": "gini"}
    rf = default_config(AlgorithmKind.RANDOM_FOREST)
    assert rf.params == {
        "trees": 64,
        "max_depth": 16,
        "max_features": "sqrt",
        "min_leaf": 6,
        "bootstrap": "true",
    }
    gb = default_config(AlgorithmKind.GRADIENT_BOOSTING)
    assert gb.params["stages"] == 77
    assert gb.params["learning_rate"] == pytest.approx(math.sqrt(0.005), abs=0)
    assert gb.params["max_depth"] == 5
    assert gb.params["subsample"] == 0.75
    knn = default_config(AlgorithmKind.KNN)
    assert knn.params == {"k": 26, "weights": "uniform"}


def test_sampling_in_domain():
    rng = np.random.default_rng(11)
    for a in AlgorithmKind:
        space = default_space(a)
        for _ in range(1000):
            cfg = decode_config(sample(space, rng), space)
            assert cfg.component in space.components
            for p in space.params:
                assert p.contains(cfg.params[p.name]), (a, p.name, cfg.params[p.name])


@pytest.mark.parametrize("algorithm", list(AlgorithmKind))
def test_configs_are_equal_exactly_when_their_json_is_and_equal_ones_hash_alike(algorithm):
    # a repair keys each trial's outcome by its config: == and hash must
    # agree with the canonical JSON that names a config in logs and reports
    space = default_space(algorithm)
    rng = np.random.default_rng(5)
    configs = [decode_config(sample(space, rng), space) for _ in range(200)]
    # the same configs with their params in the other order
    configs += [PipelineConfig(c.algorithm, c.component, dict(reversed(c.params.items())))
                for c in configs[:50]]
    keys = [json.dumps(c.to_dict(), sort_keys=True) for c in configs]
    equal = 0
    for a, key_a in zip(configs, keys):
        for b, key_b in zip(configs, keys):
            assert (a == b) == (key_a == key_b)
            if a == b:
                assert hash(a) == hash(b)
                equal += 1
    assert equal >= len(configs) + 2 * 50


def test_sampling_deterministic():
    space = default_space(AlgorithmKind.RANDOM_FOREST)
    a = [sample(space, np.random.default_rng(5)) for _ in range(3)]
    assert a[0] == a[1] == a[2]


def direct_draw(p, rng):
    """How a numeric was drawn before a draw became a coordinate, clamped
    into [lo, hi]: on a log range a few ulps wide, exp(log(...)) rounding
    can land just past an end."""
    if p.lo == p.hi:
        return int(p.lo) if p.kind == "int" else float(p.lo)
    if p.scale == "log":
        v = math.exp(rng.uniform(math.log(p.lo), math.log(p.hi)))
    else:
        v = rng.uniform(p.lo, p.hi)
    if p.kind == "int":
        return int(min(max(round_half_up(v), int(p.lo)), int(p.hi)))
    return float(min(max(v, p.lo), p.hi))


NUMERIC_PARAMS = [
    p for a in AlgorithmKind for p in default_space(a).params if p.kind != "cat"
]


@st.composite
def narrowed_numerics(draw):
    p = draw(st.sampled_from(NUMERIC_PARAMS))
    if p.kind == "int":
        bound = st.integers(int(p.lo), int(p.hi))
    else:
        bound = st.floats(p.lo, p.hi)
    lo, hi = sorted((draw(bound), draw(bound)))
    return p.narrowed(lo=lo, hi=draw(st.sampled_from([lo, hi])))


@settings(max_examples=300, deadline=None)
@given(p=narrowed_numerics() | st.sampled_from(NUMERIC_PARAMS),
       seed=st.integers(0, 2**32 - 1))
@example(p=ParamDef("learning_rate", "real", 1e-4, 1.0000000000000002e-4, "log"), seed=0)
def test_sample_matches_the_direct_draw(p, seed):
    # decode(draw()) is decode(u) for one uniform u: the same values, bit
    # for bit and of the same type, and the same generator state afterwards
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(200):
        v, w = p.decode(p.draw(a)), direct_draw(p, b)
        assert v == w and type(v) is type(w)
        assert p.contains(v)
    assert a.bit_generator.state == b.bit_generator.state


def test_narrowed_keeps_what_the_declared_param_holds():
    dtree = default_space(AlgorithmKind.DECISION_TREE)
    depth, crit = dtree.param("max_depth"), dtree.param("criterion")
    assert depth.narrowed(lo=4.0, hi=99) == ParamDef("max_depth", "int", 4, 30)
    assert type(depth.narrowed(lo=4.0, hi=9.0).hi) is int
    assert depth.narrowed(lo=-5, hi=2) == ParamDef("max_depth", "int", 2, 2)
    assert crit.narrowed(values=["x", "entropy", "gini"]).values == ("gini", "entropy")
    lr = default_space(AlgorithmKind.LOGISTIC_REGRESSION).param("learning_rate")
    assert lr.narrowed(lo=0.0, hi=0.5) == ParamDef("learning_rate", "real", 1e-4, 0.5, "log")
    for cut in [dict(lo=31, hi=40), dict(lo=0, hi=1), dict(values=[3])]:
        with pytest.raises(ValueError):
            depth.narrowed(**cut)  # disjoint, or not a range
    for cut in [dict(values=["x"]), dict(values=[]), dict(lo=0, hi=1)]:
        with pytest.raises(ValueError):
            crit.narrowed(**cut)  # nothing left, or not a value set


def test_pinned_and_point_wide_ranges_encode_to_zero():
    tiny = ParamDef("l2", "real", 1e-4, 1.0000000000000002e-4, "log")
    assert tiny.encode(1e-4) == 0.0
    assert tiny.lo <= tiny.decode(0.7) <= tiny.hi
    for p in NUMERIC_PARAMS:
        pinned = p.narrowed(lo=p.hi, hi=p.hi)
        assert pinned.encode(pinned.lo) == 0.0
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert pinned.draw(rng) == 0.0 and rng.bit_generator.state == state
        assert pinned.decode(0.3) == pinned.decode(0.0) == p.hi


def test_a_draw_is_a_row_of_coordinates():
    space = default_space(AlgorithmKind.RANDOM_FOREST)
    rng = np.random.default_rng(4)
    for _ in range(200):
        row = sample(space, rng)
        assert len(row) == 1 + len(space.params)
        assert all(type(x) is float for x in row)
        for x, p in zip(row[1:], space.params):
            if p.kind == "cat":
                assert x in range(len(p.values))
            else:
                assert 0.0 <= x < 1.0
        assert row[0] in range(len(space.components))


def test_log_param_median_near_geometric_midpoint():
    space = default_space(AlgorithmKind.RANDOM_FOREST)
    rng = np.random.default_rng(2)
    draws = [
        decode_config(sample(space, rng), space).params["trees"] for _ in range(10_000)
    ]
    med = float(np.median(draws))
    assert 64 / 1.3 <= med <= 64 * 1.3


def test_categorical_sampling_uniform():
    space = default_space(AlgorithmKind.DECISION_TREE)
    rng = np.random.default_rng(3)
    n = 10_000
    gini = sum(
        decode_config(sample(space, rng), space).params["criterion"] == "gini"
        for _ in range(n)
    )
    # binomial(n, 1/2): 5 sigma band
    assert abs(gini - n / 2) <= 5 * math.sqrt(n * 0.25)


# ---------------------------------------------------------------------------
# training behavior


def test_logistic_separable_two_points():
    ds = float_ds([[-1.0], [1.0]], [0, 1], [0, 1])
    cfg = PipelineConfig(
        AlgorithmKind.LOGISTIC_REGRESSION,
        ComponentKind.NONE,
        {"learning_rate": 0.5, "l2": 1e-6, "epochs": 300},
    )
    fm = encode(ds)
    assert predict(train(cfg, fm, seed=0), fm).tolist() == [0, 1]


def test_decision_tree_depth1_cannot_solve_xor():
    ds = float_ds([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0], [0, 1, 0, 1])
    cfg = PipelineConfig(
        AlgorithmKind.DECISION_TREE,
        ComponentKind.NONE,
        {"max_depth": 1, "min_leaf": 1, "criterion": "gini"},
    )
    fm = encode(ds)
    acc = (predict(train(cfg, fm, seed=0), fm) == ds.y).mean()
    assert acc <= 0.75


def test_train_predict_bitwise_determinism():
    fm = encode(random_ds(120, 4, seed=0))
    probe = encode(random_ds(40, 4, seed=1), fm.encoder)
    for a in AlgorithmKind:
        cfg = default_config(a)
        p1 = predict(train(cfg, fm, seed=42), probe)
        p2 = predict(train(cfg, fm, seed=42), probe)
        assert p1.tobytes() == p2.tobytes(), a


def mixed_ds(n, seed):
    """Two numeric columns and one categorical column."""
    rng = np.random.default_rng(seed)
    base = random_ds(n, 2, seed)
    city = rng.choice(["york", "leeds", "paris", "oslo"], n)
    cells = np.column_stack([base.cells, city.astype(object)])
    return Dataset(("x0", "x1", "city"), cells, base.y, base.z, {"source": "test"})


@pytest.mark.parametrize("component", list(ComponentKind))
@pytest.mark.parametrize("algorithm", list(AlgorithmKind))
def test_encoded_fits_predict_int8_and_repeat_bit_for_bit(algorithm, component):
    cfg = PipelineConfig(algorithm, component, default_config(algorithm).params)
    fm = encode(mixed_ds(150, seed=3))
    assert fm.layout.fill().shape[1] > 3  # the categorical column was one-hot encoded
    val_fm = encode(mixed_ds(60, seed=4), fm.encoder)
    first = predict(train(cfg, fm, seed=5), val_fm)
    again = predict(train(cfg, fm, seed=5), val_fm)
    assert first.dtype == again.dtype == np.int8
    assert first.tobytes() == again.tobytes()


def test_predict_rejects_a_matrix_from_another_encoder():
    fm = encode(mixed_ds(150, seed=3))
    fp = train(default_config(AlgorithmKind.LOGISTIC_REGRESSION), fm, seed=5)
    # fitted on other rows, the encoder keeps the city values in another order
    other = encode(mixed_ds(150, seed=8))
    assert other.encoder != fp.encoder
    assert other.layout.fill().shape == fm.layout.fill().shape
    with pytest.raises(ValueError, match="encoder"):
        predict(fp, other)
    probe = mixed_ds(40, seed=8)
    ours = encode(probe, encode(mixed_ds(150, seed=3)).encoder)  # equal encoder
    expected = predict(fp, encode(probe, fm.encoder))
    assert predict(fp, ours).tobytes() == expected.tobytes()


def test_knn_k1_reproduces_training_labels():
    ds = random_ds(60, 3, seed=5)
    cfg = PipelineConfig(
        AlgorithmKind.KNN, ComponentKind.NONE, {"k": 1, "weights": "uniform"}
    )
    fm = encode(ds)
    assert predict(train(cfg, fm, seed=0), fm).tolist() == ds.y.tolist()


def test_knn_predict_stays_within_its_block_footprint():
    """`_neighbors._BLOCK_VALUES` states predict's peak beyond its filled
    matrices: under 30 MB however many query rows. A numeric layout fills
    to its own matrix, so everything traced is predict's."""
    rng = np.random.default_rng(0)
    train_layout = Layout(rng.normal(size=(30_000, 4)))
    query = Layout(rng.normal(size=(300, 4)))
    model = KNNModel(5, "uniform").fit(train_layout, rng.integers(0, 2, 30_000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.predict(query)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_unseen_category_row_still_predicts():
    cells = np.array(
        [["a"], ["b"], ["a"], ["b"]], dtype=object
    )
    ds = Dataset(("c",), cells, [0, 1, 0, 1], [0, 1, 1, 0], {"source": "t"})
    fp = train(default_config(AlgorithmKind.DECISION_TREE), encode(ds), seed=0)
    probe = Dataset(
        ("c",),
        np.array([["zzz"]], dtype=object),
        [1],
        [0],
        {"source": "t"},
        allow_degenerate=True,
    )
    out = predict(fp, encode(probe, fp.encoder))
    assert out.shape == (1,) and out[0] in (0, 1)


def test_overflow_reports_failed_trial_not_crash():
    ds = float_ds([[1e200], [-1e200], [1e200], [-1e200]], [1, 0, 1, 0], [0, 1, 1, 0])
    cfg = PipelineConfig(
        AlgorithmKind.LOGISTIC_REGRESSION,
        ComponentKind.NONE,
        {"learning_rate": 1.0, "l2": 1e-6, "epochs": 50},
    )
    with pytest.raises(NumericOverflow):
        train(cfg, encode(ds), seed=0)


# ---------------------------------------------------------------------------
# capacity never hurts training fit (three fixed fixtures)


def training_error(cfg, ds):
    fm = encode(ds)
    return float((predict(train(cfg, fm, seed=7), fm) != ds.y).mean())


def test_tree_depth_monotone_training_error():
    ds = random_ds(80, 3, seed=11)
    errs = []
    for depth in (2, 4, 8, 16, 30):
        cfg = PipelineConfig(
            AlgorithmKind.DECISION_TREE,
            ComponentKind.NONE,
            {"max_depth": depth, "min_leaf": 1, "criterion": "entropy"},
        )
        errs.append(training_error(cfg, ds))
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-9


def test_forest_trees_monotone_training_error():
    # bootstrap off and all features: extra trees are copies, so training
    # error cannot rise
    ds = random_ds(80, 3, seed=12)
    errs = []
    for trees in (16, 64, 256):
        cfg = PipelineConfig(
            AlgorithmKind.RANDOM_FOREST,
            ComponentKind.NONE,
            {
                "trees": trees,
                "max_depth": 10,
                "max_features": "all",
                "min_leaf": 1,
                "bootstrap": "false",
            },
        )
        errs.append(training_error(cfg, ds))
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-9


def test_boosting_stages_monotone_training_loss():
    ds = random_ds(80, 3, seed=13)
    from fairfix.model_zoo import FittedPipeline  # noqa: F401

    losses = []
    for stages in (20, 60, 120, 200):
        cfg = PipelineConfig(
            AlgorithmKind.GRADIENT_BOOSTING,
            ComponentKind.NONE,
            {
                "stages": stages,
                "learning_rate": 0.1,
                "max_depth": 2,
                "subsample": 1.0,
            },
        )
        fm = encode(ds)
        fp = train(cfg, fm, seed=7)
        X = fp.component.apply(fm.layout).fill()
        margin = fp.model.decision_function(X)
        y = ds.y.astype(float)
        p = 1.0 / (1.0 + np.exp(-np.clip(margin, -500, 500)))
        p = np.clip(p, 1e-12, 1 - 1e-12)
        losses.append(float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()))
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-9


# ---------------------------------------------------------------------------
# components


def test_rebalance_duplicates_minority_training_rows_only():
    X = np.arange(20.0).reshape(10, 2)
    y = np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    fc, X2, y2 = fit_component(ComponentKind.REBALANCE, Layout(X), y, f_pre=2)
    assert (y2 == 1).sum() == (y2 == 0).sum() == 9
    # appended rows are copies of the single minority row
    assert (X2.fill()[10:] == X[0]).all()
    # inference path never resamples
    Xv = Layout(np.ones((4, 2)))
    assert fc.apply(Xv) is Xv


def test_variance_topk_rule_and_selection():
    assert top_k_count(2) == 2
    assert top_k_count(5) == 3
    assert top_k_count(12) == 6
    rng = np.random.default_rng(0)
    X = np.hstack(
        [
            rng.normal(0, 0.1, (50, 1)),
            rng.normal(0, 10.0, (50, 1)),
            rng.normal(0, 1.0, (50, 1)),
            rng.normal(0, 5.0, (50, 1)),
        ]
    )
    fc, X2, _ = fit_component(
        ComponentKind.VARIANCE_TOPK, Layout(X), np.zeros(50), f_pre=4
    )
    assert fc.keep.tolist() == [1, 3]  # two highest-variance columns, in order
    assert X2.shape == (50, 2)


def test_standardize_and_minmax_fit_train_only():
    X = np.array([[0.0, 1.0], [10.0, 1.0]])
    fc, X2, _ = fit_component(ComponentKind.STANDARDIZE, Layout(X), np.array([0, 1]), 2)
    assert X2.fill()[:, 0].mean() == pytest.approx(0.0)
    assert X2.fill()[:, 1].tolist() == [0.0, 0.0]  # zero-spread column left finite
    fc2, X3, _ = fit_component(ComponentKind.MINMAX, Layout(X), np.array([0, 1]), 2)
    assert X3.fill()[:, 0].tolist() == [0.0, 1.0]
    # validation transformed with training statistics
    out = fc2.apply(Layout(np.array([[5.0, 1.0]])))
    assert out.fill().tolist() == [[0.5, 0.0]]


@pytest.mark.parametrize("kind", [ComponentKind.STANDARDIZE, ComponentKind.MINMAX])
def test_affine_apply_bytes_equal_the_two_temporary_expression(kind):
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1e3, (200, 6))
    X[:, 5] = 7.0  # zero spread: scale 1.0
    fc, X_train, _ = fit_component(kind, Layout(X), np.zeros(200), f_pre=6)
    assert X_train.fill().tobytes() == ((X - fc.shift) / fc.scale).tobytes()
    V = rng.normal(0, 1e3, (50, 6))
    V[0, :4] = [np.nan, np.inf, -np.inf, -0.0]
    V[1, :2] = [1e308, -1e308]
    with np.errstate(invalid="ignore", over="ignore"):
        out = fc.apply(Layout(V)).fill()
        expected = (V - fc.shift) / fc.scale
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert out.tobytes() == expected.tobytes()
    assert not np.shares_memory(out, V)
