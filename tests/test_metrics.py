"""Metric tests against an independent brute-force counting oracle.

The oracle below is deliberately written with plain Python loops and no shared
code with the library, so agreement is meaningful.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairfix.metrics import (
    DEFAULT_DI_CAP,
    GroupCounts,
    LengthMismatch,
    MetricKind,
    NonPositiveDI,
    RateSentinel,
    UndefinedRate,
    _as_binary,
    accuracy,
    bias_score,
    bias_value,
    group_counts,
    raw_metric,
)


# ---------------------------------------------------------------------------
# oracle: counts with if-statements only


def oracle_accuracy(y, yhat):
    hits = 0
    for a, b in zip(y, yhat):
        if a == b:
            hits += 1
    return hits / len(y)


def oracle_rate(y, yhat, z, group):
    sel = tot = 0
    for i in range(len(y)):
        if z[i] == group:
            tot += 1
            if yhat[i] == 1:
                sel += 1
    return sel, tot


def oracle_tpr(y, yhat, z, group):
    tp = pos = 0
    for i in range(len(y)):
        if z[i] == group and y[i] == 1:
            pos += 1
            if yhat[i] == 1:
                tp += 1
    return (tp, pos)


def oracle_fpr(y, yhat, z, group):
    fp = neg = 0
    for i in range(len(y)):
        if z[i] == group and y[i] == 0:
            neg += 1
            if yhat[i] == 1:
                fp += 1
    return (fp, neg)


def oracle_raw(kind, y, yhat, z):
    """Returns a float, a RateSentinel, or the string 'undefined'."""
    s0, t0 = oracle_rate(y, yhat, z, 0)
    s1, t1 = oracle_rate(y, yhat, z, 1)
    r0, r1 = s0 / t0, s1 / t1
    if kind == MetricKind.DI:
        if r1 == 0 and r0 > 0:
            return RateSentinel.INFINITE_DI
        if r1 == 0 and r0 == 0:
            return RateSentinel.BOTH_RATES_ZERO
        return r0 / r1
    if kind == MetricKind.SPD:
        return r0 - r1
    tp0, p0 = oracle_tpr(y, yhat, z, 0)
    tp1, p1 = oracle_tpr(y, yhat, z, 1)
    fp0, n0 = oracle_fpr(y, yhat, z, 0)
    fp1, n1 = oracle_fpr(y, yhat, z, 1)
    if kind == MetricKind.EOD:
        if p0 == 0 or p1 == 0:
            return "undefined"
        return tp0 / p0 - tp1 / p1
    if kind == MetricKind.AOD:
        if p0 == 0 or p1 == 0 or n0 == 0 or n1 == 0:
            return "undefined"
        return 0.5 * (abs(fp0 / n0 - fp1 / n1) + abs(tp0 / p0 - tp1 / p1))
    raise AssertionError(kind)


def random_instance(rng, n):
    """Random (y, yhat, z) with both groups and both classes non-empty."""
    while True:
        y = rng.integers(0, 2, n)
        z = rng.integers(0, 2, n)
        if 0 < y.sum() < n and 0 < z.sum() < n:
            return y, rng.integers(0, 2, n), z


# ---------------------------------------------------------------------------
# frozen examples


def test_accuracy_examples():
    assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0
    assert accuracy([1, 0, 1, 0], [1, 1, 1, 1]) == 0.5
    assert accuracy([0], [1]) == 0.0


def test_accuracy_length_mismatch():
    with pytest.raises(LengthMismatch):
        accuracy([1, 0], [1])


def test_di_spd_eight_row_fixture():
    # rates: z=0 selects 2/4 = 0.5, z=1 selects 1/4 = 0.25
    z = [0, 0, 0, 0, 1, 1, 1, 1]
    yhat = [1, 1, 0, 0, 1, 0, 0, 0]
    y = [1, 0, 1, 0, 1, 0, 1, 0]
    c = group_counts(y, yhat, z)
    assert raw_metric(MetricKind.DI, c) == 2.0
    assert raw_metric(MetricKind.SPD, c) == 0.25


def test_eod_aod_hand_counted_fixture():
    y = [1, 1, 0, 0, 1, 1, 0, 0]
    z = [0, 0, 0, 0, 1, 1, 1, 1]
    yhat = [1, 0, 0, 0, 1, 1, 1, 0]
    c = group_counts(y, yhat, z)
    assert raw_metric(MetricKind.EOD, c) == -0.5
    assert raw_metric(MetricKind.AOD, c) == 0.5


def test_constant_prediction_is_unbiased():
    y = [1, 0, 1, 0]
    z = [0, 0, 1, 1]
    for yhat in ([1, 1, 1, 1], [0, 0, 0, 0]):
        for kind in MetricKind:
            assert bias_value(kind, y, yhat, z) == 0.0


def test_bias_score_examples():
    assert bias_score(MetricKind.DI, 2.0) == pytest.approx(
        0.6931471805599453, abs=1e-15
    )
    assert bias_score(MetricKind.DI, 1.0) == 0.0
    assert bias_score(MetricKind.SPD, -0.25) == 0.25
    assert bias_score(MetricKind.AOD, 0.125) == 0.125


def test_di_sentinels_and_cap():
    # z=1 never selected, z=0 selected: infinite ratio -> capped
    c = group_counts([1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1])
    raw = raw_metric(MetricKind.DI, c)
    assert raw is RateSentinel.INFINITE_DI
    assert bias_score(MetricKind.DI, raw) == DEFAULT_DI_CAP
    # nobody selected anywhere: 0/0 scores zero bias
    c = group_counts([1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 1, 1])
    raw = raw_metric(MetricKind.DI, c)
    assert raw is RateSentinel.BOTH_RATES_ZERO
    assert bias_score(MetricKind.DI, raw) == 0.0


def test_di_zero_ratio_rejected():
    # only the privileged group is selected: ratio is 0, log undefined
    c = group_counts([1, 0, 1, 0], [0, 0, 1, 1], [0, 0, 1, 1])
    raw = raw_metric(MetricKind.DI, c)
    assert raw == 0.0
    with pytest.raises(NonPositiveDI):
        bias_score(MetricKind.DI, raw)


def test_undefined_rate_for_empty_conditioning_set():
    # group z=0 has no positive labels: TPR_u undefined
    c = group_counts([0, 0, 1, 0], [1, 0, 1, 0], [0, 0, 1, 1])
    with pytest.raises(UndefinedRate):
        raw_metric(MetricKind.EOD, c)
    with pytest.raises(UndefinedRate):
        raw_metric(MetricKind.AOD, c)


def test_group_counts_cells_and_totals():
    y = [1, 1, 0, 0, 1]
    yhat = [1, 0, 0, 1, 1]
    z = [0, 0, 0, 1, 1]
    c = group_counts(y, yhat, z)
    assert c.group_total(0) == 3
    assert c.group_total(1) == 2
    assert c.cells[0, 1, 1] == 1  # z=0, y=1, yhat=1
    assert c.cells[1, 0, 1] == 1  # z=1, y=0, yhat=1
    assert int(c.cells.sum()) == 5


def test_metric_kind_serialization():
    assert [k.value for k in MetricKind] == ["di", "spd", "eod", "aod"]
    assert MetricKind("eod") is MetricKind.EOD


# ---------------------------------------------------------------------------
# oracle equivalence and properties (seeded sweeps)


def test_oracle_equivalence_sweep():
    rng = np.random.default_rng(20240811)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        y, yhat, z = random_instance(rng, n)
        assert accuracy(y, yhat) == pytest.approx(oracle_accuracy(y, yhat), abs=1e-12)
        c = group_counts(y, yhat, z)
        for kind in MetricKind:
            expected = oracle_raw(kind, y, yhat, z)
            if expected == "undefined":
                with pytest.raises(UndefinedRate):
                    raw_metric(kind, c)
            elif isinstance(expected, RateSentinel):
                assert raw_metric(kind, c) is expected
            else:
                assert raw_metric(kind, c) == pytest.approx(expected, abs=1e-12)


def test_group_swap_leaves_bias_scores_unchanged():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(4, 40))
        y, yhat, z = random_instance(rng, n)
        c = group_counts(y, yhat, z)
        cs = group_counts(y, yhat, 1 - z)
        raw_spd = raw_metric(MetricKind.SPD, c)
        assert raw_metric(MetricKind.SPD, cs) == pytest.approx(-raw_spd, abs=1e-12)
        di, di_s = raw_metric(MetricKind.DI, c), raw_metric(MetricKind.DI, cs)
        if isinstance(di, float) and isinstance(di_s, float) and di > 0 and di_s > 0:
            assert di_s == pytest.approx(1.0 / di, abs=1e-12)
            assert bias_score(MetricKind.DI, di) == pytest.approx(
                bias_score(MetricKind.DI, di_s), abs=1e-12
            )
        for kind in (MetricKind.SPD, MetricKind.EOD, MetricKind.AOD):
            try:
                a = bias_score(kind, raw_metric(kind, c))
                b = bias_score(kind, raw_metric(kind, cs))
            except UndefinedRate:
                continue
            assert a == pytest.approx(b, abs=1e-12)


def test_raw_ranges():
    rng = np.random.default_rng(99)
    for _ in range(300):
        y, yhat, z = random_instance(rng, int(rng.integers(4, 40)))
        c = group_counts(y, yhat, z)
        assert -1.0 <= raw_metric(MetricKind.SPD, c) <= 1.0
        try:
            assert -1.0 <= raw_metric(MetricKind.EOD, c) <= 1.0
            assert 0.0 <= raw_metric(MetricKind.AOD, c) <= 1.0
        except UndefinedRate:
            pass
        assert 0.0 <= accuracy(y, yhat) <= 1.0


def test_bias_score_type_and_sign():
    rng = np.random.default_rng(3)
    for _ in range(200):
        y, yhat, z = random_instance(rng, int(rng.integers(4, 40)))
        for kind in MetricKind:
            try:
                s = bias_score(kind, raw_metric(kind, group_counts(y, yhat, z)))
            except (UndefinedRate, NonPositiveDI):
                continue
            assert isinstance(s, float)
            assert s >= 0.0


# ---------------------------------------------------------------------------
# group_counts against np.add.at, and the binary-input check


def add_at_counts(y, yhat, z):
    cells = np.zeros((2, 2, 2), dtype=np.int64)
    np.add.at(cells, (np.asarray(z), np.asarray(y), np.asarray(yhat)), 1)
    return cells


def isin_as_binary(v, name):
    a = np.asarray(v, dtype=np.int64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-d")
    if a.size and not np.isin(a, (0, 1)).all():
        raise ValueError(f"{name} must be binary")
    return a


@st.composite
def binary_triples(draw):
    n = draw(st.integers(1, 60))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return draw(bits), draw(bits), draw(bits)


@settings(max_examples=300, deadline=None)
@given(binary_triples())
def test_group_counts_matches_add_at_oracle(triple):
    y, yhat, z = triple
    expected = add_at_counts(y, yhat, z)
    if expected[0].sum() == 0 or expected[1].sum() == 0:
        with pytest.raises(ValueError, match="is empty"):
            group_counts(y, yhat, z)
        return
    got = group_counts(y, yhat, z).cells
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-3, 3), max_size=12),
        st.lists(st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, 1.5]), max_size=12),
        st.lists(st.booleans(), max_size=12),
    )
)
def test_binary_check_accepts_and_rejects_like_isin(values):
    try:
        expected = isin_as_binary(values, "yhat")
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            _as_binary(values, "yhat")
        assert str(info.value) == str(exc)
        return
    assert np.array_equal(_as_binary(values, "yhat"), expected)


def test_non_binary_input_error_is_unchanged():
    with pytest.raises(ValueError, match="^z must be binary$"):
        group_counts([0, 1, 1], [1, 0, 1], [0, 2, 1])
    with pytest.raises(ValueError, match="^y must be 1-d$"):
        group_counts([[0, 1]], [1, 0], [0, 1])
