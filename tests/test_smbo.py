"""Optimizer loop, surrogate suggestions, encoding, and trial selection."""

import functools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_smbo as ref
from fairfix import smbo
from fairfix.metrics import UndefinedRate
from fairfix.model_zoo import (
    AlgorithmKind,
    ComponentKind,
    HyperparameterSpace,
    ParamDef,
    decode_config,
    default_space,
    encode_config,
    sample,
    sample_rows,
    space_default,
)
from fairfix.model_zoo import _spaces
from fairfix.model_zoo._trees import RegressionTree
from fairfix.prune_db import DatabaseEntry
from fairfix.smbo import (
    BudgetExhaustedNoTrials,
    NoSuccessfulTrial,
    TrialLog,
    TrialRecord,
    _expected_improvement,
    _suggest_tagged,
    best,
    ranking,
    run,
)


def draw_config(space, rng):
    return decode_config(sample(space, rng), space)


def fixture_space():
    return HyperparameterSpace(
        AlgorithmKind.LOGISTIC_REGRESSION,
        (ParamDef("x", "real", 0.0, 1.0),),
        (ComponentKind.NONE,),
    )


def parabola(cfg):
    # minimum cost at x = 0.3 when scored at beta 0
    x = cfg.params["x"]
    return 1.0 - (x - 0.3) ** 2, 0.0


class FlakyObjective:
    def __call__(self, cfg):
        if cfg.params["x"] > 0.5:
            raise UndefinedRate("rigged failure")
        return 0.9, 0.1


@functools.lru_cache(maxsize=1)
def parabola_logs():
    space = fixture_space()
    return tuple(run(parabola, space, 60, seed) for seed in range(10))


# ---------------------------------------------------------------------------
# loop structure


def test_budget_one_runs_exactly_the_default():
    log = run(parabola, fixture_space(), 1, seed=0)
    assert len(log.records) == 1
    r = log.records[0]
    assert r.proposal == "default"
    assert r.config.params == {"x": 0.5}
    assert r.status == "ok"


def test_budget_below_one_rejected():
    with pytest.raises(BudgetExhaustedNoTrials):
        run(parabola, fixture_space(), 0, seed=0)


def test_proposal_phases():
    log = run(parabola, fixture_space(), 14, seed=1)
    tags = [r.proposal for r in log.records]
    assert tags[0] == "default"
    assert tags[1:11] == ["init"] * 10
    assert all(t in ("surrogate", "random") for t in tags[11:])


def test_indices_dense_and_ordered():
    log = run(parabola, fixture_space(), 25, seed=2)
    assert [r.index for r in log.records] == list(range(25))
    with pytest.raises(ValueError):
        log.append(log.records[0])


def test_convex_fixture_finds_minimum():
    hits = 0
    for log in parabola_logs():
        r = best(log, 0.0)
        hits += abs(r.config.params["x"] - 0.3) <= 0.05
    assert hits >= 9


def test_suggestions_concentrate_over_time():
    early, late = [], []
    for log in parabola_logs():
        xs = [r.config.params["x"] for r in log.records]
        early.extend(abs(x - 0.3) for x in xs[10:30])
        late.extend(abs(x - 0.3) for x in xs[40:60])
    assert np.mean(late) < np.mean(early)


def test_running_minimum_cost_non_increasing():
    for log in parabola_logs():
        beta = 0.25
        seen = None
        for r in log.ok_records():
            c = beta * r.bias + (1 - beta) * (1 - r.accuracy)
            seen = c if seen is None else min(seen, c)
            assert seen <= c


def test_same_seed_same_log_digest():
    a = run(parabola, fixture_space(), 30, seed=7)
    b = run(parabola, fixture_space(), 30, seed=7)
    assert a.digest() == b.digest()
    c = run(parabola, fixture_space(), 30, seed=8)
    assert a.digest() != c.digest()


class SlowParabola:
    """parabola, taking `delay` seconds per trial."""

    def __init__(self, delay):
        self.delay = delay

    def __call__(self, cfg):
        time.sleep(self.delay)
        return parabola(cfg)


def test_deadline_overruns_by_at_most_one_trial():
    stamps = []
    deadline = time.monotonic() + 1.0
    log = run(
        SlowParabola(0.1), fixture_space(), 200, seed=4,
        deadline=deadline, on_trial=lambda r: stamps.append(time.monotonic()),
    )
    n = len(log.records)
    assert time.monotonic() >= deadline
    assert n < 200  # stopped by the deadline
    # the run stops right after the trial during which the deadline passed
    assert all(t < deadline for t in stamps[: n - 1])
    # a deadline already past still lets the first trial run, and only it
    late = run(parabola, fixture_space(), 5, seed=4, deadline=time.monotonic())
    assert len(late.records) == 1


def test_beta_fn_prices_each_trial():
    log = run(parabola, fixture_space(), 3, seed=0, beta_fn=lambda: 0.4)
    for r in log.records:
        assert r.beta == 0.4
        assert r.cost == pytest.approx(0.4 * r.bias + 0.6 * (1 - r.accuracy))


def test_failed_trials_recorded_not_raised():
    seen = []
    log = run(FlakyObjective(), fixture_space(), 20, seed=5, on_trial=seen.append)
    assert len(seen) == 20
    failed = [r for r in log.records if r.status == "failed"]
    assert failed, "fixture should trip at least one failure"
    for r in failed:
        assert r.cost is None and r.accuracy is None and r.bias is None
        assert r.error.startswith("UndefinedRate")
    assert best(log, 0.5).config.params["x"] <= 0.5


def test_ndjson_matches_records():
    log = run(parabola, fixture_space(), 5, seed=6)
    rows = [json.loads(line) for line in log.to_ndjson().splitlines()]
    assert [row["index"] for row in rows] == [0, 1, 2, 3, 4]
    assert all(row["config"]["algorithm"] == "logreg" for row in rows)


# ---------------------------------------------------------------------------
# suggest


def test_suggest_falls_back_to_random_when_few_trials():
    space = fixture_space()
    log = TrialLog()
    cfg, tag = _suggest_tagged(log, space, np.random.default_rng(0))
    assert tag == "random"
    assert 0.0 <= cfg.params["x"] <= 1.0


def test_suggestions_stay_in_domain():
    space = default_space(AlgorithmKind.RANDOM_FOREST)
    rng = np.random.default_rng(9)
    log = TrialLog()
    for i in range(12):
        cfg = draw_config(space, rng)
        log.append(
            TrialRecord(i, cfg, 0.8, float(rng.uniform(0, 0.3)),
                        float(rng.uniform(0.1, 0.4)), 0.3, 0.0, "ok", "init")
        )
    for _ in range(200):
        cfg, _ = _suggest_tagged(log, space, rng)
        assert cfg.component in space.components
        for p in space.params:
            assert p.contains(cfg.params[p.name])


def test_suggest_ignores_records_outside_the_space():
    # a pruned space need not contain the configuration the log started from
    full = default_space(AlgorithmKind.DECISION_TREE)
    pruned = HyperparameterSpace(
        full.algorithm,
        tuple(
            ParamDef(p.name, "cat", values=("entropy",)) if p.name == "criterion" else p
            for p in full.params
        ),
        (ComponentKind.STANDARDIZE, ComponentKind.MINMAX),
    )
    rng = np.random.default_rng(3)
    log = TrialLog()
    foreign = draw_config(full, np.random.default_rng(0))
    foreign = type(foreign)(foreign.algorithm, ComponentKind.NONE,
                            dict(foreign.params, criterion="gini"))
    log.append(TrialRecord(0, foreign, 0.9, 0.1, 0.2, 0.3, 0.0, "ok", "default"))
    for i in range(1, 13):
        log.append(TrialRecord(i, draw_config(pruned, rng), 0.8,
                               float(rng.uniform(0, 0.3)),
                               float(rng.uniform(0.1, 0.4)), 0.3, 0.0, "ok", "init"))
    for _ in range(100):
        cfg, _ = _suggest_tagged(log, pruned, rng)
        assert cfg.component in pruned.components
        assert cfg.params["criterion"] == "entropy"


# ---------------------------------------------------------------------------
# best


def fake_record(i, acc, bias):
    space = fixture_space()
    return TrialRecord(i, draw_config(space, np.random.default_rng(i)), acc, bias,
                       None, 0.0, 0.0, "ok", "init")


def test_best_empty_raises():
    with pytest.raises(NoSuccessfulTrial):
        best(TrialLog(), 0.5)


def test_best_rescores_at_requested_beta():
    log = TrialLog()
    log.append(fake_record(0, 0.90, 0.30))
    log.append(fake_record(1, 0.95, 0.40))
    log.append(fake_record(2, 0.85, 0.05))
    assert best(log, 0.0).index == 1  # pure accuracy
    assert best(log, 0.99).index == 2  # essentially pure fairness


def test_best_tie_goes_to_earliest():
    log = TrialLog()
    log.append(fake_record(0, 0.9, 0.2))
    log.append(fake_record(1, 0.9, 0.2))
    assert best(log, 0.5).index == 0


def test_best_is_the_first_in_ranking_order():
    for log in parabola_logs()[:3]:
        for beta in (0.0, 0.3, 0.9):
            ranked = sorted(log.ok_records(), key=ranking(beta))
            assert best(log, beta) is ranked[0]
            costs = [ranking(beta)(r) for r in ranked]
            assert costs == sorted(costs)


# ---------------------------------------------------------------------------
# encoding


def test_encode_decode_round_trip():
    rng = np.random.default_rng(13)
    for algo in AlgorithmKind:
        space = default_space(algo)
        for _ in range(2000):
            cfg = draw_config(space, rng)
            again = decode_config(encode_config(cfg, space), space)
            assert again.algorithm is cfg.algorithm
            assert again.component is cfg.component
            for p in space.params:
                v, w = cfg.params[p.name], again.params[p.name]
                if p.kind == "real":
                    assert w == pytest.approx(v, rel=1e-12)
                else:
                    assert w == v


@st.composite
def pruned_spaces(draw):
    """The space of a database entry that narrows a random subset of params:
    categorical value subsets, numeric sub-ranges, some pinned to lo == hi."""
    algorithm = draw(st.sampled_from(list(AlgorithmKind)))
    components = draw(st.lists(st.sampled_from(list(ComponentKind)), min_size=1, unique=True))
    params = {}
    for p in default_space(algorithm).params:
        if draw(st.booleans()):
            continue  # kept at its declared range
        if p.kind == "cat":
            values = draw(st.lists(st.sampled_from(p.values), min_size=1, unique=True))
            params[p.name] = p.narrowed(values=values)
            continue
        if p.kind == "int":
            bound = st.integers(int(p.lo), int(p.hi))
        else:
            bound = st.floats(p.lo, p.hi)
        lo, hi = sorted((draw(bound), draw(bound)))
        if draw(st.booleans()):
            hi = lo
        params[p.name] = p.narrowed(lo=lo, hi=hi)
    entry = DatabaseEntry("d.csv", 100, 3, "group", 0.5, algorithm, tuple(components), params)
    return entry.space()


@settings(max_examples=200, deadline=None)
@given(space=pruned_spaces(), seed=st.integers(0, 2**32 - 1))
def test_encode_decode_round_trip_on_pruned_spaces(space, seed):
    rng = np.random.default_rng(seed)
    for cfg in [space_default(space)] + [draw_config(space, rng) for _ in range(20)]:
        again = decode_config(encode_config(cfg, space), space)
        assert (again.algorithm, again.component) == (cfg.algorithm, cfg.component)
        for p in space.params:
            v, w = cfg.params[p.name], again.params[p.name]
            if p.kind == "real" and p.lo < p.hi:
                # log/exp or the scaling may move a real by an ulp
                assert w == pytest.approx(v, rel=1e-12)
            else:
                assert w == v and type(w) is type(v)


def test_encoding_normalizes_numerics():
    space = default_space(AlgorithmKind.GRADIENT_BOOSTING)
    rng = np.random.default_rng(14)
    for _ in range(500):
        vec = encode_config(draw_config(space, rng), space)
        assert all(0.0 <= x <= 1.0 for x in vec[1:])


# ---------------------------------------------------------------------------
# row sampling and acquisition against the reference oracles


spaces = st.sampled_from([default_space(a) for a in AlgorithmKind]) | pruned_spaces()


@settings(max_examples=200, deadline=None)
@given(space=spaces, seed=st.integers(0, 2**32 - 1))
def test_decoded_draws_match_the_per_config_sampler(space, seed):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(30):
        cfg, want = decode_config(sample(space, a), space), ref.sample_config(space, b)
        assert cfg == want
        assert all(type(cfg.params[k]) is type(v) for k, v in want.params.items())
    assert a.bit_generator.state == b.bit_generator.state


def row_by_row(space, rng, k):
    return np.array([sample(space, rng) for _ in range(k)])


def assert_same_draws(got, want, a, b):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(space=spaces, seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40), prior=st.integers(0, 3))
def test_sample_rows_are_the_row_by_row_samples(space, seed, k, prior):
    # prior 32-bit draws leave the generator holding a half word, or not
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (a, b):
        rng.integers(0, 3, prior)
    assert_same_draws(sample_rows(space, a, k), row_by_row(space, b, k), a, b)


def test_sample_rows_of_a_space_with_no_draw_read_no_word():
    space = default_space(AlgorithmKind.GRADIENT_BOOSTING)
    pinned = HyperparameterSpace(
        space.algorithm,
        tuple(p.narrowed(lo=p.lo, hi=p.lo) for p in space.params)
        + (ParamDef("c", "cat", values=("only",)),),
        (ComponentKind.MINMAX,),
    )
    rng = np.random.default_rng(5)
    rng.integers(0, 3)  # a held half is kept as it is
    before = rng.bit_generator.state
    rows = sample_rows(pinned, rng, 7)
    assert rows.shape == (7, 6) and not rows.any()
    assert rng.bit_generator.state == before


# PCG64 steps its 128-bit LCG, then outputs from the new state; a state of
# 0 outputs 0, so the state one step before it yields a zero low word
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _before_a_zero_output(inc):
    return (-inc * pow(_PCG_MULTIPLIER, -1, 2**128)) % 2**128


@pytest.mark.parametrize("held", [0, 1])
def test_sample_rows_falls_back_to_rows_on_a_rejected_word(monkeypatch, held):
    # three components: a zero word is Lemire's leftover 0 < 2**32 % 3
    space = HyperparameterSpace(
        AlgorithmKind.LOGISTIC_REGRESSION,
        (ParamDef("x", "real", 0.0, 1.0), ParamDef("c", "cat", values=("u", "v", "w"))),
        (ComponentKind.NONE, ComponentKind.STANDARDIZE, ComponentKind.MINMAX),
    )
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    state = a.bit_generator.state
    if held:  # the first word is the held half, 0
        state.update(has_uint32=1, uinteger=0)
    else:  # the first word is the low half of the next output, 0
        state["state"]["state"] = _before_a_zero_output(state["state"]["inc"])
        probe = np.random.PCG64()
        probe.state = state
        assert probe.random_raw() & 0xFFFFFFFF == 0
    a.bit_generator.state = b.bit_generator.state = state
    calls = spy(monkeypatch, _spaces, "sample")
    got = sample_rows(space, a, 9)
    assert len(calls) == 9  # the rows came from sample
    assert_same_draws(got, row_by_row(space, b, 9), a, b)


def test_sample_rows_of_another_bit_generator_are_the_samples():
    space = default_space(AlgorithmKind.RANDOM_FOREST)
    a, b = (np.random.Generator(np.random.MT19937(4)) for _ in range(2))
    got, want = sample_rows(space, a, 25), row_by_row(space, b, 25)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (a.bit_generator.random_raw(8) == b.bit_generator.random_raw(8)).all()


@pytest.mark.parametrize("held", [0, 1])
def test_one_bootstrap_draw_is_the_per_tree_draws(held):
    for n in range(1, 31):
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        for rng in (a, b):
            rng.integers(0, 3, held)
        got = a.integers(0, n, (smbo.ENSEMBLE_SIZE, n)).ravel()
        want = np.concatenate([b.integers(0, n, n) for _ in range(smbo.ENSEMBLE_SIZE)])
        assert_same_draws(got, want, a, b)


def random_log(space, rng, n=12):
    log = TrialLog()
    for i in range(n):
        log.append(TrialRecord(i, draw_config(space, rng), 0.8, 0.1,
                               float(rng.uniform(0.1, 0.4)), 0.3, 0.0, "ok", "init"))
    return log


def spy(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records (args, result) per call."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args):
        out = fn(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@settings(max_examples=60, deadline=None)
@given(space=spaces, seed=st.integers(0, 2**32 - 1))
def test_snapped_candidates_are_the_encoded_configs(space, seed):
    rng = np.random.default_rng(seed)
    log = random_log(space, rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smbo, "EXPLORATION", 0.0)  # always take the surrogate path
        draws = spy(mp, smbo, "sample")
        arrays = spy(mp, smbo, "sample_rows")
        predicts = spy(mp, RegressionTree, "predict")
        _, tag = _suggest_tagged(log, space, rng)
    assert tag == "surrogate"
    # the candidates are one array draw, not a sample call each
    assert not draws
    [((_, _, k), drawn)] = arrays
    assert k == smbo.CANDIDATES and len(drawn) == smbo.CANDIDATES
    rows = drawn.tolist()
    # the ensemble scores every candidate in one walk of its stacked trees
    [((_, C), preds)] = predicts
    assert preds.shape == (smbo.ENSEMBLE_SIZE, smbo.CANDIDATES)
    want = np.array([encode_config(decode_config(row, space), space) for row in rows])
    assert C.dtype == want.dtype and C.tobytes() == want.tobytes()


@st.composite
def param_defs(draw):
    """A param of any kind and scale, over any range, often pinned."""
    kind = draw(st.sampled_from(["cat", "int", "real"]))
    if kind == "cat":
        return ParamDef("p", "cat", values=tuple(range(draw(st.integers(1, 6)))))
    scale = draw(st.sampled_from(["linear", "log"]))
    if kind == "int":
        # int(lo) >= 1 on a log range, or log(0) is in it
        low = 1 if scale == "log" else -300
        bound = st.integers(low, 400) | st.floats(low, 400.0)
    else:
        bound = st.floats(1e-9, 1e6) if scale == "log" else st.floats(-1e6, 1e6)
    lo, hi = sorted((draw(bound), draw(bound)))
    if draw(st.booleans()):
        hi = lo
    return ParamDef("p", kind, lo, hi, scale)


params = param_defs() | pruned_spaces().flatmap(lambda s: st.sampled_from(s.params))


@settings(max_examples=300, deadline=None)
@given(
    p=params,
    coords=st.lists(st.floats(-0.5, 1.5) | st.sampled_from([0.0, 0.5, 1.0]), max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_snap_is_the_scalar_encode_of_the_decode(p, coords, seed):
    rng = np.random.default_rng(seed)
    x = np.concatenate([coords, [p.draw(rng) for _ in range(20)]])
    want = np.array([p.encode(p.decode(c)) for c in x.tolist()])
    got = p.snap(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_every_draw_is_a_sample_and_each_trial_decodes_once(monkeypatch):
    draws = spy(monkeypatch, smbo, "sample")
    arrays = spy(monkeypatch, smbo, "sample_rows")
    decodes = spy(monkeypatch, smbo, "decode_config")
    log = run(parabola, fixture_space(), 20, seed=3)
    tags = [r.proposal for r in log.records]
    assert "surrogate" in tags
    # one sample per init trial or random proposal, one array draw of
    # CANDIDATES rows per surrogate proposal
    assert len(draws) == tags.count("init") + tags.count("random")
    assert [k for (_, _, k), _ in arrays] == [smbo.CANDIDATES] * tags.count("surrogate")
    assert [cfg for _, cfg in decodes] == [r.config for r in log.records[1:]]


def test_a_surrogate_proposal_decodes_one_config(monkeypatch):
    space = default_space(AlgorithmKind.DECISION_TREE)
    rng = np.random.default_rng(21)
    log = random_log(space, rng)
    monkeypatch.setattr(smbo, "EXPLORATION", 0.0)
    decodes = spy(monkeypatch, smbo, "decode_config")
    for _ in range(3):
        cfg, tag = _suggest_tagged(log, space, rng)
        assert tag == "surrogate" and decodes[-1][1] is cfg
    assert len(decodes) == 3


finite = st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(
    incumbent=finite,
    pairs=st.lists(
        st.tuples(finite, st.just(0.0) | st.floats(-1.0, 1e3)), min_size=1, max_size=40
    ),
)
def test_array_ei_matches_the_per_candidate_loop(incumbent, pairs):
    mu = np.array([m for m, _ in pairs])
    sigma = np.array([s for _, s in pairs])
    with np.errstate(all="ignore"):  # d / s overflows on a subnormal sigma
        got = _expected_improvement(incumbent, mu, sigma)
        want = ref.expected_improvement(incumbent, mu, sigma)
    assert got.tobytes() == want.tobytes()


def test_array_ei_on_flat_and_agreeing_rows():
    mu = np.array([0.1, 0.3, 0.2, 0.2, 0.5])
    sigma = np.array([0.0, 0.0, 0.05, 1e-300, 0.2])
    got = _expected_improvement(0.2, mu, sigma)
    assert got.tobytes() == ref.expected_improvement(0.2, mu, sigma).tobytes()
    assert got[0] == pytest.approx(0.1) and got[1] == 0.0
