"""Span tracing of fairfix's layers from outside the package.

The tracer replaces, for the length of a `with` block, each layer's public
functions and classes, and the module-level names through which
`repair_core` and `smbo` call them, with wrappers that record a span: name,
start, end and parent. Span names are `<layer>.<what>`, where the layer is
the fairfix module that owns the code. Nothing under `src/` is edited.

`RepairTap` is the one wrapper the untraced run keeps: it times each
`repair()` call, including those `prune_db.build_entry` makes, and keeps
its trial log, region and bias values, or its error.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import NamedTuple

from fairfix import fairea, model_zoo, prune_db, repair_core, smbo, tabular
from fairfix.model_zoo import _boosting, _linear, _neighbors, _trees

ROOT = -1
PROPOSE = "smbo.propose"


class SpanLog:
    """Spans kept in memory as parallel lists; a span's id is its index."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []

    def __len__(self):
        return len(self.names)

    def current(self):
        return self.names[self._open[-1]] if self._open else None

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else ROOT)
        self.ends.append(None)
        self._open.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._open.pop()

    def add(self, name: str, start: float, end: float, parent: int = ROOT) -> int:
        """Append a finished span; used to build span trees by hand."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def write_ndjson(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                row = {
                    "id": i,
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                }
                fh.write(json.dumps(row) + "\n")


def self_times(log: SpanLog) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and a stack, so children never overlap each
    other or leave their parent's interval.
    """
    child = [0.0] * len(log)
    for i, p in enumerate(log.parents):
        if p != ROOT:
            child[p] += log.ends[i] - log.starts[i]
    return [log.ends[i] - log.starts[i] - child[i] for i in range(len(log))]


def layer_self_times(log: SpanLog) -> dict:
    """Self time summed per layer, the part of a span name before the dot."""
    out = defaultdict(float)
    for name, s in zip(log.names, self_times(log)):
        out[name.split(".", 1)[0]] += s
    return dict(out)


def inclusive(log: SpanLog, name: str) -> float:
    """Total duration of `name` spans, not counting ones nested in another."""
    total = 0.0
    for i, n in enumerate(log.names):
        p = log.parents[i]
        if n == name and (p == ROOT or log.names[p] != name):
            total += log.ends[i] - log.starts[i]
    return total


def count(log: SpanLog, name: str) -> int:
    return sum(1 for n in log.names if n == name)


def children(log: SpanLog, parent: int) -> list:
    return [i for i, p in enumerate(log.parents) if p == parent]


# ---------------------------------------------------------------------------
# wrappers


def _spanned(log: SpanLog, fn, name):
    """`name` is a span name, or a function of the parent span's name."""
    pick = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = log.begin(pick(log.current()) if pick else name)
        try:
            return fn(*args, **kwargs)
        finally:
            log.end(i)

    return wrapper


def _regression_fit_name(parent):
    # the surrogate and gboost's stage trees share RegressionTree.fit
    return "smbo.surrogate_fit" if parent == PROPOSE else "model_zoo.fit"


def _sample_wrapper(log: SpanLog, fn):
    """Candidate sampling inside a proposal is `smbo.sample`; an init
    trial's draw is a proposal of its own, with one sample inside."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = log.begin(PROPOSE) if log.current() != PROPOSE else None
        i = log.begin("smbo.sample")
        try:
            return fn(*args, **kwargs)
        finally:
            log.end(i)
            if outer is not None:
                log.end(outer)

    return wrapper


CLASSIFIERS = (
    _linear.LogisticModel,
    _trees.ClassificationTree,
    _trees.RandomForestModel,
    _boosting.GradientBoostingModel,
    _neighbors.KNNModel,
)

# (owner, attribute, span name); owners are modules or classes
TARGETS = (
    (tabular, "load_csv", "tabular.load_csv"),
    (tabular.Encoder, "fit", "tabular.encoder_fit"),
    (tabular.Encoder, "transform", "tabular.encoder_transform"),
    (repair_core, "split", "tabular.split"),
    (repair_core, "train", "model_zoo.train"),
    (repair_core, "predict", "model_zoo.predict"),
    (fairea, "predict", "model_zoo.predict"),
    (model_zoo, "fit_component", "model_zoo.component"),
    (model_zoo.FittedComponent, "apply", "model_zoo.component"),
    *((cls, "fit", "model_zoo.fit") for cls in CLASSIFIERS),
    (_trees.RegressionTree, "fit", _regression_fit_name),
    (repair_core, "bias_value", "metrics.score"),
    (fairea, "bias_value", "metrics.score"),
    (smbo, "run", "smbo.run"),
    (smbo, "_suggest_tagged", PROPOSE),
    (smbo, "_call_objective", "smbo.objective"),
    (repair_core, "repair", "repair_core.repair"),
    (repair_core, "build_baseline", "fairea.baseline"),
    (fairea, "mutate_predictions", "fairea.mutate"),
    (prune_db, "build_entry", "prune_db.build_entry"),
    (prune_db, "match_input", "prune_db.match"),
    (prune_db, "load", "prune_db.load"),
)


class _Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, make):
        own = vars(owner).get(attr)
        if isinstance(own, classmethod):
            new = classmethod(make(own.__func__))
        else:
            new = make(getattr(owner, attr))
        self._undo.append((owner, attr, attr in vars(owner), own))
        setattr(owner, attr, new)

    def undo(self):
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


class Tracer:
    """Records spans at every layer boundary while the block runs."""

    def __init__(self):
        self.log = SpanLog()
        self._patches = _Patches()

    def __enter__(self):
        for owner, attr, name in TARGETS:
            self._patches.replace(
                owner, attr, lambda fn, name=name: _spanned(self.log, fn, name)
            )
        self._patches.replace(
            smbo, "sample", lambda fn: _sample_wrapper(self.log, fn)
        )
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False


class TapRecord(NamedTuple):
    """What the benchmark keeps of one repair() call. The fitted pipeline
    is dropped, so that holding the records costs no memory to speak of."""

    wall: float  # seconds
    budget: int  # trials asked for
    log: object  # smbo.TrialLog, or None when the call raised
    state: object  # the final BetaState, or None
    region: str | None  # fairea trade-off region
    f1: float | None  # bias of the buggy model
    f_repaired: float | None  # bias of the repaired one
    error: str | None

    @classmethod
    def of(cls, wall, budget, result):
        return cls(
            wall,
            budget,
            result.log,
            result.state,
            result.region.value,
            result.original.bias,
            result.repaired.bias,
            None,
        )

    @property
    def done(self) -> bool:
        return self.log is not None


class RepairTap:
    """Keeps a TapRecord per repair() call."""

    def __init__(self):
        self.calls = []
        self._patches = _Patches()

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(ds, algorithm, cfg, *args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(ds, algorithm, cfg, *args, **kwargs)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - start
                self.calls.append(
                    TapRecord(wall, cfg.trials, None, None, None, None, None, error)
                )
                raise
            wall = time.perf_counter() - start
            self.calls.append(TapRecord.of(wall, cfg.trials, result))
            return result

        return wrapper

    def __enter__(self):
        self._patches.replace(repair_core, "repair", self._wrap)
        return self

    def __exit__(self, *exc):
        self._patches.undo()
        return False
