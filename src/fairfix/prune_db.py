"""Offline search-space pruning and online input matching.

Building: run the repair loop n times on a corpus input, pool the top-k
pipelines of each run, and keep the top-m components plus per-parameter
value sets / outlier-pruned numeric ranges. Matching: nearest dataset by
L1 on (points, features), then nearest beta lower bound among its
protected attributes, then an exact algorithm requirement.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import repair_core
from .metrics import MetricKind
from .model_zoo import (
    AlgorithmKind,
    ComponentKind,
    HyperparameterSpace,
    component_rank,
    default_space,
)
from .smbo import ranking
from .tabular import DataCharacteristics, DataError, Dataset, characteristics, read_json

DB_VERSION = "fairfix-db/1"


class UnknownVersion(DataError):
    """Database file carries a version tag this build cannot read."""


class MalformedEntry(DataError):
    def __init__(self, index: int, reason: str):
        super().__init__(f"entry {index}: {reason}")
        self.index = index


def prune_numeric(values, dev: float = 1.0):
    """[min, max] of the values within dev population-sigmas of the mean.

    When the filter removes everything (sigma 0, or everything exactly at
    the boundary) the unpruned range is returned instead.
    """
    values = list(values)
    if not values:
        raise ValueError("values must be non-empty")
    if not dev > 0:
        raise ValueError("dev must be positive")
    n = len(values)
    mean = math.fsum(values) / n
    sigma = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n)
    survivors = [v for v in values if abs(v - mean) < dev * sigma]
    if not survivors:
        return min(values), max(values)
    return min(survivors), max(survivors)


@dataclass(frozen=True)
class DatabaseEntry:
    dataset: str
    p: int
    f: int
    protected: str
    L: float
    algorithm: AlgorithmKind
    components: tuple  # of ComponentKind, ranked by observed frequency
    params: dict  # name -> the declared ParamDef narrowed (ParamDef.narrowed)

    def __post_init__(self):
        if not self.components:
            raise ValueError("components must be non-empty")
        if not math.isfinite(self.L):
            raise ValueError(f"L must be finite, got {self.L!r}")
        declared = {pd.name: pd for pd in default_space(self.algorithm).params}
        for name, pd in self.params.items():
            if name not in declared:
                raise ValueError(f"unknown param {name!r} for {self.algorithm.value}")
            # an entry can only narrow the declared space, never widen it
            if declared[name].narrowed(pd.values, pd.lo, pd.hi) != pd:
                raise ValueError(f"param {name!r}: {pd} is not within {declared[name]}")
        object.__setattr__(self, "components", tuple(self.components))

    def space(self) -> HyperparameterSpace:
        params = tuple(
            self.params.get(pd.name, pd) for pd in default_space(self.algorithm).params
        )
        return HyperparameterSpace(self.algorithm, params, self.components)

    def payload(self) -> dict:
        """The file form: each narrowed param as a categorical or numeric spec."""
        specs = {}
        for pd in self.space().params:
            if pd.name not in self.params:
                continue  # kept at its declared range
            if pd.kind == "cat":
                specs[pd.name] = {"kind": "categorical", "values": list(pd.values)}
            else:
                specs[pd.name] = {"kind": "numeric", "lo": pd.lo, "hi": pd.hi}
        return {
            "dataset": self.dataset,
            "p": self.p,
            "f": self.f,
            "protected": self.protected,
            "L": self.L,
            "algorithm": self.algorithm.value,
            "components": [c.value for c in self.components],
            "params": specs,
        }


@dataclass(frozen=True)
class Database:
    provenance: dict = field(default_factory=dict)
    entries: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def match(self, chars: DataCharacteristics, L: float, algorithm: AlgorithmKind):
        """The entry `match_input` picks for this input, or None."""
        return match_input(self, chars, L, algorithm)

    def to_json(self) -> str:
        payload = {
            "version": DB_VERSION,
            "provenance": self.provenance,
            "entries": [e.payload() for e in self.entries],
        }
        return json.dumps(payload, indent=2) + "\n"


def save(db: Database, path) -> None:
    Path(path).write_text(db.to_json(), encoding="utf-8")


def _is_int(value) -> bool:
    """A JSON integer; true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _entry_from_payload(i: int, obj: dict) -> DatabaseEntry:
    try:
        algorithm = AlgorithmKind(obj["algorithm"])
        components = tuple(ComponentKind(c) for c in obj["components"])
        if not isinstance(obj["params"], dict):
            raise TypeError(f"params is not an object: {obj['params']!r:.80}")
        params = {}
        base = default_space(algorithm)
        for name, spec in obj["params"].items():
            pd = base.param(name)  # raises KeyError for foreign names
            if spec["kind"] == "categorical":
                params[name] = pd.narrowed(values=spec["values"])
            elif spec["kind"] == "numeric":
                params[name] = pd.narrowed(lo=spec["lo"], hi=spec["hi"])
            else:
                raise ValueError(f"param {name!r}: unknown kind {spec['kind']!r}")
        for key in ("dataset", "protected"):
            if not isinstance(obj[key], str):
                raise TypeError(f"{key} is not a string: {obj[key]!r:.80}")
        for key in ("p", "f"):
            if not _is_int(obj[key]):
                raise TypeError(f"{key} is not an integer: {obj[key]!r:.80}")
        if not (_is_int(obj["L"]) or isinstance(obj["L"], float)):
            raise TypeError(f"L is not a number: {obj['L']!r:.80}")
        return DatabaseEntry(
            dataset=obj["dataset"],
            p=obj["p"],
            f=obj["f"],
            protected=obj["protected"],
            L=float(obj["L"]),
            algorithm=algorithm,
            components=components,
            params=params,
        )
    # OverflowError: float() of a huge integer L
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise MalformedEntry(i, str(exc)) from exc


def load(path) -> Database:
    """Read a database file; each spec narrows its declared param
    (`ParamDef.narrowed`), so a stale file can never widen the search."""
    obj = read_json(path, "database")
    rows = obj.get("entries", []) if isinstance(obj, dict) else None
    if not isinstance(rows, list):
        raise DataError(f"database {path} is not an object with a list of entries")
    version = obj.get("version")
    if version != DB_VERSION:
        raise UnknownVersion(f"cannot read version {version!r}, need {DB_VERSION!r}")
    entries = tuple(_entry_from_payload(i, row) for i, row in enumerate(rows))
    return Database(provenance=obj.get("provenance", {}), entries=entries)


@dataclass(frozen=True)
class BuildConfig:
    runs: int = 10
    trials: int = 50
    top_k: int = 10
    top_m: int = 3
    dev: float = 1.0
    metric: MetricKind = MetricKind.SPD

    def __post_init__(self):
        repair_core.check_counts(
            runs=self.runs, trials=self.trials, top_k=self.top_k, top_m=self.top_m
        )
        if not self.dev > 0:
            raise ValueError("dev must be positive")

    def provenance(self, seed) -> dict:
        return {
            "runs": self.runs,
            "trials": self.trials,
            "top_k": self.top_k,
            "top_m": self.top_m,
            "dev": self.dev,
            "seed": seed,
        }


def build_entry(
    ds: Dataset,
    dataset_name: str,
    protected_name: str,
    algorithm: AlgorithmKind,
    bcfg: BuildConfig,
    seed: int,
) -> DatabaseEntry:
    """Aggregate runs*top_k winning pipelines into a pruned-space entry."""
    run_seeds = np.random.SeedSequence(seed).generate_state(bcfg.runs)
    chosen = []
    L = None
    for run_seed in run_seeds:
        # through the module, so that a wrapper set on repair_core.repair applies
        result = repair_core.repair(
            ds,
            algorithm,
            repair_core.RepairConfig(
                metric=bcfg.metric, trials=bcfg.trials, seed=int(run_seed)
            ),
        )
        if L is None:
            L = result.state.L
        ranked = sorted(result.log.ok_records(), key=ranking(result.state.beta))
        chosen.extend(r.config for r in ranked[: bcfg.top_k])

    freq = Counter(cfg.component for cfg in chosen)
    components = sorted(freq, key=lambda c: (-freq[c], component_rank(c)))[: bcfg.top_m]

    params = {}
    for pd in default_space(algorithm).params:
        observed = [cfg.params[pd.name] for cfg in chosen]
        if pd.kind == "cat":
            params[pd.name] = pd.narrowed(values=observed)
        else:
            lo, hi = prune_numeric(observed, bcfg.dev)
            params[pd.name] = pd.narrowed(lo=lo, hi=hi)

    chars = characteristics(ds)
    return DatabaseEntry(
        dataset=dataset_name,
        p=chars.p,
        f=chars.f,
        protected=protected_name,
        L=L,
        algorithm=algorithm,
        components=tuple(components),
        params=params,
    )


def match_input(
    db: Database,
    chars: DataCharacteristics,
    L: float,
    algorithm: AlgorithmKind,
):
    """Nearest dataset, then nearest lower bound, then exact algorithm.

    Absence is a legal outcome; the caller falls back to the default space.
    All ties resolve to the earliest inserted entry, as `min` keeps the
    first of equal keys.
    """
    if not db.entries:
        return None
    near = min(db.entries, key=lambda e: abs(e.p - chars.p) + abs(e.f - chars.f))
    same = [e for e in db.entries if e.dataset == near.dataset]
    attr = min(same, key=lambda e: abs(e.L - L)).protected
    return next((e for e in same if e.protected == attr and e.algorithm is algorithm), None)
