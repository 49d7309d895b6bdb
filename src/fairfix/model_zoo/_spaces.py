"""Algorithm/component enums, hyperparameter spaces, and the row format: a
component index, then one coordinate per param. Random draws are rows
(`sample` draws one, `sample_rows` k of them from one read of numpy's bit
generator), the surrogate reads rows, and `decode_config` turns a row into
a config."""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ..tabular import round_half_up


class AlgorithmKind(enum.Enum):
    """Classifier families; values are the serialized/CLI names."""

    LOGISTIC_REGRESSION = "logreg"
    DECISION_TREE = "dtree"
    RANDOM_FOREST = "rforest"
    GRADIENT_BOOSTING = "gboost"
    KNN = "knn"


class ComponentKind(enum.Enum):
    """Preprocessing components; declaration order breaks frequency ties."""

    NONE = "none"
    STANDARDIZE = "standardize"
    MINMAX = "minmax"
    VARIANCE_TOPK = "variance_topk"
    REBALANCE = "rebalance"


_COMPONENT_ORDER = {c: i for i, c in enumerate(ComponentKind)}


def component_rank(c: ComponentKind) -> int:
    return _COMPONENT_ORDER[c]


@dataclass(frozen=True)
class ParamDef:
    """One hyperparameter: categorical, integer range, or real range.

    The one owner of range arithmetic: random draws (`draw`), coordinates
    (`encode`/`decode`, and `snap` over an array) and pruning (`narrowed`).
    Declared spaces always have lo < hi; a narrowed param may be pinned to a
    single point (lo == hi).
    """

    name: str
    kind: str  # "cat" | "int" | "real"
    lo: float = 0.0
    hi: float = 0.0
    scale: str = "linear"  # "linear" | "log"
    values: tuple = ()

    def __post_init__(self):
        if self.kind == "cat":
            if not self.values or len(set(self.values)) != len(self.values):
                raise ValueError(f"{self.name}: categorical values must be non-empty, unique")
        elif self.kind in ("int", "real"):
            if not self.lo <= self.hi:  # false for a NaN bound too
                raise ValueError(f"{self.name}: not lo <= hi")
            if self.scale == "log" and self.lo <= 0:
                raise ValueError(f"{self.name}: log scale requires lo > 0")
            if self.scale not in ("linear", "log"):
                raise ValueError(f"{self.name}: bad scale {self.scale}")
            # (origin, span) of the range on its linear or log axis, which
            # encode and decode share; not a field, so eq and repr skip it
            if self.scale == "log":
                origin = math.log(self.lo)
                axis = (origin, math.log(self.hi) - origin)
            else:
                axis = (self.lo, self.hi - self.lo)
            object.__setattr__(self, "_axis", axis)
        else:
            raise ValueError(f"{self.name}: bad kind {self.kind}")

    def encode(self, v) -> float:
        """A categorical value's index, or a numeric's position in [0, 1] of
        the range (0.0 when the range is a single point on its axis).
        Raises ValueError for a categorical value the param does not hold."""
        if self.kind == "cat":
            return float(self.values.index(v))
        origin, span = self._axis
        if self.scale == "log":
            v = math.log(v)
        return (v - origin) / span if span else 0.0

    def decode(self, x: float):
        """The value at coordinate x, rounded to a value or integer and
        clamped into the range."""
        if self.kind == "cat":
            return self.values[min(max(round_half_up(x), 0), len(self.values) - 1)]
        origin, span = self._axis
        v = origin + x * span
        if self.scale == "log":
            v = math.exp(v)
        if self.kind == "int":
            return int(min(max(round_half_up(v), int(self.lo)), int(self.hi)))
        return float(min(max(v, self.lo), self.hi))

    def snap(self, x: np.ndarray) -> np.ndarray:
        """encode(decode(c)) for each coordinate c of the float array x, bit
        for bit: numpy does the same IEEE operations as the scalar path,
        except that log and exp stay math's, whose last bit numpy's can miss."""
        if self.kind == "cat":
            return np.clip(np.floor(x + 0.5), 0, len(self.values) - 1)
        origin, span = self._axis
        if not span:
            return np.zeros_like(x)
        v = origin + x * span
        if self.scale == "log":
            v = np.array([math.exp(t) for t in v.tolist()])
        if self.kind == "int":
            lo = int(self.lo)
            k = np.clip(np.floor(v + 0.5), lo, int(self.hi))
            if self.scale == "log":
                return (self._log_table[k.astype(np.intp) - lo] - origin) / span
            return (k - origin) / span
        # max(v, lo) keeps v unless lo is greater, min(m, hi) keeps m unless
        # hi is smaller; np.where says so for signed zeros too
        v = np.where(self.lo > v, self.lo, v)
        v = np.where(self.hi < v, self.hi, v)
        if self.scale == "log":
            v = np.array([math.log(t) for t in v.tolist()])
        return (v - origin) / span

    @functools.cached_property
    def _log_table(self) -> np.ndarray:
        """math.log(k) for each integer k of an integer log range."""
        return np.array([math.log(k) for k in range(int(self.lo), int(self.hi) + 1)])

    def draw(self, rng: np.random.Generator) -> float:
        """A random coordinate: a categorical index, or the uniform in [0, 1)
        that rng.uniform() draws. A pinned range takes no draw."""
        if self.kind == "cat":
            return float(rng.integers(len(self.values)))
        if self.lo == self.hi:
            return 0.0
        return rng.random()

    def narrowed(self, values=(), lo=None, hi=None) -> "ParamDef":
        """This param cut down to those of `values` it holds (categorical)
        or to its intersection with [lo, hi] (numeric). Raises ValueError
        when nothing is left."""
        if self.kind == "cat":
            keep = set(values)
            kept = tuple(v for v in self.values if v in keep)
            if not kept:
                raise ValueError(f"{self.name}: no declared values survive")
            return replace(self, values=kept)
        if lo is None or hi is None:
            raise ValueError(f"{self.name}: a numeric range needs lo and hi")
        lo, hi = max(lo, self.lo), min(hi, self.hi)
        if not lo <= hi:  # disjoint, or a NaN bound
            raise ValueError(f"{self.name}: range disjoint from default")
        if self.kind == "int":
            lo, hi = int(lo), int(hi)
        return replace(self, lo=lo, hi=hi)

    def default(self):
        if self.kind == "cat":
            return self.values[0]
        if self.scale == "log":
            v = math.sqrt(self.lo * self.hi)
        else:
            v = (self.lo + self.hi) / 2.0
        return round_half_up(v) if self.kind == "int" else float(v)

    def contains(self, v) -> bool:
        if self.kind == "cat":
            return v in self.values
        if self.kind == "int" and not isinstance(v, (int, np.integer)):
            return False
        return self.lo <= v <= self.hi


@dataclass(frozen=True)
class HyperparameterSpace:
    algorithm: AlgorithmKind
    params: tuple  # of ParamDef
    components: tuple  # of ComponentKind, in declaration order

    def __post_init__(self):
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate param names")
        if not self.components:
            raise ValueError("space needs at least one component")
        ordered = tuple(sorted(set(self.components), key=component_rank))
        object.__setattr__(self, "components", ordered)
        object.__setattr__(self, "params", tuple(self.params))

    def param(self, name: str) -> ParamDef:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)


@dataclass(frozen=True)
class PipelineConfig:
    algorithm: AlgorithmKind
    component: ComponentKind
    params: dict

    def __hash__(self):
        # equal configs hash equal, as the dataclass == compares params whole
        return hash((self.algorithm, self.component, tuple(sorted(self.params.items()))))

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm.value,
            "component": self.component.value,
            "params": {k: self.params[k] for k in sorted(self.params)},
        }


_ALL_COMPONENTS = tuple(ComponentKind)

_SPACES = {
    AlgorithmKind.LOGISTIC_REGRESSION: (
        ParamDef("learning_rate", "real", 1e-4, 1.0, "log"),
        ParamDef("l2", "real", 1e-6, 1.0, "log"),
        ParamDef("epochs", "int", 20, 300, "linear"),
    ),
    AlgorithmKind.DECISION_TREE: (
        ParamDef("max_depth", "int", 2, 30, "linear"),
        ParamDef("min_leaf", "int", 1, 32, "log"),
        ParamDef("criterion", "cat", values=("gini", "entropy")),
    ),
    AlgorithmKind.RANDOM_FOREST: (
        ParamDef("trees", "int", 16, 256, "log"),
        ParamDef("max_depth", "int", 2, 30, "linear"),
        ParamDef("max_features", "cat", values=("sqrt", "log2", "all")),
        ParamDef("min_leaf", "int", 1, 32, "log"),
        ParamDef("bootstrap", "cat", values=("true", "false")),
    ),
    AlgorithmKind.GRADIENT_BOOSTING: (
        ParamDef("stages", "int", 20, 300, "log"),
        ParamDef("learning_rate", "real", 0.01, 0.5, "log"),
        ParamDef("max_depth", "int", 1, 8, "linear"),
        ParamDef("subsample", "real", 0.5, 1.0, "linear"),
    ),
    AlgorithmKind.KNN: (
        ParamDef("k", "int", 1, 51, "linear"),
        ParamDef("weights", "cat", values=("uniform", "distance")),
    ),
}


def default_space(algorithm: AlgorithmKind) -> HyperparameterSpace:
    return HyperparameterSpace(algorithm, _SPACES[algorithm], _ALL_COMPONENTS)


def space_default(space: HyperparameterSpace) -> PipelineConfig:
    """Midpoint/first-value config of a space; component None when present."""
    comp = (
        ComponentKind.NONE
        if ComponentKind.NONE in space.components
        else space.components[0]
    )
    return PipelineConfig(
        space.algorithm, comp, {p.name: p.default() for p in space.params}
    )


def default_config(algorithm: AlgorithmKind) -> PipelineConfig:
    return space_default(default_space(algorithm))


def sample(space: HyperparameterSpace, rng: np.random.Generator) -> list:
    """A random row: a component index, then each param's `draw`."""
    comp = float(rng.integers(len(space.components)))
    return [comp] + [p.draw(rng) for p in space.params]


def sample_rows(space: HyperparameterSpace, rng: np.random.Generator, k: int) -> np.ndarray:
    """`np.array([sample(space, rng) for _ in range(k)])` bit for bit, the
    generator left in the same state, from one `random_raw` call.

    It follows numpy's PCG64 `Generator` word by word: `random()` is
    `(u >> 11) * 2**-53` of a fresh 64-bit output u; `integers(n)`, n >= 2,
    is Lemire's `(w * n) >> 32` of a 32-bit word w, the held upper half of
    an earlier output when `has_uint32` is set, else the lower half of a
    fresh one, whose upper half is then held; `integers(1)` and a pinned
    range read nothing. A word Lemire would reject (or another bit
    generator) sends the draw back to `sample`, row by row. The
    `test_sample_rows_*` tests in tests/test_smbo.py pin this on numpy's
    generator.
    """
    # per column: n >= 2 choices take a word, 0 a 64-bit output, 1 nothing
    n = np.array([len(space.components)] + [
        len(p.values) if p.kind == "cat" else int(p.lo == p.hi) for p in space.params
    ])
    bitgen = rng.bit_generator
    if isinstance(bitgen, np.random.PCG64):
        state = bitgen.state
        draws = np.tile(n[n != 1], k)  # every draw in call order
        word = draws >= 2
        held = state["has_uint32"]
        # a word whose index (counting a held half first) is even starts an output
        fresh = ~word | ((np.cumsum(word) - 1 + held) % 2 == 0)
        raw = bitgen.random_raw(int(fresh.sum()))
        at = np.cumsum(fresh) - 1
        halves = raw[at[word & fresh]]
        words = np.concatenate([
            np.full(held, state["uinteger"], np.uint64),
            np.stack([halves & 0xFFFFFFFF, halves >> 32], axis=1).ravel(),
        ])[: word.sum()]
        choices = draws[word].astype(np.uint64)
        m = words * choices
        if not np.any(m & 0xFFFFFFFF < 2**32 % choices):
            values = np.empty(len(draws))
            values[word] = m >> 32
            values[~word] = (raw[at[~word]] >> 11) * 2.0**-53
            rows = np.zeros((k, len(n)))
            rows[:, n != 1] = values.reshape(k, -1)
            after = bitgen.state
            after["has_uint32"] = (held + len(words)) % 2
            if len(halves):
                after["uinteger"] = int(halves[-1] >> 32)
            bitgen.state = after
            return rows
        bitgen.state = state
    return np.array([sample(space, rng) for _ in range(k)])


def encode_config(cfg: PipelineConfig, space: HyperparameterSpace) -> list:
    """A config's row: component index, then each param's `ParamDef.encode`.

    Raises ValueError for a component or categorical value outside the space.
    """
    comp = float(space.components.index(cfg.component))
    return [comp] + [p.encode(cfg.params[p.name]) for p in space.params]


def decode_config(row, space: HyperparameterSpace) -> PipelineConfig:
    """The config at a row; each coordinate is rounded and clamped."""
    comp_i = min(max(round_half_up(row[0]), 0), len(space.components) - 1)
    params = {p.name: p.decode(x) for x, p in zip(row[1:], space.params)}
    return PipelineConfig(space.algorithm, space.components[comp_i], params)
