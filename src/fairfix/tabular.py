"""Schema-driven CSV ingestion, one-hot encoding, and reproducible splits.

Conventions: y=1 is the favorable label, z=0 the unprivileged group. Cells are
whitespace-stripped strings; a cell is missing iff it is empty after stripping.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

log = logging.getLogger("fairfix.tabular")

_DIGEST_ROWS = 4096  # rows hashed per block by Dataset.digest


class DataError(Exception):
    """Base for input-data problems (CLI maps these to exit code 3)."""


class MissingColumn(DataError):
    def __init__(self, name):
        super().__init__(f"column not in CSV header: {name!r}")
        self.name = name


class EmptyAfterCleaning(DataError):
    pass


class SingleClassLabel(DataError):
    pass


class SingleGroupProtected(DataError):
    pass


class DegenerateSplit(DataError):
    pass


def round_half_up(x: float) -> int:
    """round() with ties away from zero; the builtin rounds ties to even."""
    return int(math.floor(x + 0.5))


def read_json(path, what: str):
    """The value a UTF-8 JSON file holds; DataError when it holds none."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # not UTF-8, not JSON, or nested too deep for the decoder
    except (ValueError, RecursionError) as e:
        raise DataError(f"{what} {path} is not UTF-8 JSON: {e}") from None


def _schema_value_ok(key: str, value) -> bool:
    """Whether a schema file's `key` may hold `value`: a string for a column
    name, a string or a number for a cell value, a list of strings for
    `drop` and `categorical`."""
    if key in ("drop", "categorical"):
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if key in ("favorable", "unprivileged") and isinstance(value, (int, float)):
        return not isinstance(value, bool)
    return isinstance(value, str)


@dataclass(frozen=True)
class Schema:
    label: str
    favorable: str
    protected: str
    unprivileged: str
    drop: tuple = ()
    categorical: tuple = ()

    def __post_init__(self):
        if self.label == self.protected:
            raise ValueError("label and protected columns must differ")
        if self.label in self.drop or self.protected in self.drop:
            raise ValueError("label/protected columns cannot be dropped")
        object.__setattr__(self, "favorable", str(self.favorable).strip())
        object.__setattr__(self, "unprivileged", str(self.unprivileged).strip())
        object.__setattr__(self, "drop", tuple(self.drop))
        object.__setattr__(self, "categorical", tuple(self.categorical))

    @classmethod
    def from_json(cls, path) -> "Schema":
        """Read a schema file; DataError unless it is a UTF-8 JSON object
        whose keys hold values of the documented types."""
        obj = read_json(path, "schema file")
        if not isinstance(obj, dict):
            raise DataError(f"schema file {path} is not a JSON object")
        try:
            fields = {
                key: obj[key]
                for key in ("label", "favorable", "protected", "unprivileged")
            }
        except KeyError as e:
            raise DataError(f"schema file {path} missing key {e}") from None
        fields.update(drop=obj.get("drop", []), categorical=obj.get("categorical", []))
        for key, value in fields.items():
            if not _schema_value_ok(key, value):
                raise DataError(
                    f"schema file {path}: {key!r} has the wrong type: {value!r:.80}"
                )
        try:
            return cls(**fields)
        except ValueError as e:
            raise DataError(f"schema file {path}: {e}") from None

    def to_json(self) -> str:
        payload = {
            "label": self.label,
            "favorable": self.favorable,
            "protected": self.protected,
            "unprivileged": self.unprivileged,
            "drop": list(self.drop),
            "categorical": list(self.categorical),
        }
        return json.dumps(payload, indent=2) + "\n"


@dataclass(frozen=True)
class Dataset:
    """Immutable rows + binary label/protected vectors.

    `cells` holds the retained feature columns as stripped strings, shape
    (p, f). `allow_degenerate` skips the class/group presence checks for
    prediction-only inputs (e.g. single probe rows).
    """

    feature_names: tuple
    cells: np.ndarray
    y: np.ndarray
    z: np.ndarray
    provenance: dict
    categorical_override: frozenset = frozenset()
    allow_degenerate: bool = field(default=False, repr=False)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.int8)
        z = np.asarray(self.z, dtype=np.int8)
        cells = np.asarray(self.cells, dtype=object)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(
            self, "categorical_override", frozenset(self.categorical_override)
        )
        p = len(y)
        if p == 0:
            raise EmptyAfterCleaning("dataset has no rows")
        if cells.shape != (p, len(self.feature_names)):
            raise ValueError("cells shape does not match rows/features")
        if len(z) != p:
            raise ValueError("|y| != |z|")
        if not self.allow_degenerate:
            if len(set(y.tolist())) < 2:
                raise SingleClassLabel("need both label classes")
            if len(set(z.tolist())) < 2:
                raise SingleGroupProtected("need both protected groups")
        for a in (y, z, cells):
            a.flags.writeable = False

    def subset(self, idx: np.ndarray) -> "Dataset":
        """The rows at `idx`, with a copy of this dataset's provenance."""
        return Dataset(
            self.feature_names,
            self.cells[idx],
            self.y[idx],
            self.z[idx],
            dict(self.provenance),
            self.categorical_override,
        )

    def digest(self) -> str:
        """Content hash over rows, labels, groups, and provenance."""
        h = hashlib.sha256()
        h.update(repr(self.provenance.get("source", "")).encode())
        h.update(repr(self.feature_names).encode())
        h.update(self.y.tobytes())
        h.update(self.z.tobytes())
        # each row's cells joined by 0x1f and ended by 0x1e, a block of rows
        # at a time, so no string of the whole dataset is built
        for start in range(0, len(self.y), _DIGEST_ROWS):
            block = self.cells[start : start + _DIGEST_ROWS].tolist()
            h.update("".join("\x1f".join(row) + "\x1e" for row in block).encode())
        return h.hexdigest()[:16]


class DataCharacteristics(NamedTuple):
    p: int  # data points
    f: int  # retained features, before one-hot expansion


def _columns(header: list, schema: Schema, path):
    """Indices of the kept feature columns, the label column and the
    protected column in a stripped header."""
    if len(set(header)) != len(header):  # columns are looked up by name
        raise DataError(f"{path} repeats a column name in its header")
    for col in (schema.label, schema.protected, *schema.drop, *schema.categorical):
        if col not in header:
            raise MissingColumn(col)
    keep = [
        i
        for i, name in enumerate(header)
        if name not in (schema.label, schema.protected) and name not in schema.drop
    ]
    if not keep:
        raise EmptyAfterCleaning("no feature columns retained by schema")
    return keep, header.index(schema.label), header.index(schema.protected)


def load_csv(path, schema: Schema) -> Dataset:
    """Load an RFC-4180 CSV with header; rows with missing cells are dropped.

    One pass over the file keeps only the cells it needs. Equal cells share
    one `str` object, so a column of few distinct values costs one pointer
    a row."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise EmptyAfterCleaning(f"{path} is empty")
            header = [h.strip() for h in header]
            keep, li, zi = _columns(header, schema, path)
            pick = operator.itemgetter(li, zi, *keep)
            intern = {}.setdefault
            width = len(header)
            cells, y, z = [], [], []
            dropped = 0
            for row in reader:
                if not row:  # a blank line is not a row
                    continue
                if len(row) == width:
                    label, group, *feats = map(str.strip, pick(row))
                    if label and group and "" not in feats:
                        cells += map(intern, feats, feats)
                        y.append(label == schema.favorable)
                        z.append(group != schema.unprivileged)
                        continue
                dropped += 1
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path} is not a UTF-8 CSV file: {e}") from None
    if dropped:
        log.info("dropped %d incomplete rows from %s", dropped, path)
    if not y:
        raise EmptyAfterCleaning(f"no usable rows in {path}")
    return Dataset(
        feature_names=tuple(header[i] for i in keep),
        cells=np.array(cells, dtype=object).reshape(len(y), len(keep)),
        y=np.array(y, dtype=np.int8),
        z=np.array(z, dtype=np.int8),
        provenance={"source": str(path), "dropped_rows": dropped},
        categorical_override=frozenset(schema.categorical),
    )


def characteristics(ds: Dataset) -> DataCharacteristics:
    return DataCharacteristics(p=len(ds.y), f=len(ds.feature_names))


def split(ds: Dataset, train_fraction: float, seed: int):
    """Random (train, val) partition; re-draws until `subset` accepts both
    sides (both label classes, both protected groups), up to 100 attempts."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0,1)")
    p = len(ds.y)
    n_train = round_half_up(train_fraction * p)
    if n_train < 1 or n_train >= p:
        raise DegenerateSplit(f"{p} rows cannot split at fraction {train_fraction}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        perm = rng.permutation(p)
        tr, va = np.sort(perm[:n_train]), np.sort(perm[n_train:])
        try:
            return ds.subset(tr), ds.subset(va)
        except (SingleClassLabel, SingleGroupProtected):
            continue
    raise DegenerateSplit("no valid partition in 100 draws")


def _parse_numeric(cell: str):
    """float(cell), or None when it does not parse to a finite number."""
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _floats(col: np.ndarray):
    """float() of every cell of an object column, or None when a cell does
    not parse. numpy converts each cell as float() does, bit for bit."""
    try:
        return col.astype(np.float64)
    except ValueError:
        return None


def _numbers(col: np.ndarray) -> np.ndarray:
    """Each cell of an object column as a float, 0.0 where it does not
    parse to a finite number."""
    values = _floats(col)
    if values is None:  # a cell that float() rejects
        return np.array([v if (v := _parse_numeric(c)) is not None else 0.0 for c in col])
    values[~np.isfinite(values)] = 0.0
    return values


def _reject_stray_cells(name: str, col: np.ndarray, distinct: dict) -> None:
    """DataError when more than half of a column's cells parse to finite
    numbers but not all do. One stray cell would otherwise make the column
    categorical, one one-hot column per distinct number."""
    bad = [c for c in distinct if _parse_numeric(c) is None]
    if len(bad) == len(distinct):
        return
    stray = set(bad)
    numbers = sum(c not in stray for c in col.tolist())
    if 2 * numbers > len(col):
        raise DataError(
            f"column {name!r} is numeric in {numbers} of {len(col)} training"
            f" rows but holds {bad[0]!r}; list it under 'drop' or 'categorical'"
            " in the schema"
        )


@dataclass
class Encoder:
    """Column encodings fitted on the training split.

    Numeric columns pass through; categorical columns one-hot in
    first-appearance order, held as codes. Unseen categories become an
    all-zero block and unparseable numeric cells become 0.0. A column whose
    training cells are mostly, but not all, finite numbers raises DataError.
    """

    feature_names: tuple
    kinds: tuple  # "numeric" | "categorical" per feature
    categories: dict  # name -> tuple of values, first-appearance order

    @classmethod
    def fit(cls, ds: Dataset, parsed: dict | None = None) -> "Encoder":
        """The encodings of ds's columns. `parsed`, when given, receives
        each numeric column's floats by column index, which
        `transform(ds, parsed)` takes instead of parsing the cells again."""
        kinds, categories = [], {}
        for j, name in enumerate(ds.feature_names):
            col = ds.cells[:, j]
            forced = name in ds.categorical_override
            values = None if forced else _floats(col)
            if values is not None and np.isfinite(values).all():
                kinds.append("numeric")
                if parsed is not None:
                    parsed[j] = values
                continue
            kinds.append("categorical")
            distinct = dict.fromkeys(col.tolist())
            if not forced:
                _reject_stray_cells(name, col, distinct)
            categories[name] = tuple(distinct)
        return cls(ds.feature_names, tuple(kinds), categories)

    def transform(self, ds: Dataset, parsed: dict | None = None) -> "Layout":
        """ds's layout; `parsed` holds numeric columns' floats by column
        index, as `fit` gave them for these cells."""
        if ds.feature_names != self.feature_names:
            raise ValueError("dataset features do not match encoder")
        parsed = parsed or {}
        numeric, coded, at = [], [], 0
        for j, (name, kind) in enumerate(zip(self.feature_names, self.kinds)):
            col = ds.cells[:, j]
            if kind == "numeric":
                numeric.append(parsed[j] if j in parsed else _numbers(col))
                at += 1
                continue
            levels = self.categories[name]
            index = {v: k for k, v in enumerate(levels, 1)}  # an unseen category is 0
            codes = np.fromiter(
                map(index.get, col.tolist(), repeat(0)), np.min_scalar_type(len(levels)), len(col)
            )
            coded.append(Coded(at, codes, np.zeros(len(levels)), np.ones(len(levels))))
            at += len(levels)
        return Layout(np.column_stack(numeric) if numeric else np.empty((len(ds.y), 0)), coded)


class Coded(NamedTuple):
    """A categorical feature's columns from `start` on, as one code per row:
    1 + the column k the row holds at hi[k], or 0; the rest hold lo. Codes
    are of the narrowest unsigned type that holds 1 + the columns (one
    byte up to 255 levels, two up to 65,535); whoever does arithmetic on
    them or indexes by them every epoch widens them to `intp` first."""

    start: int
    codes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


class Layout:
    """An encoded matrix: its numeric columns as one float matrix, its
    categorical features as codes. `fill` builds the whole dense matrix;
    nothing keeps it, so it lives for the one fit or predict that asks."""

    def __init__(self, numeric: np.ndarray, coded=()):
        self.numeric, self.coded = numeric, tuple(coded)
        self.width = numeric.shape[1] + sum(len(c.lo) for c in self.coded)
        self.shape = (len(numeric), self.width)
        self.lo = np.zeros(self.width)  # each column's lo; 0 where numeric
        at = np.ones(self.width, dtype=bool)
        for c in self.coded:
            self.lo[c.start : c.start + len(c.lo)] = c.lo
            at[c.start : c.start + len(c.lo)] = False
        self.numeric_at = np.flatnonzero(at)  # the numeric columns' places

    def fill(self, cols=None, out=None) -> np.ndarray:
        """The dense matrix of the columns at sorted indices `cols`, or of all
        with None, written to `out` if given; else a new C-contiguous matrix,
        or the numeric matrix itself if `cols` is None and none is coded."""
        X = self if cols is None else self.select(cols)
        if out is None:
            if not X.coded:
                return X.numeric if cols is None else np.ascontiguousarray(X.numeric)
            out = np.empty(X.shape)
        out[...] = X.lo
        out[:, X.numeric_at] = X.numeric
        for c in X.coded:
            hot = np.flatnonzero(c.codes)
            col = c.codes[hot].astype(np.intp)
            col -= 1
            out[hot, c.start + col] = c.hi[col]
        return out

    def rows(self, idx) -> "Layout":
        """The rows at `idx`, a slice or an index array."""
        coded = [c._replace(codes=c.codes[idx]) for c in self.coded]
        return Layout(self.numeric[idx], coded)

    def select(self, cols) -> "Layout":
        """The columns at sorted indices `cols`. A row whose coded column
        is not selected gets code 0."""
        cols = np.asarray(cols, dtype=np.intp)
        numeric = self.numeric[:, np.flatnonzero(np.isin(self.numeric_at, cols))]
        coded = []
        for c in self.coded:
            kept = cols[(cols >= c.start) & (cols < c.start + len(c.lo))] - c.start
            if len(kept):
                code = np.zeros(len(c.lo) + 1, dtype=c.codes.dtype)
                code[kept + 1] = np.arange(1, len(kept) + 1)
                start = np.searchsorted(cols, c.start + kept[0])
                coded.append(Coded(int(start), code[c.codes], c.lo[kept], c.hi[kept]))
        return Layout(numeric, coded)


@dataclass(frozen=True)
class FeatureMatrix:
    """A split encoded once by an Encoder fitted on the training split: its
    layout, labels and groups. Trials use the layout, not the cells."""

    layout: Layout
    y: np.ndarray
    z: np.ndarray
    encoder: Encoder
    # component kind -> the component fitted on `layout`, which every later
    # train() on this matrix applies instead of fitting it again
    _components: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def encode(ds: Dataset, encoder: Encoder | None = None) -> FeatureMatrix:
    """Encode ds with `encoder`, or with one fitted on ds, whose numeric
    columns' floats the transform takes, so each cell is parsed once."""
    parsed = {}
    enc = Encoder.fit(ds, parsed) if encoder is None else encoder
    return FeatureMatrix(enc.transform(ds, parsed), ds.y, ds.z, enc)
