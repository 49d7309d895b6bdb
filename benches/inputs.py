"""Seeded input generation for the repair benchmark.

Every input is a pure function of the benchmark seed, so the same seed
gives the same CSV bytes, and fairfix only ever sees the generated files.
The benchmark writes a workload's inputs in a child process,

    PYTHONPATH=src python3 benches/inputs.py <workload> <seed> <workdir>

so that the generator's memory stays out of the measured peak RSS.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np

from fairfix.synth import biased_dataset, fixture_schema

# Adult-shaped categorical columns: (name, levels, skew). Skewed columns put
# most rows on a few levels, as Adult's native-country and workclass do.
CATEGORICAL = (
    ("workclass", 8, True),
    ("education", 16, False),  # correlated with x1, see adult_columns
    ("marital_status", 7, False),
    ("occupation", 14, False),
    ("relationship", 6, False),
    ("native_country", 40, True),
)


def sub_seed(seed: int, *tags: int) -> int:
    """Independent 32-bit seed for one input of one benchmark seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _level_probs(levels: int, skew: bool) -> np.ndarray:
    w = 1.0 / np.arange(1, levels + 1) ** 2 if skew else np.ones(levels)
    return w / w.sum()


def adult_columns(x1: np.ndarray, seed: int) -> dict:
    """Categorical cells for the rows of x1; education tracks x1."""
    rng = np.random.default_rng(seed)
    rows = len(x1)
    cols = {}
    for name, levels, skew in CATEGORICAL:
        if name == "education":
            score = x1 + rng.normal(0.0, 1.0, rows)
            level = np.clip(np.floor(score * 3.0 + levels / 2), 0, levels - 1)
            codes = level.astype(np.int64)
        else:
            codes = rng.choice(levels, size=rows, p=_level_probs(levels, skew))
        cols[name] = [f"{name[:3]}{k:02d}" for k in codes]
    return cols


def write_synthetic_csv(path, rows: int, seed: int, categorical: bool = False):
    """Write `biased_dataset(rows, 0.3, seed)` as a fixture-schema CSV.

    With `categorical`, the six Adult-shaped columns of CATEGORICAL are
    added after x1 and x2. Returns the schema the file loads with.
    """
    ds = biased_dataset(rows, 0.3, seed=seed)
    extra = adult_columns(ds.cells[:, 0].astype(float), seed) if categorical else {}
    header = ["x1", "x2", *extra, "group", "outcome"]
    columns = [ds.cells[:, 0], ds.cells[:, 1], *extra.values(), ds.z, ds.y]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*columns))
    return fixture_schema()


def write_schema(path, schema) -> None:
    Path(path).write_text(schema.to_json(), encoding="utf-8")


if __name__ == "__main__":
    from workloads import WORKLOADS

    name, seed, workdir = sys.argv[1:]
    WORKLOADS[name](int(seed), Path(workdir)).prepare()
