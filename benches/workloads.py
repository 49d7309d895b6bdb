"""The benchmark's workloads: seeded inputs plus the fairfix calls on them.

A workload writes its inputs as CSV files (`prepare`, which the benchmark
runs in a child process, see inputs.py), loads them back through
`load_csv` as a command-line user would, and exposes a list of jobs. A job
is one call into fairfix (a repair, or a `build_entry`) that returns a
fingerprint of what it produced; the benchmark loop runs the jobs in turn.
Each job's own repair seed is fixed, so the random designs are the same at
every benchmark seed and only the data changes with it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fairfix import prune_db, repair_core, tabular
from fairfix.metrics import MetricKind
from fairfix.model_zoo import AlgorithmKind
from fairfix.repair_core import RepairConfig

from inputs import sub_seed, write_schema, write_synthetic_csv

DTREE = AlgorithmKind.DECISION_TREE
GBOOST = AlgorithmKind.GRADIENT_BOOSTING
LOGREG = AlgorithmKind.LOGISTIC_REGRESSION


class CheckFailed(Exception):
    """A workload-level correctness check did not hold."""


@dataclass(frozen=True)
class Job:
    key: str
    run: Callable[[], str]  # returns a fingerprint of the call's output


def _repair_job(key, ds, algorithm, metric, trials, seed) -> Job:
    cfg = RepairConfig(metric=metric, trials=trials, seed=seed)

    def run():
        return repair_core.repair(ds, algorithm, cfg).log.digest()

    return Job(key, run)


class Workload:
    """Inputs for one benchmark seed, written under `workdir`."""

    name = ""
    algorithms = ()  # warmed up before timing starts
    inputs = 1
    rows = 2000
    categorical = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.schema_path = self.workdir / "schema.json"
        self.csvs = [self.workdir / f"input{k}.csv" for k in range(self.inputs)]
        self.datasets = []

    def prepare(self) -> None:
        """Write input k as the data of sub-seed (seed, k), and the schema."""
        for k, path in enumerate(self.csvs):
            schema = write_synthetic_csv(
                path, self.rows, sub_seed(self.seed, k), categorical=self.categorical
            )
        write_schema(self.schema_path, schema)

    def load(self) -> None:
        schema = tabular.Schema.from_json(self.schema_path)
        self.datasets = [tabular.load_csv(p, schema) for p in self.csvs]

    def jobs(self) -> list:
        raise NotImplementedError

    def setup_files(self) -> list:
        """CSV, schema and, where used, db file a command-line run reads."""
        return [self.csvs[0], self.schema_path]


class SearchDtree(Workload):
    """dtree repairs with SPD, each on its own biased_dataset(2000, 0.3)."""

    name = "search-dtree"
    algorithms = (DTREE,)
    inputs = 2
    trials = 120  # a full-length search; a repair() is about 100-300 trials

    def jobs(self):
        return [
            _repair_job(f"repair{k}", ds, DTREE, MetricKind.SPD, self.trials, k)
            for k, ds in enumerate(self.datasets)
        ]


class FitGboost(Workload):
    """gboost repairs with SPD on one biased_dataset(2000, 0.3)."""

    name = "fit-gboost"
    algorithms = (GBOOST,)
    trials = 11  # the default trial and the random design, no surrogate picks

    def jobs(self):
        ds = self.datasets[0]
        return [_repair_job("repair0", ds, GBOOST, MetricKind.SPD, self.trials, 0)]


class AdultLogreg(Workload):
    """logreg repairs with EOD on one 45k-row Adult-shaped CSV."""

    name = "adult-logreg"
    algorithms = (LOGREG,)
    rows = 45000
    categorical = True
    trials = 6  # no surrogate pick, so the trial configs are fixed

    def jobs(self):
        ds = self.datasets[0]
        return [_repair_job("repair0", ds, LOGREG, MetricKind.EOD, self.trials, 0)]


def entry_digest(entry) -> str:
    blob = json.dumps(entry.payload(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class PruneCorpus(Workload):
    """build_entry for dtree and for logreg, then a db-matched dtree repair,
    on each of `corpora` sets of three inputs."""

    name = "prune-corpus"
    algorithms = (DTREE, LOGREG)
    corpora = 2
    inputs = 3 * corpora
    build = prune_db.BuildConfig(runs=2, trials=30)
    trials = 30

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.entries = {}

    def _build_job(self, key, ds, algorithm):
        def run():
            entry = prune_db.build_entry(ds, key, "group", algorithm, self.build, 0)
            self.entries[key] = entry
            return entry_digest(entry)

        return Job(key, run)

    def _matched_job(self, key, ds, built):
        db_path = self.workdir / f"{key}.json"

        def run():
            entries = tuple(self.entries[k] for k in built)
            prune_db.save(prune_db.Database(entries=entries), db_path)
            db = prune_db.load(db_path)
            cfg = RepairConfig(metric=MetricKind.SPD, trials=self.trials, seed=0)
            result = repair_core.repair(ds, DTREE, cfg, db)
            chars = tabular.characteristics(ds)
            entry = prune_db.match_input(db, chars, result.state.L, DTREE)
            # same-shaped inputs tie on distance, so the first entry wins
            if entry is None or entry.dataset != built[0]:
                raise CheckFailed(f"matched {entry and entry.dataset}, not {built[0]}")
            return result.log.digest()

        return Job(key, run)

    def jobs(self):
        out = []
        for p in range(self.corpora):
            a, b, c = self.datasets[3 * p : 3 * p + 3]
            built = (f"corpus{p}-dtree", f"corpus{p}-logreg")
            out += [
                self._build_job(built[0], a, DTREE),
                self._build_job(built[1], b, LOGREG),
                self._matched_job(f"corpus{p}-matched", c, built),
            ]
        return out

    def setup_files(self):
        return [self.csvs[2], self.schema_path, self.workdir / "corpus0-matched.json"]


WORKLOADS = {w.name: w for w in (SearchDtree, FitGboost, AdultLogreg, PruneCorpus)}
