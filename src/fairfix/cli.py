"""Command-line surface: repair, baseline, build-db, evaluate.

Exit codes: 0 success, 1 evaluate judged the repair not worth shipping,
2 usage or cross-file validation error, 3 data error, 4 the input model is
already fair. Machine-readable output goes to files; stdout carries one
human summary line per command, stderr a repair report's warnings.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .fairea import (
    DEFAULT_REPETITIONS,
    TradeoffBaseline,
    TradeoffPoint,
    TradeoffRegion,
    build_baseline,
    classify_region,
)
from .metrics import MetricKind, NonPositiveDI, UndefinedRate
from .model_zoo import AlgorithmKind
from .prune_db import (
    BuildConfig,
    Database,
    MalformedEntry,
    UnknownVersion,
    build_entry,
    load as load_db,
    save as save_db,
)
from .repair_core import AlreadyFair, RepairConfig, fit_buggy, repair
from .tabular import DataError, Schema, load_csv, read_json

log = logging.getLogger("fairfix.cli")

_MODELS = [a.value for a in AlgorithmKind]
_METRICS = [m.value for m in MetricKind]


def _configure_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(os.environ.get("FAIRFIX_LOG", "error"), logging.ERROR)
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _load_dataset(data_path, schema_path):
    schema = Schema.from_json(schema_path)
    return load_csv(data_path, schema), schema


def cmd_repair(args) -> int:
    ds, _ = _load_dataset(args.data, args.schema)
    cfg = RepairConfig(
        metric=MetricKind(args.metric),
        trials=args.trials,
        seconds=args.seconds,
        seed=args.seed,
    )
    db = load_db(args.db) if args.db else None
    result = repair(ds, AlgorithmKind(args.model), cfg, db)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    Path(args.out).write_text(result.report_json(), encoding="utf-8")
    log.info("report written to %s", args.out)
    print(
        f"region={result.region.value}"
        f" acc {result.original.acc:.4f}→{result.repaired.acc:.4f}"
        f" bias {result.original.bias:.4f}→{result.repaired.bias:.4f}"
    )
    return 0


def cmd_baseline(args) -> int:
    ds, _ = _load_dataset(args.data, args.schema)
    _, val_fm, fp = fit_buggy(ds, AlgorithmKind(args.model), args.seed)
    baseline = build_baseline(
        fp, val_fm, MetricKind(args.metric), repetitions=args.reps, seed=args.seed
    )
    out = Path(args.out)
    out.write_text(baseline.to_json(), encoding="utf-8")
    csv_path = out.with_suffix(".csv")
    rows = ["degree,bias,acc"]
    rows += [f"{d},{pt.bias},{pt.acc}" for d, pt in baseline.points]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    log.info("baseline written to %s and %s", out, csv_path)
    print(
        f"baseline metric={args.metric} a0={baseline.a0:.4f}"
        f" points={len(baseline.points)}"
    )
    return 0


def cmd_build_db(args) -> int:
    corpus = Path(args.corpus)
    manifest_path = corpus / "manifest.json"
    manifest = read_json(manifest_path, "corpus manifest")
    if not isinstance(manifest, list):
        raise DataError("corpus manifest must be a JSON array")

    bcfg = BuildConfig(
        runs=args.runs,
        trials=args.trials,
        top_k=args.top_k,
        top_m=args.top_m,
        dev=args.dev,
    )
    entries = []
    row_seeds = np.random.SeedSequence(args.seed).generate_state(max(len(manifest), 1))
    for i, row in enumerate(manifest):
        try:
            data_rel, schema_rel, model = row["data"], row["schema"], row["model"]
        except (KeyError, TypeError) as exc:
            raise DataError(f"manifest entry {i} missing key: {exc}") from exc
        for key, value in (("data", data_rel), ("schema", schema_rel)):
            if not isinstance(value, str):
                raise DataError(f"manifest entry {i}: {key} {value!r} is not a string")
        metric = row.get("metric", "spd")
        if model not in _MODELS:
            raise DataError(f"manifest entry {i}: unknown model {model!r}")
        if metric not in _METRICS:
            raise DataError(f"manifest entry {i}: unknown metric {metric!r}")
        data_path = corpus / data_rel
        schema_path = corpus / schema_rel
        ds, schema = _load_dataset(data_path, schema_path)
        log.info("building entry %d: %s / %s / %s", i, data_rel, model, metric)
        entry = build_entry(
            ds,
            Path(data_rel).name,
            schema.protected,
            AlgorithmKind(model),
            dataclasses.replace(bcfg, metric=MetricKind(metric)),
            seed=int(row_seeds[i]),
        )
        entries.append(entry)
    db = Database(provenance=bcfg.provenance(args.seed), entries=tuple(entries))
    save_db(db, args.out)
    print(f"built {len(entries)} entries -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    report = read_json(args.report, "report")
    baseline = TradeoffBaseline.from_payload(read_json(args.baseline, "baseline"))
    if not isinstance(report, dict):
        raise DataError(f"report {args.report} is not a JSON object")
    candidate = TradeoffPoint.from_payload(report.get("repaired"), "report repaired")
    if report.get("metric") != baseline.metric.value:
        print(
            f"metric mismatch: report={report.get('metric')!r}"
            f" baseline={baseline.metric.value!r}",
            file=sys.stderr,
        )
        return 2
    region = classify_region(baseline, candidate)
    print(f"region={region.value}")
    return 0 if region in (TradeoffRegion.GOOD, TradeoffRegion.WIN) else 1


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fairfix",
        description="Repair unfair classifiers by fairness-aware configuration search.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("repair", help="search for a fairer pipeline configuration")
    r.add_argument("--data", required=True, help="CSV file")
    r.add_argument("--schema", required=True, help="schema JSON file")
    r.add_argument("--model", required=True, choices=_MODELS)
    r.add_argument("--metric", required=True, choices=_METRICS)
    r.add_argument("--trials", type=positive_int, default=200)
    r.add_argument("--seconds", type=positive_float, default=None,
                   help="optional wall-clock cap on top of --trials")
    r.add_argument("--seed", type=non_negative_int, default=0)
    r.add_argument("--db", default=None, help="pruned search-space database")
    r.add_argument("--out", required=True, help="report JSON path")
    r.set_defaults(func=cmd_repair)

    b = sub.add_parser("baseline", help="build the mutation trade-off baseline")
    b.add_argument("--data", required=True)
    b.add_argument("--schema", required=True)
    b.add_argument("--model", required=True, choices=_MODELS)
    b.add_argument("--metric", required=True, choices=_METRICS)
    b.add_argument("--reps", type=positive_int, default=DEFAULT_REPETITIONS)
    b.add_argument("--seed", type=non_negative_int, default=0)
    b.add_argument("--out", required=True, help="baseline JSON path (CSV lands beside it)")
    b.set_defaults(func=cmd_baseline)

    build = BuildConfig()
    d = sub.add_parser("build-db", help="build a pruned search-space database")
    d.add_argument("--corpus", required=True, help="directory with manifest.json")
    d.add_argument("--runs", type=positive_int, default=build.runs)
    d.add_argument("--trials", type=positive_int, default=build.trials)
    d.add_argument("--top-k", type=positive_int, default=build.top_k, dest="top_k")
    d.add_argument("--top-m", type=positive_int, default=build.top_m, dest="top_m")
    d.add_argument("--dev", type=positive_float, default=build.dev)
    d.add_argument("--seed", type=non_negative_int, default=0)
    d.add_argument("--out", required=True, help="database JSON path")
    d.set_defaults(func=cmd_build_db)

    e = sub.add_parser("evaluate", help="re-classify a repair report against a baseline")
    e.add_argument("--report", required=True)
    e.add_argument("--baseline", required=True)
    e.set_defaults(func=cmd_evaluate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging()
    try:
        return args.func(args)
    except AlreadyFair as exc:
        print(f"already fair: {exc}", file=sys.stderr)
        return 4
    # a metric the data leaves undefined fails a trial inside the search;
    # outside it (the buggy model, the baseline) the input cannot be judged
    except (
        DataError, MalformedEntry, UnknownVersion, UndefinedRate, NonPositiveDI, OSError
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a process Ctrl-C ended


if __name__ == "__main__":
    sys.exit(main())
