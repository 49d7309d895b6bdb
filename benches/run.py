"""Repair benchmark: closed-loop repair() workloads on seeded inputs.

    python3 benches/run.py --workload fit-gboost --seed 0 --seconds 40 --trace 0

One caller, workers=1: each fairfix call starts only after the previous
one returned. `--trace 0` times the workload for `--seconds` and prints the
end-to-end metrics; `--trace 1` runs each job plainly, under the span
tracer, and plainly again, and prints the per-layer metrics. Either way the
last line of stdout is one JSON object, and the exit code is 1 when a
correctness check fails. Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
if not (SRC / "fairfix" / "__init__.py").is_file():
    sys.exit(f"fairfix sources not found under {SRC}")
sys.path.insert(0, str(SRC))

# One BLAS thread: the benchmark is one caller on a machine of a few shared
# cores, and a second BLAS thread would time the scheduler, not fairfix.
# Set before numpy is first imported; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from fairfix import repair_core  # noqa: E402
from fairfix.metrics import MetricKind  # noqa: E402
from fairfix.repair_core import RepairConfig  # noqa: E402

import calibrate  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import RepairTap, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_BATCH = 4  # set-up probes per batch; batches spread over the run
WARMUP_TRIALS = 1
# job regions per workload and benchmark seed, recorded by regions.py
REGION_TABLE = BENCH / "regions.json"
# trade-off regions from worst to best; bad and inverted rank alike
RANK = {None: -1, "lose": 0, "bad": 1, "inverted": 1, "good": 2, "win": 3}

SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fairfix
from fairfix import prune_db, tabular
tabular.load_csv(sys.argv[2], tabular.Schema.from_json(sys.argv[3]))
if len(sys.argv) > 4:
    prune_db.load(sys.argv[4])
print(time.perf_counter() - start)
"""


@dataclass
class Call:
    key: str
    wall: float
    fingerprint: str | None
    repairs: list  # RepairTap records made during the call
    error: str | None  # the operation raised
    check: str | None = None  # a check inside the job failed


def run_call(job, tap) -> Call:
    n = len(tap.calls)
    start = time.perf_counter()
    fingerprint = error = check = None
    try:
        fingerprint = job.run()
    except CheckFailed as exc:
        check = str(exc)
    except Exception as exc:  # an operation failure, counted and reported
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return Call(job.key, wall, fingerprint, tap.calls[n:], error, check)


def closed_loop(jobs, seconds, tap, after_call=None, after_pass=None) -> list:
    """Run whole passes over the jobs for `seconds`, and at least two, so
    that every job repeats. `after_call(call)` runs after each call and
    `after_pass()` after each pass, when given.

    A new pass starts only if the mean pass so far still fits in the time
    left, so a run measures about `seconds`. Whole passes keep the mix of
    calls behind a run's medians the same in every run.
    """
    calls = []
    passes = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes >= 2 and elapsed + elapsed / passes > seconds:
            return calls
        for job in jobs:
            calls.append(run_call(job, tap))
            if after_call:
                after_call(calls[-1])
        passes += 1
        if after_pass:
            after_pass()


def fingerprints(calls) -> dict:
    """key -> list of (call fingerprint, trial-log digests of its repairs)."""
    out = {}
    for c in calls:
        digests = tuple(r.done and r.log.digest() for r in c.repairs)
        out.setdefault(c.key, []).append((c.fingerprint, digests))
    return out


def recorded_regions(workload: str, seed: int) -> dict | None:
    """job key -> the regions its repairs reached at the seed commit, or
    None when the table holds no entry for this seed."""
    table = json.loads(REGION_TABLE.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def region_problems(call, recorded) -> list:
    """A repair may not land in a worse region than the one recorded for
    it; without a record, only `lose` fails, which the code rules out
    (trial 0 is the buggy model and the chosen trial never costs more)."""
    got = [r.region for r in call.repairs]
    if recorded is None:
        return [f"{call.key}: region lose" for g in got if g == "lose"]
    want = recorded.get(call.key, [])
    if len(got) != len(want) or any(RANK[g] < RANK[w] for g, w in zip(got, want)):
        return [f"{call.key}: regions {got}, recorded {want}"]
    return []


def check_outputs(calls, recorded=None) -> list:
    problems = [f"{c.key}: {c.check}" for c in calls if c.check]
    for key, prints in fingerprints(calls).items():
        if len(set(prints)) > 1:
            problems.append(f"{key}: repeats disagree: {prints}")
    for c in calls:
        problems += region_problems(c, recorded)
    return problems


def repair_records(calls) -> list:
    return [r for c in calls for r in c.repairs]


def quality(records) -> dict:
    """Trial failures and repair outcomes over every repair() call made."""
    done = [r for r in records if r.done]
    raised = [r.budget for r in records if not r.done]
    logged = sum(len(r.log.records) for r in done)
    failed = sum(1 for r in done for t in r.log.records if t.status != "ok")
    failed += sum(raised)
    good = sum(1 for r in done if r.region in ("good", "win"))
    reductions = [(r.f1 - r.f_repaired) / r.f1 for r in done]
    return {
        "failed_trial_share": failed / (logged + sum(raised)),
        "good_win_share": good / len(records),
        "bias_reduction": statistics.median(reductions),
    }


def setup_samples(files) -> list:
    """Times of SETUP_BATCH fresh-process set-ups: import fairfix, load the
    inputs."""
    samples = []
    for _ in range(SETUP_BATCH):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, files)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def prepare_inputs(name: str, seed: int, workdir: Path) -> None:
    """Write the workload's inputs in a child process, so that the
    generator's memory is not part of this process's peak RSS."""
    subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), name, str(seed), str(workdir)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=120,
    )


def warm_up(workload) -> None:
    """A one-trial repair per algorithm on the workload's first input, so
    that lazy set-up and the allocator's first growth at full data size
    are not timed."""
    for algorithm in workload.algorithms:
        repair_core.repair(
            workload.datasets[0],
            algorithm,
            RepairConfig(metric=MetricKind.SPD, trials=WARMUP_TRIALS),
        )


def end_to_end(calls, setups, kernel) -> dict:
    """`setups`: the set-up probe times taken over the run, of which the
    median is reported. `kernel`: the calibration kernel's times, which
    scale the repair timings to the nominal machine speed (see
    calibrate.py); their wall times are printed too. Set-up is not scaled:
    the probes, mostly imports in fresh processes, hardly follow the
    machine's drift."""
    records = repair_records(calls)
    done = [r for r in records if r.done]
    walls = [r.wall for r in done]
    trials = sum(len(r.log.records) for r in done)
    busy = sum(c.wall for c in calls)
    speed = calibrate.speed(kernel)
    q = quality(records)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "repair_s": (statistics.median(walls) * speed, "s"),
        "trials_per_s": (trials / (busy * speed), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_trial_share": (1.0 - q["failed_trial_share"], "ratio"),
        "failed_trial_share": (q["failed_trial_share"], "ratio"),
        "good_win_share": (q["good_win_share"], "ratio"),
        "bias_reduction": (q["bias_reduction"], "ratio"),
        "repair_wall_s": (statistics.median(walls), "s"),
        "trials_per_wall_s": (trials / busy, "1/s"),
        "kernel_s": (statistics.median(kernel), "s"),
        "kernel_samples": (len(kernel), "count"),
    }


# metrics gated by BENCHMARK.json; the rest are printed only, see README.md
GATED = ("repair_s", "trials_per_s", "setup_s", "peak_rss_mb", "ok_trial_share")


def plain_run(workload, args, recorded):
    setups, last = [], [float("-inf")]
    kernel = calibrate.sample()

    def after_call(call):
        kernel.extend(calibrate.sample(calibrate.SHARE * call.wall))

    def after_pass():
        # set-up probes after the first pass, then at most every quarter-run
        if time.perf_counter() - last[0] >= args.seconds / 4:
            setups.extend(setup_samples(workload.setup_files()))
            last[0] = time.perf_counter()

    with RepairTap() as tap:
        calls = closed_loop(workload.jobs(), args.seconds, tap, after_call, after_pass)
    metrics = end_to_end(calls, setups, kernel)
    return calls, check_outputs(calls, recorded), metrics, GATED


def traced_run(workload, args, recorded):
    """Each job runs plainly, traced, then plainly again. Repeated repairs
    in one process speed up over the first few calls (five adult-logreg
    repairs took 7.7 s down to 4.3 s), so bracketing the traced call keeps
    that drift out of the overhead ratio."""
    tracer, plain_tap, traced_tap = Tracer(), RepairTap(), RepairTap()
    with tracer:
        workload.load()
    plain, traced = [], []
    for job in workload.jobs():
        with plain_tap:
            plain.append(run_call(job, plain_tap))
        with tracer, traced_tap:
            traced.append(run_call(job, traced_tap))
        with plain_tap:
            plain.append(run_call(job, plain_tap))
    problems = check_outputs(plain + traced, recorded)
    spans_path = WORK / "spans" / f"{workload.name}-seed{args.seed}.ndjson"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.log.write_ndjson(spans_path)
    print(f"spans: {len(tracer.log)} written to {spans_path.relative_to(ROOT)}")
    metrics = layer_metrics(tracer.log, repair_records(plain), repair_records(traced))
    for name, value in quality(repair_records(traced)).items():
        metrics[f"quality.{name}"] = (value, "ratio")
    return plain + traced, problems, metrics, tuple(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        prepare_inputs(args.workload, args.seed, workdir)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.load()
        warm_up(workload)
        run = traced_run if args.trace else plain_run
        recorded = recorded_regions(args.workload, args.seed)
        calls, problems, metrics, reported = run(workload, args, recorded)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace} calls={len(calls)}")
    for c in calls:
        walls = " ".join(f"{r.wall:.3f}" for r in c.repairs)
        print(f"  call {c.key:<16} {c.wall:8.3f} s; repair() walls: {walls}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    for p in problems:
        print(f"CHECK FAILED {p}")
    failed = sum(1 for c in calls if c.error)
    for c in calls:
        if c.error:
            print(f"call {c.key} failed: {c.error}")
    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in reported},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
