"""Record the trade-off region of every repair each job makes, per
workload and benchmark seed, in regions.json.

    python3 benches/regions.py --workload search-dtree --seeds 0-29

run.py fails a run when one of its repairs lands in a worse region than
the table holds for the same job and seed. Regions do not depend on
timing, so one pass over the jobs suffices. Record them with the code
whose repair quality the benchmark should hold later changes to.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import run
from spans import RepairTap
from workloads import WORKLOADS


def job_regions(name: str, seed: int) -> dict:
    """job key -> the regions of its repairs, in call order."""
    workdir = run.WORK / f"regions-{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run.prepare_inputs(name, seed, workdir)
        workload = WORKLOADS[name](seed, workdir)
        workload.load()
        with RepairTap() as tap:
            calls = [run.run_call(job, tap) for job in workload.jobs()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for c in calls:
        if c.error or c.check:
            raise SystemExit(f"{name} seed {seed} {c.key}: {c.error or c.check}")
    return {c.key: [r.region for r in c.repairs] for c in calls}


def dump(table: dict) -> str:
    """The table as JSON with one line per workload seed."""
    blocks = []
    for name, seeds in table.items():
        rows = ",\n".join(f'  "{s}": {json.dumps(jobs)}' for s, jobs in seeds.items())
        blocks.append(f' "{name}": {{\n{rows}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-29")
    args = parser.parse_args(argv)
    table = json.loads(run.REGION_TABLE.read_text(encoding="utf-8"))
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            seeds = table.setdefault(name, {})
            seeds[str(seed)] = job_regions(name, seed)
            table[name] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
            run.REGION_TABLE.write_text(dump(table), encoding="utf-8")
            print(name, seed, seeds[str(seed)], flush=True)


if __name__ == "__main__":
    main()
