"""Search-space pruning: reuse winning configurations from past repairs.

An offline pass repairs the input several times and distills the winners
into a database entry (kept components, tightened parameter ranges). A new
repair on a similar input then searches that smaller space.

Run: python3 demos/pruning_speedup.py  (about 13 s on a 2-CPU machine)
"""

from fairfix.metrics import MetricKind
from fairfix.model_zoo import AlgorithmKind
from fairfix.prune_db import BuildConfig, Database, build_entry
from fairfix.repair_core import RepairConfig, pseudo_cost, repair
from fairfix.synth import biased_dataset


def first_improvement(res, budget):
    for r in res.log.records:
        if (r.index > 0 and r.status == "ok"
                and r.cost < pseudo_cost(r.beta, res.state.a0)):
            return r.index
    return budget


def main():
    ds = biased_dataset(rows=2000, disparity=0.3, seed=0)

    print("building a database entry from 5 offline repair runs ...")
    bcfg = BuildConfig(runs=5, trials=40)
    entry = build_entry(ds, "synth-2000", "group",
                        AlgorithmKind.DECISION_TREE, bcfg, seed=42)
    db = Database(provenance=bcfg.provenance(42), entries=(entry,))
    print(f"kept components: {[c.value for c in entry.components]}")
    for name, spec in entry.payload()["params"].items():
        print(f"  {name}: {spec}")

    budget = 60
    print(f"\nrepair with {budget} trials, default space vs pruned space:")
    for seed in range(3):
        plain = repair(ds, AlgorithmKind.DECISION_TREE,
                       RepairConfig(MetricKind.SPD, trials=budget, seed=seed))
        pruned = repair(ds, AlgorithmKind.DECISION_TREE,
                        RepairConfig(MetricKind.SPD, trials=budget, seed=seed),
                        db=db)
        print(f"  seed {seed}:"
              f" default {plain.region.value:>5}"
              f" (bias {plain.repaired.bias:.3f}, acc {plain.repaired.acc:.3f})"
              f" | pruned {pruned.region.value:>5}"
              f" (bias {pruned.repaired.bias:.3f}, acc {pruned.repaired.acc:.3f})")


if __name__ == "__main__":
    main()
