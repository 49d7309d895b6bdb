"""Build a mutation baseline and see how candidate repairs classify.

The baseline mutates an increasing share of the model's predictions to the
majority class; each mutation degree gives one (bias, accuracy) point. A
candidate repair is then judged against the polyline those points draw.

Run: python3 demos/baseline_regions.py
"""

from fairfix.fairea import TradeoffPoint, build_baseline, classify_region
from fairfix.metrics import MetricKind
from fairfix.model_zoo import AlgorithmKind
from fairfix.repair_core import fit_buggy
from fairfix.synth import biased_dataset


def main():
    ds = biased_dataset(rows=2000, disparity=0.3, seed=0)
    # the 7:3 split, encoded, and the default decision tree fitted on train
    _, val_fm, fp = fit_buggy(ds, AlgorithmKind.DECISION_TREE, seed=0)
    baseline = build_baseline(fp, val_fm, MetricKind.SPD, seed=0)

    o = baseline.original
    print(f"original model: bias={o.bias:.3f} acc={o.acc:.3f}")
    print(f"pseudo-model accuracy a0={baseline.a0:.3f}")
    print("\ndegree   bias    acc")
    for degree, pt in baseline.points:
        print(f"  {degree:.1f}   {pt.bias:.3f}  {pt.acc:.3f}")

    print("\ncandidates:")
    for bias, acc in [(0.10, 0.86), (0.10, 0.89), (0.10, 0.70), (0.40, 0.85)]:
        region = classify_region(baseline, TradeoffPoint(bias=bias, acc=acc))
        print(f"  bias={bias:.2f} acc={acc:.2f} -> {region.value}")


if __name__ == "__main__":
    main()
