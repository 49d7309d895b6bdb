"""Machine-speed calibration for the benchmark's timings.

The benchmark may run on a few cores of a shared machine whose speed
drifts by tens of percent over minutes: on a 2-CPU Xeon VM, identical
fairfix work took from 1.06 s to 2.11 s within 90 s, with CPU time equal
to wall time, so the CPU ran faster or slower; the process did not wait.
Medians within a run cannot remove drift that lasts longer than the run.

So the benchmark also times this fixed kernel, which does not use fairfix,
before its first timed call and after each call, for SHARE of the call's
wall time, and scales the run's times by `NOMINAL_S / kernel median`.
Sampling in proportion to the calls' time weights each stretch of the run
by how much of the run's work it held. The scaled figures read as seconds
on a machine on which the kernel takes NOMINAL_S. A change to fairfix
moves them as it moves wall time. The machine's drift moves the kernel
and the calls in the same direction, not always by the same factor, so
it cancels in part; README.md (Noise) gives the measured effect.

The kernel does what fairfix spends its time on: small numpy calls inside
Python loops (a CART split search, as in the tree splitter), pure-Python
parsing of CSV cells, and building and ranking many small dicts (as
candidate configurations are).
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

NOMINAL_S = 0.010  # the kernel's usual time on a 2-CPU Xeon VM at rest
SAMPLES = 5  # fewest kernel runs per sample batch
SHARE = 0.1  # kernel time after a call, as a share of the call's wall time
DEPTH = 6

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(1200, 6))
_Y = _X[:, 0] + 0.5 * _X[:, 1] ** 2 + _rng.normal(scale=0.3, size=1200)
_CELLS = [f"{v:.6f}" for v in _rng.normal(size=20000)]


def _grow(idx: np.ndarray, depth: int) -> int:
    """Node count of a variance-split tree over rows idx."""
    n = idx.size
    if depth == 0 or n < 20:
        return 1
    ln = np.arange(1, n)
    best = (np.inf, 0, 0.0)
    for j in range(_X.shape[1]):
        v = _X[idx, j]
        order = np.argsort(v, kind="stable")
        t = _Y[idx[order]]
        ls = np.cumsum(t)[:-1]
        lq = np.cumsum(t * t)[:-1]
        rs, rq = t.sum() - ls, (t * t).sum() - lq
        score = lq - ls * ls / ln + rq - rs * rs / (n - ln)
        i = int(np.argmin(score))
        if score[i] < best[0]:
            best = (score[i], j, v[order][i])
    _, j, cut = best
    left = _X[idx, j] <= cut
    return 1 + _grow(idx[left], depth - 1) + _grow(idx[~left], depth - 1)


def kernel() -> tuple:
    nodes = _grow(np.arange(_X.shape[0]), DEPTH)
    values = [float(c) for c in _CELLS]
    configs = [{"depth": k % 7, "leaf": k % 5, "cost": v} for k, v in enumerate(values[:2000])]
    best = min(configs, key=lambda c: (c["cost"], c["depth"]))
    total = 0.0
    for v in values:
        total += v * v
    return nodes, best["cost"], total


def sample(seconds: float = 0.0) -> list:
    """Wall times of kernel runs: SAMPLES of them, or more until they add
    up to `seconds`.

    The garbage collector is off while they run: a collection's cost grows
    with everything the process holds (inputs, trial logs), and the kernel
    must time the machine, not the heap.
    """
    out = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        while len(out) < SAMPLES or sum(out) < seconds:
            start = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return out


def speed(samples: list) -> float:
    """Factor that scales this run's wall times to the nominal speed."""
    return NOMINAL_S / statistics.median(samples)
