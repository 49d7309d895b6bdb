"""The optimizer's sampling and acquisition before a draw became a row:
a config drawn param by param, and expected improvement one candidate at a
time. Kept as oracles for `model_zoo.sample` + `decode_config` and for the
array form of `smbo._expected_improvement`."""

import math

import numpy as np

from fairfix.model_zoo import PipelineConfig


def sample_config(space, rng):
    """A config drawn in row order: the component, then each param; a
    pinned range takes no draw."""
    comp = space.components[int(rng.integers(len(space.components)))]
    params = {}
    for p in space.params:
        if p.kind == "cat":
            params[p.name] = p.values[int(rng.integers(len(p.values)))]
        elif p.lo == p.hi:
            params[p.name] = p.decode(0.0)
        else:
            params[p.name] = p.decode(rng.random())
    return PipelineConfig(space.algorithm, comp, params)


def expected_improvement(incumbent, mu, sigma):
    out = np.empty_like(mu)
    for i in range(len(mu)):
        d = incumbent - mu[i]
        s = sigma[i]
        if s <= 0.0:
            out[i] = max(d, 0.0)
            continue
        u = d / s
        cdf = 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))
        pdf = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        out[i] = d * cdf + s * pdf
    return out
