"""Sampling primitives for the file-system model and trace generator.

The paper specifies its distributions precisely (§4):

* file sizes — realistic Impressions-style population (lognormal body,
  heavy tail);
* file popularities — "small integer popularities generated from a
  Zipfian distribution";
* I/O sizes and working-set subregion sizes — "Poisson, modified by
  clamping to the filesize";
* I/O starting points — uniform.

All samplers draw from a caller-supplied :class:`random.Random` so the
streams stay independent and reproducible.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import List

from repro.errors import ConfigError

#: The largest mean :func:`poisson_sample` draws with Knuth's product
#: loop; above it the sample is a rounded normal.
KNUTH_MAX_MEAN = 50


def poisson_sample(rng: random.Random, mean: float) -> int:
    """Sample from a Poisson distribution with the given mean.

    Uses Knuth's product method for small means and a normal
    approximation (rounded, clamped at 0) for large ones, which is more
    than adequate for I/O-size sampling.
    """
    if not 0 <= mean < math.inf:
        raise ConfigError("Poisson mean must be finite and non-negative, got %r" % (mean,))
    if mean == 0:
        return 0
    if mean > KNUTH_MAX_MEAN:
        return max(0, round(rng.gauss(mean, math.sqrt(mean))))
    draw = rng.random
    threshold = math.exp(-mean)
    count = 0
    product = draw()
    while product > threshold:
        count += 1
        product *= draw()
    return count


def truncated_lognormal_sample(
    rng: random.Random, mu: float, sigma: float, max_value: float
) -> float:
    """Sample a lognormal, redrawing (up to a bound) to stay <= max_value."""
    if sigma < 0:
        raise ConfigError("sigma must be non-negative")
    for _attempt in range(64):
        value = rng.lognormvariate(mu, sigma)
        if value <= max_value:
            return value
    return max_value


def pareto_sample(rng: random.Random, alpha: float, minimum: float) -> float:
    """Sample from a Pareto distribution with shape alpha and the given
    minimum (scale) value."""
    if alpha <= 0 or minimum <= 0:
        raise ConfigError("Pareto alpha and minimum must be positive")
    return minimum * rng.paretovariate(alpha)


def zipf_popularity(rng: random.Random, max_popularity: int = 16, s: float = 1.5) -> int:
    """Sample a small-integer popularity from a truncated Zipfian.

    Returns k in [1, max_popularity] with P(k) proportional to 1/k**s;
    most files get popularity 1, a few get large values.  The value is
    used directly as a sampling *weight* by the trace generator.
    """
    if max_popularity < 1:
        raise ConfigError("max popularity must be >= 1")
    if s <= 0:
        raise ConfigError("Zipf exponent must be positive")
    weights = [1.0 / (k ** s) for k in range(1, max_popularity + 1)]
    total = sum(weights)
    point = rng.random() * total
    cumulative = 0.0
    for k, weight in enumerate(weights, start=1):
        cumulative += weight
        if point <= cumulative:
            return k
    return max_popularity


class WeightedSampler:
    """O(log n) sampling from a fixed set of weighted items.

    Built once over the file population (or working-set pieces); uses a
    cumulative-sum array and binary search.  Weights must be positive.
    ``cumulative``, ``total`` and ``last`` are read-only: the trace
    generator's request loop makes :meth:`sample`'s pick inline on them.
    """

    def __init__(self, weights: List[float]) -> None:
        if not weights:
            raise ConfigError("WeightedSampler needs at least one weight")
        self.cumulative: List[float] = []
        total = 0.0
        for weight in weights:
            if weight <= 0:
                raise ConfigError("weights must be positive, got %r" % (weight,))
            total += weight
            self.cumulative.append(total)
        self.total = total
        self.last = len(self.cumulative) - 1

    def sample(self, rng: random.Random) -> int:
        """Return the index of a weight-proportionally chosen item."""
        index = bisect_right(self.cumulative, rng.random() * self.total)
        # only a point at the total itself would index past the end
        return index if index < self.last else self.last

    def __len__(self) -> int:
        return len(self.cumulative)
