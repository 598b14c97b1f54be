"""Seedable counter-based random streams.

Every stochastic routine in the package draws from a Philox4x64-10
generator keyed by ``(seed, stream)``, where the stream id separates the
consumers so that e.g. a proposal sampler and a reference sampler given
the same seed never share draws.  Philox is counter-based, so a fixed
(seed, stream, position) triple yields the same value on every platform,
and routines consume positions in a documented fixed layout: results are
bit-identical regardless of internal batching.
"""

from __future__ import annotations

import numpy as np

from .pbf import as_int

POMM_STREAM = 0
GIBBS_STREAM = 1
REJECT_STREAM = 2


def generator(seed: int, stream: int) -> np.random.Generator:
    """Philox4x64-10 generator keyed by (seed, stream); a fractional or boolean seed raises."""
    seed = as_int("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be unsigned, got {seed}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
