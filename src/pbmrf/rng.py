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
    """Philox4x64-10 generator keyed by (seed, stream).

    A fractional or boolean seed, or one outside [0, 2^64 - 1], raises a
    ValueError naming ``seed``.
    """
    seed = as_int("seed", seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64 - 1], got {seed}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
