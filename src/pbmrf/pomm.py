"""Partially ordered Markov models: sampling and density evaluation.

A POMM is what elimination leaves behind: one conditional table per
eliminated variable, giving P(x_i = 1 | x_D) for the variable's
dependency set D at the moment it was summed out.  Every dependency is
eliminated later, so drawing variables in reverse elimination order is a
single backward pass and the product of the conditionals is a normalised
joint density.

Sampling, density evaluation and the rejection sampler share one pass,
:func:`_walk`, over a column-major (n, count) batch of states;
:func:`state_texts` renders rows of states as 0/1 text.

Sampling is reproducible: sample s always consumes the s-th block of
per-variable uniforms from the Philox stream (seed, POMM_STREAM), so
enlarging a batch never changes earlier samples.  Philox fills rows in
sequence, so drawing them in blocks of _BLOCK_ROWS, and each block in
panels of _PANEL rows, changes no number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pbf import _allocate, as_int, table_rows
from .rng import POMM_STREAM, generator

__all__ = [
    "PommConditional",
    "PartiallyOrderedMarkovModel",
    "SampleBatch",
    "sample",
    "log_density_many",
    "state_texts",
]

# Rows drawn and decided at once by :func:`sample` and by the rejection
# sampler, and rendered as text at once by the command line.
_BLOCK_ROWS = 4096

# Rows per panel of a block transpose: a panel and its transpose stay in
# cache, where one whole transpose strides through memory.  On a 4,096 x
# 900 block (2 CPUs), 256-row panels copy float64 uniforms in half the time
# of one whole transpose and uint8 states in a sixth; 512-row panels lose
# half the uint8 gain.
_PANEL = 256


@dataclass(frozen=True)
class PommConditional:
    """P(x_variable = 1 | dependencies), tabulated over all 2^k assignments.

    Bit k of the table index is the value of ``depends_on[k]``.  Only the
    probability of the "on" state is given; the "off" probability is
    derived, so the pair cannot drift apart.  The log table is built once,
    with the conditional, and is read-only like ``prob_one``.
    """

    variable: int
    depends_on: tuple[int, ...]
    prob_one: np.ndarray = field(repr=False)
    _log: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        deps = tuple(int(v) for v in self.depends_on)
        probs = np.asarray(self.prob_one, dtype=float).reshape(-1).copy()
        if probs.size != 1 << len(deps):
            raise ValueError(
                f"conditional for {self.variable} needs {1 << len(deps)} rows, "
                f"got {probs.size}"
            )
        if not np.all((probs >= 0.0) & (probs <= 1.0)):  # NaN too
            raise ValueError(
                f"prob_one of the conditional for {self.variable} leaves [0, 1]"
            )
        with np.errstate(divide="ignore"):
            log = np.stack([np.log1p(-probs), np.log(probs)], axis=1).reshape(-1)
        probs.setflags(write=False)
        log.setflags(write=False)
        object.__setattr__(self, "variable", int(self.variable))
        object.__setattr__(self, "depends_on", deps)
        object.__setattr__(self, "prob_one", probs)
        object.__setattr__(self, "_log", log)

    def log_table(self) -> np.ndarray:
        """ln P(x_variable | x_deps); bit 0 is x_variable, bit k+1 depends_on[k]."""
        return self._log


@dataclass(frozen=True)
class PartiallyOrderedMarkovModel:
    """Conditional tables in elimination order; the joint is their product.

    Each variable appears once, each dependency set only mentions
    variables eliminated later, and the last table has no dependencies.
    """

    n: int
    conditionals: tuple[PommConditional, ...]

    def __post_init__(self):
        seen = [c.variable for c in self.conditionals]
        if len(set(seen)) != len(seen) or len(seen) != self.n:
            raise ValueError("conditionals must cover each variable exactly once")
        later: set[int] = set()
        for cond in reversed(self.conditionals):
            if not set(cond.depends_on).issubset(later):
                raise ValueError(
                    f"variable {cond.variable} depends on already-eliminated nodes"
                )
            later.add(cond.variable)
        if self.conditionals and self.conditionals[-1].depends_on:
            raise ValueError("the last conditional must be unconditional")


@dataclass(frozen=True)
class SampleBatch:
    """Binary states plus the log density each was drawn with."""

    states: np.ndarray = field(repr=False)
    log_densities: np.ndarray = field(repr=False)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.uint8)
        dens = np.asarray(self.log_densities, dtype=float)
        if states.ndim != 2 or dens.shape != (states.shape[0],):
            raise ValueError("states and log_densities must match in length")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "log_densities", dens)

    @property
    def count(self) -> int:
        return self.states.shape[0]


def _uniform_columns(rng, count: int, width: int) -> np.ndarray:
    """``rng.random((count, width)).T`` in C order, drawn _PANEL rows at a time.

    Philox fills rows in sequence, so drawing in panels changes no number;
    each panel is transposed while it is in cache, and no row-major block
    is ever held whole.  Row c holds every sample's c-th draw contiguously.
    """
    columns = np.empty((width, count))
    for start in range(0, count, _PANEL):
        stop = min(start + _PANEL, count)
        columns[:, start:stop] = rng.random((stop - start, width)).T
    return columns


def _walk(conditionals, states: np.ndarray, uniforms=None) -> np.ndarray:
    """Log density of each column of a column-major (n, count) 0/1 batch.

    Sums over ``conditionals`` in the order given.  With ``uniforms`` of
    shape (>= len(conditionals), count), conditional c first sets its own
    variable in ``states`` to uniforms[c] < P(x = 1 | dependencies), so
    each conditional must come after those of its dependencies.
    """
    log_dens = np.zeros(states.shape[1])
    for c, cond in enumerate(conditionals):
        rows = table_rows(states, cond.depends_on)
        x = states[cond.variable]
        if uniforms is not None:
            np.less(uniforms[c], cond.prob_one.take(rows), out=x)
        # the log table's entry 2 * rows + x, in the row index's own dtype:
        # rows <<= 1, as an add (numpy shifts by a scalar without SIMD)
        rows += rows
        rows |= x
        log_dens += cond.log_table().take(rows)
    return log_dens


def sample(pomm: PartiallyOrderedMarkovModel, seed: int, count: int) -> SampleBatch:
    """Draw ``count`` states by a backward pass over the conditionals.

    Sample s consumes uniforms block s (one per variable, in sampling
    order), so identical seeds give bit-identical batches and extending a
    batch preserves its prefix.
    """
    count = as_int("count", count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = generator(seed, POMM_STREAM)
    backward = pomm.conditionals[::-1]
    states = _allocate((count, pomm.n), np.uint8, f"count={count}")
    log_dens = _allocate(count, float, f"count={count}")
    for start in range(0, count, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, count)
        block = np.zeros((pomm.n, stop - start), dtype=np.uint8)
        uniforms = _uniform_columns(rng, stop - start, pomm.n)
        log_dens[start:stop] = _walk(backward, block, uniforms)
        del uniforms  # freed before the next block's uniforms are drawn
        for first in range(0, pomm.n, _PANEL):
            states[start:stop, first : first + _PANEL] = block[first : first + _PANEL].T
    return SampleBatch(states=states, log_densities=log_dens)


def log_density_many(pomm: PartiallyOrderedMarkovModel, states) -> np.ndarray:
    """Joint log densities for each row of a (count, n) 0/1 array."""
    states = np.asarray(states, dtype=np.uint8)
    if states.ndim != 2 or states.shape[1] != pomm.n:
        raise ValueError(f"states have shape {states.shape}, expected (*, {pomm.n})")
    return _walk(pomm.conditionals, np.ascontiguousarray(states.T))


# -- text ------------------------------------------------------------------


def state_texts(states) -> list[str]:
    """Each row of a (count, n) array as a string of '0'/'1' digits, '1' for nonzero."""
    # a fresh C-ordered copy, so the shift and the row view are safe
    digits = np.ascontiguousarray(np.asarray(states) != 0).view(np.uint8)
    digits += np.uint8(ord("0"))
    if digits.shape[1] == 0:
        return [""] * digits.shape[0]
    rows = digits.view(f"S{digits.shape[1]}").ravel().tolist()
    return [row.decode() for row in rows]

