"""Partially ordered Markov models: sampling and density evaluation.

A POMM is what elimination leaves behind: one conditional table per
eliminated variable, giving P(x_i = 1 | x_D) for the variable's
dependency set D at the moment it was summed out.  Every dependency is
eliminated later, so drawing variables in reverse elimination order is a
single backward pass and the product of the conditionals is a normalised
joint density.

Sampling, density evaluation and the rejection sampler share one pass,
:func:`_walk`, over a column-major (n, count) batch of states.

Sampling is reproducible: sample s always consumes the s-th block of
per-variable uniforms from the Philox stream (seed, POMM_STREAM), so
enlarging a batch never changes earlier samples.  Philox fills rows in
sequence, so drawing them in blocks of _BLOCK_ROWS changes no number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import struct

import numpy as np

from .pbf import table_rows
from .rng import POMM_STREAM, generator

__all__ = [
    "PommConditional",
    "PartiallyOrderedMarkovModel",
    "SampleBatch",
    "sample",
    "log_density",
    "log_density_many",
    "state_texts",
    "save_text",
    "save_binary",
    "load_binary",
]

_BINARY_MAGIC = b"PBSB"

# Rows drawn and decided at once by :func:`sample`.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class PommConditional:
    """P(x_variable = 1 | dependencies), tabulated over all 2^k assignments.

    Bit k of the table index is the value of ``depends_on[k]``.  Only the
    probability of the "on" state is stored; the "off" probability is
    derived, so the pair cannot drift apart.
    """

    variable: int
    depends_on: tuple[int, ...]
    prob_one: np.ndarray = field(repr=False)

    def __post_init__(self):
        deps = tuple(int(v) for v in self.depends_on)
        probs = np.asarray(self.prob_one, dtype=float).reshape(-1).copy()
        if probs.size != 1 << len(deps):
            raise ValueError(
                f"conditional for {self.variable} needs {1 << len(deps)} rows, "
                f"got {probs.size}"
            )
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError(f"conditional for {self.variable} leaves [0, 1]")
        probs.setflags(write=False)
        object.__setattr__(self, "variable", int(self.variable))
        object.__setattr__(self, "depends_on", deps)
        object.__setattr__(self, "prob_one", probs)

    def log_table(self) -> np.ndarray:
        """ln P(x_variable | x_deps); bit 0 is x_variable, bit k+1 depends_on[k]."""
        with np.errstate(divide="ignore"):
            p = self.prob_one
            return np.stack([np.log1p(-p), np.log(p)], axis=1).reshape(-1)


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

    def max_dependencies(self) -> int:
        return max((len(c.depends_on) for c in self.conditionals), default=0)


@dataclass(frozen=True)
class SampleBatch:
    """Binary states plus the log density each was drawn with."""

    seed: int
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

    @property
    def n(self) -> int:
        return self.states.shape[1]


def _walk(conditionals, states: np.ndarray, uniforms=None) -> np.ndarray:
    """Log density of each column of a column-major (n, count) 0/1 batch.

    Sums over ``conditionals`` in the order given.  With ``uniforms`` of
    shape (count, >= len(conditionals)), conditional c first sets its own
    variable in ``states`` to uniforms[:, c] < P(x = 1 | dependencies), so
    each conditional must come after those of its dependencies.
    """
    log_dens = np.zeros(states.shape[1])
    for c, cond in enumerate(conditionals):
        rows = table_rows(states, cond.depends_on)
        if uniforms is not None:
            states[cond.variable] = uniforms[:, c] < cond.prob_one[rows]
        log_dens += cond.log_table()[2 * rows + states[cond.variable]]
    return log_dens


def sample(pomm: PartiallyOrderedMarkovModel, seed: int, count: int) -> SampleBatch:
    """Draw ``count`` states by a backward pass over the conditionals.

    Sample s consumes uniforms block s (one per variable, in sampling
    order), so identical seeds give bit-identical batches and extending a
    batch preserves its prefix.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = generator(seed, POMM_STREAM)
    backward = pomm.conditionals[::-1]
    states = np.empty((count, pomm.n), dtype=np.uint8)
    log_dens = np.empty(count)
    for start in range(0, count, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, count)
        block = np.zeros((pomm.n, stop - start), dtype=np.uint8)
        log_dens[start:stop] = _walk(backward, block, rng.random(block.shape[::-1]))
        states[start:stop] = block.T
    return SampleBatch(seed=int(seed), states=states, log_densities=log_dens)


def log_density(pomm: PartiallyOrderedMarkovModel, x) -> float:
    """Joint log density of one state under the POMM."""
    x = np.asarray(x, dtype=np.uint8)
    if x.shape != (pomm.n,):
        raise ValueError(f"state has shape {x.shape}, expected ({pomm.n},)")
    return float(log_density_many(pomm, x.reshape(1, -1))[0])


def log_density_many(pomm: PartiallyOrderedMarkovModel, states) -> np.ndarray:
    """Joint log densities for each row of a (count, n) 0/1 array."""
    states = np.asarray(states, dtype=np.uint8)
    if states.ndim != 2 or states.shape[1] != pomm.n:
        raise ValueError(f"states have shape {states.shape}, expected (*, {pomm.n})")
    return _walk(pomm.conditionals, np.ascontiguousarray(states.T))


# -- export ----------------------------------------------------------------


def state_texts(states) -> list[str]:
    """Each row of a (count, n) array as a string of '0'/'1' digits, '1' for nonzero."""
    # a fresh C-ordered copy, so the shift and the row view are safe
    digits = np.ascontiguousarray(np.asarray(states) != 0).view(np.uint8)
    digits += np.uint8(ord("0"))
    if digits.shape[1] == 0:
        return [""] * digits.shape[0]
    rows = digits.view(f"S{digits.shape[1]}").ravel().tolist()
    return [row.decode() for row in rows]


def save_text(batch: SampleBatch, path) -> None:
    """One state per line: the 0/1 string, a space, the log density."""
    with open(path, "w", encoding="utf-8") as handle:
        for bits, dens in zip(state_texts(batch.states), batch.log_densities):
            handle.write(f"{bits} {dens:.17g}\n")


def save_binary(batch: SampleBatch, path) -> None:
    """16-byte header (magic, n, count), packed state bits, float64 densities."""
    header = _BINARY_MAGIC + struct.pack("<IQ", batch.n, batch.count)
    packed = np.packbits(batch.states, axis=1)
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(packed.tobytes())
        handle.write(batch.log_densities.astype("<f8").tobytes())


def load_binary(path) -> SampleBatch:
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 16 or blob[:4] != _BINARY_MAGIC:
        raise ValueError("not a sample-batch file")
    n, count = struct.unpack("<IQ", blob[4:16])
    row_bytes = (n + 7) // 8
    body = 16 + count * row_bytes
    if len(blob) != body + 8 * count:
        raise ValueError(
            f"sample-batch file has {len(blob)} bytes; its header "
            f"(n={n}, count={count}) needs {body + 8 * count}"
        )
    packed = np.frombuffer(blob[16:body], dtype=np.uint8).reshape(count, row_bytes)
    states = np.unpackbits(packed, axis=1)[:, :n]
    dens = np.frombuffer(blob[body : body + 8 * count], dtype="<f8")
    return SampleBatch(seed=0, states=states, log_densities=dens.copy())
