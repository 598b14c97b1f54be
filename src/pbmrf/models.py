"""Binary MRF energy functions on rectangular lattices.

Every builder returns a :class:`MarkovRandomField`: a symmetric
neighbourhood system plus the energy U(x) expanded into a pseudo-Boolean
polynomial, so that p(x) = exp{U(x)} / c.  Nodes are numbered row-major
and all lattices have free boundaries.

Model families:

* ``ising``        -- theta * sum over first-order pairs of I(x_i = x_j)
* ``independence`` -- theta * sum_i x_i (c = (1+e^theta)^n analytically)
* ``autologistic`` -- theta0 * #unequal pairs + theta1 * #(1,1) pairs
* ``higher_order`` -- third-order neighbourhood, 2x2-block and five-node
  cross cliques with ten potential classes invariant under rotation,
  reflection and colour inversion
* ``rotinv2x2``    -- 3x3 neighbourhood, 2x2-block cliques with six
  classes invariant under rotation only; the all-zero class is pinned at 0

The configuration-class tables for the last two families are built at
import time by explicit orbit enumeration under the stated symmetry
groups; a wrong class count raises immediately rather than silently
mislabelling potentials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .pbf import (
    PRUNE_TOL,
    InteractionSet,
    PseudoBooleanFunction,
    interaction_set,
    moebius_transform,
    subset_keys,
)

__all__ = [
    "LatticeSpec",
    "NeighbourhoodSystem",
    "MarkovRandomField",
    "lattice_neighbourhood",
    "FIRST_ORDER_OFFSETS",
    "SECOND_ORDER_OFFSETS",
    "THIRD_ORDER_OFFSETS",
    "build_ising",
    "build_independence",
    "build_autologistic",
    "build_higher_order",
    "build_2x2_rotinv",
    "model_from_config",
    "load_model_config",
    "MODEL_FAMILIES",
]

FIRST_ORDER_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))
SECOND_ORDER_OFFSETS = FIRST_ORDER_OFFSETS + ((-1, -1), (-1, 1), (1, -1), (1, 1))
THIRD_ORDER_OFFSETS = SECOND_ORDER_OFFSETS + ((-2, 0), (2, 0), (0, -2), (0, 2))


@dataclass(frozen=True)
class LatticeSpec:
    """A rows x cols rectangular lattice, nodes numbered row-major."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"lattice must be at least 1x1, got {self.rows}x{self.cols}")

    @property
    def n(self) -> int:
        return self.rows * self.cols

    def index(self, r: int, c: int) -> int:
        return r * self.cols + c


@dataclass(frozen=True)
class NeighbourhoodSystem:
    """Symmetric neighbour lists, one sorted tuple per node."""

    n: int
    neighbours: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.neighbours) != self.n:
            raise ValueError("neighbour list length does not match node count")
        for i, nbrs in enumerate(self.neighbours):
            if i in nbrs:
                raise ValueError(f"node {i} is its own neighbour")
            if tuple(sorted(nbrs)) != tuple(nbrs):
                raise ValueError(f"neighbours of node {i} are not sorted")
            for j in nbrs:
                if i not in self.neighbours[j]:
                    raise ValueError(f"asymmetric neighbourhood: {i} -> {j}")

    def is_clique(self, indices) -> bool:
        nodes = tuple(indices)
        return all(
            b in self.neighbours[a] for k, a in enumerate(nodes) for b in nodes[k + 1 :]
        )


@dataclass(frozen=True)
class MarkovRandomField:
    """Energy polynomial tied to a neighbourhood system.

    Invariant: non-negligible interactions live only on cliques of the
    graph (Hammersley-Clifford support).
    """

    graph: NeighbourhoodSystem
    energy: PseudoBooleanFunction
    label: str = ""
    params: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.energy.n != self.graph.n:
            raise ValueError("energy and graph disagree on the node count")
        for key, b in self.energy.terms().items():
            if len(key) >= 2 and abs(b) > PRUNE_TOL and not self.graph.is_clique(key):
                raise ValueError(f"interaction {key} is not a clique of the graph")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    @property
    def n(self) -> int:
        return self.graph.n


def lattice_neighbourhood(lat: LatticeSpec, offsets) -> NeighbourhoodSystem:
    """Neighbourhood system from a set of (dr, dc) offsets, free boundary."""
    nbrs: list[tuple[int, ...]] = []
    for r in range(lat.rows):
        for c in range(lat.cols):
            here = []
            for dr, dc in offsets:
                rr, cc = r + dr, c + dc
                if 0 <= rr < lat.rows and 0 <= cc < lat.cols:
                    here.append(lat.index(rr, cc))
            nbrs.append(tuple(sorted(here)))
    return NeighbourhoodSystem(lat.n, tuple(nbrs))


def _lattice_edges(lat: LatticeSpec) -> list[tuple[int, int]]:
    """First-order pairs: rows*(cols-1) horizontal + cols*(rows-1) vertical."""
    edges = []
    for r in range(lat.rows):
        for c in range(lat.cols):
            if c + 1 < lat.cols:
                edges.append((lat.index(r, c), lat.index(r, c + 1)))
            if r + 1 < lat.rows:
                edges.append((lat.index(r, c), lat.index(r + 1, c)))
    return edges


# -- configuration-class tables ------------------------------------------
#
# A 2x2 block is read in cell order (TL, TR, BL, BR): bit k of a
# configuration integer is the value of the k-th cell.  A five-node cross
# is read (centre, N, E, S, W).


def _permute_bits(config: int, perm: tuple[int, ...]) -> int:
    """New configuration whose bit p is the old bit perm[p]."""
    out = 0
    for p, src in enumerate(perm):
        out |= (config >> src & 1) << p
    return out


# 90-degree rotations as bit-source permutations.
_BLOCK_ROT = (2, 0, 3, 1)  # TL<-BL, TR<-TL, BL<-BR, BR<-TR
_BLOCK_REFLECT = (1, 0, 3, 2)  # mirror: TL<->TR, BL<->BR
_CROSS_ROT = (0, 4, 1, 2, 3)  # centre fixed, N<-W, E<-N, S<-E, W<-S
_CROSS_REFLECT = (0, 1, 4, 3, 2)  # mirror: E<->W


def _orbit_classes(
    bits: int, generators: list[tuple[int, ...]], invert: bool, reps: list[int]
) -> np.ndarray:
    """Class index per configuration under the group the generators span.

    ``reps`` pins the class numbering: representative k must land in its
    own orbit and every orbit must contain exactly one representative,
    otherwise the table is refused.
    """
    size = 1 << bits
    full = size - 1
    labels = np.full(size, -1, dtype=int)
    n_orbits = 0
    for start in range(size):
        if labels[start] >= 0:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            cfg = frontier.pop()
            images = [_permute_bits(cfg, g) for g in generators]
            if invert:
                images.append(cfg ^ full)
            for img in images:
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        for cfg in orbit:
            labels[cfg] = n_orbits
        n_orbits += 1
    if n_orbits != len(reps):
        raise RuntimeError(
            f"orbit enumeration found {n_orbits} classes, expected {len(reps)}"
        )
    if len({int(labels[r]) for r in reps}) != len(reps):
        raise RuntimeError("class representatives are not in distinct orbits")
    # Renumber so that representative k gets class k.
    renumber = np.empty(n_orbits, dtype=int)
    for k, rep in enumerate(reps):
        renumber[labels[rep]] = k
    return renumber[labels]


# 2x2 classes under rotation+reflection+inversion, in potential-table order:
# all equal, one cell different, adjacent pair different, diagonal pair.
_BLOCK_FULL_CLASS = _orbit_classes(
    4, [_BLOCK_ROT, _BLOCK_REFLECT], True, [0b0000, 0b0001, 0b0011, 0b1001]
)
# Cross classes under rotation+reflection+inversion: all equal, centre
# differs, one arm, two adjacent arms, centre plus one arm, two opposite arms.
_CROSS_CLASS = _orbit_classes(
    5,
    [_CROSS_ROT, _CROSS_REFLECT],
    True,
    [0b00000, 0b00001, 0b00010, 0b00110, 0b00011, 0b01010],
)
# 2x2 classes under rotation only: all zero (reference), one on, adjacent
# pair on, diagonal pair on, three on, all on.
_BLOCK_ROT_CLASS = _orbit_classes(
    4, [_BLOCK_ROT], False, [0b0000, 0b0001, 0b0011, 0b1001, 0b0111, 0b1111]
)


def _accumulate_clique(
    terms: dict[InteractionSet, float], cells: tuple[int, ...], values: np.ndarray
) -> None:
    """Add a clique's value table to the energy, in interaction form."""
    for key, value in zip(subset_keys(cells), moebius_transform(values)):
        if value != 0.0:
            key = interaction_set(key)
            terms[key] = terms.get(key, 0.0) + value


def block_cells(lat: LatticeSpec, r: int, c: int) -> tuple[int, ...]:
    """Node ids of the 2x2 block with top-left corner (r, c): TL, TR, BL, BR."""
    return (
        lat.index(r, c),
        lat.index(r, c + 1),
        lat.index(r + 1, c),
        lat.index(r + 1, c + 1),
    )


def cross_cells(lat: LatticeSpec, r: int, c: int) -> tuple[int, ...]:
    """Node ids of the five-node cross centred at (r, c): C, N, E, S, W."""
    return (
        lat.index(r, c),
        lat.index(r - 1, c),
        lat.index(r, c + 1),
        lat.index(r + 1, c),
        lat.index(r, c - 1),
    )


# -- builders ---------------------------------------------------------------


def build_ising(lat: LatticeSpec, theta: float) -> MarkovRandomField:
    """Ising energy theta * sum over first-order pairs of I(x_i = x_j).

    Per edge I(x_i = x_j) = 1 - x_i - x_j + 2 x_i x_j, so each edge
    contributes +theta to the constant, -theta to both singletons and
    +2 theta to the pair.
    """
    theta = float(theta)
    terms: dict[InteractionSet, float] = {(): 0.0}
    for i, j in _lattice_edges(lat):
        terms[()] += theta
        terms[(i,)] = terms.get((i,), 0.0) - theta
        terms[(j,)] = terms.get((j,), 0.0) - theta
        terms[(i, j)] = terms.get((i, j), 0.0) + 2.0 * theta
    return MarkovRandomField(
        lattice_neighbourhood(lat, FIRST_ORDER_OFFSETS),
        PseudoBooleanFunction(lat.n, terms),
        label="ising",
        params=(theta,),
    )


def build_independence(lat: LatticeSpec, theta: float) -> MarkovRandomField:
    """Independent sites: U(x) = theta * sum_i x_i, c = (1+e^theta)^n."""
    theta = float(theta)
    terms = {(i,): theta for i in range(lat.n)}
    empty = lattice_neighbourhood(lat, ())
    return MarkovRandomField(
        empty, PseudoBooleanFunction(lat.n, terms), label="independence", params=(theta,)
    )


def build_autologistic(
    lat: LatticeSpec, theta0: float, theta1: float
) -> MarkovRandomField:
    """First-order model with equal horizontal and vertical interactions.

    U(x) = theta0 * sum I(x_i != x_j) + theta1 * sum I(x_i = x_j = 1);
    per edge the first term is x_i + x_j - 2 x_i x_j and the second x_i x_j.
    """
    theta0, theta1 = float(theta0), float(theta1)
    terms: dict[InteractionSet, float] = {}
    for i, j in _lattice_edges(lat):
        terms[(i,)] = terms.get((i,), 0.0) + theta0
        terms[(j,)] = terms.get((j,), 0.0) + theta0
        terms[(i, j)] = terms.get((i, j), 0.0) + theta1 - 2.0 * theta0
    return MarkovRandomField(
        lattice_neighbourhood(lat, FIRST_ORDER_OFFSETS),
        PseudoBooleanFunction(lat.n, terms),
        label="autologistic",
        params=(theta0, theta1),
    )


def build_higher_order(lat: LatticeSpec, potentials) -> MarkovRandomField:
    """Third-order neighbourhood MRF with ten clique-configuration classes.

    ``potentials`` holds the four 2x2-block class values followed by the
    six cross class values (class order as in the tables above).  Lattices
    too small to host a clique type simply omit it.
    """
    pot = tuple(float(p) for p in potentials)
    if len(pot) != 10:
        raise ValueError(f"higher-order model needs 10 potentials, got {len(pot)}")
    block_values = np.array([pot[_BLOCK_FULL_CLASS[cfg]] for cfg in range(16)])
    cross_values = np.array([pot[4 + _CROSS_CLASS[cfg]] for cfg in range(32)])
    terms: dict[InteractionSet, float] = {(): 0.0}
    for r in range(lat.rows - 1):
        for c in range(lat.cols - 1):
            _accumulate_clique(terms, block_cells(lat, r, c), block_values)
    for r in range(1, lat.rows - 1):
        for c in range(1, lat.cols - 1):
            _accumulate_clique(terms, cross_cells(lat, r, c), cross_values)
    return MarkovRandomField(
        lattice_neighbourhood(lat, THIRD_ORDER_OFFSETS),
        PseudoBooleanFunction(lat.n, terms),
        label="higher_order",
        params=pot,
    )


def build_2x2_rotinv(lat: LatticeSpec, thetas) -> MarkovRandomField:
    """3x3 neighbourhood MRF over 2x2 cliques, rotation-invariant classes.

    ``thetas`` holds the five non-reference class potentials (one on,
    adjacent pair, diagonal pair, three on, all on); the all-zero class is
    pinned at 0.  Colour inversion is deliberately NOT a symmetry here.
    """
    th = tuple(float(t) for t in thetas)
    if len(th) != 5:
        raise ValueError(f"rotation-invariant model needs 5 parameters, got {len(th)}")
    pot = (0.0,) + th
    values = np.array([pot[_BLOCK_ROT_CLASS[cfg]] for cfg in range(16)])
    terms: dict[InteractionSet, float] = {(): 0.0}
    for r in range(lat.rows - 1):
        for c in range(lat.cols - 1):
            _accumulate_clique(terms, block_cells(lat, r, c), values)
    return MarkovRandomField(
        lattice_neighbourhood(lat, SECOND_ORDER_OFFSETS),
        PseudoBooleanFunction(lat.n, terms),
        label="rotinv2x2",
        params=th,
    )


MODEL_FAMILIES = {
    "ising": (build_ising, 1),
    "independence": (build_independence, 1),
    "autologistic": (build_autologistic, 2),
    "higher_order": (build_higher_order, 10),
    "rotinv2x2": (build_2x2_rotinv, 5),
}


def model_from_config(config: dict) -> MarkovRandomField:
    """Build a model from {"family", "rows", "cols", "params"}."""
    try:
        family = config["family"]
        lat = LatticeSpec(int(config["rows"]), int(config["cols"]))
        params = [float(p) for p in config["params"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad model config: {exc}") from exc
    if family not in MODEL_FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    builder, arity = MODEL_FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"{family} needs {arity} params, got {len(params)}")
    if family in ("higher_order", "rotinv2x2"):
        return builder(lat, params)
    return builder(lat, *params)


def load_model_config(path) -> MarkovRandomField:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_config(json.load(handle))


def clique_value_tables() -> dict[str, np.ndarray]:
    """The class-index tables, exposed for independent cross-checking."""
    return {
        "block_full": _BLOCK_FULL_CLASS.copy(),
        "cross": _CROSS_CLASS.copy(),
        "block_rot": _BLOCK_ROT_CLASS.copy(),
    }

