"""Binary MRF energy functions on rectangular lattices.

Every builder returns the field's energy U(x) as a
:class:`~pbmrf.pbf.PseudoBooleanFunction`, so that p(x) = exp{U(x)} / c.
Its interaction sets are the cliques of the field's neighbourhood, so the
energy is the whole model.  Nodes are numbered row-major and all lattices
have free boundaries, of at most MAX_LATTICE_NODES nodes.

Model families:

* ``ising``        -- theta * sum over first-order pairs of I(x_i = x_j)
* ``independence`` -- theta * sum_i x_i (c = (1+e^theta)^n analytically)
* ``autologistic`` -- theta0 * #unequal pairs + theta1 * #(1,1) pairs
* ``higher_order`` -- third-order neighbourhood, 2x2-block and five-node
  cross cliques with ten potential classes invariant under rotation,
  reflection and colour inversion
* ``rotinv2x2``    -- 3x3 neighbourhood, 2x2-block cliques with six
  classes invariant under rotation only; the all-zero class is pinned at 0

The configuration-class tables of the last two families are written out
as data: one class index per clique configuration, in potential order.

Every builder adds one coefficient table per clique (an Ising edge's
(theta, -theta, -theta, 2 theta), a block's class table by Moebius
transform, once per build) through the accumulator of :mod:`pbmrf.pbf`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pbf import (
    PseudoBooleanFunction,
    ResourceCapError,
    _add_table_terms,
    as_int,
    moebius_transform,
)

__all__ = [
    "LatticeSpec",
    "MAX_LATTICE_NODES",
    "build_ising",
    "build_independence",
    "build_autologistic",
    "build_higher_order",
    "build_2x2_rotinv",
    "model_from_config",
    "MODEL_FAMILIES",
]


# Most nodes a lattice may have (256 x 256): building traces about 1 KiB per
# node for the first-order families and 7.4 KiB for higher_order, so about
# 0.5 GiB at the cap.
MAX_LATTICE_NODES = 1 << 16


@dataclass(frozen=True)
class LatticeSpec:
    """A rows x cols lattice, nodes row-major; past MAX_LATTICE_NODES, ResourceCapError."""

    rows: int
    cols: int

    def __post_init__(self):
        object.__setattr__(self, "rows", as_int("rows", self.rows))
        object.__setattr__(self, "cols", as_int("cols", self.cols))
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"lattice rows and cols must be >= 1, got {self.rows}x{self.cols}")
        if self.n > MAX_LATTICE_NODES:
            raise ResourceCapError(
                f"lattice rows={self.rows} x cols={self.cols} has "
                f"{self.n} nodes, cap is {MAX_LATTICE_NODES}"
            )

    @property
    def n(self) -> int:
        return self.rows * self.cols

    def index(self, r: int, c: int) -> int:
        return r * self.cols + c


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
# is read (centre, N, E, S, W).  The shapes list those cells as (dr, dc)
# offsets from the block's top-left corner or the cross's centre.

_BLOCK = ((0, 0), (0, 1), (1, 0), (1, 1))
_CROSS = ((0, 0), (-1, 0), (0, 1), (1, 0), (0, -1))


def _placements(lat: LatticeSpec, shape) -> list[tuple[int, ...]]:
    """Node ids of each placement of ``shape`` inside the lattice, row-major."""
    rows, cols = zip(*shape)
    return [
        tuple(lat.index(r + dr, c + dc) for dr, dc in shape)
        for r in range(-min(rows), lat.rows - max(rows))
        for c in range(-min(cols), lat.cols - max(cols))
    ]


# Entry k of a class table is the class of configuration k, numbered in
# potential-table order (tests/test_models.py checks each table against its
# symmetry group).  2x2 classes under rotation, reflection and
# inversion: 0 all equal, 1 one cell different, 2 adjacent pair different,
# 3 diagonal pair different.
_BLOCK_FULL_CLASS = (0, 1, 1, 2, 1, 2, 3, 1, 1, 3, 2, 1, 2, 1, 1, 0)
# Cross classes under rotation, reflection and inversion: 0 all equal,
# 1 centre differs, 2 one arm, 3 two adjacent arms, 4 centre plus one arm,
# 5 two opposite arms.
_CROSS_CLASS = (
    0, 1, 2, 4, 2, 4, 3, 3, 2, 4, 5, 5, 3, 3, 4, 2,
    2, 4, 3, 3, 5, 5, 4, 2, 3, 3, 4, 2, 4, 2, 1, 0,
)
# 2x2 classes under rotation only: 0 all zero (reference), 1 one on,
# 2 adjacent pair on, 3 diagonal pair on, 4 three on, 5 all on.
_BLOCK_ROT_CLASS = (0, 1, 1, 2, 1, 2, 3, 4, 1, 3, 2, 4, 2, 4, 4, 5)


# -- builders ---------------------------------------------------------------


def _energy(lat: LatticeSpec, names: str, terms, shapes) -> PseudoBooleanFunction:
    """The energy that adds one coefficient table per clique into ``terms``.

    ``shapes`` pairs a list of cliques (cell tuples) with the coefficient
    table each of them contributes, in :func:`pbmrf.pbf.subset_keys`
    order.  The cliques are added one after another, so the energy's term
    order is ``terms``' keys, then each clique's new sets in turn.  A
    coefficient that is not finite raises ValueError naming the parameters ``names``.
    """
    for cliques, coeffs in shapes:
        for cells in cliques:
            _add_table_terms(terms, cells, coeffs)
    try:
        return PseudoBooleanFunction(lat.n, terms)
    except ValueError as exc:
        raise ValueError(f"{names}: {exc}") from None


def _class_coeffs(classes: tuple[int, ...], potentials) -> list[float]:
    """Coefficients of the clique table whose entry k is ``potentials[classes[k]]``."""
    # an overflow reaches the constructor, which refuses it by name, unwarned
    with np.errstate(all="ignore"):
        return moebius_transform(np.array([potentials[k] for k in classes])).tolist()


def build_ising(lat: LatticeSpec, theta: float) -> PseudoBooleanFunction:
    """Ising energy theta * sum over first-order pairs of I(x_i = x_j).

    Per edge I(x_i = x_j) = 1 - x_i - x_j + 2 x_i x_j, so each edge
    contributes +theta to the constant, -theta to both singletons and
    +2 theta to the pair.
    """
    theta = float(theta)
    edge = [theta, -theta, -theta, 2.0 * theta]
    return _energy(lat, "theta", {(): 0.0}, [(_lattice_edges(lat), edge)])


def build_independence(lat: LatticeSpec, theta: float) -> PseudoBooleanFunction:
    """Independent sites: U(x) = theta * sum_i x_i, c = (1+e^theta)^n."""
    theta = float(theta)
    sites = [(i,) for i in range(lat.n)]
    return _energy(lat, "theta", {}, [(sites, [0.0, theta])])


def build_autologistic(
    lat: LatticeSpec, theta0: float, theta1: float
) -> PseudoBooleanFunction:
    """First-order model with equal horizontal and vertical interactions.

    U(x) = theta0 * sum I(x_i != x_j) + theta1 * sum I(x_i = x_j = 1);
    per edge the first term is x_i + x_j - 2 x_i x_j and the second x_i x_j.
    """
    theta0, theta1 = float(theta0), float(theta1)
    edge = [0.0, theta0, theta0, theta1 - 2.0 * theta0]
    return _energy(lat, "theta0, theta1", {}, [(_lattice_edges(lat), edge)])


def build_higher_order(lat: LatticeSpec, potentials) -> PseudoBooleanFunction:
    """Third-order neighbourhood MRF with ten clique-configuration classes.

    ``potentials`` holds the four 2x2-block class values followed by the
    six cross class values (class order as in the tables above).  Lattices
    too small to host a clique type simply omit it.
    """
    pot = tuple(float(p) for p in potentials)
    if len(pot) != 10:
        raise ValueError(f"higher-order model needs 10 potentials, got {len(pot)}")
    shapes = [
        (_placements(lat, _BLOCK), _class_coeffs(_BLOCK_FULL_CLASS, pot)),
        (_placements(lat, _CROSS), _class_coeffs(_CROSS_CLASS, pot[4:])),
    ]
    return _energy(lat, "potentials", {(): 0.0}, shapes)


def build_2x2_rotinv(lat: LatticeSpec, thetas) -> PseudoBooleanFunction:
    """3x3 neighbourhood MRF over 2x2 cliques, rotation-invariant classes.

    ``thetas`` holds the five non-reference class potentials (one on,
    adjacent pair, diagonal pair, three on, all on); the all-zero class is
    pinned at 0.  Colour inversion is deliberately NOT a symmetry here.
    """
    th = tuple(float(t) for t in thetas)
    if len(th) != 5:
        raise ValueError(f"rotation-invariant model needs 5 parameters, got {len(th)}")
    shapes = [(_placements(lat, _BLOCK), _class_coeffs(_BLOCK_ROT_CLASS, (0.0,) + th))]
    return _energy(lat, "thetas", {(): 0.0}, shapes)


MODEL_FAMILIES = {
    "ising": (build_ising, 1),
    "independence": (build_independence, 1),
    "autologistic": (build_autologistic, 2),
    "higher_order": (build_higher_order, 10),
    "rotinv2x2": (build_2x2_rotinv, 5),
}


def model_from_config(config: dict) -> PseudoBooleanFunction:
    """Build a model from {"family", "rows", "cols", "params"}."""
    try:
        family = config["family"]
        lat = LatticeSpec(config["rows"], config["cols"])
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

