"""Model builders against direct clique-potential evaluation."""

import json
import math
import warnings

import numpy as np
import pytest

from helpers import (
    FAMILY_OFFSETS,
    THIRD_ORDER_OFFSETS,
    all_states,
    clique_value_tables,
    eval_pbf,
    expanded_energy,
    is_lattice_clique,
    lattice_edges,
    log_sum_exp,
    model_energy_direct,
)
from pbmrf import (
    LatticeSpec,
    build_2x2_rotinv,
    build_autologistic,
    build_higher_order,
    build_independence,
    build_ising,
    eliminate_exact_sum,
    model_from_config,
)
from pbmrf.models import MODEL_FAMILIES

MODEL1_POTENTIALS = (0.5, 0.0, 0.0, -1.0, 0.0, -1.5, 0.0, 0.0, -0.5, -0.5)


def builders(rng):
    """(family, params, make) per family: ``make(lat)`` builds it with params."""
    ising, independence = (float(rng.uniform(-1, 1)),), (float(rng.uniform(-1, 1)),)
    autologistic = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    higher_order, rotinv = tuple(rng.uniform(-1, 1, size=10)), tuple(rng.uniform(-1, 1, size=5))
    return [
        ("ising", ising, lambda lat: build_ising(lat, *ising)),
        ("autologistic", autologistic, lambda lat: build_autologistic(lat, *autologistic)),
        ("higher_order", higher_order, lambda lat: build_higher_order(lat, higher_order)),
        ("rotinv2x2", rotinv, lambda lat: build_2x2_rotinv(lat, rotinv)),
        ("independence", independence, lambda lat: build_independence(lat, *independence)),
    ]


# -- lattice bookkeeping -----------------------------------------------------


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (3, 4), (4, 5)])
def test_free_boundary_edge_count(rows, cols):
    assert len(lattice_edges(rows, cols)) == rows * (cols - 1) + cols * (rows - 1)
    m = build_ising(LatticeSpec(rows, cols), 1.0)
    pairs = [k for k, b in m.terms().items() if len(k) == 2 and abs(b) > 0]
    assert len(pairs) == rows * (cols - 1) + cols * (rows - 1)


def test_third_order_neighbourhood_has_12_interior_neighbours():
    centre = 2 * 5 + 2
    neighbours = [v for v in range(25) if is_lattice_clique((centre, v), 5, THIRD_ORDER_OFFSETS)]
    assert len(neighbours) == 12


# -- analytic constants ---------------------------------------------------------


def test_ising_1x2_analytic():
    theta = 0.9
    m = build_ising(LatticeSpec(1, 2), theta)
    value = eliminate_exact_sum(m).log_value
    assert abs(value - math.log(2 * math.exp(theta) + 2)) < 1e-12


def test_ising_zero_theta_constant_energy():
    m = build_ising(LatticeSpec(3, 3), 0.0)
    X = all_states(9)
    u = eval_pbf(m, X)
    assert np.allclose(u, u[0])
    assert abs(eliminate_exact_sum(m).log_value - (9 * math.log(2) + u[0])) < 1e-10


def test_independence_analytic():
    m = build_independence(LatticeSpec(1, 3), 1.0)
    assert abs(eliminate_exact_sum(m).log_value - 3 * math.log(1 + math.e)) < 1e-12
    m0 = build_independence(LatticeSpec(2, 2), 0.0)
    assert abs(eliminate_exact_sum(m0).log_value - 4 * math.log(2)) < 1e-12
    m33 = build_independence(LatticeSpec(3, 3), 0.7)
    assert (
        abs(eliminate_exact_sum(m33).log_value - 9 * math.log(1 + math.exp(0.7)))
        < 1e-10
    )


def test_autologistic_1x2_analytic():
    t0, t1 = 0.5, -0.3
    m = build_autologistic(LatticeSpec(1, 2), t0, t1)
    c = 1.0 + 2.0 * math.exp(t0) + math.exp(t1)
    assert abs(eliminate_exact_sum(m).log_value - math.log(c)) < 1e-12


def test_ising_2x2_brute_force():
    m = build_ising(LatticeSpec(2, 2), 0.4)
    u = model_energy_direct("ising", (0.4,), 2, 2, all_states(4))
    assert abs(eliminate_exact_sum(m).log_value - log_sum_exp(u)) < 1e-10


# -- configuration classes -------------------------------------------------


def test_orbit_class_counts_and_multiplicities():
    tables = clique_value_tables()
    assert len(set(tables["block_full"])) == 4
    assert len(set(tables["cross"])) == 6
    assert len(set(tables["block_rot"])) == 6
    counts = np.bincount(tables["block_rot"])
    assert sorted(counts.tolist()) == sorted([1, 4, 4, 2, 4, 1])
    assert tables["block_rot"][0b0000] == 0
    assert tables["block_rot"][0b1111] == 5


# Cells in bit order as (row, col): a 2x2 block's (TL, TR, BL, BR) and a
# cross's (centre, N, E, S, W) offsets from its centre.
BLOCK_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
CROSS_CELLS = ((0, 0), (-1, 0), (0, 1), (1, 0), (0, -1))
# Each table's cells, the cell maps that generate its symmetry group (a
# quarter turn and a mirror), whether colour inversion is a symmetry too,
# and one configuration of each class in potential order.
CLASS_TABLES = {
    "block_full": (
        BLOCK_CELLS, [lambda r, c: (c, 1 - r), lambda r, c: (r, 1 - c)], True,
        # all equal, one cell, adjacent pair, diagonal pair
        [0b0000, 0b0001, 0b0011, 0b1001],
    ),
    "cross": (
        CROSS_CELLS, [lambda r, c: (c, -r), lambda r, c: (r, -c)], True,
        # all equal, centre, one arm, adjacent arms, centre and arm, opposite arms
        [0b00000, 0b00001, 0b00010, 0b00110, 0b00011, 0b01010],
    ),
    "block_rot": (
        BLOCK_CELLS, [lambda r, c: (c, 1 - r)], False,
        # all zero, one on, adjacent pair, diagonal pair, three on, all on
        [0b0000, 0b0001, 0b0011, 0b1001, 0b0111, 0b1111],
    ),
}


def moved(cfg: int, cells, move) -> int:
    """Configuration ``cfg`` with the value of each cell carried to ``move(cell)``."""
    bit = {cell: k for k, cell in enumerate(cells)}
    return sum((cfg >> k & 1) << bit[move(*cell)] for k, cell in enumerate(cells))


@pytest.mark.parametrize("name", CLASS_TABLES)
def test_class_table_is_numbered_and_invariant(name):
    cells, moves, inverts, representatives = CLASS_TABLES[name]
    table = clique_value_tables()[name]
    full = (1 << len(cells)) - 1
    assert len(table) == full + 1
    for cfg in range(full + 1):
        for move in moves:
            assert table[moved(cfg, cells, move)] == table[cfg], (name, cfg)
        if inverts:
            assert table[cfg ^ full] == table[cfg], (name, cfg)
    # as many classes as the group has orbits, each at its potential's index
    assert len(set(table.tolist())) == len(representatives)
    assert [table[rep] for rep in representatives] == list(range(len(representatives)))


def test_rot_only_classes_not_inversion_invariant():
    table = clique_value_tables()["block_rot"]
    # one cell on (class 1) inverts to three cells on (class 4)
    assert table[0b0001] != table[0b1110]


def test_single_block_energy_is_class_potential():
    # a 2x2 lattice hosts exactly one block clique and no crosses
    pot = MODEL1_POTENTIALS
    m = build_higher_order(LatticeSpec(2, 2), pot)
    table = clique_value_tables()["block_full"]
    X = all_states(4)
    u = eval_pbf(m, X)
    for cfg in range(16):
        # lattice nodes are row-major: (TL, TR, BL, BR) = (0, 1, 2, 3)
        row = (
            (cfg & 1)
            | (cfg >> 1 & 1) << 1
            | (cfg >> 2 & 1) << 2
            | (cfg >> 3 & 1) << 3
        )
        assert abs(u[row] - pot[table[cfg]]) < 1e-12


def test_higher_order_zero_potentials():
    m = build_higher_order(LatticeSpec(3, 3), np.zeros(10))
    X = all_states(9)
    assert np.allclose(eval_pbf(m, X), 0.0)


def test_rotinv_zero_thetas():
    m = build_2x2_rotinv(LatticeSpec(3, 3), np.zeros(5))
    X = all_states(9)
    assert np.allclose(eval_pbf(m, X), 0.0)


# -- polynomial vs direct clique evaluation ------------------------------------


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 3), (3, 4)])
def test_polynomial_matches_direct_potentials(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    X = all_states(rows * cols)
    sample = X[rng.integers(0, len(X), size=100)]
    for label, params, make in builders(rng):
        if label == "higher_order" and (rows < 3 or cols < 3):
            continue
        m = make(LatticeSpec(rows, cols))
        direct = model_energy_direct(label, params, rows, cols, sample)
        assert np.abs(eval_pbf(m, sample) - direct).max() < 1e-10, label


def test_clique_support_everywhere():
    rng = np.random.default_rng(77)
    for label, _, make in builders(rng):
        m = make(LatticeSpec(4, 4))
        for key, b in m.terms().items():
            if len(key) >= 2 and abs(b) > 1e-12:
                assert is_lattice_clique(key, 4, FAMILY_OFFSETS[label]), (label, key)


def test_colour_inversion_symmetry():
    X = all_states(9)
    inverted = 1 - X
    for m in (
        build_ising(LatticeSpec(3, 3), 0.8),
        build_higher_order(LatticeSpec(3, 3), MODEL1_POTENTIALS),
    ):
        assert np.abs(eval_pbf(m, X) - eval_pbf(m, inverted)).max() < 1e-10


def test_higher_order_model1_brute_force_matches_elimination():
    m = build_higher_order(LatticeSpec(4, 4), MODEL1_POTENTIALS)
    u = model_energy_direct("higher_order", MODEL1_POTENTIALS, 4, 4, all_states(16))
    assert abs(eliminate_exact_sum(m).log_value - log_sum_exp(u)) < 1e-9


def test_rotinv_3x3_brute_force_matches_elimination():
    rng = np.random.default_rng(9)
    thetas = rng.uniform(-1, 1, size=5)
    m = build_2x2_rotinv(LatticeSpec(3, 3), thetas)
    u = model_energy_direct("rotinv2x2", tuple(thetas), 3, 3, all_states(9))
    assert abs(eliminate_exact_sum(m).log_value - log_sum_exp(u)) < 1e-9


def test_autologistic_3x3_brute_force():
    rng = np.random.default_rng(21)
    t0, t1 = rng.uniform(-1, 1, size=2)
    m = build_autologistic(LatticeSpec(3, 3), t0, t1)
    u = model_energy_direct("autologistic", (t0, t1), 3, 3, all_states(9))
    assert abs(eliminate_exact_sum(m).log_value - log_sum_exp(u)) < 1e-9


@pytest.mark.parametrize(
    "family, params, name",
    [
        ("ising", (1e308,), "theta"),
        ("independence", (math.nan,), "theta"),
        ("autologistic", (1e308, 0.1), "theta0, theta1"),
        ("higher_order", (1e308,) + (0.1,) * 9, "potentials"),
        ("higher_order", (0.1,) * 9 + (-1e308,), "potentials"),
        ("rotinv2x2", (1e308,) * 5, "thetas"),
    ],
)
def test_builders_name_their_parameters_when_a_coefficient_overflows(family, params, name):
    # the class tables' transform used to print numpy's overflow warning, and
    # the constructor's error named only the coefficient
    builder, arity = MODEL_FAMILIES[family]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=rf"^{name}: coefficient of .* must be finite"):
            builder(LatticeSpec(3, 3), params) if arity > 2 else builder(LatticeSpec(3, 3), *params)
    assert [str(w.message) for w in caught] == []


def test_lattice_sizes_below_one_are_named():
    # the message named neither rows nor cols
    for rows, cols in ((0, 3), (3, -1)):
        with pytest.raises(ValueError, match=rf"rows and cols must be >= 1, got {rows}x{cols}"):
            LatticeSpec(rows, cols)


# -- config files ------------------------------------------------------------


def test_model_config_round_trip():
    cfg = {"family": "autologistic", "rows": 2, "cols": 3, "params": [0.2, -0.1]}
    m = model_from_config(json.loads(json.dumps(cfg)))
    want = build_autologistic(LatticeSpec(2, 3), 0.2, -0.1)
    assert m.n == 6 and m.terms() == want.terms()


def test_model_config_validation():
    with pytest.raises(ValueError):
        model_from_config({"family": "nope", "rows": 2, "cols": 2, "params": [1]})
    with pytest.raises(ValueError):
        model_from_config({"family": "ising", "rows": 2, "cols": 2, "params": [1, 2]})
    with pytest.raises(ValueError):
        model_from_config({"family": "ising", "rows": 0, "cols": 2, "params": [1]})
    with pytest.raises(ValueError):
        model_from_config({"family": "higher_order", "rows": 3, "cols": 3, "params": [1]})


@pytest.mark.parametrize("rows, cols, key", [(4.5, 3, "rows"), (4, 3.7, "cols"), (True, 3, "rows")])
def test_model_config_refuses_non_integral_sizes(rows, cols, key):
    with pytest.raises(ValueError, match=key):
        model_from_config({"family": "ising", "rows": rows, "cols": cols, "params": [0.4]})


def test_model_config_takes_integral_float_sizes():
    m = model_from_config({"family": "ising", "rows": 4.0, "cols": 3, "params": [0.4]})
    assert m.n == 12


# -- byte identity with the expanded energies --------------------------------

THETAS = (0.0, -0.0, 0.6, -1.1)


def expansion_cases(rng):
    """(family, params) pairs with zero, signed-zero and mixed parameters."""
    for theta in THETAS:
        yield "ising", (theta,)
        yield "independence", (theta,)
        for theta1 in THETAS:
            yield "autologistic", (theta, theta1)
    for zeros in (np.ones(10, bool), np.arange(10) < 4, np.arange(10) >= 4, rng.random(10) < 0.4):
        yield "higher_order", tuple(np.where(zeros, 0.0, rng.uniform(-1, 1, 10)))
    yield "higher_order", (0.3,) * 4 + tuple(rng.uniform(-1, 1, 6))
    for zeros in (np.ones(5, bool), rng.random(5) < 0.4, np.zeros(5, bool)):
        yield "rotinv2x2", tuple(np.where(zeros, 0.0, rng.uniform(-1, 1, 5)))


def term_bits(items):
    return [(key, float(b).hex()) for key, b in items]


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 4), (3, 3), (4, 5)])
def test_builders_reproduce_the_expanded_energies(rows, cols):
    """Every family's terms, order and bits included, match its expansion."""
    rng = np.random.default_rng(100 * rows + cols)
    for family, params in expansion_cases(rng):
        builder, arity = MODEL_FAMILIES[family]
        lat = LatticeSpec(rows, cols)
        built = builder(lat, params) if arity > 2 else builder(lat, *params)
        got = list(built.terms().items())
        want = list(expanded_energy(family, params, rows, cols).terms().items())
        if family == "autologistic" and params[0] == 0.0:
            # The expansion filed each zero singleton before its first pair;
            # the builder skips zero coefficients, so the closure files them.
            assert term_bits(sorted(got)) == term_bits(sorted(want)), params
            got = [(key, b) for key, b in got if b != 0.0]
            want = [(key, b) for key, b in want if b != 0.0]
        assert term_bits(got) == term_bits(want), (family, params)
