"""Core polynomial representation: evaluation, transforms, set queries."""

import json
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import all_states, eval_pbf, prune_dead_oracle, random_dense_pbf, sum_over_oracle
from pbmrf import (
    PseudoBooleanFunction,
    ResourceCapError,
    add_scaled,
    evaluate,
    evaluate_many,
    extract_subset_family,
    interaction_set,
    interactions_from_values,
    to_json,
)
from pbmrf.pbf import (
    PRUNE_TOL,
    TERMS_TABLE_CAP,
    _GATHER_WIDTH,
    _add_table_terms,
    _sum_over,
    close_subsets,
    moebius_transform,
    prune_dead,
    subset_keys,
    table_rows,
    tabulate,
)


def test_interaction_set_canonicalises_and_validates():
    assert interaction_set([3, 1, 2]) == (1, 2, 3)
    assert interaction_set(()) == ()
    with pytest.raises(ValueError):
        interaction_set([1, 1])
    with pytest.raises(ValueError):
        interaction_set([-1])


def test_constant_function():
    f = PseudoBooleanFunction(4, {(): 3.0})
    for x in all_states(4)[:5]:
        assert evaluate(f, x) == 3.0


def test_single_monomial():
    f = PseudoBooleanFunction(3, {(0, 1): 2.0})
    assert evaluate(f, (1, 1, 0)) == 2.0
    assert evaluate(f, (1, 0, 0)) == 0.0


def test_evaluate_matches_ising_pair_count():
    # 2x2 Ising at theta=0.4: energy is theta times the number of equal
    # first-order pairs, counted directly.
    from pbmrf import LatticeSpec, build_ising

    theta = 0.4
    m = build_ising(LatticeSpec(2, 2), theta)
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    for x in all_states(4):
        direct = theta * sum(x[i] == x[j] for i, j in edges)
        assert abs(evaluate(m, x) - direct) < 1e-12
    assert abs(evaluate(m, np.ones(4, dtype=np.uint8)) - 4 * theta) < 1e-12


def test_evaluate_rejects_length_mismatch():
    f = PseudoBooleanFunction(3, {(0,): 1.0})
    with pytest.raises(ValueError):
        evaluate(f, (1, 0))
    with pytest.raises(ValueError):
        evaluate_many(f, np.zeros((2, 4), dtype=np.uint8))


def test_dense_closure_and_dag_links():
    f = PseudoBooleanFunction(4, {(0, 1, 2): 1.0, (2, 3): -1.0})
    expected = {
        (),
        (0,),
        (1,),
        (2,),
        (3,),
        (0, 1),
        (0, 2),
        (1, 2),
        (2, 3),
        (0, 1, 2),
    }
    sets = set(f.interaction_sets())
    assert sets == expected
    for key in sets:
        for k in range(len(key)):
            assert key[:k] + key[k + 1 :] in sets


def test_pruning_keeps_needed_subsets():
    f = PseudoBooleanFunction(3, {(0, 1, 2): 1.0, (0,): 0.0})
    # closure zeros below the surviving cubic are retained
    assert (0, 1) in f
    g = add_scaled(f, f, 1.0, -1.0)
    # the zero function keeps only the constant node
    assert g.interaction_sets() == [()]
    assert evaluate(g, (1, 1, 1)) == 0.0


def test_add_scaled_identity_and_pointwise():
    rng = np.random.default_rng(11)
    f = random_dense_pbf(rng, 5)
    g = random_dense_pbf(rng, 5)
    same = add_scaled(f, f, 1.0, 0.0)
    for key in f.terms():
        assert same.beta(key) == f.beta(key)
    combo = add_scaled(f, g, 1.5, -2.0)
    X = all_states(5)
    want = 1.5 * eval_pbf(f, X) - 2.0 * eval_pbf(g, X)
    assert np.allclose(evaluate_many(combo, X), want, atol=1e-12)
    with pytest.raises(ValueError):
        add_scaled(f, random_dense_pbf(rng, 4), 1.0, 1.0)


def test_interactions_from_values_trivial_tables():
    f = interactions_from_values((0, 1), np.full(4, 5.0))
    assert abs(f.beta(()) - 5.0) < 1e-12
    assert all(abs(f.beta(k)) < 1e-12 for k in f.terms() if k)

    g = interactions_from_values((0,), [0.0, 1.0])
    assert abs(g.beta(())) < 1e-12 and abs(g.beta((0,)) - 1.0) < 1e-12


def test_interactions_from_values_caps_the_term_dict():
    # 2^21 entries (16 MB) pass the dense-table cap, but as coefficient
    # terms they would become two million dict entries
    assert TERMS_TABLE_CAP == 20
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="interactions_from_values"):
        interactions_from_values(tuple(range(21)), np.zeros(1 << 21))
    assert time.perf_counter() - start < 2.0


def test_tabulate_counting_order():
    f = PseudoBooleanFunction(2, {(0, 1): 2.0})
    assert np.allclose(tabulate(f.terms().items(), (0, 1), "test"), [0.0, 0.0, 0.0, 2.0])
    g = PseudoBooleanFunction(2, {(): 1.0})
    assert np.allclose(tabulate(g.terms().items(), (0, 1), "test"), 1.0)


@pytest.mark.parametrize("seed", range(8))
def test_transform_round_trip(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    values = rng.uniform(-1e3, 1e3, size=1 << m)
    variables = tuple(range(m))
    back = tabulate(interactions_from_values(variables, values).terms().items(), variables, "test")
    assert np.abs(back - values).max() < 1e-10
    # reverse composition: coefficients -> table -> coefficients
    f = random_dense_pbf(rng, m, seeds=4, max_deg=m)
    f2 = interactions_from_values(variables, tabulate(f.terms().items(), variables, "test"), n=m)
    for key in set(f.terms()) | set(f2.terms()):
        assert abs(f.beta(key) - f2.beta(key)) < 1e-10


@pytest.mark.parametrize("m", range(1, 11))
def test_uniqueness_of_representation(m):
    # distinct coefficient sets must disagree somewhere on the cube
    rng = np.random.default_rng(m)
    f = random_dense_pbf(rng, m, seeds=3, max_deg=min(m, 3))
    g_terms = f.terms()
    key = sorted(g_terms)[int(rng.integers(len(g_terms)))]
    g_terms[key] += 0.5
    g = PseudoBooleanFunction(m, g_terms, prune=False)
    fv = tabulate(f.terms().items(), tuple(range(m)), "test")
    gv = tabulate(g.terms().items(), tuple(range(m)), "test")
    assert np.abs(fv - gv).max() > 1e-6


def test_table_cap_enforced():
    with pytest.raises(ResourceCapError):
        f = PseudoBooleanFunction(30, {(i,): 1.0 for i in range(30)})
        tabulate(f.terms().items(), tuple(range(30)), "test")


def test_subset_family_worked_example():
    # full dense family on three variables, queried by the pair {0, 1}
    f = PseudoBooleanFunction(3, {(0, 1, 2): 1.0}, prune=False)
    containing = [k for k, _ in extract_subset_family(f, (0, 1), "containing")]
    assert containing == [(0, 1), (0, 1, 2)]
    disjoint = [k for k, _ in extract_subset_family(f, (0, 1), "disjoint")]
    assert disjoint == [(), (2,)]
    everything = [k for k, _ in extract_subset_family(f, (), "containing")]
    assert everything == f.interaction_sets()


@pytest.mark.parametrize("seed", range(5))
def test_subset_family_partitions(seed):
    rng = np.random.default_rng(seed)
    f = random_dense_pbf(rng, 6)
    keys = sorted(f.terms())
    lam = keys[int(rng.integers(len(keys)))]
    containing = {k for k, _ in extract_subset_family(f, lam, "containing")}
    complement = {k for k, _ in extract_subset_family(f, lam, "complement")}
    disjoint = {k for k, _ in extract_subset_family(f, lam, "disjoint")}
    assert containing | complement == set(f.terms())
    assert not containing & complement
    assert disjoint <= complement or lam == ()


def test_serialization_round_trip_and_layout():
    f = PseudoBooleanFunction(3, {(0, 1): 2.0, (2,): -1.0 / 3.0})
    text = to_json(f)
    doc = json.loads(text)
    assert doc["n"] == 3
    sets = [tuple(e["set"]) for e in doc["terms"]]
    assert sets == sorted(sets, key=lambda s: (len(s), s))
    assert {tuple(e["set"]): e["beta"] for e in doc["terms"]} == f.terms()
    # 17 significant digits survive the trip
    assert any("0.3333333333333333" in json.dumps(e) for e in doc["terms"])


def test_interactions_from_values_validation():
    with pytest.raises(ValueError, match="duplicate"):
        interactions_from_values((0, 0), np.zeros(4))
    with pytest.raises(ValueError, match="needs 4 values, got 3"):
        interactions_from_values((0, 1), np.zeros(3))
    with pytest.raises(ValueError, match="needs 4 values, got 8"):
        interactions_from_values((0, 1), np.zeros(8))
    with pytest.raises(ResourceCapError):
        interactions_from_values(tuple(range(26)), np.zeros(2))


def test_out_of_range_interaction_rejected():
    with pytest.raises(ValueError):
        PseudoBooleanFunction(2, {(0, 5): 1.0})


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize(
    "terms, key",
    [({(0, 1): float("nan"), (0,): 1.0}, "(0, 1)"),
     ({(1,): float("inf")}, "(1,)"),
     ({(): -float("inf"), (0,): 2.0}, "()"),
     ([((1, 0), 1e308), ((0, 1), 1e308)], "(0, 1)")],  # a finite sum that overflows
)
def test_non_finite_coefficients_raise_naming_their_set(terms, key, prune):
    # NaN fails every comparison, so the prune used to drop it as negligible
    with pytest.raises(ValueError, match=rf"coefficient of {re.escape(key)} must be finite"):
        PseudoBooleanFunction(2, terms, prune=prune)


sorted_variables = st.lists(st.integers(0, 30), unique=True, max_size=8).map(sorted)


@settings(derandomize=True, database=None)
@given(sorted_variables)
def test_subset_keys_match_mask_bits(variables):
    keys = subset_keys(variables)
    assert len(keys) == 1 << len(variables)
    for mask, key in enumerate(keys):
        assert key == tuple(v for k, v in enumerate(variables) if mask >> k & 1)


def test_table_terms_add_nonzero_entries_under_sorted_keys_in_mask_order():
    # cells (3, 1): masks 0..3 select (), (3,), (1,), (3, 1)
    terms = {(1,): 0.5, (1, 3): 1.0}
    _add_table_terms(terms, (3, 1), [0.25, 2.0, -0.0, 4.0])
    assert list(terms.items()) == [((1,), 0.5), ((1, 3), 5.0), ((), 0.25), ((3,), 2.0)]


@st.composite
def dense_polynomials(draw):
    """(variables, coefficient map over every subset of them), up to 8 variables."""
    variables = draw(sorted_variables)
    coeffs = draw(
        st.lists(
            st.floats(-10.0, 10.0, allow_nan=False),
            min_size=1 << len(variables),
            max_size=1 << len(variables),
        )
    )
    return variables, dict(zip(subset_keys(variables), coeffs))


@settings(derandomize=True, database=None)
@given(dense_polynomials(), st.randoms(use_true_random=False))
def test_tabulate_inverts_to_the_coefficients(poly, rnd):
    variables, beta = poly
    pairs = list(beta.items())
    rnd.shuffle(pairs)
    coeffs = moebius_transform(tabulate(pairs, variables, "test"))
    want = np.array([beta[key] for key in subset_keys(variables)])
    np.testing.assert_allclose(coeffs, want, rtol=0, atol=1e-9)


@settings(derandomize=True, database=None)
@given(dense_polynomials().filter(lambda p: p[0]), st.data())
def test_tabulate_fixes_unlisted_variables_at_one(poly, data):
    variables, beta = poly
    fixed = data.draw(st.sampled_from(variables))
    listed = [v for v in variables if v != fixed]
    coeffs = moebius_transform(tabulate(beta.items(), listed, "test"))
    # f with x_fixed = 1: each listed set L carries beta[L] + beta[L + fixed].
    want = [
        beta[key] + beta[tuple(sorted(key + (fixed,)))] for key in subset_keys(listed)
    ]
    np.testing.assert_allclose(coeffs, want, rtol=0, atol=1e-9)


@settings(derandomize=True, database=None)
@given(st.integers(0, 12), st.integers(0, 4), st.integers(0, 7), st.data())
def test_table_rows_equals_per_bit_sum(k, spare, count, data):
    n = k + spare
    variables = data.draw(st.permutations(range(n)))[:k]
    seed = data.draw(st.integers(0, 2**31))
    batch = np.random.default_rng(seed).integers(0, 2, size=(n, count), dtype=np.uint8)
    want = [
        sum(int(batch[v, c]) << t for t, v in enumerate(variables)) for c in range(count)
    ]
    rows = table_rows(batch, variables)
    assert rows.shape == (count,)
    assert rows.tolist() == want
    # the narrowest unsigned dtype with one bit to spare past the k bits
    assert rows.dtype == np.min_scalar_type((2 << k) - 1)
    for c in range(count):
        assert int(table_rows(batch[:, c], variables)) == want[c]


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(0, _GATHER_WIDTH + 2), st.sampled_from([(), (1,), (3,)]), st.data())
def test_sum_over_is_the_broadcast_sum_bit_for_bit(m, tail, data):
    # joints up to the gather width take the gather when the tables are flat
    joint = sorted(data.draw(st.sets(st.integers(0, 20), min_size=m, max_size=m)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    factors = []
    for _ in range(data.draw(st.integers(0, 4))):
        scope = tuple(v for v in joint if data.draw(st.booleans()))
        shape = (1 << len(scope),) + tail
        table = rng.uniform(-8.0, 8.0, shape)
        table[rng.random(shape) < 0.25] = 0.0
        table[rng.random(shape) < 0.25] = -0.0
        factors.append((scope, table))
    got = _sum_over(joint, factors, tail)
    assert got.shape == (1 << m,) + tail
    assert got.tobytes() == sum_over_oracle(joint, factors, tail).tobytes()


@st.composite
def signed_energies(draw):
    """(f, states): a dense energy whose coefficients may be negative, 0.0 or -0.0.

    The constructor stores a -0.0 as 0.0 (it adds each value to 0.0), so
    the drawn signed zeros are set in the coefficient map afterwards.
    Includes n = 0 and energies that are only a constant.
    """
    n = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n and draw(st.booleans()):
        f = random_dense_pbf(rng, n, seeds=draw(st.integers(1, 6)))
    else:
        f = PseudoBooleanFunction(n, {(): draw(st.sampled_from([0.0, -0.0, -1.5, 2.25]))})
    coeffs = st.sampled_from([0.0, -0.0, -1.0, -0.375, 0.5, 3.0, -1e-300, 1e300])
    for key in f.terms():
        if draw(st.booleans()):
            f._beta[key] = draw(coeffs)
    states = rng.integers(0, 2, (draw(st.integers(1, 6)), n), dtype=np.uint8)
    return f, states


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(signed_energies())
def test_evaluate_equals_the_one_row_evaluate_many_bit_for_bit(case):
    f, states = case
    for x in (*states, *states.astype(bool)):
        got = evaluate(f, x)
        assert type(got) is float
        assert got.hex() == float(evaluate_many(f, x[None])[0]).hex()


@st.composite
def coefficient_maps(draw):
    """(beta, keep): a dense coefficient map and a keep test some or all entries pass."""
    n = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = random_dense_pbf(rng, n, seeds=draw(st.integers(1, 6))) if n else PseudoBooleanFunction(0)
    values = st.sampled_from([0.0, 1e-13, -1e-13, 0.5, -2.0, 1e-12])
    beta = {key: draw(values) if draw(st.booleans()) else b for key, b in f.terms().items()}
    close_subsets(beta)
    tol = draw(st.sampled_from([0.0, PRUNE_TOL, 1.0]))
    return beta, lambda b: abs(b) >= tol


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(coefficient_maps())
def test_prune_dead_leaves_the_dict_of_the_full_walk(case):
    beta, keep = case
    want = dict(beta)
    prune_dead_oracle(want, keep)
    prune_dead(beta, keep)
    assert list(beta.items()) == list(want.items())
