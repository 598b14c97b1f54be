"""Core polynomial representation: evaluation, transforms, set queries."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import all_states, eval_pbf, random_dense_pbf
from pbmrf import (
    DenseLocalFunction,
    PseudoBooleanFunction,
    ResourceCapError,
    add_scaled,
    evaluate,
    evaluate_many,
    extract_subset_family,
    from_json,
    interaction_set,
    interactions_from_values,
    to_json,
    values_from_interactions,
)
from pbmrf.pbf import (
    TERMS_TABLE_CAP,
    moebius_transform,
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
        assert abs(evaluate(m.energy, x) - direct) < 1e-12
    assert abs(evaluate(m.energy, np.ones(4, dtype=np.uint8)) - 4 * theta) < 1e-12


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
    const = DenseLocalFunction((0, 1), np.full(4, 5.0))
    f = interactions_from_values(const)
    assert abs(f.beta(()) - 5.0) < 1e-12
    assert all(abs(f.beta(k)) < 1e-12 for k in f.terms() if k)

    ident = DenseLocalFunction((0,), np.array([0.0, 1.0]))
    g = interactions_from_values(ident)
    assert abs(g.beta(())) < 1e-12 and abs(g.beta((0,)) - 1.0) < 1e-12


def test_interactions_from_values_caps_the_term_dict():
    # 2^21 entries (16 MB) pass the dense-table cap, but as coefficient
    # terms they would become two million dict entries
    assert TERMS_TABLE_CAP == 20
    table = DenseLocalFunction(tuple(range(21)), np.zeros(1 << 21))
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="interactions_from_values"):
        interactions_from_values(table)
    assert time.perf_counter() - start < 2.0


def test_values_from_interactions_counting_order():
    f = PseudoBooleanFunction(2, {(0, 1): 2.0})
    table = values_from_interactions(f, (0, 1))
    assert np.allclose(table.values, [0.0, 0.0, 0.0, 2.0])
    g = PseudoBooleanFunction(2, {(): 1.0})
    assert np.allclose(values_from_interactions(g, (0, 1)).values, 1.0)


def test_values_from_interactions_rejects_unlisted_variable():
    f = PseudoBooleanFunction(3, {(0, 2): 1.0})
    with pytest.raises(ValueError):
        values_from_interactions(f, (0, 1))


@pytest.mark.parametrize("seed", range(8))
def test_transform_round_trip(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    values = rng.uniform(-1e3, 1e3, size=1 << m)
    table = DenseLocalFunction(tuple(range(m)), values)
    back = values_from_interactions(interactions_from_values(table), tuple(range(m)))
    assert np.abs(back.values - values).max() < 1e-10
    # reverse composition: coefficients -> table -> coefficients
    f = random_dense_pbf(rng, m, seeds=4, max_deg=m)
    table2 = values_from_interactions(f, tuple(range(m)))
    f2 = interactions_from_values(table2, n=m)
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
    fv = values_from_interactions(f, tuple(range(m))).values
    gv = values_from_interactions(g, tuple(range(m))).values
    assert np.abs(fv - gv).max() > 1e-6


def test_table_cap_enforced():
    with pytest.raises(ResourceCapError):
        f = PseudoBooleanFunction(30, {(i,): 1.0 for i in range(30)})
        values_from_interactions(f, tuple(range(30)))


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
    g = from_json(text)
    for key in set(f.terms()) | set(g.terms()):
        assert f.beta(key) == g.beta(key)
    # 17 significant digits survive the trip
    assert any("0.3333333333333333" in json.dumps(e) for e in doc["terms"])


def test_dense_local_function_validation():
    with pytest.raises(ValueError):
        DenseLocalFunction((0, 0), np.zeros(4))
    with pytest.raises(ValueError):
        DenseLocalFunction((0, 1), np.zeros(3))
    with pytest.raises(ResourceCapError):
        DenseLocalFunction(tuple(range(26)), np.zeros(2))


def test_out_of_range_interaction_rejected():
    with pytest.raises(ValueError):
        PseudoBooleanFunction(2, {(0, 5): 1.0})


sorted_variables = st.lists(st.integers(0, 30), unique=True, max_size=8).map(sorted)


@settings(derandomize=True, database=None)
@given(sorted_variables)
def test_subset_keys_match_mask_bits(variables):
    keys = subset_keys(variables)
    assert len(keys) == 1 << len(variables)
    for mask, key in enumerate(keys):
        assert key == tuple(v for k, v in enumerate(variables) if mask >> k & 1)


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
    for c in range(count):
        assert int(table_rows(batch[:, c], variables)) == want[c]
