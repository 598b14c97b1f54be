"""Approximation operators against the normal-equation oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    all_states,
    brute_fstar,
    coefficient_pieces_oracle,
    eval_pbf,
    fstar_scores_oracle,
    least_squares_project,
    piece_differences_oracle,
    random_dense_pbf,
    random_dense_subfamily,
    soir_removal_updates_oracle,
    sse,
)
from pbmrf import (
    DENSE_TABLE_CAP,
    PseudoBooleanFunction,
    ResourceCapError,
    add_scaled,
    bound_remove_pair,
    extract_subset_family,
    remove_single_interaction,
    soir,
)
from pbmrf.approx import _rebuilt, coefficient_pieces, fstar_scores, soir_removal_updates


def coeffs_close(f, g, tol=1e-10):
    for key in set(f.terms()) | set(g.terms()):
        if abs(f.beta(key) - g.beta(key)) > tol:
            return False
    return True


def random_pair(rng, f):
    pairs = [k for k in f.terms() if len(k) == 2]
    return pairs[int(rng.integers(len(pairs)))]


# -- least squares projection -------------------------------------------------


def test_projection_onto_full_family_is_identity():
    rng = np.random.default_rng(0)
    f = random_dense_pbf(rng, 5)
    proj = least_squares_project(f, list(f.terms()))
    assert coeffs_close(proj, f)


def test_projection_drops_pair_like_soir():
    f = PseudoBooleanFunction(2, {(0, 1): 2.0}, prune=False)
    proj = least_squares_project(f, [(), (0,), (1,)])
    assert abs(proj.beta(()) + 0.5) < 1e-12
    assert abs(proj.beta((0,)) - 1.0) < 1e-12
    assert abs(proj.beta((1,)) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_projection_satisfies_normal_equations_and_is_minimal(seed):
    rng = np.random.default_rng(seed)
    f = random_dense_pbf(rng, 4)
    family = random_dense_subfamily(rng, f)
    proj = least_squares_project(f, family)
    X = all_states(4)
    residual = eval_pbf(f, X) - eval_pbf(proj, X)
    # normal equations: residual sums to zero over every on-set
    for lam in family:
        on = np.ones(len(X), dtype=bool)
        for v in lam:
            on &= X[:, v] == 1
        assert abs(residual[on].sum()) < 1e-8
    # perturbing any retained coefficient cannot reduce the SSE
    base = float(residual @ residual)
    for lam in family:
        for eps in (1e-3, -1e-3):
            bumped = proj.terms()
            bumped[lam] = bumped.get(lam, 0.0) + eps
            d = eval_pbf(f, X) - eval_pbf(
                PseudoBooleanFunction(4, bumped, prune=False), X
            )
            assert d @ d >= base - 1e-12


def test_projection_rejects_bad_families():
    f = PseudoBooleanFunction(3, {(0, 1): 1.0, (2,): 1.0}, prune=False)
    with pytest.raises(ValueError):  # not dense: (0,) and (1,) missing
        least_squares_project(f, [(), (0, 1)])
    with pytest.raises(ValueError):  # not a subset of S
        least_squares_project(f, [(), (0,), (1,), (0, 2)])
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):  # oracle capped at n = 15
        least_squares_project(random_dense_pbf(rng, 16, seeds=2, max_deg=2), [()])


# -- single interaction removal ------------------------------------------------


def test_remove_single_zero_coefficient():
    f = PseudoBooleanFunction(3, {(0, 1): 0.0, (2,): 1.0}, prune=False)
    g, report = remove_single_interaction(f, (0, 1))
    assert report.sse == 0.0
    assert (0, 1) not in g
    X = all_states(3)
    assert np.allclose(eval_pbf(f, X), eval_pbf(g, X))


def test_remove_single_cubic_redistribution():
    f = PseudoBooleanFunction(3, {(0, 1, 2): 4.0}, prune=False)
    g, report = remove_single_interaction(f, (0, 1, 2))
    for pair in ((0, 1), (0, 2), (1, 2)):
        assert abs(g.beta(pair) - 2.0) < 1e-12
    for single in ((0,), (1,), (2,)):
        assert abs(g.beta(single) + 1.0) < 1e-12
    assert abs(g.beta(()) - 0.5) < 1e-12
    # sse closed form: beta^2 * 2^(n - 2|lam|) = 16 * 2^-3
    assert abs(report.sse - 2.0) < 1e-12


def test_remove_single_requires_maximal_set():
    f = PseudoBooleanFunction(4, {(0, 1, 2): 1.0}, prune=False)
    with pytest.raises(ValueError):  # has a superset in S
        remove_single_interaction(f, (0, 1))
    with pytest.raises(ValueError):  # not represented at all
        remove_single_interaction(f, (0, 3))


@pytest.mark.parametrize("seed", range(12))
def test_remove_single_matches_projection(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 5))
    f = random_dense_pbf(rng, n)
    maximal = sorted(
        k
        for k in f.terms()
        if k and not any(len(k2) > len(k) and set(k) < set(k2) for k2 in f.terms())
    )
    lam = maximal[int(rng.integers(len(maximal)))]
    got, report = remove_single_interaction(f, lam)
    proj = least_squares_project(f, [k for k in f.terms() if k != lam])
    assert coeffs_close(got, proj)
    X = all_states(n)
    diff = eval_pbf(f, X) - eval_pbf(got, X)
    assert abs(report.sse - diff @ diff) < 1e-8 * max(1.0, diff @ diff)


# -- SOIR --------------------------------------------------------------------


def test_soir_pair_example_with_error_structure():
    f = PseudoBooleanFunction(2, {(0, 1): 2.0}, prune=False)
    g, report = soir(f, 0, 1)
    assert abs(g.beta(()) + 0.5) < 1e-12
    assert abs(g.beta((0,)) - 1.0) < 1e-12
    assert abs(g.beta((1,)) - 1.0) < 1e-12
    X = all_states(2)
    err = np.abs(eval_pbf(f, X) - eval_pbf(g, X))
    assert np.allclose(err, 0.5)
    assert abs(report.sse - 1.0) < 1e-12


def test_soir_identity_when_pair_absent():
    f = PseudoBooleanFunction(4, {(0, 2): 1.5, (3,): -1.0})
    g, report = soir(f, 0, 1)
    assert coeffs_close(f, g)
    assert report.removed == () and report.sse == 0.0


@pytest.mark.parametrize("seed", range(15))
def test_soir_matches_projection_and_error_formula(seed):
    rng = np.random.default_rng(200 + seed)
    n = 5
    f = random_dense_pbf(rng, n)
    pairs = [k for k in f.terms() if len(k) == 2]
    if not pairs:
        pytest.skip("no pair in this draw")
    i, j = random_pair(rng, f)
    g, report = soir(f, i, j)
    family = [k for k, _ in extract_subset_family(f, (i, j), "complement")]
    proj = least_squares_project(f, family)
    assert coeffs_close(g, proj)

    # pointwise error: (x_i x_j + 1/4 - x_i/2 - x_j/2) * inner sum
    X = all_states(n)
    inner = np.zeros(len(X))
    for key, b in extract_subset_family(f, (i, j), "containing"):
        on = np.ones(len(X), dtype=bool)
        for v in key:
            if v != i and v != j:
                on &= X[:, v] == 1
        inner += b * on
    factor = X[:, i] * X[:, j] + 0.25 - 0.5 * X[:, i] - 0.5 * X[:, j]
    err = eval_pbf(f, X) - eval_pbf(g, X)
    assert np.abs(err - factor * inner).max() < 1e-10
    # magnitude never depends on x_i, x_j and the prefactor is exactly 1/4
    assert np.abs(np.abs(err) - 0.25 * np.abs(inner)).max() < 1e-10
    rows = np.arange(len(X))
    for flip_bit in (i, j):
        assert np.abs(np.abs(err) - np.abs(err)[rows ^ (1 << flip_bit)]).max() < 1e-10
    # at most 2^d distinct magnitudes for d extra variables
    extras = {v for k, _ in extract_subset_family(f, (i, j), "containing") for v in k}
    extras -= {i, j}
    assert len(set(np.abs(err).round(9))) <= 1 << len(extras)
    # sse closed form matches the exhaustive sum
    assert abs(report.sse - err @ err) < 1e-8 * max(1.0, err @ err)


def test_soir_needs_distinct_variables():
    f = PseudoBooleanFunction(3, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        soir(f, 1, 1)


def test_report_serialization():
    f = PseudoBooleanFunction(2, {(0, 1): 2.0}, prune=False)
    _, report = soir(f, 0, 1)
    import json

    doc = json.loads(report.to_json())
    assert doc["removed"] == [[0, 1]]
    assert abs(doc["sse"] - 1.0) < 1e-15
    assert doc["partner"] == 1


# -- SSE and the four theorems ---------------------------------------------


def test_sse_basics():
    rng = np.random.default_rng(5)
    f = random_dense_pbf(rng, 4)
    assert sse(f, f) == 0.0
    f2 = PseudoBooleanFunction(2, {(0, 1): 2.0}, prune=False)
    g2, _ = soir(f2, 0, 1)
    assert abs(sse(f2, g2) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_theorem_linearity(seed):
    rng = np.random.default_rng(300 + seed)
    base = random_dense_pbf(rng, 5)
    keys = list(base.terms())
    g = PseudoBooleanFunction(5, {k: rng.normal() for k in keys}, prune=False)
    h = PseudoBooleanFunction(5, {k: rng.normal() for k in keys}, prune=False)
    family = random_dense_subfamily(rng, base)
    a, b = float(rng.normal()), float(rng.normal())
    left = least_squares_project(add_scaled(g, h, a, b), family)
    right = add_scaled(
        least_squares_project(g, family), least_squares_project(h, family), a, b
    )
    assert coeffs_close(left, right)


@pytest.mark.parametrize("seed", range(10))
def test_theorem_projection_chain(seed):
    rng = np.random.default_rng(400 + seed)
    f = random_dense_pbf(rng, 5)
    mid = random_dense_subfamily(rng, f)
    proj_mid = least_squares_project(f, mid)
    inner = random_dense_subfamily(rng, proj_mid)
    two_step = least_squares_project(proj_mid, inner)
    one_step = least_squares_project(f, inner)
    assert coeffs_close(two_step, one_step)


@pytest.mark.parametrize("seed", range(10))
def test_theorem_pythagorean_sse(seed):
    rng = np.random.default_rng(500 + seed)
    f = random_dense_pbf(rng, 5)
    mid = random_dense_subfamily(rng, f)
    f_mid = least_squares_project(f, mid)
    inner = random_dense_subfamily(rng, f_mid)
    f_inner = least_squares_project(f, inner)
    lhs = sse(f, f_inner)
    rhs = sse(f, f_mid) + sse(f_mid, f_inner)
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


@pytest.mark.parametrize("seed", range(10))
def test_theorem_removed_term_identity(seed):
    rng = np.random.default_rng(600 + seed)
    n = 5
    f = random_dense_pbf(rng, n)
    family = random_dense_subfamily(rng, f)
    proj = least_squares_project(f, family)
    X = all_states(n)
    residual = eval_pbf(f, X) - eval_pbf(proj, X)
    total = float(residual @ residual)
    removed_sum = 0.0
    for key, b in f.terms().items():
        if key in set(family):
            continue
        on = np.ones(len(X), dtype=bool)
        for v in key:
            on &= X[:, v] == 1
        removed_sum += b * residual[on].sum()
    assert abs(total - removed_sum) < 1e-8 * max(1.0, total)


# -- bounds -------------------------------------------------------------------


def test_bound_single_pair_examples():
    f = PseudoBooleanFunction(2, {(0, 1): 2.0}, prune=False)
    up = bound_remove_pair(f, 0, 1, "upper", 25)
    assert abs(up.beta((0,)) - 2.0) < 1e-12
    assert all(abs(up.beta(k)) < 1e-12 for k in up.terms() if k != (0,))
    lo = bound_remove_pair(f, 0, 1, "lower", 25)
    X = all_states(2)
    assert np.allclose(eval_pbf(lo, X), 0.0)


def test_bound_nonnegative_pair_is_tight():
    # only the bare pair interaction: upper bound replaces x_i x_j by x_i
    f = PseudoBooleanFunction(4, {(1, 2): 0.75, (3,): -0.25}, prune=False)
    up = bound_remove_pair(f, 1, 2, "upper", 25)
    assert abs(up.beta((1,)) - 0.75) < 1e-12
    assert abs(up.beta((3,)) + 0.25) < 1e-12


@pytest.mark.parametrize("seed", range(12))
def test_bound_sandwich_with_and_without_splitting(seed):
    rng = np.random.default_rng(700 + seed)
    n = 5
    f = random_dense_pbf(rng, n)
    pairs = [k for k in f.terms() if len(k) == 2]
    if not pairs:
        pytest.skip("no pair in this draw")
    i, j = random_pair(rng, f)
    X = all_states(n)
    fv = eval_pbf(f, X)
    extras = {
        v
        for k, _ in extract_subset_family(f, (i, j), "containing")
        for v in k
        if v not in (i, j)
    }
    unsplit_up = unsplit_lo = None
    for cap in (max(len(extras), 1), 1):
        up = bound_remove_pair(f, i, j, "upper", cap)
        lo = bound_remove_pair(f, i, j, "lower", cap)
        uv, lv = eval_pbf(up, X), eval_pbf(lo, X)
        assert (uv >= fv - 1e-10).all()
        assert (lv <= fv + 1e-10).all()
        for g in (up, lo):
            assert all(
                not {i, j} <= set(k) for k in g.terms() if abs(g.beta(k)) > 1e-12
            )
        if unsplit_up is None:
            unsplit_up, unsplit_lo = uv, lv
        else:
            # splitting can only coarsen the bounds
            assert (uv >= unsplit_up - 1e-10).all()
            assert (lv <= unsplit_lo + 1e-10).all()


def test_bound_rejects_missing_pair_and_bad_direction():
    f = PseudoBooleanFunction(3, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        bound_remove_pair(f, 0, 2, "upper", 25)
    with pytest.raises(ValueError):
        bound_remove_pair(f, 0, 1, "sideways", 25)


@pytest.mark.parametrize("cap", [1.5, True, -1])
def test_bound_refuses_a_table_cap_that_is_not_a_count(cap):
    f = PseudoBooleanFunction(4, {(0, 1): 1.0, (0, 1, 2): 0.5, (1, 3): 0.25})
    with pytest.raises(ValueError, match="table_cap"):
        bound_remove_pair(f, 0, 1, "upper", cap)
    with pytest.raises(ResourceCapError, match="table_cap"):
        bound_remove_pair(f, 0, 1, "upper", DENSE_TABLE_CAP + 1)
    bound_remove_pair(f, 0, 1, "upper", 1.0)  # an integral float passes


# -- partner scoring ---------------------------------------------------------------


interaction_keys = st.lists(st.integers(0, 6), unique=True, max_size=4).map(
    lambda v: tuple(sorted(v))
)
# Multiples of 1/8: every sum below is exact, so scores compare with ==.
dyadic = st.integers(-16, 16).map(lambda k: k / 8)


@st.composite
def scored_members(draw):
    """(i, members): distinct sets over variables 0..6, at least one holding i.

    Members are shuffled and mix sets that hold i with sets that do not.
    """
    i = draw(st.integers(0, 6))
    beta = draw(st.dictionaries(interaction_keys, dyadic, max_size=16))
    with_i = interaction_keys.map(lambda k: tuple(sorted(set(k) | {i})))
    beta.update(draw(st.dictionaries(with_i, dyadic, min_size=1, max_size=16)))
    return i, draw(st.permutations(list(beta.items())))


@settings(derandomize=True, database=None)
@given(scored_members())
def test_fstar_scores_match_enumeration(drawn):
    i, members = drawn
    pieces, _ = coefficient_pieces(i, [], [(key, b) for key, b in members if i in key])
    # variable 7 appears in no member, so its score is 0
    candidates = [v for v in range(8) if v != i]
    slot = {r: k for k, r in enumerate(candidates)}
    scores = fstar_scores([[scope, table, None] for scope, table in pieces], slot)
    assert scores.tolist() == [brute_fstar((i,), r, members) for r in candidates]
    assert scores[-1] == 0.0


def test_pair_rebuild_caps_the_term_dict():
    # x_i times a piece over 20 variables spans 21, past TERMS_TABLE_CAP:
    # its coefficients would become 2^21 dict entries
    f = PseudoBooleanFunction(21, {(0, 1): 1.0})
    piece = (tuple(range(1, 21)), np.zeros(1 << 20))
    with pytest.raises(ResourceCapError, match="pair removal"):
        _rebuilt(f, 0, [piece])


# -- the capped step's kernels against their first versions, bit for bit -----

# Finite entries, signed zeros among them: the kernels' copies and
# differences must keep every sign of zero that the first versions kept.
entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-8.0, 8.0))


def _table(draw, m, tail):
    size = (1 << m) * (tail[0] if tail else 1)
    table = np.array(draw(st.lists(entries, min_size=size, max_size=size)))
    table = table.reshape((1 << m,) + tail)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":  # as a batch split leaves its members' columns
        return np.asfortranarray(table)
    if layout == "strided":  # as a table's half along one variable
        return np.repeat(table, 2, axis=0)[::2]
    return table


@st.composite
def step_buckets(draw):
    """(i, factors, pairs, tail): a capped step's bucket over variables 0..4.

    Scopes are drawn from few variables, so factors and monomials often
    have equal scopes or lie inside one another (monomials in monomials
    too).  ``tail`` is () or a batch of 1 to 3 members.
    """
    i = draw(st.integers(0, 4))
    tail = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    scopes = st.sets(st.integers(0, 4), max_size=3).map(lambda s: tuple(sorted(s | {i})))
    factors = [(scope, _table(draw, len(scope), tail))
               for scope in draw(st.lists(scopes, max_size=4))]
    coefficient = entries.map(float) if not tail else st.lists(
        entries, min_size=tail[0], max_size=tail[0]).map(np.array)
    pairs = draw(st.lists(st.tuples(scopes, coefficient), min_size=0 if factors else 1,
                          max_size=5))
    return i, factors, pairs, tail


def _bytes(factors):
    return [(scope, table.shape, table.tobytes()) for scope, table in factors]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(step_buckets())
def test_coefficient_pieces_reproduce_the_zero_table_merge(case):
    i, factors, pairs, tail = case
    inputs = _bytes(factors), [np.asarray(b).tobytes() for _, b in pairs]
    pieces, rest = coefficient_pieces(i, factors, pairs, tail)
    want_pieces, want_rest = coefficient_pieces_oracle(i, factors, pairs, tail)
    assert _bytes(pieces) == _bytes(want_pieces)
    assert _bytes(rest) == _bytes(want_rest)
    # the merges add into copies: no input changed
    assert (_bytes(factors), [np.asarray(b).tobytes() for _, b in pairs]) == inputs


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(step_buckets())
def test_piece_differences_and_scores_reproduce_the_first_version(case):
    i, factors, pairs, tail = case
    pieces, _ = coefficient_pieces_oracle(i, factors, pairs, tail)
    # variable 9 is in no piece: its slot scores 0
    neighbours = sorted(set().union(*(scope for scope, _ in pieces)) | {9})
    slot = {v: k for k, v in enumerate(neighbours)}
    scored = [[scope, table, None] for scope, table in pieces]
    scores = fstar_scores(scored, slot)
    assert scores.tobytes() == fstar_scores_oracle(pieces, slot).tobytes()
    for (scope, table, (slots, values)) in scored:
        want_slots, want_values = piece_differences_oracle(scope, table, slot)
        assert slots.tolist() == want_slots.tolist()
        assert values.tobytes() == want_values.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(step_buckets(), st.data())
def test_soir_updates_reproduce_the_first_version(case, data):
    i, factors, pairs, tail = case
    pieces, _ = coefficient_pieces_oracle(i, factors, pairs, tail)
    candidates = sorted(set().union(*(scope for scope, _ in pieces)))
    if not candidates:
        return
    j = data.draw(st.sampled_from(candidates))
    held = [p for p in pieces if j in p[0]]
    inputs = _bytes(held)
    means, residuals = soir_removal_updates(held, j)
    want_means, want_residuals = soir_removal_updates_oracle(held, j)
    assert _bytes(means) == _bytes(want_means)
    assert _bytes(residuals) == _bytes(want_residuals)
    assert _bytes(held) == inputs
