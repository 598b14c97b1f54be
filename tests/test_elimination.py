"""The elimination engine: exact, capped, bounded, max-marginal, moments."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    all_states,
    brute_log_c,
    eval_pbf,
    eval_terms,
    log_sum_exp,
    random_dense_pbf,
    random_test_model,
)
from pbmrf import (
    EliminationConfig,
    LatticeSpec,
    PseudoBooleanFunction,
    ResourceCapError,
    build_higher_order,
    build_independence,
    bound_remove_pair,
    build_ising,
    eliminate,
    eliminate_approx,
    eliminate_bound,
    eliminate_exact_sum,
    eliminate_max,
    moment,
    soir,
)
from pbmrf import elimination
from pbmrf.approx import fstar_scores
from pbmrf.pbf import table_rows, tabulate
from pbmrf.pomm import log_density_many


def test_single_variable_analytic():
    f = PseudoBooleanFunction(1, {(0,): 0.5})
    res = eliminate_exact_sum(f)
    assert abs(res.log_value - math.log(1 + math.exp(0.5))) < 1e-12


def test_zero_interaction_energy_any_mode():
    f = PseudoBooleanFunction(4, {(): 1.25})
    for mode in ("exact", "approximate", "lower_bound", "upper_bound"):
        cfg = EliminationConfig(mode=mode, nu=None if mode == "exact" else 1)
        res = eliminate(f, cfg)
        assert abs(res.log_value - (4 * math.log(2) + 1.25)) < 1e-12


def test_exact_4x4_ising_vs_brute_force():
    m = build_ising(LatticeSpec(4, 4), 0.8)
    assert abs(eliminate_exact_sum(m).log_value - brute_log_c(m, 4, 4)) < 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_exact_elimination_is_order_invariant(seed):
    rng = np.random.default_rng(800 + seed)
    model, rows, cols = random_test_model(rng, max_rows=3, max_cols=4)
    reference = eliminate_exact_sum(model).log_value
    order = rng.permutation(model.n)
    res = eliminate(model, EliminationConfig(order=tuple(order)))
    assert abs(res.log_value - reference) < 1e-9


def test_order_must_be_permutation():
    m = build_ising(LatticeSpec(2, 2), 0.4)
    with pytest.raises(ValueError):
        eliminate(m, EliminationConfig(order=(0, 1, 2, 2)))


def test_cap_error_names_step_and_eta():
    # a 27-star: variable 0 shares a pair with 26 others, tiny dense family
    star = PseudoBooleanFunction(27, {(0, k): 0.1 for k in range(1, 27)})
    with pytest.raises(ResourceCapError) as info:
        eliminate_exact_sum(star)
    message = str(info.value)
    assert "step 0" in message and "26" in message


def test_config_validation():
    with pytest.raises(ValueError):
        EliminationConfig(mode="approximate")  # nu missing
    with pytest.raises(ValueError):
        EliminationConfig(mode="magic")
    with pytest.raises(ValueError):
        EliminationConfig(marginal="product")
    with pytest.raises(ValueError):
        EliminationConfig(pomm_variant="sometimes")
    with pytest.raises(ValueError):
        EliminationConfig(marginal="max", pomm_variant="pre_approximation")
    with pytest.raises(ValueError):
        eliminate_approx(
            build_ising(LatticeSpec(2, 2), 0.1), EliminationConfig(mode="exact")
        )


# -- approximate mode ---------------------------------------------------------


def test_saturated_nu_reproduces_exact():
    rng = np.random.default_rng(13)
    for _ in range(4):
        model, rows, cols = random_test_model(rng, max_rows=3, max_cols=4)
        exact = eliminate_exact_sum(model).log_value
        for mode in ("approximate", "lower_bound", "upper_bound"):
            res = eliminate(model, EliminationConfig(mode=mode, nu=model.n))
            assert abs(res.log_value - exact) < 1e-10, mode


def test_weak_interactions_approximate_better():
    lat = LatticeSpec(4, 4)
    errors = {}
    for theta in (0.4, 0.8):
        m = build_ising(lat, theta)
        exact = brute_log_c(m, 4, 4)
        approx = eliminate_approx(m, EliminationConfig(mode="approximate", nu=2))
        errors[theta] = abs(approx.log_value - exact)
    assert errors[0.4] <= errors[0.8]


def test_eta_respects_nu_in_capped_modes():
    m = build_ising(LatticeSpec(4, 4), 0.6)
    for mode in ("approximate", "lower_bound", "upper_bound"):
        res = eliminate(m, EliminationConfig(mode=mode, nu=2))
        assert all(step.eta_after <= 2 for step in res.per_step)
        assert any(step.partners for step in res.per_step)


# -- bound mode ----------------------------------------------------------------


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_bound_sandwich_on_4x4_ising(nu):
    m = build_ising(LatticeSpec(4, 4), 0.8)
    exact = brute_log_c(m, 4, 4)
    lower = eliminate_bound(m, EliminationConfig(mode="lower_bound", nu=nu)).log_value
    upper = eliminate_bound(m, EliminationConfig(mode="upper_bound", nu=nu)).log_value
    assert lower <= exact + 1e-12
    assert exact <= upper + 1e-12


def test_bound_gap_trend_is_logged_not_asserted(caplog):
    # gap(nu=4) <= gap(nu=2) is the expected trend; log a warning otherwise
    m = build_ising(LatticeSpec(4, 4), 0.8)
    gaps = {}
    for nu in (2, 4):
        lo = eliminate_bound(m, EliminationConfig(mode="lower_bound", nu=nu)).log_value
        hi = eliminate_bound(m, EliminationConfig(mode="upper_bound", nu=nu)).log_value
        gaps[nu] = hi - lo
    if gaps[4] > gaps[2]:
        import logging

        logging.getLogger(__name__).warning(
            "bound gap grew when nu rose: %s", gaps
        )
    assert gaps[2] >= 0 and gaps[4] >= 0


def test_forced_splitting_with_table_cap_one():
    # higher-order cliques give pair removals with several extra variables,
    # so table_cap=1 forces the recursive split path
    rng = np.random.default_rng(5)
    from pbmrf import build_higher_order

    m = build_higher_order(LatticeSpec(3, 4), rng.uniform(-0.8, 0.8, size=10))
    exact = brute_log_c(m, 3, 4)
    for mode in ("lower_bound", "upper_bound"):
        res = eliminate(m, EliminationConfig(mode=mode, nu=2, table_cap=1))
        if mode == "lower_bound":
            assert res.log_value <= exact + 1e-12
        else:
            assert exact <= res.log_value + 1e-12
    assert any(
        step.splits > 0
        for step in eliminate(
            m, EliminationConfig(mode="upper_bound", nu=2, table_cap=1)
        ).per_step
    )


# -- max marginal ---------------------------------------------------------------


def test_max_mode_independence_argmax():
    m = build_independence(LatticeSpec(2, 3), 0.7)
    res = eliminate_max(m, EliminationConfig(marginal="max"))
    assert abs(res.log_value - 6 * 0.7) < 1e-12
    assert (res.argmax == 1).all()


def test_max_mode_exact_vs_exhaustive():
    m = build_ising(LatticeSpec(4, 4), 0.6)
    X = all_states(16)
    u = eval_pbf(m.energy, X)
    res = eliminate_max(m, EliminationConfig(marginal="max"))
    assert abs(res.log_value - u.max()) < 1e-9
    assert abs(eval_pbf(m.energy, res.argmax.reshape(1, -1))[0] - res.log_value) < 1e-9


def test_max_mode_saturated_matches_exact():
    m = build_ising(LatticeSpec(3, 3), -0.5)
    exact = eliminate_max(m, EliminationConfig(marginal="max"))
    approx = eliminate_max(
        m, EliminationConfig(mode="approximate", marginal="max", nu=9)
    )
    assert abs(exact.log_value - approx.log_value) < 1e-10
    assert (exact.argmax == approx.argmax).all()


def test_max_mode_bounds_bracket_maximum():
    rng = np.random.default_rng(31)
    model, rows, cols = random_test_model(rng, max_rows=3, max_cols=4)
    from helpers import model_energy_direct

    u = model_energy_direct(
        model.label, model.params, rows, cols, all_states(model.n)
    )
    lo = eliminate_max(
        model, EliminationConfig(mode="lower_bound", marginal="max", nu=2)
    ).log_value
    hi = eliminate_max(
        model, EliminationConfig(mode="upper_bound", marginal="max", nu=2)
    ).log_value
    assert lo <= u.max() + 1e-12 <= hi + 2e-12


# -- dense exact engine against enumeration and the capped engine --------------


@st.composite
def energies_and_orders(draw, max_n=8):
    """A random dense polynomial on at most 8 variables and a random order."""
    n = draw(st.integers(1, max_n))
    sets = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 4))
    terms = draw(st.lists(st.tuples(sets, st.floats(-2.0, 2.0)), max_size=12))
    return PseudoBooleanFunction(n, terms), tuple(draw(st.permutations(range(n))))


def _close(value, want):
    return abs(value - want) <= 1e-12 * max(1.0, abs(want))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(energies_and_orders())
def test_exact_engine_matches_enumeration_and_saturated_store(case):
    f, order = case
    states = all_states(f.n)
    values = eval_pbf(f, states)
    # nu = n: the capped engine folds every step with no removal
    capped = EliminationConfig(mode="approximate", nu=f.n, order=order)

    sums = [
        eliminate(f, replace(cfg, pomm_variant="post_approximation"))
        for cfg in (EliminationConfig(order=order), capped)
    ]
    assert _close(sums[0].log_value, log_sum_exp(values))
    assert _close(sums[0].log_value, sums[1].log_value)
    # the conditionals agree at every state, whatever their dependency sets
    for dense, stored in zip(sums[0].pomm.conditionals, sums[1].pomm.conditionals):
        assert dense.variable == stored.variable
        p = dense.prob_one[table_rows(states.T, dense.depends_on)]
        q = stored.prob_one[table_rows(states.T, stored.depends_on)]
        assert np.abs(p - q).max() <= 1e-12

    maxes = [
        eliminate(f, replace(cfg, marginal="max"))
        for cfg in (EliminationConfig(order=order), capped)
    ]
    assert _close(maxes[0].log_value, values.max())
    assert _close(maxes[0].log_value, maxes[1].log_value)
    attained = eval_pbf(f, maxes[0].argmax.reshape(1, -1))[0]
    assert _close(attained, values.max())


@st.composite
def capped_runs(draw):
    """A random dense polynomial, the same plus dead zeros, and a capped run.

    The added sets are exact zeros that no nonzero set contains, kept with
    ``prune=False``, so the two polynomials are the same function.
    """
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = random_dense_pbf(rng, n, seeds=draw(st.integers(1, 6)))
    live = [set(key) for key, b in f.terms().items() if b != 0.0]
    sets = st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=n)
    zeros = {
        tuple(sorted(key)): 0.0
        for key in draw(st.lists(sets, min_size=1, max_size=4))
        if not any(set(key) <= other for other in live)
    }
    dead = PseudoBooleanFunction(n, {**f.terms(), **zeros}, prune=False)
    order = tuple(draw(st.permutations(range(n))))
    return f, dead, order, draw(st.integers(1, 3)), draw(st.integers(0, 3))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(capped_runs())
def test_capped_runs_ignore_dead_zeros_and_sandwich_the_truth(case):
    f, dead, order, nu, table_cap = case
    values = eval_pbf(f, all_states(f.n))
    truth = {"sum": log_sum_exp(values), "max": values.max()}
    for mode in ("approximate", "lower_bound", "upper_bound"):
        for marginal in ("sum", "max"):
            cfg = EliminationConfig(
                mode=mode, marginal=marginal, nu=nu, order=order, table_cap=table_cap
            )
            res, res_dead = eliminate(f, cfg), eliminate(dead, cfg)
            # a step prunes its bucket as it takes it, step 0 included
            assert res_dead.log_value == res.log_value
            assert res_dead.per_step == res.per_step
            if marginal == "max":
                assert (res_dead.argmax == res.argmax).all()
            if mode == "lower_bound":
                assert res.log_value <= truth[marginal] + 1e-12
            if mode == "upper_bound":
                assert truth[marginal] <= res.log_value + 1e-12


# -- table-form removals -----------------------------------------------------


@st.composite
def pieces_of_h(draw):
    """A random dense function of at most 7 variables, x_0's part in pieces.

    Its sets holding 0 are dealt into one to three groups.  Each group,
    tabulated over its own variables and split on x_0, gives one piece of
    h, x_0's coefficient, as a capped step that removes partners of 0 has.
    """
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = random_dense_pbf(rng, n, seeds=draw(st.integers(1, 6)))
    dealt = [{} for _ in range(draw(st.integers(1, 3)))]
    for key, b in f.terms().items():
        if 0 in key:
            dealt[int(rng.integers(len(dealt)))][key] = b
    pieces = []
    for terms in dealt:
        scope = tuple(sorted({v for key in terms for v in key}))
        if scope:
            rest, t0, t1 = elimination._split(scope, tabulate(terms.items(), scope, "piece"), 0)
            pieces.append((rest, t1 - t0))
    neighbours = sorted(set().union(*(scope for scope, _ in pieces)))
    assume(neighbours)
    return f, pieces, neighbours


def energy_values(f, pieces, factors=()):
    """x_0 times the pieces' sum, f's sets without 0 and the factors, at every state."""
    states = all_states(f.n)
    columns = states.T

    def total(tables):
        return sum((t[table_rows(columns, scope)] for scope, t in tables), np.zeros(len(states)))

    rest = {key: b for key, b in f.terms().items() if 0 not in key}
    return states[:, 0] * total(pieces) + eval_terms(rest, states) + total(factors)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(pieces_of_h())
def test_table_scores_match_fstar_on_the_coefficients_of_h(case):
    f, pieces, neighbours = case
    slot = {v: k for k, v in enumerate(neighbours)}
    scores = elimination._partner_scores([[s, t, None] for s, t in pieces], slot)
    members = sorted((key, b) for key, b in f.terms().items() if 0 in key)
    want = fstar_scores((0,), neighbours, members)
    assert np.abs(scores - [want[r] for r in neighbours]).max() <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(pieces_of_h())
def test_table_soir_matches_soir(case):
    f, pieces, neighbours = case
    for j in neighbours:
        held = [p for p in pieces if j in p[0]]
        means, residuals = elimination._soir(held, j)
        kept = [p for p in pieces if j not in p[0]] + means
        got = energy_values(f, kept, residuals)
        want = eval_pbf(soir(f, 0, j)[0], all_states(f.n))
        assert np.abs(got - want).max() <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(pieces_of_h())
def test_table_clamps_bound_the_energy(case):
    f, pieces, neighbours = case
    values = eval_pbf(f, all_states(f.n))
    for j in neighbours:
        held = [p for p in pieces if j in p[0]]
        kept = [p for p in pieces if j not in p[0]]
        for direction, reduce, sign in (("upper", np.maximum, 1), ("lower", np.minimum, -1)):
            # a table_cap of n covers every merge: the clamp of the summed pieces
            merged, splits = elimination._clamp(held, j, reduce, f.n)
            assert splits == 0
            got = energy_values(f, kept + merged)
            want = eval_pbf(bound_remove_pair(f, 0, j, direction, f.n), all_states(f.n))
            assert np.abs(got - want).max() <= 1e-12
            # a table_cap of 0 clamps each piece on its own: looser, still a bound
            apart, _ = elimination._clamp(held, j, reduce, 0)
            loose = energy_values(f, kept + apart)
            assert (sign * (loose - values) >= -1e-12).all()
            assert (sign * (loose - got) >= -1e-12).all()


def test_capped_max_message_drops_the_axes_it_ignores():
    # x_0's coefficient -1 + 2 x_1 - x_2/2 + x_1 x_2/2 (+ x_3/4) is negative
    # whenever x_1 = 0 and ignores x_2 when x_1 = 1, so once the pair (0, 3)
    # is removed the max fold of step 0 ignores x_2, and variable 1 is left
    # with no neighbour
    terms = {(0,): -1.0, (0, 1): 2.0, (0, 2): -0.5, (0, 1, 2): 0.5, (0, 3): 0.25}
    f = PseudoBooleanFunction(4, terms)
    for mode, want in (("approximate", 1.1875), ("lower_bound", 1.0), ("upper_bound", 1.25)):
        res = eliminate(f, EliminationConfig(mode=mode, marginal="max", nu=2))
        assert res.per_step[0].partners == (3,)
        assert res.per_step[1].eta_before == 0
        assert res.log_value == want


# -- moments --------------------------------------------------------------------


def test_moment_of_constant_function_is_one():
    m = build_ising(LatticeSpec(2, 2), 0.4)
    log_psi = PseudoBooleanFunction(4, {})
    assert abs(moment(m, log_psi, EliminationConfig()) - 1.0) < 1e-12


def test_moment_exponential_site_vs_brute_force():
    m = build_ising(LatticeSpec(2, 2), 0.4)
    log_psi = PseudoBooleanFunction(4, {(0,): 1.0})  # psi = e^{x_0}
    X = all_states(4)
    u = eval_pbf(m.energy, X)
    p = np.exp(u - log_sum_exp(u))
    want = float((np.exp(X[:, 0].astype(float)) * p).sum())
    got = moment(m, log_psi, EliminationConfig())
    assert abs(got - want) < 1e-10
    approx = moment(m, log_psi, EliminationConfig(mode="approximate", nu=4))
    assert abs(approx - want) < 1e-10  # nu saturates, so still exact
    lo, hi = moment(m, log_psi, EliminationConfig(mode="lower_bound", nu=1))
    assert lo - 1e-12 <= want <= hi + 1e-12


# -- POMM extraction --------------------------------------------------------------


def test_pomm_normalises_and_matches_exact_distribution():
    m = build_ising(LatticeSpec(3, 3), 0.4)
    res = eliminate(
        m, EliminationConfig(mode="exact", pomm_variant="post_approximation")
    )
    X = all_states(9)
    u = eval_pbf(m.energy, X)
    p = np.exp(u - log_sum_exp(u))
    q = np.exp(log_density_many(res.pomm, X))
    assert abs(q.sum() - 1.0) < 1e-10
    assert 0.5 * np.abs(p - q).sum() < 1e-10


@pytest.mark.parametrize("variant", ["pre_approximation", "post_approximation"])
def test_pomm_normalises_under_approximation(variant):
    m = build_ising(LatticeSpec(3, 4), 0.6)
    res = eliminate(m, EliminationConfig(mode="approximate", nu=2, pomm_variant=variant))
    X = all_states(12)
    q = np.exp(log_density_many(res.pomm, X))
    assert abs(q.sum() - 1.0) < 1e-10
    if variant == "post_approximation":
        assert res.pomm.max_dependencies() <= 2


def test_pomm_pre_variant_can_exceed_nu():
    m = build_ising(LatticeSpec(3, 4), 0.6)
    res = eliminate(
        m,
        EliminationConfig(mode="approximate", nu=1, pomm_variant="pre_approximation"),
    )
    assert res.pomm.max_dependencies() > 1


def test_pomm_normalises_under_custom_order():
    m = build_ising(LatticeSpec(3, 3), 0.5)
    rng = np.random.default_rng(0)
    cfg = EliminationConfig(
        mode="approximate",
        nu=2,
        pomm_variant="post_approximation",
        order=tuple(rng.permutation(9)),
    )
    pomm = eliminate(m, cfg).pomm
    X = all_states(9)
    assert abs(np.exp(log_density_many(pomm, X)).sum() - 1.0) < 1e-10


# -- diagnostics and serialization ---------------------------------------------


def test_result_serialization_layout():
    m = build_ising(LatticeSpec(2, 2), 0.4)
    res = eliminate_approx(m, EliminationConfig(mode="approximate", nu=2))
    doc = json.loads(res.to_json())
    assert doc["mode"] == "approximate"
    assert doc["nu"] == 2
    assert len(doc["eta_trace"]) == 4
    assert abs(doc["log_value"] - res.log_value) < 1e-15


def test_partner_diagnostics_recorded():
    m = build_ising(LatticeSpec(4, 4), 0.6)
    res = eliminate_approx(m, EliminationConfig(mode="approximate", nu=2))
    removed = [p for step in res.per_step for p in step.partners]
    assert removed, "nu=2 on a 4x4 lattice must force removals"
    assert all(step.eta_before >= step.eta_after for step in res.per_step)


def test_partner_fallback_when_scores_vanish():
    # every pair and triple holding 0 is a closure zero under the one live
    # set: every candidate scores 0, so the smallest index is removed and
    # the fallback is counted
    f = PseudoBooleanFunction(4, {(0, 1, 2, 3): 0.5, (1,): 0.3})
    res = eliminate(f, EliminationConfig(mode="approximate", nu=2))
    first = res.per_step[0]
    assert first.variable == 0
    assert first.fallback_partners == 1
    assert first.partners == (1,)
    # SOIR of (0, 1) leaves an energy whose remaining steps are exact
    removed = PseudoBooleanFunction(
        4, {(0, 2, 3): 0.25, (1, 2, 3): 0.25, (2, 3): -0.125, (1,): 0.3}
    )
    want = log_sum_exp(eval_pbf(removed, all_states(4)))
    assert abs(res.log_value - want) < 1e-12


# -- dead zero leaves ------------------------------------------------------------


def lattice_orders(rows, cols, seed=31):
    """Row-major, column-major and a seeded shuffled order of a lattice."""
    n = rows * cols
    return {
        "row-major": tuple(range(n)),
        "column-major": tuple(r * cols + c for c in range(cols) for r in range(rows)),
        "shuffled": tuple(int(v) for v in np.random.default_rng(seed).permutation(n)),
    }


def assert_same_runs(dead, pruned, orders, modes):
    """Every mode and marginal gives the same result on both inputs, per order."""
    for order in orders:
        for mode, nu in modes:
            for marginal in ("sum", "max"):
                cfg = EliminationConfig(
                    mode=mode, marginal=marginal, nu=nu, order=order, table_cap=1
                )
                got, want = eliminate(dead, cfg), eliminate(pruned, cfg)
                assert got.log_value == want.log_value
                assert got.per_step == want.per_step
                if marginal == "max":
                    assert (got.argmax == want.argmax).all()


@pytest.mark.parametrize(
    "mode, nu",
    [
        pytest.param("exact", None, id="exact"),
        # nu = n saturates the cap: the capped modes fold every step with no removal
        pytest.param("approximate", 16, id="saturated"),
        pytest.param("approximate", 2, id="approximate"),
        pytest.param("lower_bound", 2, id="lower_bound"),
        pytest.param("upper_bound", 2, id="upper_bound"),
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_incremental_prune_matches_full_prune(mode, nu, seed):
    # an unpruned input with dead zero leaves runs as its pruned copy does
    rng = np.random.default_rng(900 + seed)
    m = build_higher_order(LatticeSpec(4, 4), rng.uniform(-1, 1, size=10))
    live = [set(key) for key, b in m.energy.terms().items() if b != 0.0]
    zeros = {
        key: 0.0
        for key in (tuple(sorted(rng.choice(16, size=k, replace=False))) for k in (2, 2, 3, 4))
        if not any(set(key) <= other for other in live)
    }
    assert zeros
    dead = PseudoBooleanFunction(16, {**m.energy.terms(), **zeros}, prune=False)
    assert len(dead) > len(m.energy)
    assert_same_runs(dead, m.energy, lattice_orders(4, 4).values(), [(mode, nu)])
    if nu == m.n:
        res = eliminate(dead, EliminationConfig(mode=mode, nu=nu))
        assert abs(res.log_value - brute_log_c(m, 4, 4)) < 1e-9


def test_incremental_prune_drops_zero_leaves_of_unpruned_input():
    terms = {(0, 1): 0.5, (1, 2, 3): 0.0, (0, 3): 0.0, (2,): 0.25}
    dead = PseudoBooleanFunction(4, terms, prune=False)
    pruned = PseudoBooleanFunction(4, terms)
    assert len(dead) > len(pruned)
    modes = [
        ("exact", None),
        ("approximate", 3),
        ("approximate", 1),
        ("lower_bound", 1),
        ("upper_bound", 1),
    ]
    assert_same_runs(dead, pruned, lattice_orders(2, 2).values(), modes)
