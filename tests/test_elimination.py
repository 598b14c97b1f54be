"""The elimination engine: exact, capped, bounded, max-marginal, moments."""

import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    all_states,
    brute_fstar,
    brute_log_c,
    eval_pbf,
    eval_terms,
    log_sum_exp,
    random_dense_pbf,
    random_test_model,
    squeeze_oracle,
)
from pbmrf import (
    EliminationConfig,
    LatticeSpec,
    PseudoBooleanFunction,
    ResourceCapError,
    add_scaled,
    build_higher_order,
    build_independence,
    bound_remove_pair,
    build_ising,
    eliminate,
    eliminate_exact_sum,
    eliminate_many,
    moment,
    scale,
    soir,
)
from pbmrf import elimination
from pbmrf.approx import (
    bound_removal_updates,
    coefficient_pieces,
    fstar_scores,
    soir_removal_updates,
)
from pbmrf.pbf import _split, table_rows, tabulate
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
    assert abs(eliminate_exact_sum(m).log_value - brute_log_c("ising", (0.8,), 4, 4)) < 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_exact_elimination_is_order_invariant(seed):
    rng = np.random.default_rng(800 + seed)
    model, *_ = random_test_model(rng, max_rows=3, max_cols=4)
    reference = eliminate_exact_sum(model).log_value
    order = rng.permutation(model.n)
    res = eliminate(model, EliminationConfig(order=tuple(order)))
    assert abs(res.log_value - reference) < 1e-9


@pytest.mark.parametrize("target", [None, 1.5, {(0, 1): 0.5}])
def test_eliminate_and_moment_take_only_an_energy(target):
    # an object holding an energy is refused too: a model is its energy
    class Holder:
        energy = build_ising(LatticeSpec(2, 2), 0.4)
        n = 4

    psi = PseudoBooleanFunction(4, {(0,): 0.1})
    for bad in (target, Holder()):
        with pytest.raises(TypeError, match="expected a PseudoBooleanFunction"):
            eliminate(bad, EliminationConfig())
        with pytest.raises(TypeError, match="expected a PseudoBooleanFunction"):
            eliminate_many([Holder.energy, bad], EliminationConfig())
        with pytest.raises(TypeError, match="expected a PseudoBooleanFunction"):
            moment(bad, psi, EliminationConfig())


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


@pytest.mark.parametrize(
    "key, value", [("nu", 2.9), ("nu", True), ("table_cap", 2.5), ("table_cap", False)]
)
def test_config_refuses_non_integral_settings(key, value):
    with pytest.raises(ValueError, match=key):
        EliminationConfig(**{"mode": "approximate", "nu": 3, key: value})


def test_config_takes_integral_floats():
    cfg = EliminationConfig(mode="approximate", nu=6.0, table_cap=np.int64(2))
    assert (cfg.nu, cfg.table_cap) == (6, 2)
    assert type(cfg.nu) is int and type(cfg.table_cap) is int


# -- approximate mode ---------------------------------------------------------


def test_saturated_nu_reproduces_exact():
    rng = np.random.default_rng(13)
    for _ in range(4):
        model, *_ = random_test_model(rng, max_rows=3, max_cols=4)
        exact = eliminate_exact_sum(model).log_value
        for mode in ("approximate", "lower_bound", "upper_bound"):
            res = eliminate(model, EliminationConfig(mode=mode, nu=model.n))
            assert abs(res.log_value - exact) < 1e-10, mode


def test_weak_interactions_approximate_better():
    lat = LatticeSpec(4, 4)
    errors = {}
    for theta in (0.4, 0.8):
        m = build_ising(lat, theta)
        exact = brute_log_c("ising", (theta,), 4, 4)
        approx = eliminate(m, EliminationConfig(mode="approximate", nu=2))
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
    exact = brute_log_c("ising", (0.8,), 4, 4)
    lower = eliminate(m, EliminationConfig(mode="lower_bound", nu=nu)).log_value
    upper = eliminate(m, EliminationConfig(mode="upper_bound", nu=nu)).log_value
    assert lower <= exact + 1e-12
    assert exact <= upper + 1e-12


def test_bound_gap_trend_is_logged_not_asserted(caplog):
    # gap(nu=4) <= gap(nu=2) is the expected trend; log a warning otherwise
    m = build_ising(LatticeSpec(4, 4), 0.8)
    gaps = {}
    for nu in (2, 4):
        lo = eliminate(m, EliminationConfig(mode="lower_bound", nu=nu)).log_value
        hi = eliminate(m, EliminationConfig(mode="upper_bound", nu=nu)).log_value
        gaps[nu] = hi - lo
    if gaps[4] > gaps[2]:
        import logging

        logging.getLogger(__name__).warning(
            "bound gap grew when nu rose: %s", gaps
        )
    assert gaps[2] >= 0 and gaps[4] >= 0


def test_forced_splitting_with_table_cap_one():
    # higher-order cliques give pair removals with several extra variables,
    # so table_cap=1 forces piece-by-piece clamps
    rng = np.random.default_rng(5)
    from pbmrf import build_higher_order

    potentials = rng.uniform(-0.8, 0.8, size=10)
    m = build_higher_order(LatticeSpec(3, 4), potentials)
    exact = brute_log_c("higher_order", potentials, 3, 4)
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
    res = eliminate(m, EliminationConfig(marginal="max"))
    assert abs(res.log_value - 6 * 0.7) < 1e-12
    assert (res.argmax == 1).all()


def test_max_mode_exact_vs_exhaustive():
    m = build_ising(LatticeSpec(4, 4), 0.6)
    X = all_states(16)
    u = eval_pbf(m, X)
    res = eliminate(m, EliminationConfig(marginal="max"))
    assert abs(res.log_value - u.max()) < 1e-9
    assert abs(eval_pbf(m, res.argmax.reshape(1, -1))[0] - res.log_value) < 1e-9


def test_max_mode_saturated_matches_exact():
    m = build_ising(LatticeSpec(3, 3), -0.5)
    exact = eliminate(m, EliminationConfig(marginal="max"))
    approx = eliminate(
        m, EliminationConfig(mode="approximate", marginal="max", nu=9)
    )
    assert abs(exact.log_value - approx.log_value) < 1e-10
    assert (exact.argmax == approx.argmax).all()


def test_max_mode_bounds_bracket_maximum():
    rng = np.random.default_rng(31)
    model, family, params, rows, cols = random_test_model(rng, max_rows=3, max_cols=4)
    from helpers import model_energy_direct

    u = model_energy_direct(family, params, rows, cols, all_states(model.n))
    lo = eliminate(
        model, EliminationConfig(mode="lower_bound", marginal="max", nu=2)
    ).log_value
    hi = eliminate(
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
    """Two to four random dense functions of at most 7 variables, x_0's part in pieces.

    The members share one family of sets, each with its own coefficients.
    The sets holding 0 are dealt into one to three groups.  Each group,
    tabulated for every member over its own variables and split on x_0,
    gives one piece of h, x_0's coefficient, as a capped step of a batch
    that removes partners of 0 has: a table with the members on a last axis.
    """
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = random_dense_pbf(rng, n, seeds=draw(st.integers(1, 6)))
    fs = [f] + [
        PseudoBooleanFunction(n, {key: rng.normal() for key in f.terms()}, prune=False)
        for _ in range(draw(st.integers(1, 3)))
    ]
    dealt = [[] for _ in range(draw(st.integers(1, 3)))]
    for key in f.terms():
        if 0 in key:
            dealt[int(rng.integers(len(dealt)))].append(key)
    pieces = []
    for keys in dealt:
        scope = tuple(sorted({v for key in keys for v in key}))
        if scope:
            pairs = [(key, np.array([g.beta(key) for g in fs])) for key in keys]
            table = tabulate(pairs, scope, "piece", (len(fs),))
            rest, t0, t1 = _split(scope, table, 0)
            pieces.append((rest, t1 - t0))
    neighbours = sorted(set().union(*(scope for scope, _ in pieces)))
    assume(neighbours)
    return fs, pieces, neighbours


def member(tables, m):
    """Member m's factors of a batch's factors."""
    return [(scope, t[:, m]) for scope, t in tables]


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
    fs, pieces, neighbours = case
    slot = {v: k for k, v in enumerate(neighbours)}
    scores = fstar_scores([[s, t, None] for s, t in pieces], slot)
    assert scores.shape == (len(neighbours), len(fs))
    for m, f in enumerate(fs):
        members = sorted((key, b) for key, b in f.terms().items() if 0 in key)
        want = [brute_fstar((0,), r, members) for r in neighbours]
        assert np.abs(scores[:, m] - want).max() <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(pieces_of_h())
def test_table_soir_matches_soir(case):
    fs, pieces, neighbours = case
    for j in neighbours:
        held = [p for p in pieces if j in p[0]]
        means, residuals = soir_removal_updates(held, j)
        kept = [p for p in pieces if j not in p[0]] + means
        for m, f in enumerate(fs):
            got = energy_values(f, member(kept, m), member(residuals, m))
            want = eval_pbf(soir(f, 0, j)[0], all_states(f.n))
            assert np.abs(got - want).max() <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(pieces_of_h())
def test_table_clamps_bound_the_energy(case):
    fs, pieces, neighbours = case
    n = fs[0].n
    states = all_states(n)
    # the pieces of h that a capped step of the batch builds from the sets holding 0
    pairs = [(key, np.array([g.beta(key) for g in fs])) for key in fs[0].terms() if 0 in key]
    step_pieces, _ = coefficient_pieces(0, [], pairs, (len(fs),))
    values = [eval_pbf(f, states) for f in fs]
    for j in neighbours:
        held = [p for p in pieces if j in p[0]]
        kept = [p for p in pieces if j not in p[0]]
        step_held = [p for p in step_pieces if j in p[0]]
        step_kept = [p for p in step_pieces if j not in p[0]]
        # the kernel's choice changes only between these caps
        span = len(set().union(*(scope for scope, _ in step_held)))
        caps = sorted({0, max(span - 2, 0), span - 1, n})
        for direction, reduce, sign in (("upper", np.maximum, 1), ("lower", np.minimum, -1)):
            # a table_cap of n covers every merge: the clamp of the summed pieces
            merged, splits = bound_removal_updates(held, j, reduce, n)
            assert splits == 0
            # a table_cap of 0 clamps each piece on its own: looser, still a bound
            apart, _ = bound_removal_updates(held, j, reduce, 0)
            for m, f in enumerate(fs):
                got = energy_values(f, member(kept + merged, m))
                want = eval_pbf(bound_remove_pair(f, 0, j, direction, n), states)
                assert np.abs(got - want).max() <= 1e-12
                loose = energy_values(f, member(kept + apart, m))
                assert (sign * (loose - values[m]) >= -1e-12).all()
                assert (sign * (loose - got) >= -1e-12).all()
            # at those caps the operator is the kernel on the step's pieces
            # (on the first member; the cap n check above covers every member)
            for cap in caps:
                clamped, _ = bound_removal_updates(step_held, j, reduce, cap)
                got = energy_values(fs[0], member(step_kept + clamped, 0))
                at_cap = bound_remove_pair(fs[0], 0, j, direction, cap)
                assert np.abs(got - eval_pbf(at_cap, states)).max() <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(pieces_of_h())
def test_table_clamps_merge_only_within_the_cap(case):
    _, pieces, neighbours = case
    for j in neighbours:
        held = [p for p in pieces if j in p[0]]
        besides_j = len(set().union(*(scope for scope, _ in held)) - {j})
        for cap in range(besides_j + 2):
            clamped, splits = bound_removal_updates(held, j, np.maximum, cap)
            assert len(clamped) == splits + 1
            if len(held) > 1:
                assert (len(clamped) == 1) == (besides_j <= cap)
                if len(clamped) == 1:
                    assert len(clamped[0][0]) <= cap


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
    u = eval_pbf(m, X)
    p = np.exp(u - log_sum_exp(u))
    want = float((np.exp(X[:, 0].astype(float)) * p).sum())
    got = moment(m, log_psi, EliminationConfig())
    assert abs(got - want) < 1e-10
    approx = moment(m, log_psi, EliminationConfig(mode="approximate", nu=4))
    assert abs(approx - want) < 1e-10  # nu saturates, so still exact
    lo, hi = moment(m, log_psi, EliminationConfig(mode="lower_bound", nu=1))
    assert lo - 1e-12 <= want <= hi + 1e-12


@pytest.mark.parametrize("mode", ["exact", "approximate", "lower_bound", "upper_bound"])
def test_moment_equals_its_single_runs(mode):
    # one batched call gives the bits of one eliminate per energy and bound
    m = build_higher_order(LatticeSpec(3, 4), np.linspace(-0.6, 0.7, 10))
    log_psi = PseudoBooleanFunction(12, {(0, 5): 0.8, (3,): -0.4, (6, 7, 10): 0.3})
    tilted = add_scaled(m, log_psi, 1.0, 1.0)
    cfg = EliminationConfig(mode=mode, nu=None if mode == "exact" else 2)

    def ln_c(target, mode):
        return eliminate(target, replace(cfg, mode=mode)).log_value

    got = moment(m, log_psi, cfg)
    if mode in ("exact", "approximate"):
        assert got == float(np.exp(ln_c(tilted, mode) - ln_c(m, mode)))
    else:
        lower = np.exp(ln_c(tilted, "lower_bound") - ln_c(m, "upper_bound"))
        upper = np.exp(ln_c(tilted, "upper_bound") - ln_c(m, "lower_bound"))
        assert got == (float(lower), float(upper))


# -- POMM extraction --------------------------------------------------------------


def test_pomm_normalises_and_matches_exact_distribution():
    m = build_ising(LatticeSpec(3, 3), 0.4)
    res = eliminate(
        m, EliminationConfig(mode="exact", pomm_variant="post_approximation")
    )
    X = all_states(9)
    u = eval_pbf(m, X)
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
        assert max(len(c.depends_on) for c in res.pomm.conditionals) <= 2


def test_pomm_pre_variant_can_exceed_nu():
    m = build_ising(LatticeSpec(3, 4), 0.6)
    res = eliminate(
        m,
        EliminationConfig(mode="approximate", nu=1, pomm_variant="pre_approximation"),
    )
    assert max(len(c.depends_on) for c in res.pomm.conditionals) > 1


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
    res = eliminate(m, EliminationConfig(mode="approximate", nu=2))
    doc = json.loads(res.to_json())
    assert doc["mode"] == "approximate"
    assert doc["nu"] == 2
    assert len(doc["eta_trace"]) == 4
    assert abs(doc["log_value"] - res.log_value) < 1e-15


def test_partner_diagnostics_recorded():
    m = build_ising(LatticeSpec(4, 4), 0.6)
    res = eliminate(m, EliminationConfig(mode="approximate", nu=2))
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
    potentials = rng.uniform(-1, 1, size=10)
    m = build_higher_order(LatticeSpec(4, 4), potentials)
    live = [set(key) for key, b in m.terms().items() if b != 0.0]
    zeros = {
        key: 0.0
        for key in (tuple(sorted(rng.choice(16, size=k, replace=False))) for k in (2, 2, 3, 4))
        if not any(set(key) <= other for other in live)
    }
    assert zeros
    dead = PseudoBooleanFunction(16, {**m.terms(), **zeros}, prune=False)
    assert len(dead) > len(m)
    assert_same_runs(dead, m, lattice_orders(4, 4).values(), [(mode, nu)])
    if nu == m.n:
        res = eliminate(dead, EliminationConfig(mode=mode, nu=nu))
        assert abs(res.log_value - brute_log_c("higher_order", potentials, 4, 4)) < 1e-9


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


# -- batches ----------------------------------------------------------------------

CONFIGS = [
    (mode, marginal, variant)
    for mode in elimination.MODES
    for marginal in elimination.MARGINALS
    for variant in elimination.POMM_VARIANTS
    if variant == "none" or marginal == "sum"
]


def assert_same_bytes(got, want):
    """Two elimination results are equal byte for byte."""
    assert got.log_value.hex() == want.log_value.hex()
    assert got.soir_error.hex() == want.soir_error.hex()
    assert got.per_step == want.per_step
    if want.argmax is None:
        assert got.argmax is None
    else:
        assert got.argmax.dtype == want.argmax.dtype
        assert got.argmax.tobytes() == want.argmax.tobytes()
    if want.pomm is None:
        assert got.pomm is None
        return
    for c, d in zip(got.pomm.conditionals, want.pomm.conditionals, strict=True):
        assert (c.variable, c.depends_on) == (d.variable, d.depends_on)
        assert c.prob_one.tobytes() == d.prob_one.tobytes()


# -- the SOIR error certificate ---------------------------------------------------


@st.composite
def small_lattice_models(draw):
    """A model of :func:`random_test_model` on at most 16 nodes, and a cap nu."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model, *_ = random_test_model(rng, max_rows=4, max_cols=4)
    return model, draw(st.integers(1, 4))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(small_lattice_models())
def test_soir_error_bounds_the_approximation_and_the_rejection_gap(case):
    model, nu = case
    cfg = EliminationConfig(mode="approximate", nu=nu, pomm_variant="post_approximation")
    res = eliminate(model, cfg)
    states = all_states(model.n)
    energy = eval_pbf(model, states)
    # U - ln q = ln c~ + the sum of the removal errors, each within its bound
    gap = energy - log_density_many(res.pomm, states) - res.log_value
    assert gap.max() <= res.soir_error + 1e-12
    assert abs(log_sum_exp(energy) - res.log_value) <= res.soir_error + 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(small_lattice_models())
def test_soir_error_is_zero_without_removals(case):
    model, _ = case
    nu = max(max(eliminate_exact_sum(model).eta_trace(), default=0), 1)
    res = eliminate(model, EliminationConfig(mode="approximate", nu=nu))
    assert all(not step.partners for step in res.per_step)
    assert res.soir_error == 0.0


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    small_lattice_models(),
    st.lists(st.sampled_from([0.0, -1.0, -0.5, 0.5, 1.0, 1.5]), min_size=2, max_size=4),
)
def test_eliminate_many_gives_each_member_its_own_soir_error(case, thetas):
    model, nu = case
    members = [scale(model, theta) for theta in thetas]
    cfg = EliminationConfig(mode="approximate", nu=nu)
    for got, f in zip(eliminate_many(members, cfg), members, strict=True):
        assert got.soir_error.hex() == eliminate(f, cfg).soir_error.hex()


def test_soir_error_is_zero_outside_approximate_mode():
    model = build_ising(LatticeSpec(4, 4), 0.7)
    assert eliminate(model, EliminationConfig(mode="approximate", nu=2)).soir_error > 0.0
    for mode in ("exact", "lower_bound", "upper_bound"):
        cfg = EliminationConfig(mode=mode, nu=None if mode == "exact" else 2)
        assert eliminate(model, cfg).soir_error == 0.0


def on_grid(rng, f):
    """A polynomial on f's family, coefficients from -1, -1/2, 0, 1/2 and 1."""
    return PseudoBooleanFunction(f.n, {key: rng.integers(-2, 3) / 2 for key in f.terms()})


@st.composite
def batches(draw):
    """One to six polynomials on the same n <= 7 variables, a random order and caps.

    Each member scales one random dense polynomial, by a factor that may be
    0 or negative, or adds an independent one to it: on the same family, on
    another, or a single monomial of the family.  Coefficients on a coarse
    grid give members whose zero patterns, constant axes or partner-score
    ties differ, so that batches split, at any step.
    """
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = random_dense_pbf(rng, n, seeds=draw(st.integers(1, 6)))
    if draw(st.booleans()):
        f = on_grid(rng, f)
    members = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["scale", "same family", "monomial", "any family"]))
        if kind == "scale":
            members.append(scale(f, draw(st.sampled_from([0.0, -1.0, -0.5, 0.5, 1.0, 2.0]))))
        elif kind == "same family":
            members.append(add_scaled(f, on_grid(rng, f), 1.0, 1.0))
        elif kind == "monomial":
            key = draw(st.sampled_from(sorted(f.terms())))
            g = PseudoBooleanFunction(n, {key: draw(st.sampled_from([-1.0, -0.5, 0.5, 1.0]))})
            members.append(add_scaled(f, g, 1.0, 1.0))
        else:
            g = random_dense_pbf(rng, n, seeds=draw(st.integers(1, 3)))
            members.append(add_scaled(f, g, 1.0, 1.0))
    order = tuple(draw(st.permutations(range(n))))
    uppers = draw(st.lists(st.booleans(), min_size=len(members), max_size=len(members)))
    return members, order, draw(st.integers(1, 3)), draw(st.integers(0, 3)), uppers


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(batches())
def test_eliminate_many_equals_its_single_runs_byte_for_byte(case):
    members, order, nu, table_cap, uppers = case
    for mode, marginal, variant in CONFIGS:
        cfg = EliminationConfig(
            mode=mode,
            marginal=marginal,
            nu=None if mode == "exact" else nu,
            order=order,
            pomm_variant=variant,
            table_cap=table_cap,
        )
        singles = [eliminate(f, cfg) for f in members]
        for got, want in zip(eliminate_many(members, cfg), singles, strict=True):
            assert_same_bytes(got, want)
    # one config per member, each bounding from the side drawn for it
    for _, marginal, variant in [c for c in CONFIGS if c[0] == "lower_bound"]:
        cfgs = [
            EliminationConfig(
                mode="upper_bound" if upper else "lower_bound",
                marginal=marginal,
                nu=nu,
                order=order,
                pomm_variant=variant,
                table_cap=table_cap,
            )
            for upper in uppers
        ]
        singles = [eliminate(f, cfg) for f, cfg in zip(members, cfgs)]
        many = eliminate_many(members, cfgs)
        for got, want, cfg in zip(many, singles, cfgs, strict=True):
            assert got.mode == cfg.mode
            assert_same_bytes(got, want)


def batch_splits(caplog):
    """(step, groups of member positions) of each split the engine logged."""
    return [r.args for r in caplog.records if r.msg.startswith("step %d: batch splits")]


def test_batch_splits_mid_run_where_members_part(caplog):
    # theta = 0 has no interactions and leaves at step 0; the partner
    # choices of theta >= 0.8 part from those of theta 0.2-0.6 at step 16
    lattice = LatticeSpec(12, 12)
    models = [build_ising(lattice, t) for t in np.linspace(0.0, 2.0, 11)]
    cfg = EliminationConfig(mode="upper_bound", nu=6)
    with caplog.at_level(logging.DEBUG, logger="pbmrf.elimination"):
        many = eliminate_many(models, cfg)
    splits = batch_splits(caplog)
    assert splits[0] == (0, [[0], list(range(1, 11))])
    assert splits[1] == (16, [[1, 2, 3], list(range(4, 11))])
    for got, model in zip(many, models, strict=True):
        assert_same_bytes(got, eliminate(model, cfg))


def test_batch_splits_where_a_message_drops_an_axis_for_some_members(caplog):
    # the first member is the energy of the test above, whose max message of
    # step 0 ignores x_2; with 3/4 on (0, 1, 2) the second member's does not
    terms = {(0,): -1.0, (0, 1): 2.0, (0, 2): -0.5, (0, 1, 2): 0.5, (0, 3): 0.25}
    members = [PseudoBooleanFunction(4, {**terms, (0, 1, 2): c}) for c in (0.5, 0.75)]
    for mode in ("approximate", "lower_bound", "upper_bound"):
        cfg = EliminationConfig(mode=mode, marginal="max", nu=2)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="pbmrf.elimination"):
            many = eliminate_many(members, cfg)
        assert batch_splits(caplog) == [(0, [[0], [1]])]
        assert [res.per_step[1].eta_before for res in many] == [0, 1]
        for got, f in zip(many, members, strict=True):
            assert_same_bytes(got, eliminate(f, cfg))


def test_batch_splits_to_fit_the_table_cap(monkeypatch, caplog):
    # under a cap of 2^6 entries, the 2^5-entry joint tables of Ising 4x4
    # (eta 4) fit for two members at a time, not for four
    monkeypatch.setattr(elimination, "DENSE_TABLE_CAP", 6)
    models = [build_ising(LatticeSpec(4, 4), t) for t in (0.3, 0.6, 0.9, 1.2)]
    for cfg in (EliminationConfig(), EliminationConfig(marginal="max")):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="pbmrf.elimination"):
            many = eliminate_many(models, cfg)
        assert [groups for _, groups in batch_splits(caplog)] == [[[0, 1], [2, 3]]]
        for got, model in zip(many, models, strict=True):
            assert_same_bytes(got, eliminate(model, cfg))


def reversed_sets(f):
    """f with its sets in reversed dict order: tabulated and merged in another order."""
    return PseudoBooleanFunction(f.n, dict(reversed(f.terms().items())))


def last_singleton_zeroed(f):
    """f without its last variable's singleton, a set only step n-1 reads."""
    return PseudoBooleanFunction(f.n, {**f.terms(), (f.n - 1,): 0.0})


@pytest.mark.parametrize("other", [reversed_sets, last_singleton_zeroed])
def test_members_with_other_input_sets_part_before_step_0(caplog, other):
    # the members never share a step: they part when their nonzero sets are
    # grouped, not when a step reads the bucket where they differ
    f = build_ising(LatticeSpec(4, 4), 0.6)
    members = [f, other(f)]
    for mode, marginal, variant in CONFIGS:
        cfg = EliminationConfig(mode=mode, marginal=marginal, pomm_variant=variant,
                                nu=None if mode == "exact" else 2)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="pbmrf.elimination"):
            many = eliminate_many(members, cfg)
        assert batch_splits(caplog) == [(0, [[0], [1]])]
        for got, g in zip(many, members, strict=True):
            assert_same_bytes(got, eliminate(g, cfg))


def test_lower_and_upper_bounds_of_one_energy_part_where_their_clamps_do(caplog):
    # both bounds of Ising 12x12 at theta 1.6, nu 4 take the same partners
    # up to step 16; at step 17 their clamped tables lead them apart
    model = build_ising(LatticeSpec(12, 12), 1.6)
    cfgs = [EliminationConfig(mode=mode, nu=4) for mode in ("lower_bound", "upper_bound")]
    with caplog.at_level(logging.DEBUG, logger="pbmrf.elimination"):
        many = eliminate_many([model, model], cfgs)
    assert batch_splits(caplog) == [(17, [[0], [1]])]
    assert [res.mode for res in many] == ["lower_bound", "upper_bound"]
    assert many[0].log_value < many[1].log_value
    for got, cfg in zip(many, cfgs, strict=True):
        assert_same_bytes(got, eliminate(model, cfg))


@pytest.mark.parametrize(
    "change",
    [
        {"nu": 3},
        {"order": (3, 2, 1, 0)},
        {"marginal": "max"},
        {"table_cap": 1},
        {"pomm_variant": "post_approximation"},
        {"mode": "approximate"},
    ],
)
def test_eliminate_many_refuses_configs_that_differ_past_the_bound_mode(change):
    f = build_ising(LatticeSpec(2, 2), 0.4)
    base = EliminationConfig(mode="lower_bound", nu=2)
    other = replace(base, **change)
    for cfgs in ([base, other], [other, base], [replace(base, mode="upper_bound"), other]):
        with pytest.raises(ValueError):
            eliminate_many([f, f], cfgs)


def test_eliminate_many_takes_one_config_per_target():
    f = build_ising(LatticeSpec(2, 2), 0.4)
    lower, upper = (EliminationConfig(mode=mode, nu=1) for mode in ("lower_bound", "upper_bound"))
    for cfgs in ([lower], [lower, upper, lower], []):
        with pytest.raises(ValueError):
            eliminate_many([f, f], cfgs)
    with pytest.raises(ValueError):
        eliminate_many([], [lower])
    assert eliminate_many([], []) == []
    exact = EliminationConfig()
    assert [r.mode for r in eliminate_many([f, f], (exact, exact))] == ["exact", "exact"]


def test_eliminate_many_takes_targets_over_the_same_variables():
    assert eliminate_many([], EliminationConfig()) == []
    with pytest.raises(ValueError):
        eliminate_many(
            [build_ising(LatticeSpec(2, 2), 0.4), build_ising(LatticeSpec(2, 3), 0.4)],
            EliminationConfig(),
        )


@st.composite
def squeezable(draw):
    """(scope, table, members): a batch's table, constant along some axes.

    The table broadcasts a smaller one over the drawn flat axes; entries
    include signed zeros, which count as equal, as in the first version.
    """
    m = draw(st.integers(0, 5))
    members = draw(st.integers(1, 3))
    flat = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    shape = [1 if f else 2 for f in reversed(flat)] + [members]
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.sampled_from([0.5, -1.25]))
    small = np.array(draw(st.lists(entry, min_size=int(np.prod(shape)),
                                   max_size=int(np.prod(shape))))).reshape(shape)
    table = np.broadcast_to(small, (2,) * m + (members,)).reshape(1 << m, members)
    return tuple(range(3, 3 + m)), table, members


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(squeezable())
def test_squeeze_reproduces_the_first_version(case):
    scope, table, members = case
    want = [squeeze_oracle(scope, table[:, k]) for k in range(members)]
    if members == 1:
        kept, got = elimination._squeeze(scope, table[:, 0])
        assert (kept, got.tobytes()) == (want[0][0], want[0][1].tobytes())
    elif len({kept for kept, _ in want}) > 1:  # the members disagree: the batch splits
        with pytest.raises(elimination._Split):
            elimination._squeeze(scope, table)
    else:
        kept, got = elimination._squeeze(scope, table)
        assert kept == want[0][0]
        for k in range(members):
            assert got[:, k].tobytes() == want[k][1].tobytes()
