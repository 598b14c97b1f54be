"""Application layer: MLE bracketing, MAP, rejection, MH rate, Gibbs."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    all_states,
    brute_log_c,
    eval_pbf,
    gibbs_site_by_site,
    log_sum_exp,
    pack_states,
    pomm_log_density_polynomial_per_table,
    star_mrf,
    tv_distance,
)
from pbmrf import (
    DENSE_TABLE_CAP,
    EliminationConfig,
    GaussianLikelihoodSpec,
    LatticeSpec,
    ResourceCapError,
    add_scaled,
    build_higher_order,
    build_independence,
    build_ising,
    eliminate,
    eliminate_max,
    gibbs_sampler,
    map_estimate,
    mh_acceptance_rate,
    mle_bracket,
    model_from_config,
    rejection_sampler,
    scale,
    to_json,
)
from pbmrf.apps import (
    _gibbs_levels,
    _site_conditionals,
    gibbs_reference_sampler,
    pomm_log_density_polynomial,
)
from pbmrf.models import MODEL_FAMILIES
from pbmrf.pbf import TERMS_TABLE_CAP, evaluate_many
from pbmrf.pomm import (
    PartiallyOrderedMarkovModel,
    PommConditional,
    log_density_many,
    sample,
)


def ising_distribution(lat, theta):
    m = build_ising(lat, theta)
    X = all_states(m.n)
    u = eval_pbf(m.energy, X)
    return m, X, np.exp(u - log_sum_exp(u))


def exact_state_sampler(p, n):
    """Reference sampler drawing independent exact states from p."""

    def sampler(count, seed):
        rng = np.random.default_rng(seed)
        rows = rng.choice(len(p), size=count, p=p)
        return all_states(n)[rows]

    return sampler


# -- MLE bracketing -------------------------------------------------------------


def observed_realization(lat, theta, seed):
    m = build_ising(lat, theta)
    return gibbs_sampler(m, sweeps=240, burn_in=239, thin=1, seed=seed).states[0]


def test_mle_bracket_contains_grid_mle_exact_bounds():
    lat = LatticeSpec(4, 4)
    grid = np.linspace(0.0, 2.0, 11)
    for seed in range(3):
        obs = observed_realization(lat, 0.6, seed)
        bracket = mle_bracket(
            obs, lambda t: build_ising(lat, t), grid, [16, 16], grid_points=11
        )
        for rnd in bracket.rounds:
            ell = [
                eval_pbf(build_ising(lat, t).energy, obs.reshape(1, -1))[0]
                - brute_log_c(build_ising(lat, t), 4, 4)
                for t in rnd.grid
            ]
            best = int(np.argmax(ell))
            assert rnd.theta_lo <= rnd.grid[best] <= rnd.theta_hi
        assert bracket.theta_lo <= bracket.theta_hi


def test_mle_bracket_degenerate_interval_is_argmax_neighbourhood():
    # exact bounds collapse the survivor set to the argmax point; the
    # retained interval must still span its two adjacent grid cells
    lat = LatticeSpec(3, 3)
    obs = observed_realization(lat, 0.5, 1)
    grid = np.linspace(0.0, 2.0, 11)
    bracket = mle_bracket(obs, lambda t: build_ising(lat, t), grid, [9])
    rnd = bracket.rounds[0]
    assert rnd.kept_lo == rnd.kept_hi
    k = rnd.kept_lo
    assert bracket.theta_lo == rnd.grid[max(k - 1, 0)]
    assert bracket.theta_hi == rnd.grid[min(k + 1, len(rnd.grid) - 1)]


def test_mle_bracket_shrinks_with_rounds():
    lat = LatticeSpec(3, 3)
    obs = observed_realization(lat, 0.5, 4)
    grid = np.linspace(0.0, 2.0, 11)
    bracket = mle_bracket(obs, lambda t: build_ising(lat, t), grid, [2, 4, 9])
    widths = [r.theta_hi - r.theta_lo for r in bracket.rounds]
    assert widths[-1] <= widths[0] + 1e-12


def test_mle_bracket_rejects_bad_grid():
    lat = LatticeSpec(2, 2)
    obs = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValueError):
        mle_bracket(obs, lambda t: build_ising(lat, t), [0.3, 0.1, 0.6], [4])
    with pytest.raises(ValueError):
        mle_bracket(obs, lambda t: build_ising(lat, t), [0.1, 0.3], [4])


@pytest.mark.parametrize("points", [0, 1, 2])
def test_mle_bracket_rejects_fewer_than_three_grid_points(points):
    # one point would certify a zero-width bracket, none would find no cut
    lat = LatticeSpec(4, 4)
    obs = observed_realization(lat, 0.5, 1)
    with pytest.raises(ValueError, match="grid_points"):
        mle_bracket(
            obs, lambda t: build_ising(lat, t), np.linspace(0, 2, 5), [2, 3], grid_points=points
        )


def test_mle_bracket_curves_are_the_single_bounds():
    # the batched bounds of each round equal single runs, on float grids
    lat = LatticeSpec(4, 4)
    obs = observed_realization(lat, 0.5, 1)
    bracket = mle_bracket(
        obs, lambda t: build_ising(lat, t), np.linspace(0, 2, 5), [2, 3], grid_points=5
    )
    for rnd in bracket.rounds:
        assert all(type(t) is float for t in rnd.grid)
        for t, lower, upper in zip(rnd.grid, rnd.ell_lower, rnd.ell_upper, strict=True):
            model = build_ising(lat, t)
            energy = float(evaluate_many(model.energy, obs.reshape(1, -1))[0])
            ln_c = {
                mode: eliminate(model, EliminationConfig(mode=mode, nu=rnd.nu)).log_value
                for mode in ("lower_bound", "upper_bound")
            }
            assert (lower, upper) == (energy - ln_c["upper_bound"], energy - ln_c["lower_bound"])


# -- MAP estimation ---------------------------------------------------------------


def test_map_with_flat_prior_is_thresholding():
    lat = LatticeSpec(3, 3)
    rng = np.random.default_rng(17)
    y = rng.normal(size=9)
    prior = build_ising(lat, 0.0)
    lik = GaussianLikelihoodSpec(mu0=0.0, mu1=1.0, sigma=1.0)
    got = map_estimate(y, prior, lik, EliminationConfig(marginal="max"))
    want = (np.abs(y - 1.0) < np.abs(y - 0.0)).astype(np.uint8)
    assert (got == want).all()


def test_map_recovers_clean_scene_at_low_noise():
    lat = LatticeSpec(4, 4)
    rng = np.random.default_rng(3)
    scene = (rng.random(16) < 0.5).astype(np.uint8)
    y = scene + 0.05 * rng.normal(size=16)
    prior = build_ising(lat, 0.6)
    lik = GaussianLikelihoodSpec(mu0=0.0, mu1=1.0, sigma=0.05)
    got = map_estimate(y, prior, lik, EliminationConfig(marginal="max"))
    assert (got == scene).all()


def test_map_exact_equals_exhaustive_posterior_argmax():
    lat = LatticeSpec(4, 4)
    rng = np.random.default_rng(23)
    y = rng.normal(size=16)
    prior = build_ising(lat, 0.6)
    lik = GaussianLikelihoodSpec(mu0=0.0, mu1=1.0, sigma=1.0)
    got = map_estimate(y, prior, lik, EliminationConfig(marginal="max"))
    from pbmrf.apps import posterior_energy

    post = posterior_energy(y, prior, lik)
    X = all_states(16)
    values = eval_pbf(post, X)
    assert abs(values.max() - eval_pbf(post, got.reshape(1, -1))[0]) < 1e-9


# -- rejection sampling --------------------------------------------------------------


def test_rejection_exact_proposal_accepts_everything():
    m, X, p = ising_distribution(LatticeSpec(3, 3), 0.4)
    result = rejection_sampler(m, nu=9, seed=2, count=500)
    assert result.max_alpha <= 1 + 1e-12
    assert result.acceptance_rate > 0.999


def test_rejection_matches_brute_force_distribution():
    m, X, p = ising_distribution(LatticeSpec(3, 3), 0.4)
    result = rejection_sampler(m, nu=2, seed=6, count=30_000, trial_budget=500_000)
    assert result.max_alpha <= 1 + 1e-12
    emp = np.bincount(pack_states(result.samples.states), minlength=512) / 30_000
    assert tv_distance(emp, p) < 0.06


def test_rejection_alphas_under_one_via_log_k():
    m, X, p = ising_distribution(LatticeSpec(3, 3), 0.6)
    result = rejection_sampler(m, nu=3, seed=0, count=200)
    cfg = EliminationConfig(mode="approximate", nu=3, pomm_variant="post_approximation")
    pomm = eliminate(m, cfg).pomm
    log_alpha = (
        result.log_k_bound + eval_pbf(m.energy, X) - log_density_many(pomm, X)
    )
    assert log_alpha.max() <= 1e-12


def test_rejection_rate_floor_error():
    m = build_ising(LatticeSpec(3, 3), 0.4)
    with pytest.raises(RuntimeError):
        rejection_sampler(
            m, nu=1, seed=0, count=10_000, rate_floor=0.999, trial_budget=20_000
        )


def _gibbs_with(name, value):
    settings = {"sweeps": 4, "burn_in": 0, "thin": 1, "chains": 1, name: value}
    return gibbs_sampler(build_ising(LatticeSpec(2, 2), 0.4), seed=0, **settings)


INTEGER_ARGUMENTS = {
    "rows": lambda value: LatticeSpec(value, 3),
    "cols": lambda value: LatticeSpec(3, value),
    "sweeps": lambda value: _gibbs_with("sweeps", value),
    "burn_in": lambda value: _gibbs_with("burn_in", value),
    "thin": lambda value: _gibbs_with("thin", value),
    "chains": lambda value: _gibbs_with("chains", value),
    "count": lambda value: rejection_sampler(
        build_ising(LatticeSpec(2, 2), 0.4), nu=1, seed=0, count=value
    ),
}


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_fractions_and_booleans(name, value):
    with pytest.raises(ValueError, match=name):
        INTEGER_ARGUMENTS[name](value)
    INTEGER_ARGUMENTS[name](2.0)  # an integral float passes


def test_pomm_log_density_polynomial_matches_tables():
    m = build_ising(LatticeSpec(3, 3), 0.5)
    cfg = EliminationConfig(mode="approximate", nu=2, pomm_variant="post_approximation")
    pomm = eliminate(m, cfg).pomm
    poly = pomm_log_density_polynomial(pomm)
    X = all_states(9)
    assert np.abs(eval_pbf(poly, X) - log_density_many(pomm, X)).max() < 1e-9


def test_pomm_log_density_polynomial_refuses_oversized_conditionals():
    deps = tuple(range(1, TERMS_TABLE_CAP + 1))
    wide = PommConditional(0, deps, np.full(1 << len(deps), 0.5))
    rest = tuple(PommConditional(v, (), np.array([0.5])) for v in deps)
    pomm = PartiallyOrderedMarkovModel(len(deps) + 1, (wide,) + rest)
    with pytest.raises(ResourceCapError, match="pomm_log_density_polynomial"):
        pomm_log_density_polynomial(pomm)


@pytest.mark.parametrize(
    "model, nu",
    [
        (build_ising(LatticeSpec(4, 4), 0.5), 2),
        (build_ising(LatticeSpec(3, 5), -0.8), 3),
        (build_higher_order(LatticeSpec(3, 4), np.linspace(-0.6, 0.7, 10)), 3),
    ],
)
def test_rejection_bound_equals_the_scaled_gap_path(model, nu):
    res = rejection_sampler(model, nu=nu, seed=9, count=20)
    cfg = EliminationConfig(mode="approximate", nu=nu, pomm_variant="post_approximation")
    log_prop = pomm_log_density_polynomial_per_table(eliminate(model, cfg).pomm)
    gap = add_scaled(log_prop, model.energy, 1.0, -1.0)
    bound_cfg = EliminationConfig(mode="upper_bound", marginal="max", nu=nu)
    assert res.log_k_bound == -eliminate_max(scale(gap, -1.0), bound_cfg).log_value


# -- MH acceptance rate -----------------------------------------------------------


def test_mh_rate_is_one_for_exact_pomm():
    m, X, p = ising_distribution(LatticeSpec(3, 3), 0.4)
    cfg = EliminationConfig(mode="approximate", nu=9, pomm_variant="pre_approximation")
    pomm = eliminate(m, cfg).pomm
    rate = mh_acceptance_rate(m, pomm, exact_state_sampler(p, 9), pairs=400, seed=8)
    assert abs(rate - 1.0) < 1e-12


def test_mh_rate_matches_exhaustive_double_sum():
    m, X, p = ising_distribution(LatticeSpec(3, 3), 0.6)
    cfg = EliminationConfig(mode="approximate", nu=2, pomm_variant="pre_approximation")
    pomm = eliminate(m, cfg).pomm
    u = eval_pbf(m.energy, X)
    lq = log_density_many(pomm, X)
    q = np.exp(lq)
    # row x ~ target, column x' ~ proposal:
    # min{1, exp(U(x') - U(x) + ln q(x) - ln q(x'))}
    ratio = np.minimum(1.0, np.exp(np.add.outer(-u, u) + np.subtract.outer(lq, lq)))
    exact_rate = float(p @ ratio @ q)
    pairs = 4000
    est = mh_acceptance_rate(m, pomm, exact_state_sampler(p, 9), pairs=pairs, seed=3)
    # accept within 3 sigma of the Monte Carlo error
    sigma = 0.5 / math.sqrt(pairs)
    assert abs(est - exact_rate) < 3 * sigma


def test_mh_rate_decreases_with_interaction_strength():
    rates = {}
    for theta in (0.4, 0.8):
        m, X, p = ising_distribution(LatticeSpec(4, 4), theta)
        cfg = EliminationConfig(
            mode="approximate", nu=2, pomm_variant="pre_approximation"
        )
        pomm = eliminate(m, cfg).pomm
        rates[theta] = mh_acceptance_rate(
            m, pomm, exact_state_sampler(p, 16), pairs=3000, seed=14
        )
    assert rates[0.8] < rates[0.4]


# -- Gibbs sampling ---------------------------------------------------------------


def test_gibbs_fair_coins_at_zero_theta():
    m = build_ising(LatticeSpec(3, 3), 0.0)
    batch = gibbs_sampler(m, sweeps=500, burn_in=100, thin=4, seed=3, chains=8)
    mean = batch.states.mean()
    draws = batch.states.size
    assert abs(mean - 0.5) < 3 * math.sqrt(0.25 / draws)


def test_gibbs_is_deterministic_given_seed():
    m = build_ising(LatticeSpec(3, 3), 0.4)
    a = gibbs_sampler(m, sweeps=50, burn_in=10, thin=2, seed=9)
    b = gibbs_sampler(m, sweeps=50, burn_in=10, thin=2, seed=9)
    assert (a.states == b.states).all()
    assert (a.log_densities == b.log_densities).all()


def test_gibbs_matches_brute_force_distribution():
    m, X, p = ising_distribution(LatticeSpec(3, 3), 0.4)
    batch = gibbs_sampler(m, sweeps=1300, burn_in=100, thin=4, seed=5, chains=400)
    emp = np.bincount(pack_states(batch.states), minlength=512) / batch.count
    assert tv_distance(emp, p) < 0.03


def test_gibbs_handles_higher_order_conditionals():
    # full conditionals must aggregate interactions beyond pairs
    from pbmrf import build_2x2_rotinv

    rng = np.random.default_rng(4)
    m = build_2x2_rotinv(LatticeSpec(3, 3), rng.uniform(-0.8, 0.8, size=5))
    X = all_states(9)
    u = eval_pbf(m.energy, X)
    p = np.exp(u - log_sum_exp(u))
    batch = gibbs_sampler(m, sweeps=1300, burn_in=100, thin=4, seed=8, chains=400)
    emp = np.bincount(pack_states(batch.states), minlength=512) / batch.count
    assert tv_distance(emp, p) < 0.03


def test_gibbs_reference_sampler_interface():
    m = build_ising(LatticeSpec(2, 3), 0.4)
    sampler = gibbs_reference_sampler(m, sweeps_per_sample=3, burn_in=20, chains=4)
    states = sampler(10, 7)
    assert states.shape == (10, 6)
    assert set(np.unique(states)) <= {0, 1}


def test_gibbs_validates_arguments():
    m = build_ising(LatticeSpec(2, 2), 0.4)
    with pytest.raises(ValueError):
        gibbs_sampler(m, sweeps=0, burn_in=0, thin=1, seed=0)
    with pytest.raises(ValueError):
        gibbs_sampler(m, sweeps=5, burn_in=9, thin=1, seed=0)


@st.composite
def lattice_models(draw):
    """A model of one of the four lattice families with interactions."""
    family = draw(st.sampled_from(["ising", "higher_order", "rotinv2x2", "autologistic"]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    size = MODEL_FAMILIES[family][1]
    params = draw(
        st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=size, max_size=size)
    )
    config = {"family": family, "rows": rows, "cols": cols, "params": params}
    return model_from_config(config)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(lattice_models(), st.data())
def test_gibbs_equals_site_by_site_scan(model, data):
    sweeps = data.draw(st.integers(1, 30))
    burn_in = data.draw(st.integers(0, sweeps - 1))
    thin = data.draw(st.integers(1, 8))
    chains = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**31))
    got = gibbs_sampler(model, sweeps, burn_in, thin, seed, chains)
    want = gibbs_site_by_site(model, sweeps, burn_in, thin, seed, chains)
    assert got.states.dtype == want.states.dtype
    assert got.states.shape == want.states.shape
    assert got.states.tobytes() == want.states.tobytes()
    assert got.log_densities.tobytes() == want.log_densities.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(lattice_models())
def test_gibbs_levels_respect_the_scan_order(model):
    neighbours, _ = _site_conditionals(model.energy)
    levels = _gibbs_levels(neighbours)
    level = {}
    for lv, sites in enumerate(levels):
        assert sites, "empty level"
        for k in sites:
            level[k] = lv
    assert sorted(level) == list(range(model.n))
    # within a level no two sites share an energy term
    for key, b in model.energy.terms().items():
        if b != 0.0:
            assert len({level[k] for k in key}) == len(key)
    # every lower-index neighbour was updated in an earlier level
    for k, nbrs in enumerate(neighbours):
        assert all(level[j] < level[k] for j in nbrs if j < k)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 6), (4, 4), (3, 7), (12, 12)])
def test_ising_lattice_has_rows_plus_cols_minus_one_levels(rows, cols):
    model = build_ising(LatticeSpec(rows, cols), 0.5)
    neighbours, _ = _site_conditionals(model.energy)
    assert len(_gibbs_levels(neighbours)) == rows + cols - 1


def test_gibbs_caps_site_neighbourhoods_before_tabulating():
    star = star_mrf(DENSE_TABLE_CAP + 1)
    started = time.perf_counter()
    with pytest.raises(ResourceCapError, match="site 0"):
        gibbs_sampler(star, sweeps=1, burn_in=0, thin=1, seed=0)
    assert time.perf_counter() - started < 2.0


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    lattice_models(),
    st.integers(1, 6),
    st.sampled_from(["pre_approximation", "post_approximation"]),
)
def test_pomm_log_density_polynomial_equals_per_table_sum(model, nu, variant):
    cfg = EliminationConfig(mode="approximate", nu=nu, pomm_variant=variant)
    pomm = eliminate(model, cfg).pomm
    want = pomm_log_density_polynomial_per_table(pomm)
    assert to_json(pomm_log_density_polynomial(pomm)) == to_json(want)
