"""Application layer: MLE bracketing, MAP, rejection, MH rate, Gibbs."""

import math
import time
import tracemalloc
import warnings

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
    star_mrf,
    tv_distance,
)
from pbmrf import (
    DENSE_TABLE_CAP,
    EliminationConfig,
    GaussianLikelihoodSpec,
    LatticeSpec,
    ResourceCapError,
    build_2x2_rotinv,
    build_autologistic,
    build_higher_order,
    build_independence,
    build_ising,
    eliminate,
    gibbs_sampler,
    map_estimate,
    mh_acceptance_rate,
    mle_bracket,
    model_from_config,
    rejection_sampler,
)
from pbmrf import apps
from pbmrf.apps import _gibbs_levels, _gibbs_skew, _site_conditionals
from pbmrf.models import MODEL_FAMILIES
from pbmrf.pbf import evaluate_many
from pbmrf.pomm import log_density_many, sample


def ising_distribution(lat, theta):
    m = build_ising(lat, theta)
    X = all_states(m.n)
    u = eval_pbf(m, X)
    return m, X, np.exp(u - log_sum_exp(u))


def exact_states(p, n, count, seed):
    """``count`` independent exact states from p, over n variables."""
    rows = np.random.default_rng(seed).choice(len(p), size=count, p=p)
    return all_states(n)[rows]


# -- MLE bracketing -------------------------------------------------------------


def observed_realization(lat, theta, seed):
    m = build_ising(lat, theta)
    return gibbs_sampler(m, sweeps=240, burn_in=239, thin=1, seed=seed)[0]


def test_mle_bracket_contains_grid_mle_exact_bounds():
    lat = LatticeSpec(4, 4)
    grid = np.linspace(0.0, 2.0, 11)
    for seed in range(3):
        obs = observed_realization(lat, 0.6, seed)
        bracket = mle_bracket(obs, lambda t: build_ising(lat, t), grid, [16, 16])
        for rnd in bracket.rounds:
            ell = [
                eval_pbf(build_ising(lat, t), obs.reshape(1, -1))[0]
                - brute_log_c("ising", (t,), 4, 4)
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


def test_mle_bracket_curves_are_the_single_bounds():
    # the batched bounds of each round equal single runs, on float grids
    lat = LatticeSpec(4, 4)
    obs = observed_realization(lat, 0.5, 1)
    bracket = mle_bracket(obs, lambda t: build_ising(lat, t), np.linspace(0, 2, 5), [2, 3])
    for rnd in bracket.rounds:
        assert all(type(t) is float for t in rnd.grid)
        for t, lower, upper in zip(rnd.grid, rnd.ell_lower, rnd.ell_upper, strict=True):
            model = build_ising(lat, t)
            energy = float(evaluate_many(model, obs.reshape(1, -1))[0])
            ln_c = {
                mode: eliminate(model, EliminationConfig(mode=mode, nu=rnd.nu)).log_value
                for mode in ("lower_bound", "upper_bound")
            }
            assert (lower, upper) == (energy - ln_c["upper_bound"], energy - ln_c["lower_bound"])


@pytest.mark.parametrize(
    "change, name",
    [
        ({"nu_schedule": [2.5]}, "nu"),
        ({"nu_schedule": [2, True]}, "nu"),
        ({"nu_schedule": ["x"]}, "nu"),
        ({"nu_schedule": [2, None]}, "nu"),
        ({"nu_schedule": []}, "nu"),
        ({"observed": np.full(9, 2)}, "observed"),
        ({"observed": np.full(9, 0.5)}, "observed"),
        ({"observed": np.array([0, 1, 0, 1, np.nan, 0, 1, 0, 1])}, "observed"),
        ({"theta_grid": [0.0, np.nan, 1.0]}, "theta_grid"),
        ({"theta_grid": [0.0, 1.0, np.inf]}, "theta_grid"),
        ({"theta_grid": [-np.inf, 0.0, 1.0]}, "theta_grid"),
    ],
)
def test_mle_bracket_refuses_bad_inputs_naming_them(change, name):
    # each value used to pass: a fractional or boolean nu was truncated, an
    # observed 2 or 0.5 was cast to uint8, a NaN grid value reached the
    # model builder
    lat = LatticeSpec(3, 3)
    args = {
        "observed": np.array([0, 1, 1, 0, 1, 0, 0, 1, 1], dtype=np.uint8),
        "model_builder": lambda t: build_ising(lat, t),
        "theta_grid": np.linspace(0.0, 2.0, 5),
        "nu_schedule": [2, 3],
    }
    with pytest.raises(ValueError, match=name):
        mle_bracket(**{**args, **change})


def test_mle_bracket_takes_integral_settings_and_boolean_states():
    lat = LatticeSpec(3, 3)
    obs = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1], dtype=np.uint8)
    grid = np.linspace(0.0, 2.0, 5)
    want = mle_bracket(obs, lambda t: build_ising(lat, t), grid, [2, 3])
    got = mle_bracket(obs.astype(bool), lambda t: build_ising(lat, t), grid, [2.0, "3"])
    assert got == want


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
        result.log_k_bound + eval_pbf(m, X) - log_density_many(pomm, X)
    )
    assert log_alpha.max() <= 1e-12


def test_rejection_rate_floor_error():
    m = build_ising(LatticeSpec(3, 3), 0.4)
    with pytest.raises(RuntimeError):
        rejection_sampler(
            m, nu=1, seed=0, count=10_000, rate_floor=0.999, trial_budget=20_000
        )


@pytest.mark.parametrize("rate_floor", [math.nan, -0.1, 1.5])
def test_rejection_refuses_a_rate_floor_outside_the_unit_interval(rate_floor):
    m = build_ising(LatticeSpec(2, 2), 0.4)
    with pytest.raises(ValueError, match="rate_floor"):
        rejection_sampler(m, nu=1, seed=0, count=3, rate_floor=rate_floor)


@pytest.mark.parametrize("trial_budget", [0, -1, 2.5, True, math.nan])
def test_rejection_refuses_a_trial_budget_below_one_trial(trial_budget):
    # a budget of no trials used to end in the rate-floor RuntimeError, or,
    # with rate_floor 0, in numpy's error on concatenating no kept states
    m = build_ising(LatticeSpec(2, 2), 0.4)
    with pytest.raises(ValueError, match="trial_budget"):
        rejection_sampler(m, nu=1, seed=0, count=3, rate_floor=0.0, trial_budget=trial_budget)


def rejection_fields(result) -> tuple:
    """Every field of a rejection result, arrays as bytes."""
    samples = result.samples
    return (samples.states.tobytes(), samples.states.shape, samples.log_densities.tobytes(),
            result.acceptance_rate, result.log_k_bound, result.trials, result.max_alpha)


@pytest.mark.parametrize("block_rows", [64, 100])
@pytest.mark.parametrize(
    "count, trial_budget",
    [
        (600, None),  # one round of 1,200 trials
        (3, None),  # one round of 1,024 trials
        (5_000, 1_500),  # a budget that ends inside the first round
    ],
)
def test_rejection_blocks_change_no_field(monkeypatch, block_rows, count, trial_budget):
    # a round is drawn _BLOCK_ROWS trials at a time, its last block partial
    m = build_ising(LatticeSpec(3, 3), 0.4)
    settings = {"nu": 2, "seed": 4, "count": count, "rate_floor": 0.0, "trial_budget": trial_budget}
    want = rejection_fields(rejection_sampler(m, **settings))
    monkeypatch.setattr(apps, "_BLOCK_ROWS", block_rows)
    assert rejection_fields(rejection_sampler(m, **settings)) == want


def test_rejection_memory_is_the_kept_states_and_one_block():
    # 100,000 draws on 3x3: a round of 200,000 trials whose uniforms alone
    # took 16 MB when a round was drawn at once
    m = build_ising(LatticeSpec(3, 3), 0.4)
    tracemalloc.start()
    try:
        result = rejection_sampler(m, nu=2, seed=1, count=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.trials == 200_000
    kept = 100_000 * (9 + 8)  # a uint8 state and a float64 density per draw
    block = 4096 * 10 * 8  # one block of uniforms
    assert peak < kept + 8 * block, peak


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


def _sampler_call(call, name, value):
    """``call``'s sampler on a 2x2 Ising model, with argument ``name`` set to ``value``."""
    model = build_ising(LatticeSpec(2, 2), 0.4)
    cfg = EliminationConfig(mode="approximate", nu=1, pomm_variant="post_approximation")
    pomm = eliminate(model, cfg).pomm
    if call == "gibbs_sampler":
        return gibbs_sampler(model, sweeps=2, burn_in=0, thin=1, **{"seed": 0, name: value})
    if call == "mh_acceptance_rate":
        zeros = np.zeros((3, 4), dtype=np.uint8)
        return mh_acceptance_rate(model, pomm, zeros, **{"seed": 0, name: value})
    settings = {"seed": 0, "count": 3, name: value}
    if call == "rejection_sampler":
        return rejection_sampler(model, nu=1, **settings)
    return sample(pomm, **settings)


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize(
    "call, name",
    [
        ("sample", "seed"),
        ("sample", "count"),
        ("rejection_sampler", "seed"),  # its count is in INTEGER_ARGUMENTS
        ("gibbs_sampler", "seed"),
        ("mh_acceptance_rate", "seed"),
    ],
)
def test_sampler_seeds_and_counts_refuse_fractions_and_booleans(call, name, value):
    with pytest.raises(ValueError, match=name):
        _sampler_call(call, name, value)
    _sampler_call(call, name, 2.0)  # an integral float passes


@pytest.mark.parametrize("value", [2**63, 2**64, 10**308])
@pytest.mark.parametrize(
    "call, name",
    [("sample", "count"), ("rejection_sampler", "count"), ("gibbs_sampler", "chains")],
)
def test_sizes_past_numpy_are_refused_by_name(call, name, value):
    # numpy refused each array with a ValueError that named no argument
    with pytest.raises(ValueError, match=rf"^{name}={value}"):
        _sampler_call(call, name, value)


@pytest.mark.parametrize(
    "model, nu",
    [
        (build_ising(LatticeSpec(4, 4), 0.5), 2),
        (build_ising(LatticeSpec(3, 5), -0.8), 3),
        (build_higher_order(LatticeSpec(3, 4), np.linspace(-0.6, 0.7, 10)), 3),
    ],
)
def test_rejection_bound_is_the_soir_certificate(model, nu):
    res = rejection_sampler(model, nu=nu, seed=9, count=20)
    cfg = EliminationConfig(mode="approximate", nu=nu, pomm_variant="post_approximation")
    run = eliminate(model, cfg)
    assert run.soir_error > 0.0
    assert res.log_k_bound == -(run.log_value + run.soir_error)
    assert res.max_alpha <= 1 + 1e-12


# -- MH acceptance rate -----------------------------------------------------------


def test_mh_rate_is_one_for_exact_pomm():
    m, X, p = ising_distribution(LatticeSpec(3, 3), 0.4)
    cfg = EliminationConfig(mode="approximate", nu=9, pomm_variant="pre_approximation")
    pomm = eliminate(m, cfg).pomm
    rate = mh_acceptance_rate(m, pomm, exact_states(p, 9, 400, 8), seed=8)
    assert abs(rate - 1.0) < 1e-12


def test_mh_rate_matches_exhaustive_double_sum():
    m, X, p = ising_distribution(LatticeSpec(3, 3), 0.6)
    cfg = EliminationConfig(mode="approximate", nu=2, pomm_variant="pre_approximation")
    pomm = eliminate(m, cfg).pomm
    u = eval_pbf(m, X)
    lq = log_density_many(pomm, X)
    q = np.exp(lq)
    # row x ~ target, column x' ~ proposal:
    # min{1, exp(U(x') - U(x) + ln q(x) - ln q(x'))}
    ratio = np.minimum(1.0, np.exp(np.add.outer(-u, u) + np.subtract.outer(lq, lq)))
    exact_rate = float(p @ ratio @ q)
    pairs = 4000
    est = mh_acceptance_rate(m, pomm, exact_states(p, 9, pairs, 3), seed=3)
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
        rates[theta] = mh_acceptance_rate(m, pomm, exact_states(p, 16, 3000, 14), seed=14)
    assert rates[0.8] < rates[0.4]


@pytest.mark.parametrize(
    "current",
    [
        np.zeros((0, 4), dtype=np.uint8),
        np.zeros((3, 5), dtype=np.uint8),
        np.zeros(4, dtype=np.uint8),
        np.zeros((1, 3, 4), dtype=np.uint8),
        np.full((3, 4), 2),
        np.full((3, 4), 0.5),
        np.array([[0, 1, np.nan, 1]]),
    ],
)
def test_mh_rate_refuses_a_bad_current_array_naming_it(current):
    model = build_ising(LatticeSpec(2, 2), 0.4)
    cfg = EliminationConfig(mode="approximate", nu=1, pomm_variant="pre_approximation")
    pomm = eliminate(model, cfg).pomm
    with pytest.raises(ValueError, match="current"):
        mh_acceptance_rate(model, pomm, current, seed=0)
    assert 0.0 <= mh_acceptance_rate(model, pomm, np.ones((3, 4), dtype=bool), seed=0) <= 1.0


# -- Gibbs sampling ---------------------------------------------------------------


def test_gibbs_fair_coins_at_zero_theta():
    m = build_ising(LatticeSpec(3, 3), 0.0)
    states = gibbs_sampler(m, sweeps=500, burn_in=100, thin=4, seed=3, chains=8)
    mean = states.mean()
    draws = states.size
    assert abs(mean - 0.5) < 3 * math.sqrt(0.25 / draws)


def test_gibbs_is_deterministic_given_seed():
    m = build_ising(LatticeSpec(3, 3), 0.4)
    a = gibbs_sampler(m, sweeps=50, burn_in=10, thin=2, seed=9)
    b = gibbs_sampler(m, sweeps=50, burn_in=10, thin=2, seed=9)
    assert a.tobytes() == b.tobytes()


def test_gibbs_matches_brute_force_distribution():
    m, X, p = ising_distribution(LatticeSpec(3, 3), 0.4)
    states = gibbs_sampler(m, sweeps=1300, burn_in=100, thin=4, seed=5, chains=400)
    emp = np.bincount(pack_states(states), minlength=512) / len(states)
    assert tv_distance(emp, p) < 0.03


def test_gibbs_handles_higher_order_conditionals():
    # full conditionals must aggregate interactions beyond pairs
    from pbmrf import build_2x2_rotinv

    rng = np.random.default_rng(4)
    m = build_2x2_rotinv(LatticeSpec(3, 3), rng.uniform(-0.8, 0.8, size=5))
    X = all_states(9)
    u = eval_pbf(m, X)
    p = np.exp(u - log_sum_exp(u))
    states = gibbs_sampler(m, sweeps=1300, burn_in=100, thin=4, seed=8, chains=400)
    emp = np.bincount(pack_states(states), minlength=512) / len(states)
    assert tv_distance(emp, p) < 0.03


def test_gibbs_validates_arguments():
    m = build_ising(LatticeSpec(2, 2), 0.4)
    with pytest.raises(ValueError):
        gibbs_sampler(m, sweeps=0, burn_in=0, thin=1, seed=0)
    with pytest.raises(ValueError):
        gibbs_sampler(m, sweeps=5, burn_in=9, thin=1, seed=0)


def listed_gibbs_draws(monkeypatch) -> list:
    """The number of uniforms in each block the Gibbs sampler draws from now on."""
    draws = []
    make = apps.generator

    class Listed:
        def __init__(self, seed, stream):
            self.rng = make(seed, stream)

        def random(self, size=None, out=None):
            values = self.rng.random(size, out=out)
            draws.append(values.size)
            return values

    monkeypatch.setattr(apps, "generator", Listed)
    return draws


def test_gibbs_runs_no_sweep_after_its_last_record(monkeypatch):
    # sweeps 31 to 49 record nothing; their draws used to be made anyway
    m = build_ising(LatticeSpec(2, 3), 0.4)
    want = gibbs_sampler(m, sweeps=31, burn_in=10, thin=20, seed=3, chains=2)
    draws = listed_gibbs_draws(monkeypatch)
    got = gibbs_sampler(m, sweeps=50, burn_in=10, thin=20, seed=3, chains=2)
    # the start, then sweeps 0 to 30: one uniform per site and chain each
    assert draws[0] == 2 * 6
    assert sum(draws) == 2 * 6 * (1 + 31)
    assert got.tobytes() == want.tobytes()


def test_gibbs_refuses_site_updates_past_its_cap_before_its_first_draw(monkeypatch):
    m = build_ising(LatticeSpec(2, 3), 0.4)
    # records at sweeps 4, 7 and 10: 2 chains x 11 sweeps x 6 sites
    monkeypatch.setattr(apps, "GIBBS_UPDATE_CAP", 2 * 11 * 6)
    assert len(gibbs_sampler(m, sweeps=12, burn_in=4, thin=3, seed=0, chains=2)) == 6
    monkeypatch.setattr(apps, "GIBBS_UPDATE_CAP", 2 * 11 * 6 - 1)
    draws = listed_gibbs_draws(monkeypatch)
    with pytest.raises(ResourceCapError, match="chains=2, sweeps=12, burn_in=4, thin=3"):
        gibbs_sampler(m, sweeps=12, burn_in=4, thin=3, seed=0, chains=2)
    assert draws == []


def test_gibbs_refuses_records_past_memory_before_its_first_draw(monkeypatch):
    # 2^62 records of 4 sites: the sweeps used to run, filling memory, first
    draws = listed_gibbs_draws(monkeypatch)
    with pytest.raises(ValueError, match="sweeps"):
        gibbs_sampler(build_ising(LatticeSpec(2, 2), 0.4), 2**62, 0, 1, seed=0)
    assert draws == []


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
    assert got.dtype == want.dtype == np.uint8
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block_rows", [1, 6, 64])
@pytest.mark.parametrize("sweeps, burn_in, thin", [(40, 7, 3), (23, 0, 1)])
@pytest.mark.parametrize(
    "model",
    [
        build_ising(LatticeSpec(4, 5), 0.6),
        build_independence(LatticeSpec(3, 4), 0.3),
        build_higher_order(LatticeSpec(4, 4), np.linspace(-0.8, 0.9, 10)),
    ],
    ids=["ising", "independence", "higher_order"],
)
def test_gibbs_wavefront_equals_site_by_site_across_chunks(
    monkeypatch, model, sweeps, burn_in, thin, block_rows
):
    # 3 chains: room for the uniforms of 1, 2 or 21 sweeps, so the skew
    # widens, or the sweeps span several chunks
    monkeypatch.setattr(apps, "_BLOCK_ROWS", block_rows)
    draws = listed_gibbs_draws(monkeypatch)
    got = gibbs_sampler(model, sweeps, burn_in, thin, 11, chains=3)
    want = gibbs_site_by_site(model, sweeps, burn_in, thin, 11, chains=3)
    assert got.tobytes() == want.tobytes()
    assert max(draws[1:]) <= max(1, block_rows // 3) * 3 * model.n


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(lattice_models())
def test_gibbs_levels_respect_the_scan_order(model):
    neighbours, _ = _site_conditionals(model)
    levels = _gibbs_levels(neighbours)
    level = {}
    for lv, sites in enumerate(levels):
        assert sites, "empty level"
        for k in sites:
            level[k] = lv
    assert sorted(level) == list(range(model.n))
    # within a level no two sites share an energy term
    for key, b in model.terms().items():
        if b != 0.0:
            assert len({level[k] for k in key}) == len(key)
    # every lower-index neighbour was updated in an earlier level
    for k, nbrs in enumerate(neighbours):
        assert all(level[j] < level[k] for j in nbrs if j < k)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 6), (4, 4), (3, 7), (12, 12)])
def test_ising_lattice_has_rows_plus_cols_minus_one_levels(rows, cols):
    model = build_ising(LatticeSpec(rows, cols), 0.5)
    neighbours, _ = _site_conditionals(model)
    levels = _gibbs_levels(neighbours)
    assert len(levels) == rows + cols - 1
    # a site's right and lower neighbours sit one level on: sweeps two steps apart
    assert _gibbs_skew(neighbours, levels, 4096) == (1 if model.n == 1 else 2)
    # room for one sweep's uniforms: the sweeps run one after another
    assert _gibbs_skew(neighbours, levels, 1) == max(len(levels), 1 if model.n == 1 else 2)


def test_gibbs_caps_site_neighbourhoods_before_tabulating():
    star = star_mrf(DENSE_TABLE_CAP + 1)
    started = time.perf_counter()
    with pytest.raises(ResourceCapError, match="site 0"):
        gibbs_sampler(star, sweeps=1, burn_in=0, thin=1, seed=0)
    assert time.perf_counter() - started < 2.0


# -- every bad number refused by name: the library contract -------------------

# The command-line contract's edge values as numbers: integers at and past
# 64 bits, a huge, a non-finite and a fractional float, and a boolean.
# Every argument takes every value: a Gibbs run past GIBBS_UPDATE_CAP site
# updates is refused before its first sweep.
LIBRARY_EDGES = [0, -1, 2**63, 2**64, 1e308, math.inf, -math.inf, math.nan, 2.5, True]


def _library_calls():
    """Each entry point on a tiny lattice: (call, {argument: (value, name in errors)}).

    A list argument is set one element at a time; its errors name the
    argument or, for a model builder's theta, the parameter.
    """
    lat = LatticeSpec(2, 2)
    model = build_ising(lat, 0.4)
    cfg = EliminationConfig(mode="approximate", nu=1, pomm_variant="post_approximation")
    pomm = eliminate(model, cfg).pomm
    observed = np.array([0, 1, 1, 0], dtype=np.uint8)
    return {
        "EliminationConfig": (
            lambda nu, table_cap: EliminationConfig(mode="lower_bound", nu=nu, table_cap=table_cap),
            {"nu": (1, "nu"), "table_cap": (1, "table_cap")},
        ),
        "LatticeSpec": (LatticeSpec, {"rows": (2, "rows"), "cols": (2, "cols")}),
        "build_ising": (lambda theta: build_ising(lat, theta), {"theta": (0.4, "theta")}),
        "build_independence": (
            lambda theta: build_independence(lat, theta), {"theta": (0.4, "theta")}
        ),
        "build_autologistic": (
            lambda theta0, theta1: build_autologistic(lat, theta0, theta1),
            {"theta0": (0.4, "theta0"), "theta1": (-0.2, "theta1")},
        ),
        "build_higher_order": (
            lambda first, last: build_higher_order(LatticeSpec(3, 3), [first] + [0.1] * 8 + [last]),
            {"first": (0.3, "potentials"), "last": (-0.2, "potentials")},
        ),
        "build_2x2_rotinv": (
            lambda first, last: build_2x2_rotinv(lat, [first, 0.1, 0.2, 0.3, last]),
            {"first": (0.3, "thetas"), "last": (-0.2, "thetas")},
        ),
        "sample": (
            lambda seed, count: sample(pomm, seed, count),
            {"seed": (0, "seed"), "count": (3, "count")},
        ),
        "rejection_sampler": (
            lambda **kw: rejection_sampler(model, **kw),
            {"nu": (1, "nu"), "seed": (0, "seed"), "count": (3, "count"),
             "rate_floor": (1e-3, "rate_floor"), "trial_budget": (10_000, "trial_budget")},
        ),
        "gibbs_sampler": (
            lambda **kw: gibbs_sampler(model, **kw),
            {"sweeps": (3, "sweeps"), "burn_in": (0, "burn_in"), "thin": (1, "thin"),
             "seed": (0, "seed"), "chains": (2, "chains")},
        ),
        "mle_bracket": (
            lambda low, high, nu, table_cap: mle_bracket(
                observed, lambda t: build_ising(lat, t), [low, 0.5, high], [1, nu], table_cap
            ),
            {"low": (0.0, "theta"), "high": (1.0, "theta"), "nu": (2, "nu"),
             "table_cap": (1, "table_cap")},
        ),
        "mh_acceptance_rate": (
            lambda seed: mh_acceptance_rate(model, pomm, np.zeros((3, 4), np.uint8), seed),
            {"seed": (0, "seed")},
        ),
    }


LIBRARY_CALLS = _library_calls()


def assert_returns_or_refuses_by_name(call, values):
    """Run ``call`` with ``values`` set: it returns or names one of them, unwarned."""
    fn, arguments = LIBRARY_CALLS[call]
    kwargs = {name: default for name, (default, _) in arguments.items()}
    kwargs.update(values)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fn(**kwargs)
        except (ValueError, TypeError, ResourceCapError) as exc:
            names = {arguments[name][1] for name in values}
            assert any(name in str(exc) for name in names), (call, values, exc)
    assert [str(w.message) for w in caught] == [], (call, values)


def test_every_bad_argument_is_refused_by_name():
    # each argument of each call alone, at every edge value
    for call, (_, arguments) in LIBRARY_CALLS.items():
        for name in arguments:
            for value in LIBRARY_EDGES:
                assert_returns_or_refuses_by_name(call, {name: value})


@st.composite
def library_inputs(draw):
    """A call and one or two of its arguments set to edge values."""
    call = draw(st.sampled_from(sorted(LIBRARY_CALLS)))
    arguments = sorted(LIBRARY_CALLS[call][1])
    names = draw(st.lists(st.sampled_from(arguments), min_size=1, max_size=2, unique=True))
    return call, {name: draw(st.sampled_from(LIBRARY_EDGES)) for name in names}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(library_inputs())
def test_every_bad_library_input_is_refused_by_name(drawn):
    # pairs of bad values; the test above takes every single one
    assert_returns_or_refuses_by_name(*drawn)
