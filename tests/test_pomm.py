"""POMM sampling and density evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    all_states,
    eval_pbf,
    log_sum_exp,
    pack_states,
    pomm_log_density_row_major,
    pomm_sample_one_shot,
    tv_distance,
)
from pbmrf import (
    EliminationConfig,
    LatticeSpec,
    build_independence,
    build_ising,
    eliminate,
    eliminate_exact_sum,
)
from pbmrf.pomm import (
    _BLOCK_ROWS,
    PartiallyOrderedMarkovModel,
    PommConditional,
    SampleBatch,
    log_density_many,
    sample,
)


def exact_pomm(model):
    cfg = EliminationConfig(mode="exact", pomm_variant="post_approximation")
    return eliminate(model, cfg).pomm


def test_conditional_validation():
    for prob in (1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match="prob_one"):
            PommConditional(0, (), np.array([prob]))
    with pytest.raises(ValueError):
        PommConditional(0, (1,), np.array([0.5]))  # needs 2 rows
    with pytest.raises(ValueError):
        PartiallyOrderedMarkovModel(
            2,
            (
                PommConditional(0, (), np.array([0.5])),
                PommConditional(1, (0,), np.array([0.5, 0.5])),  # depends backwards
            ),
        )


def test_independence_sampling_frequencies():
    theta = 0.8
    m = build_independence(LatticeSpec(2, 3), theta)
    pomm = exact_pomm(m)
    batch = sample(pomm, seed=29, count=100_000)
    p = math.exp(theta) / (1 + math.exp(theta))
    sigma = math.sqrt(p * (1 - p) / batch.count)
    assert np.abs(batch.states.mean(axis=0) - p).max() < 3 * sigma + 1e-12


def test_degenerate_conditionals_sample_all_ones():
    conds = (
        PommConditional(0, (1,), np.array([1.0, 1.0])),
        PommConditional(1, (), np.array([1.0])),
    )
    pomm = PartiallyOrderedMarkovModel(2, conds)
    batch = sample(pomm, seed=0, count=50)
    assert (batch.states == 1).all()
    assert np.allclose(batch.log_densities, 0.0)


def test_sampling_is_reproducible_and_prefix_stable():
    m = build_ising(LatticeSpec(3, 3), 0.4)
    pomm = exact_pomm(m)
    a = sample(pomm, seed=123, count=64)
    b = sample(pomm, seed=123, count=64)
    assert (a.states == b.states).all()
    assert (a.log_densities == b.log_densities).all()
    longer = sample(pomm, seed=123, count=128)
    assert (longer.states[:64] == a.states).all()
    different = sample(pomm, seed=124, count=64)
    assert (different.states != a.states).any()


def test_exact_pomm_sampling_matches_brute_force_distribution():
    m = build_ising(LatticeSpec(3, 3), 0.4)
    pomm = exact_pomm(m)
    batch = sample(pomm, seed=7, count=200_000)
    X = all_states(9)
    u = eval_pbf(m, X)
    p = np.exp(u - log_sum_exp(u))
    emp = np.bincount(pack_states(batch.states), minlength=512) / batch.count
    assert tv_distance(emp, p) < 0.05


def test_log_density_single_variable():
    pomm = PartiallyOrderedMarkovModel(1, (PommConditional(0, (), np.array([0.5])),))
    assert abs(log_density_many(pomm, np.array([[0]]))[0] - math.log(0.5)) < 1e-15
    assert abs(log_density_many(pomm, np.array([[1]]))[0] - math.log(0.5)) < 1e-15


def test_sampled_density_matches_recomputation():
    m = build_ising(LatticeSpec(3, 3), 0.6)
    pomm = exact_pomm(m)
    batch = sample(pomm, seed=5, count=500)
    again = log_density_many(pomm, batch.states)
    assert np.abs(again - batch.log_densities).max() < 1e-12


@pytest.mark.parametrize("nu", [1, 2, 9])
def test_density_normalises_exhaustively(nu):
    m = build_ising(LatticeSpec(3, 3), 0.5)
    cfg = EliminationConfig(mode="approximate", nu=nu, pomm_variant="post_approximation")
    pomm = eliminate(m, cfg).pomm
    X = all_states(9)
    assert abs(np.exp(log_density_many(pomm, X)).sum() - 1.0) < 1e-10


def test_exact_pomm_equals_mrf_density():
    m = build_ising(LatticeSpec(3, 4), 0.4)
    pomm = exact_pomm(m)
    ln_c = eliminate_exact_sum(m).log_value
    X = all_states(12)
    diff = log_density_many(pomm, X) - (eval_pbf(m, X) - ln_c)
    assert np.abs(diff).max() < 1e-9


def test_sample_batch_validation():
    with pytest.raises(ValueError):
        SampleBatch(np.zeros((3, 2), dtype=np.uint8), np.zeros(2))


# -- the column-major pass in row blocks ----------------------------------------


@st.composite
def random_pomms(draw, max_n=8, max_deps=4):
    """A POMM on a random elimination order with random dependency sets.

    Dependencies come in any order, and probabilities may be exactly 0 or 1.
    """
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    conds = []
    for pos, v in enumerate(order):
        later = order[pos + 1 :]
        deps = []
        if later:
            deps = draw(st.lists(st.sampled_from(later), unique=True, max_size=max_deps))
        size = 1 << len(deps)
        probs = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        conds.append(PommConditional(v, tuple(deps), np.array(probs)))
    return PartiallyOrderedMarkovModel(n, tuple(conds))


def assert_same_batch(got, want):
    assert got.states.dtype == want.states.dtype
    assert got.states.shape == want.states.shape
    assert got.states.tobytes() == want.states.tobytes()
    assert got.log_densities.tobytes() == want.log_densities.tobytes()


B = _BLOCK_ROWS


@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_sample_equals_one_shot_row_major_pass(count):
    m = build_ising(LatticeSpec(3, 4), 0.7)
    cfg = EliminationConfig(mode="approximate", nu=2, pomm_variant="post_approximation")
    pomm = eliminate(m, cfg).pomm
    assert_same_batch(sample(pomm, 17, count), pomm_sample_one_shot(pomm, 17, count))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(random_pomms(), st.integers(0, 2**31), st.integers(0, 40))
def test_random_pomm_sample_and_density_equal_row_major_oracles(pomm, seed, count):
    batch = sample(pomm, seed, count)
    assert_same_batch(batch, pomm_sample_one_shot(pomm, seed, count))
    got = log_density_many(pomm, batch.states)
    assert got.tobytes() == pomm_log_density_row_major(pomm, batch.states).tobytes()


@pytest.mark.parametrize("k", [7, 8, 9, 15, 16])
def test_wide_conditionals_equal_row_major_oracles(k):
    # variable 0 depends on variables 1 to k: with its own bit appended its
    # row index needs k + 1 bits, one past a uint8 at k = 8 (uint16 at 16)
    rng = np.random.default_rng(k)
    n = k + 2
    conds = [PommConditional(0, tuple(range(k, 0, -1)), rng.random(1 << k))]
    for v in range(1, n):
        deps = (v + 1,) if v + 1 < n else ()
        conds.append(PommConditional(v, deps, rng.random(1 << len(deps))))
    pomm = PartiallyOrderedMarkovModel(n, tuple(conds))
    batch = sample(pomm, 5, 3000)
    assert_same_batch(batch, pomm_sample_one_shot(pomm, 5, 3000))
    got = log_density_many(pomm, batch.states)
    assert got.tobytes() == pomm_log_density_row_major(pomm, batch.states).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(random_pomms())
def test_random_pomm_density_normalises(pomm):
    total = np.exp(log_density_many(pomm, all_states(pomm.n))).sum()
    assert abs(total - 1.0) < 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(
    random_pomms(max_n=5),
    st.integers(0, 2**31),
    st.integers(0, 2 * B + 5),
    st.integers(0, 2 * B + 5),
)
def test_shorter_sample_is_a_prefix_across_blocks(pomm, seed, a, b):
    short, long = sorted((a, b))
    head = sample(pomm, seed, short)
    full = sample(pomm, seed, long)
    assert full.states[:short].tobytes() == head.states.tobytes()
    assert full.log_densities[:short].tobytes() == head.log_densities.tobytes()
