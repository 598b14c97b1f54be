"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they appear.  Every tolerance is pinned here; nothing is left to
later calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    all_states,
    brute_log_c,
    eval_pbf,
    least_squares_project,
    log_sum_exp,
    pack_states,
    random_dense_pbf,
    random_test_model,
    sse,
    tv_distance,
)
from pbmrf import (
    EliminationConfig,
    LatticeSpec,
    PseudoBooleanFunction,
    bound_remove_pair,
    build_ising,
    eliminate,
    eliminate_exact_sum,
    extract_subset_family,
    gibbs_sampler,
    mle_bracket,
    remove_single_interaction,
    rejection_sampler,
    soir,
)
from pbmrf.cli import main as cli_main
from pbmrf.pomm import log_density_many, sample


def report(num: int, ok: bool, detail: str = ""):
    print(f"[acceptance] criterion {num:02d} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def coeff_gap(f, g):
    return max(
        abs(f.beta(k) - g.beta(k)) for k in set(f.terms()) | set(g.terms())
    )


@pytest.fixture(scope="module")
def model_pool():
    """20 random models over the four families, lattices up to 4x5."""
    rng = np.random.default_rng(20240917)
    pool = []
    while len(pool) < 20:
        pool.append(random_test_model(rng, max_rows=4, max_cols=5))
    return pool


@pytest.fixture(scope="module")
def pool_brute(model_pool):
    started = time.perf_counter()
    values = [brute_log_c(*drawn[1:]) for drawn in model_pool]
    return values, time.perf_counter() - started


def test_c01_exact_elimination_matches_brute_force(model_pool, pool_brute):
    references, brute_seconds = pool_brute
    started = time.perf_counter()
    worst = 0.0
    for (model, *_), reference in zip(model_pool, references):
        got = eliminate_exact_sum(model).log_value
        worst = max(worst, abs(got - reference))
    elapsed = brute_seconds + time.perf_counter() - started
    report(
        1,
        worst < 1e-9 and elapsed < 120.0,
        f"max |ln c error| {worst:.2e} over 20 models, {elapsed:.1f}s",
    )


def test_c02_soir_projection_and_error_formula():
    rng = np.random.default_rng(2)
    worst_coeff = 0.0
    worst_point = 0.0
    done = 0
    while done < 200:
        n = int(rng.integers(2, 7))
        f = random_dense_pbf(rng, n, seeds=5, max_deg=min(n, 4))
        pairs = [k for k in f.terms() if len(k) == 2]
        if not pairs:
            continue
        i, j = pairs[int(rng.integers(len(pairs)))]
        approx, _ = soir(f, i, j)
        family = [k for k, _ in extract_subset_family(f, (i, j), "complement")]
        projected = least_squares_project(f, family)
        worst_coeff = max(worst_coeff, coeff_gap(approx, projected))
        X = all_states(n)
        inner = np.zeros(len(X))
        for key, b in extract_subset_family(f, (i, j), "containing"):
            on = np.ones(len(X), dtype=bool)
            for v in key:
                if v != i and v != j:
                    on &= X[:, v] == 1
            inner += b * on
        factor = X[:, i] * X[:, j] + 0.25 - 0.5 * X[:, i] - 0.5 * X[:, j]
        err = eval_pbf(f, X) - eval_pbf(approx, X)
        worst_point = max(worst_point, float(np.abs(err - factor * inner).max()))
        done += 1
    report(
        2,
        worst_coeff < 1e-10 and worst_point < 1e-10,
        f"coeff gap {worst_coeff:.2e}, pointwise error gap {worst_point:.2e}",
    )


def test_c03_single_removal_matches_projection():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        f = random_dense_pbf(rng, n, seeds=5, max_deg=min(n, 4))
        keys = f.terms()
        maximal = sorted(
            k
            for k in keys
            if k and not any(len(k2) > len(k) and set(k) < set(k2) for k2 in keys)
        )
        lam = maximal[int(rng.integers(len(maximal)))]
        got, _ = remove_single_interaction(f, lam)
        projected = least_squares_project(f, [k for k in keys if k != lam])
        worst = max(worst, coeff_gap(got, projected))
    report(3, worst < 1e-10, f"max coefficient gap {worst:.2e} over 200 instances")


def test_c04_theorem_suite():
    rng = np.random.default_rng(4)
    from pbmrf import add_scaled
    from helpers import random_dense_subfamily

    worst_lin = worst_chain = worst_pyth = worst_removed = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        base = random_dense_pbf(rng, n, seeds=5, max_deg=min(n, 4))
        keys = list(base.terms())
        g = PseudoBooleanFunction(n, {k: rng.normal() for k in keys}, prune=False)
        h = PseudoBooleanFunction(n, {k: rng.normal() for k in keys}, prune=False)
        family = random_dense_subfamily(rng, base)
        a, b = float(rng.normal()), float(rng.normal())
        # Theorem 1: the projection operator is linear
        left = least_squares_project(add_scaled(g, h, a, b), family)
        right = add_scaled(
            least_squares_project(g, family), least_squares_project(h, family), a, b
        )
        worst_lin = max(worst_lin, coeff_gap(left, right))
        # Theorem 2: projecting in two steps equals projecting once
        mid = least_squares_project(g, family)
        inner_family = random_dense_subfamily(rng, mid)
        worst_chain = max(
            worst_chain,
            coeff_gap(
                least_squares_project(mid, inner_family),
                least_squares_project(g, inner_family),
            ),
        )
        # Theorem 3: nested errors add
        f_inner = least_squares_project(g, inner_family)
        lhs = sse(g, f_inner)
        rhs = sse(g, mid) + sse(mid, f_inner)
        worst_pyth = max(worst_pyth, abs(lhs - rhs) / max(1.0, abs(lhs)))
        # Theorem 4: the error is carried by the removed coefficients
        X = all_states(n)
        residual = eval_pbf(g, X) - eval_pbf(mid, X)
        total = float(residual @ residual)
        removed_sum = 0.0
        famset = set(family)
        for key, bval in g.terms().items():
            if key in famset:
                continue
            on = np.ones(len(X), dtype=bool)
            for v in key:
                on &= X[:, v] == 1
            removed_sum += bval * residual[on].sum()
        worst_removed = max(
            worst_removed, abs(total - removed_sum) / max(1.0, total)
        )
    ok = (
        worst_lin < 1e-10
        and worst_chain < 1e-10
        and worst_pyth < 1e-8
        and worst_removed < 1e-8
    )
    report(
        4,
        ok,
        f"linearity {worst_lin:.2e}, chain {worst_chain:.2e}, "
        f"pythagoras {worst_pyth:.2e}, removed-term {worst_removed:.2e}",
    )


def test_c05_bound_sandwich(model_pool, pool_brute):
    slack = 1e-12
    violations = []
    for (model, family, _, rows, cols), reference in zip(model_pool, pool_brute[0]):
        for nu in (1, 2, 3, 4):
            lower = eliminate(
                model, EliminationConfig(mode="lower_bound", nu=nu)
            ).log_value
            upper = eliminate(
                model, EliminationConfig(mode="upper_bound", nu=nu)
            ).log_value
            if not (lower <= reference + slack and reference <= upper + slack):
                violations.append((family, rows, cols, nu))
    # pointwise sandwich on raw polynomials, including piece-by-piece clamps at cap 1
    rng = np.random.default_rng(55)
    worst_point = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 13))
        f = random_dense_pbf(rng, n, seeds=6, max_deg=min(n, 5))
        pairs = [k for k in f.terms() if len(k) == 2]
        if not pairs:
            continue
        i, j = pairs[int(rng.integers(len(pairs)))]
        extras = {
            v
            for k, _ in extract_subset_family(f, (i, j), "containing")
            for v in k
            if v not in (i, j)
        }
        X = all_states(n)
        fv = eval_pbf(f, X)
        for cap in (max(len(extras), 1), 1):
            uv = eval_pbf(bound_remove_pair(f, i, j, "upper", cap), X)
            lv = eval_pbf(bound_remove_pair(f, i, j, "lower", cap), X)
            worst_point = max(
                worst_point, float((fv - uv).max()), float((lv - fv).max())
            )
    report(
        5,
        not violations and worst_point < 1e-10,
        f"partition-sum violations {violations}, pointwise slack {worst_point:.2e}",
    )


def test_c06_saturation(model_pool):
    worst = 0.0
    for model, *_ in model_pool:
        exact = eliminate_exact_sum(model)
        nu = max(step.eta_after for step in exact.per_step)
        for mode in ("approximate", "lower_bound", "upper_bound"):
            res = eliminate(model, EliminationConfig(mode=mode, nu=max(nu, 1)))
            worst = max(worst, abs(res.log_value - exact.log_value))
    report(6, worst < 1e-10, f"max saturated deviation {worst:.2e}")


def test_c07_pomm_fidelity():
    # exact-mode POMM equals the field's distribution
    m = build_ising(LatticeSpec(3, 4), 0.5)
    res = eliminate(
        m, EliminationConfig(mode="exact", pomm_variant="post_approximation")
    )
    X = all_states(12)
    u = eval_pbf(m, X)
    p = np.exp(u - log_sum_exp(u))
    q = np.exp(log_density_many(res.pomm, X))
    tv_exact = tv_distance(p, q)

    # sampled empirical distribution on the 3x3 field
    m33 = build_ising(LatticeSpec(3, 3), 0.4)
    res33 = eliminate(
        m33, EliminationConfig(mode="exact", pomm_variant="post_approximation")
    )
    batch = sample(res33.pomm, seed=77, count=1_000_000)
    X9 = all_states(9)
    u9 = eval_pbf(m33, X9)
    p9 = np.exp(u9 - log_sum_exp(u9))
    emp = np.bincount(pack_states(batch.states), minlength=512) / batch.count
    tv_sampled = tv_distance(emp, p9)
    report(
        7,
        tv_exact < 1e-10 and tv_sampled < 0.03,
        f"exact TV {tv_exact:.2e}, sampled TV {tv_sampled:.4f} at 1e6 draws",
    )


def test_c08_viterbi():
    rng = np.random.default_rng(8)
    worst = 0.0
    bracket_ok = True
    for _ in range(20):
        model, family, params, rows, cols = random_test_model(rng, max_rows=4, max_cols=4)
        from helpers import model_energy_direct

        u = model_energy_direct(family, params, rows, cols, all_states(model.n))
        exact = eliminate(model, EliminationConfig(marginal="max"))
        worst = max(worst, abs(exact.log_value - u.max()))
        achieved = eval_pbf(model, exact.argmax.reshape(1, -1))[0]
        worst = max(worst, abs(achieved - exact.log_value))
        lo = eliminate(
            model, EliminationConfig(mode="lower_bound", marginal="max", nu=2)
        ).log_value
        hi = eliminate(
            model, EliminationConfig(mode="upper_bound", marginal="max", nu=2)
        ).log_value
        bracket_ok &= lo <= u.max() + 1e-12 and u.max() <= hi + 1e-12
    report(
        8,
        worst < 1e-9 and bracket_ok,
        f"max exact-mode deviation {worst:.2e}, bound bracket ok {bracket_ok}",
    )


def test_c09_weak_interaction_trend():
    lat = LatticeSpec(4, 4)
    err = {}
    gap = {}
    for theta in (0.4, 0.8):
        m = build_ising(lat, theta)
        exact = brute_log_c("ising", (theta,), 4, 4)
        approx = eliminate(m, EliminationConfig(mode="approximate", nu=2)).log_value
        lower = eliminate(m, EliminationConfig(mode="lower_bound", nu=2)).log_value
        upper = eliminate(m, EliminationConfig(mode="upper_bound", nu=2)).log_value
        err[theta] = abs(approx - exact)
        gap[theta] = upper - lower
    ok = err[0.4] <= err[0.8] + 1e-12 and gap[0.4] <= gap[0.8] + 1e-12
    report(
        9,
        ok,
        f"|error| 0.4/0.8: {err[0.4]:.4f}/{err[0.8]:.4f}, "
        f"gap 0.4/0.8: {gap[0.4]:.4f}/{gap[0.8]:.4f}",
    )


def test_c10_mle_bracket_contains_grid_mle():
    lat = LatticeSpec(4, 4)
    grid = list(np.linspace(0.0, 2.0, 11))
    ln_c = {t: brute_log_c("ising", (t,), 4, 4) for t in grid}
    m06 = build_ising(lat, 0.6)
    failures = []
    for seed in range(10):
        obs = gibbs_sampler(m06, sweeps=220, burn_in=219, thin=1, seed=seed)[0]
        bracket = mle_bracket(obs, lambda t: build_ising(lat, t), grid, [16])
        ell = [
            eval_pbf(build_ising(lat, t), obs.reshape(1, -1))[0] - ln_c[t]
            for t in grid
        ]
        best = grid[int(np.argmax(ell))]
        if not (bracket.theta_lo <= best <= bracket.theta_hi):
            failures.append((seed, best, bracket.theta_lo, bracket.theta_hi))
    report(10, not failures, f"failures {failures} over 10 realizations")


def test_c11_rejection_sampler():
    m = build_ising(LatticeSpec(3, 3), 0.4)
    result = rejection_sampler(
        m, nu=2, seed=11, count=100_000, trial_budget=1_000_000
    )
    X = all_states(9)
    u = eval_pbf(m, X)
    p = np.exp(u - log_sum_exp(u))
    emp = np.bincount(pack_states(result.samples.states), minlength=512) / 100_000
    tv = tv_distance(emp, p)
    report(
        11,
        result.max_alpha <= 1 + 1e-12 and tv < 0.03,
        f"max alpha - 1 = {result.max_alpha - 1:.2e}, TV {tv:.4f} at 1e5 accepted "
        f"(rate {result.acceptance_rate:.3f})",
    )


def test_c12_determinism(tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"family": "ising", "rows": 3, "cols": 3, "params": [0.4]}))
    outputs = []
    for tag in ("a", "b"):
        norm_out = tmp_path / f"norm_{tag}.csv"
        sample_out = tmp_path / f"sample_{tag}.csv"
        assert (
            cli_main(
                ["norm", "--config", str(cfg), "--nu", "1,2,3", "--out", str(norm_out)]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "sample",
                    "--config",
                    str(cfg),
                    "--nu",
                    "2",
                    "--count",
                    "25",
                    "--seed",
                    "9",
                    "--out",
                    str(sample_out),
                ]
            )
            == 0
        )
        outputs.append((norm_out.read_bytes(), sample_out.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(12, ok, "norm and sample reruns byte-identical")
