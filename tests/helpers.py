"""Shared oracles for the test suite.

Everything here recomputes expectations through routes independent of the
code under test: energies by direct per-term products or straight from
the model family definitions (edge counts, clique class lookups), never
through the package's table transforms or the elimination engine.  The
exceptions are the byte-identity oracles at the end: earlier, simpler
implementations that a faster library routine must reproduce bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from pbmrf import (
    LatticeSpec,
    MarkovRandomField,
    NeighbourhoodSystem,
    PseudoBooleanFunction,
    interaction_set,
)
from pbmrf.elimination import _expit
from pbmrf.models import (
    build_2x2_rotinv,
    build_autologistic,
    build_higher_order,
    build_ising,
    clique_value_tables,
)
from pbmrf.pbf import DenseLocalFunction, evaluate_many, interactions_from_values
from pbmrf.pomm import SampleBatch
from pbmrf.rng import GIBBS_STREAM, POMM_STREAM, generator

_STATE_CACHE: dict[int, np.ndarray] = {}


def all_states(n: int) -> np.ndarray:
    """All 2^n binary states; row index in binary counting order."""
    if n not in _STATE_CACHE:
        _STATE_CACHE[n] = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(
            np.uint8
        )
    return _STATE_CACHE[n]


def eval_terms(terms: dict, states: np.ndarray) -> np.ndarray:
    """Direct monomial-by-monomial evaluation of a coefficient map."""
    out = np.zeros(states.shape[0])
    for key, b in terms.items():
        if b != 0.0:
            out += b * states[:, list(key)].all(axis=1)
    return out


def eval_pbf(f: PseudoBooleanFunction, states: np.ndarray) -> np.ndarray:
    return eval_terms(f.terms(), states)


def log_sum_exp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


def lattice_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((r * cols + c, r * cols + c + 1))
            if r + 1 < rows:
                edges.append((r * cols + c, (r + 1) * cols + c))
    return edges


def model_energy_direct(
    label: str, params, rows: int, cols: int, states: np.ndarray
) -> np.ndarray:
    """Energy from the family definition; no polynomial machinery."""
    out = np.zeros(states.shape[0])
    if label == "independence":
        return params[0] * states.sum(axis=1).astype(float)
    if label == "ising":
        theta = params[0]
        for i, j in lattice_edges(rows, cols):
            out += theta * (states[:, i] == states[:, j])
        return out
    if label == "autologistic":
        theta0, theta1 = params
        for i, j in lattice_edges(rows, cols):
            out += theta0 * (states[:, i] != states[:, j])
            out += theta1 * ((states[:, i] == 1) & (states[:, j] == 1))
        return out
    tables = clique_value_tables()
    if label == "higher_order":
        block = np.array([params[tables["block_full"][c]] for c in range(16)])
        cross = np.array([params[4 + tables["cross"][c]] for c in range(32)])
        for r in range(rows - 1):
            for c in range(cols - 1):
                cfg = (
                    states[:, r * cols + c]
                    + 2 * states[:, r * cols + c + 1]
                    + 4 * states[:, (r + 1) * cols + c]
                    + 8 * states[:, (r + 1) * cols + c + 1]
                ).astype(int)
                out += block[cfg]
        for r in range(1, rows - 1):
            for c in range(1, cols - 1):
                cfg = (
                    states[:, r * cols + c]
                    + 2 * states[:, (r - 1) * cols + c]
                    + 4 * states[:, r * cols + c + 1]
                    + 8 * states[:, (r + 1) * cols + c]
                    + 16 * states[:, r * cols + c - 1]
                ).astype(int)
                out += cross[cfg]
        return out
    if label == "rotinv2x2":
        pot = (0.0,) + tuple(params)
        table = np.array([pot[tables["block_rot"][c]] for c in range(16)])
        for r in range(rows - 1):
            for c in range(cols - 1):
                cfg = (
                    states[:, r * cols + c]
                    + 2 * states[:, r * cols + c + 1]
                    + 4 * states[:, (r + 1) * cols + c]
                    + 8 * states[:, (r + 1) * cols + c + 1]
                ).astype(int)
                out += table[cfg]
        return out
    raise ValueError(f"no direct oracle for family {label!r}")


def brute_log_c(model, rows: int, cols: int) -> float:
    states = all_states(model.n)
    return log_sum_exp(model_energy_direct(model.label, model.params, rows, cols, states))


def random_dense_pbf(
    rng: np.random.Generator,
    n: int,
    seeds: int = 6,
    max_deg: int = 4,
    scale: float = 1.0,
) -> PseudoBooleanFunction:
    """Random function whose dense family comes from a few random seed sets."""
    keys = {()}
    for _ in range(seeds):
        deg = int(rng.integers(1, min(max_deg, n) + 1))
        keys.add(tuple(sorted(rng.choice(n, size=deg, replace=False).tolist())))
    closure = PseudoBooleanFunction(n, {k: 1.0 for k in keys}, prune=False)
    terms = {k: scale * rng.normal() for k in closure.terms()}
    return PseudoBooleanFunction(n, terms, prune=False)


def random_dense_subfamily(rng: np.random.Generator, f: PseudoBooleanFunction):
    """A random dense subfamily of f's sets (possibly all of them)."""
    keep = set(f.terms())

    def removable():
        return [
            k
            for k in keep
            if k and not any(len(k2) > len(k) and set(k) < set(k2) for k2 in keep)
        ]

    n_drop = int(rng.integers(0, max(1, len(keep) // 2)))
    for _ in range(n_drop):
        options = sorted(removable())
        if not options:
            break
        keep.discard(options[int(rng.integers(len(options)))])
    return sorted(keep, key=lambda s: (len(s), s))


def brute_fstar(base, r, members):
    """max over x of |beta[base+r] + sum_l beta[base+r+l] x_l|, by enumeration."""
    beta = dict(members)
    withr = set(base) | {r}
    b0 = beta.get(tuple(sorted(withr)), 0.0)
    terms = [b for key, b in members if len(key) == len(withr) + 1 and withr <= set(key)]
    return max(
        abs(b0 + sum(b for b, x in zip(terms, xs) if x))
        for xs in itertools.product((0, 1), repeat=len(terms))
    )


def pack_states(states: np.ndarray) -> np.ndarray:
    """Row -> integer in the same binary counting order as all_states."""
    n = states.shape[1]
    return (states.astype(np.int64) * (1 << np.arange(n, dtype=np.int64))).sum(axis=1)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def random_test_model(rng: np.random.Generator, max_rows=4, max_cols=5):
    """(model, rows, cols) from the four lattice families, moderate strengths."""
    family = ["ising", "autologistic", "higher_order", "rotinv2x2"][
        int(rng.integers(4))
    ]
    if family == "higher_order":
        rows = int(rng.integers(3, max_rows + 1))
        cols = int(rng.integers(3, max_cols + 1))
    else:
        rows = int(rng.integers(2, max_rows + 1))
        cols = int(rng.integers(2, max_cols + 1))
    lat = LatticeSpec(rows, cols)
    if family == "ising":
        model = build_ising(lat, float(rng.uniform(-1.0, 1.0)))
    elif family == "autologistic":
        model = build_autologistic(
            lat, float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))
        )
    elif family == "higher_order":
        model = build_higher_order(lat, rng.uniform(-1.0, 1.0, size=10))
    else:
        model = build_2x2_rotinv(lat, rng.uniform(-1.0, 1.0, size=5))
    return model, rows, cols


def star_mrf(leaves: int) -> MarkovRandomField:
    """Hub 0 joined by a pair interaction to each of ``leaves`` leaves."""
    n = leaves + 1
    graph = NeighbourhoodSystem(n, (tuple(range(1, n)),) + ((0,),) * leaves)
    terms = {(0, k): 0.1 for k in range(1, n)}
    return MarkovRandomField(graph, PseudoBooleanFunction(n, terms), label="star")


def least_squares_project(
    f: PseudoBooleanFunction, family
) -> PseudoBooleanFunction:
    """Least-squares projection of f onto the given dense subfamily.

    Solves the normal equations (one per retained set) by dense linear
    algebra.  This is the size-capped oracle the closed-form operators are
    validated against.
    """
    if f.n > 15:
        raise ValueError(f"projection oracle is capped at n=15, got n={f.n}")
    keep = sorted({interaction_set(s) for s in family}, key=lambda s: (len(s), s))
    stored = set(f.terms())
    keepset = set(keep)
    for key in keep:
        if key not in stored:
            raise ValueError(f"family member {key} not represented in f")
        for k in range(len(key)):
            if key[:k] + key[k + 1 :] not in keepset:
                raise ValueError(f"family is not dense: subset of {key} missing")
    # A[a,b] = |Omega_{keep[a] ∪ keep[b]}|, rhs[a] = sum over Omega_{keep[a]} of f.
    size = len(keep)
    a_mat = np.empty((size, size))
    for ia, sa in enumerate(keep):
        seta = set(sa)
        for ib in range(ia, size):
            union = len(seta | set(keep[ib]))
            a_mat[ia, ib] = a_mat[ib, ia] = float(2 ** (f.n - union))
    rhs = np.zeros(size)
    terms = f.terms()
    for ia, sa in enumerate(keep):
        seta = set(sa)
        total = 0.0
        for key, b in terms.items():
            if b != 0.0:
                total += b * 2 ** (f.n - len(seta | set(key)))
        rhs[ia] = total
    solution = np.linalg.solve(a_mat, rhs)
    return PseudoBooleanFunction(f.n, dict(zip(keep, solution)))


def gibbs_site_by_site(mrf, sweeps, burn_in, thin, seed, chains=1) -> SampleBatch:
    """Reference for ``gibbs_sampler``: the systematic scan one site at a time.

    Each site's logit is summed from the energy's terms in term order,
    starting at 0.0, for every chain at once; the sites are visited in
    index order.  Consumes the same uniforms as the library sampler, so the
    two must agree bit for bit.
    """
    n = mrf.n
    site_terms: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in range(n)]
    for key, b in mrf.energy.terms().items():
        if b == 0.0:
            continue
        for k in key:
            site_terms[k].append((tuple(v for v in key if v != k), b))

    rng = generator(seed, GIBBS_STREAM)
    states = (rng.random((chains, n)) < 0.5).astype(np.uint8)
    snapshots: list[np.ndarray] = []
    for sweep in range(sweeps):
        uniforms = rng.random((n, chains))
        for k in range(n):
            h = np.zeros(chains)
            for others, b in site_terms[k]:
                if others:
                    h += b * states[:, others].prod(axis=1)
                else:
                    h += b
            states[:, k] = uniforms[k] < _expit(h)
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            snapshots.append(states.copy())
    stacked = np.stack(snapshots, axis=1).reshape(-1, n)
    return SampleBatch(
        seed=int(seed), states=stacked, log_densities=evaluate_many(mrf.energy, stacked)
    )


def _dep_rows_row_major(cond, states: np.ndarray) -> np.ndarray:
    """Table row per row of a (count, n) batch, one dependency bit at a time."""
    rows = np.zeros(states.shape[0], dtype=np.int64)
    for k, v in enumerate(cond.depends_on):
        rows |= states[:, v].astype(np.int64) << k
    return rows


def pomm_sample_one_shot(pomm, seed: int, count: int) -> SampleBatch:
    """Reference for ``pomm.sample``: one (count, n) uniform block, row-major.

    Column c of the block decides the c-th variable in sampling order
    (reverse elimination order), and each row's log density is summed in
    that order.
    """
    uniforms = generator(seed, POMM_STREAM).random((count, pomm.n))
    states = np.zeros((count, pomm.n), dtype=np.uint8)
    log_dens = np.zeros(count)
    with np.errstate(divide="ignore"):
        for col, cond in enumerate(reversed(pomm.conditionals)):
            p = cond.prob_one[_dep_rows_row_major(cond, states)]
            on = uniforms[:, col] < p
            states[:, cond.variable] = on
            log_dens += np.where(on, np.log(p), np.log1p(-p))
    return SampleBatch(seed=int(seed), states=states, log_densities=log_dens)


def pomm_log_density_row_major(pomm, states: np.ndarray) -> np.ndarray:
    """Reference for ``log_density_many``: summed in elimination order."""
    out = np.zeros(states.shape[0])
    with np.errstate(divide="ignore"):
        for cond in pomm.conditionals:
            p = cond.prob_one[_dep_rows_row_major(cond, states)]
            on = states[:, cond.variable].astype(bool)
            out += np.where(on, np.log(p), np.log1p(-p))
    return out


def pomm_log_density_polynomial_per_table(pomm) -> PseudoBooleanFunction:
    """Reference for ``pomm_log_density_polynomial``: one polynomial per table.

    Each conditional's log table goes through ``interactions_from_values``
    (closure and prune included) and the coefficient maps are summed.
    """
    total: dict = {}
    for cond in pomm.conditionals:
        p = cond.prob_one
        values = np.empty(2 * p.size)
        values[0::2] = np.log1p(-p)
        values[1::2] = np.log(p)
        local = DenseLocalFunction((cond.variable,) + cond.depends_on, values)
        for key, value in interactions_from_values(local, pomm.n).terms().items():
            total[key] = total.get(key, 0.0) + value
    return PseudoBooleanFunction(pomm.n, total)
