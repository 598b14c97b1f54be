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
    PseudoBooleanFunction,
    interaction_set,
)
from pbmrf.elimination import _expit
from pbmrf.models import (
    _BLOCK_FULL_CLASS,
    _BLOCK_ROT_CLASS,
    _CROSS_CLASS,
    build_2x2_rotinv,
    build_autologistic,
    build_higher_order,
    build_ising,
)
from pbmrf.pbf import moebius_transform, subset_keys
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


def sse(f: PseudoBooleanFunction, g: PseudoBooleanFunction) -> float:
    """Error sum of squares between two functions, over all 2^n states."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    states = all_states(f.n)
    diff = eval_pbf(f, states) - eval_pbf(g, states)
    return float(diff @ diff)


# -- lattice neighbourhoods -------------------------------------------------
#
# A family's neighbourhood as (dr, dc) offsets on a free-boundary lattice:
# its energy may hold a set only if every two of its nodes are neighbours.

FIRST_ORDER_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))
SECOND_ORDER_OFFSETS = FIRST_ORDER_OFFSETS + ((-1, -1), (-1, 1), (1, -1), (1, 1))
THIRD_ORDER_OFFSETS = SECOND_ORDER_OFFSETS + ((-2, 0), (2, 0), (0, -2), (0, 2))
FAMILY_OFFSETS = {
    "independence": (),
    "ising": FIRST_ORDER_OFFSETS,
    "autologistic": FIRST_ORDER_OFFSETS,
    "rotinv2x2": SECOND_ORDER_OFFSETS,
    "higher_order": THIRD_ORDER_OFFSETS,
}


def is_lattice_clique(nodes, cols: int, offsets) -> bool:
    """Every two of the row-major ``nodes`` lie one of ``offsets`` apart."""
    cells = [divmod(v, cols) for v in nodes]
    return all(
        (rb - ra, cb - ca) in offsets
        for k, (ra, ca) in enumerate(cells)
        for rb, cb in cells[k + 1 :]
    )


def clique_value_tables() -> dict[str, np.ndarray]:
    """The builders' configuration-class tables as arrays, for cross-checking."""
    return {
        "block_full": np.array(_BLOCK_FULL_CLASS),
        "cross": np.array(_CROSS_CLASS),
        "block_rot": np.array(_BLOCK_ROT_CLASS),
    }


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


def brute_log_c(family: str, params, rows: int, cols: int) -> float:
    """ln c of a lattice family by summing its direct energy over all states."""
    states = all_states(rows * cols)
    return log_sum_exp(model_energy_direct(family, params, rows, cols, states))


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
    """(energy, family, params, rows, cols) from the four lattice families.

    Moderate strengths; ``family`` and ``params`` feed the direct oracles.
    """
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
        params = (float(rng.uniform(-1.0, 1.0)),)
        model = build_ising(lat, *params)
    elif family == "autologistic":
        params = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
        model = build_autologistic(lat, *params)
    elif family == "higher_order":
        params = tuple(rng.uniform(-1.0, 1.0, size=10))
        model = build_higher_order(lat, params)
    else:
        params = tuple(rng.uniform(-1.0, 1.0, size=5))
        model = build_2x2_rotinv(lat, params)
    return model, family, params, rows, cols


def star_mrf(leaves: int) -> PseudoBooleanFunction:
    """Hub 0 joined by a pair interaction to each of ``leaves`` leaves."""
    n = leaves + 1
    return PseudoBooleanFunction(n, {(0, k): 0.1 for k in range(1, n)})


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


def gibbs_site_by_site(mrf, sweeps, burn_in, thin, seed, chains=1) -> np.ndarray:
    """Reference for ``gibbs_sampler``: the systematic scan one site at a time.

    Each site's logit is summed from the energy's terms in term order,
    starting at 0.0, for every chain at once; the sites are visited in
    index order.  Consumes the same uniforms as the library sampler, so the
    two must agree bit for bit.
    """
    n = mrf.n
    site_terms: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in range(n)]
    for key, b in mrf.terms().items():
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
    return np.stack(snapshots, axis=1).reshape(-1, n)


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
    return SampleBatch(states=states, log_densities=log_dens)


def pomm_log_density_row_major(pomm, states: np.ndarray) -> np.ndarray:
    """Reference for ``log_density_many``: summed in elimination order."""
    out = np.zeros(states.shape[0])
    with np.errstate(divide="ignore"):
        for cond in pomm.conditionals:
            p = cond.prob_one[_dep_rows_row_major(cond, states)]
            on = states[:, cond.variable].astype(bool)
            out += np.where(on, np.log(p), np.log1p(-p))
    return out


def expanded_energy(label: str, params, rows: int, cols: int) -> PseudoBooleanFunction:
    """A family's energy as the builders once expanded it, term order included.

    The first-order families by hand, edge by edge (or site by site); the
    clique families by a Moebius transform of the class table per clique,
    its nonzero coefficients accumulated in mask order.  Byte-identity
    oracle for the builders.
    """
    edges = lattice_edges(rows, cols)
    terms: dict = {(): 0.0}
    if label == "ising":
        theta = float(params[0])
        for i, j in edges:
            terms[()] += theta
            terms[(i,)] = terms.get((i,), 0.0) - theta
            terms[(j,)] = terms.get((j,), 0.0) - theta
            terms[(i, j)] = terms.get((i, j), 0.0) + 2.0 * theta
        return PseudoBooleanFunction(rows * cols, terms)
    if label == "independence":
        theta = float(params[0])
        return PseudoBooleanFunction(rows * cols, {(i,): theta for i in range(rows * cols)})
    if label == "autologistic":
        theta0, theta1 = float(params[0]), float(params[1])
        terms = {}
        for i, j in edges:
            terms[(i,)] = terms.get((i,), 0.0) + theta0
            terms[(j,)] = terms.get((j,), 0.0) + theta0
            terms[(i, j)] = terms.get((i, j), 0.0) + theta1 - 2.0 * theta0
        return PseudoBooleanFunction(rows * cols, terms)

    def accumulate(cells, values):
        for key, value in zip(subset_keys(cells), moebius_transform(values)):
            if value != 0.0:
                key = interaction_set(key)
                terms[key] = terms.get(key, 0.0) + value

    def at(r, c):
        return r * cols + c

    tables = clique_value_tables()
    if label == "higher_order":
        pot = tuple(float(p) for p in params)
        block = np.array([pot[tables["block_full"][cfg]] for cfg in range(16)])
        cross = np.array([pot[4 + tables["cross"][cfg]] for cfg in range(32)])
    elif label == "rotinv2x2":
        pot = (0.0,) + tuple(float(p) for p in params)
        block = np.array([pot[tables["block_rot"][cfg]] for cfg in range(16)])
        cross = None
    else:
        raise ValueError(f"no expansion for family {label!r}")
    for r in range(rows - 1):
        for c in range(cols - 1):
            accumulate((at(r, c), at(r, c + 1), at(r + 1, c), at(r + 1, c + 1)), block)
    if cross is not None:
        for r in range(1, rows - 1):
            for c in range(1, cols - 1):
                cells = (at(r, c), at(r - 1, c), at(r, c + 1), at(r + 1, c), at(r, c - 1))
                accumulate(cells, cross)
    return PseudoBooleanFunction(rows * cols, terms)


# -- the capped step's table kernels, as first written ------------------------
#
# Byte-identity oracles for pbmrf.approx and the engine's _squeeze: each
# fresh sum starts from a zero table, each monomial is a zero table of its
# own, and every piece's differences take one numpy call per term.


def sum_over_oracle(joint, factors, tail):
    """:func:`pbmrf.pbf._sum_over` as it first stood: every table broadcast over the joint."""
    total = np.zeros((2,) * len(joint) + tail)
    for scope, table, *_ in factors:
        total += table.reshape([2 if v in scope else 1 for v in reversed(joint)] + [*tail])
    return total.reshape((-1,) + tail)


def _halves(scope, table, v):
    k = scope.index(v)
    tail = table.shape[1:]
    halves = table.reshape((-1, 2, 1 << k) + tail)
    flat = (-1,) + tail
    return scope[:k] + scope[k + 1 :], halves[:, 0].reshape(flat), halves[:, 1].reshape(flat)


def merge_nested_oracle(factors):
    """Add each factor whose scope lies inside another's into the first such one."""
    merged = []
    for scope, table in sorted(factors, key=lambda f: len(f[0]), reverse=True):
        for k, (outer, _) in enumerate(merged):
            if set(scope).issubset(outer):
                tail = table.shape[1:]
                merged[k] = (outer, sum_over_oracle(outer, [merged[k], (scope, table)], tail))
                break
        else:
            merged.append((scope, table))
    return merged


def coefficient_pieces_oracle(i, factors, pairs, tail=()):
    """:func:`pbmrf.approx.coefficient_pieces` with a zero table per monomial."""
    factors = list(factors)
    for key, b in pairs:
        monomial = np.zeros((1 << len(key),) + tail)
        monomial[-1] = b
        factors.append((key, monomial))
    pieces, rest = [], []
    for scope, table in merge_nested_oracle(factors):
        scope, t0, t1 = _halves(scope, table, i)
        rest.append((scope, t0))
        pieces.append((scope, t1 - t0))
    return pieces, rest


def piece_differences_oracle(scope, table, slot):
    """A piece's (slots, b_ab twice then b_r), as :func:`fstar_scores` keeps them."""
    size = len(slot)
    tail = table.shape[1:]
    width = tail[0] if tail else 1
    m = len(scope)
    bits = np.left_shift(1, np.arange(m))
    a, b = np.triu_indices(m, 1)
    at = np.array([slot[v] for v in scope], dtype=np.intp)
    single = table[bits]
    order1 = single - table[0]
    order2 = (table[bits[a] | bits[b]] - single[b]) - order1[a]
    slots = np.concatenate((at[a] * size + at[b], at[b] * size + at[a], size * size + at))
    values = np.concatenate((order2, order2, order1))
    if tail:
        slots = (slots[:, None] * width + np.arange(width)).reshape(-1)
        values = values.reshape(-1)
    return slots, values


def fstar_scores_oracle(pieces, slot):
    """:func:`pbmrf.approx.fstar_scores` over ``(scope, table)`` pieces."""
    size = len(slot)
    tail = pieces[0][1].shape[1:]
    width = tail[0] if tail else 1
    diffs = [piece_differences_oracle(scope, table, slot) for scope, table in pieces]
    slots, values = map(np.concatenate, zip(*diffs))
    total = np.bincount(slots, values, size * (size + 1) * width)
    total = total.reshape((size + 1, size) + tail)
    order1, order2 = total[size], total[:size]
    up = order1 + np.maximum(order2, 0.0).sum(axis=0)
    down = order1 + np.minimum(order2, 0.0).sum(axis=0)
    return np.maximum(up, -down)


def soir_removal_updates_oracle(held, j):
    """:func:`pbmrf.approx.soir_removal_updates`, the residual by concatenation."""
    means, residuals = [], []
    for scope, table in held:
        rest, d0, d1 = _halves(scope, table, j)
        tail = table.shape[1:]
        means.append((rest, 0.5 * (d0 + d1)))
        quarter = (0.25 * (d1 - d0)).reshape((-1, 1, 1 << scope.index(j)) + tail)
        residuals.append((scope, np.concatenate((-quarter, quarter), 1).reshape((-1,) + tail)))
    return means, residuals


def squeeze_oracle(scope, table):
    """The engine's ``_squeeze`` of one member's table (no batch axis)."""
    m = len(scope)
    bits = np.left_shift(1, np.arange(m))
    every = np.arange(1 << m)
    clear = np.array([every[every & bit == 0] for bit in bits], dtype=int)
    clear = clear.reshape(m, len(every) // 2)
    flat = (table[clear] == table[clear + bits[:, None]]).all(axis=1)
    if not np.count_nonzero(flat):
        return scope, table
    at = tuple(0 if f else slice(None) for f in flat[::-1])
    kept = tuple(v for v, f in zip(scope, flat) if not f)
    return kept, table.reshape((2,) * m)[at].reshape(-1)


def prune_dead_oracle(beta, keep) -> None:
    """:func:`pbmrf.pbf.prune_dead` without its early return: always the full walk."""
    needed = set()
    for key in sorted(beta, key=len, reverse=True):
        if not key:
            continue
        if key in needed or keep(beta[key]):
            for k in range(len(key)):
                needed.add(key[:k] + key[k + 1 :])
        else:
            del beta[key]
