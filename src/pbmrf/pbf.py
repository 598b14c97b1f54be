"""Sparse pseudo-Boolean polynomials on dense interaction families.

A pseudo-Boolean function f: {0,1}^n -> R is stored as a multilinear
polynomial

    f(x) = sum over interaction sets L of  beta[L] * prod_{k in L} x_k,

where each interaction set L is a strictly increasing tuple of variable
indices.  The family S of stored sets is always *dense*: whenever L is
stored, every subset of L is stored too (possibly with a zero
coefficient).  Density is what makes the closed-form approximation
operators in :mod:`pbmrf.approx` valid, so every constructor and
operation in this module preserves it.

Every conversion between coefficients and values goes through one
table kernel: :func:`tabulate` (coefficients to values by zeta
transform) and :func:`moebius_transform` (values back to coefficients,
which ``_add_table_terms`` adds into a coefficient map under the
:func:`subset_keys` sets, as the model builders add their clique tables).
:func:`table_rows` reads a table at given states, with the same bit
convention, and so do the factor-table primitives (sum of factors over a
joint scope, the two halves of a table along one variable, entry masks)
that the removal kernels of :mod:`pbmrf.approx` and the elimination
engine share.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "DENSE_TABLE_CAP",
    "TERMS_TABLE_CAP",
    "PRUNE_TOL",
    "InteractionSet",
    "ResourceCapError",
    "interaction_set",
    "PseudoBooleanFunction",
    "evaluate",
    "evaluate_many",
    "interactions_from_values",
    "tabulate",
    "subset_keys",
    "table_rows",
    "add_scaled",
    "scale",
    "extract_subset_family",
    "to_json",
    "zeta_transform",
    "moebius_transform",
]

# Largest m for which a dense 2^m value table may be materialised.
DENSE_TABLE_CAP = 25

# Largest m for which a 2^m value table may be turned into coefficient
# terms.  Each entry becomes a Python dict entry, which costs far more
# memory and time than the numpy table DENSE_TABLE_CAP bounds.
TERMS_TABLE_CAP = 20

# Coefficients below this magnitude are dropped when no superset survives.
PRUNE_TOL = 1e-12

# An interaction set: strictly increasing tuple of 0-based variable indices.
# The empty tuple is the constant term.
InteractionSet = tuple[int, ...]


class ResourceCapError(RuntimeError):
    """An operation would materialise a table beyond its size cap."""


def as_int(name: str, value) -> int:
    """The setting ``name`` as an int: integral numbers and digit strings pass.

    A boolean, or a number with a fractional part, raises ValueError.
    """
    try:
        number = int(value)
        if isinstance(value, (bool, np.bool_)) or (not isinstance(value, str) and number != value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    return number


def as_table_cap(value) -> int:
    """A bound canonicalisation cap: an integer from 0 to DENSE_TABLE_CAP.

    A boolean or fraction, or a negative cap, raises ValueError naming
    ``table_cap``; a cap past DENSE_TABLE_CAP raises ResourceCapError.
    """
    cap = as_int("table_cap", value)
    if cap < 0:
        raise ValueError(f"table_cap must be >= 0, got {cap}")
    if cap > DENSE_TABLE_CAP:
        raise ResourceCapError(f"table_cap {cap} exceeds the dense-table cap {DENSE_TABLE_CAP}")
    return cap


def interaction_set(indices) -> InteractionSet:
    """Canonicalise ``indices`` into a strictly increasing tuple.

    Raises ValueError on duplicates or negative indices.
    """
    t = tuple(sorted(indices))
    if t and t[0] < 0:
        raise ValueError(f"negative variable index in {t}")
    if len(set(t)) < len(t):
        raise ValueError(f"duplicate variable index in {t}")
    return t


def _check_table_size(m: int, context: str) -> None:
    if m > DENSE_TABLE_CAP:
        raise ResourceCapError(
            f"{context}: table over {m} variables needs 2^{m} entries, "
            f"cap is 2^{DENSE_TABLE_CAP}"
        )


def _allocate(shape, dtype, context: str) -> np.ndarray:
    """``np.empty(shape, dtype)``; a size numpy refuses raises ValueError naming ``context``."""
    try:
        return np.empty(shape, dtype=dtype)
    except ValueError as exc:
        raise ValueError(f"{context}: {exc}") from None


def _check_terms_size(m: int, context: str) -> None:
    if m > TERMS_TABLE_CAP:
        raise ResourceCapError(
            f"{context}: table over {m} variables would become 2^{m} terms, "
            f"cap is 2^{TERMS_TABLE_CAP}"
        )


def zeta_transform(weights: np.ndarray) -> np.ndarray:
    """Subset sums over the Boolean lattice.

    ``out[mask] = sum of weights[sub] over sub subseteq mask`` where bit k
    of the index is the value of the k-th variable.  In place over a copy,
    O(m 2^m).  Trailing axes (one per member of a batch of tables) ride
    along: the transform runs over the first axis.
    """
    v = np.array(weights, dtype=float)
    shape = v.shape
    size, tail = len(v), shape[1:]
    if size & (size - 1):
        raise ValueError(f"table length {size} is not a power of two")
    step = 1
    while step < size:
        v = v.reshape((-1, 2 * step) + tail)
        v[:, step:] += v[:, :step]
        step *= 2
    return v.reshape(shape)


def moebius_transform(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zeta_transform`.

    Recovers the unique interaction coefficients reproducing ``values``:
    ``out[mask] = sum over sub subseteq mask of (-1)^(|mask|-|sub|) values[sub]``.
    """
    v = np.array(values, dtype=float)
    size = v.size
    if size & (size - 1):
        raise ValueError(f"table length {size} is not a power of two")
    step = 1
    while step < size:
        v = v.reshape(-1, 2 * step)
        v[:, step:] -= v[:, :step]
        step *= 2
    return v.reshape(size)


class PseudoBooleanFunction:
    """A pseudo-Boolean function on a dense interaction family.

    Immutable after construction; safe to read from many threads.  The
    constructor takes any mapping/iterable of ``(indices, beta)`` pairs,
    adds the subset closure, and prunes negligible leaf coefficients.  A
    coefficient that is not finite raises ValueError naming its set.

    Attributes:
        n: number of binary variables (indices run 0..n-1).
    """

    __slots__ = ("n", "_beta")

    def __init__(self, n: int, terms=None, *, prune: bool = True):
        if n < 0:
            raise ValueError(f"variable count must be >= 0, got {n}")
        self.n = int(n)
        beta: dict[InteractionSet, float] = {}
        items = terms.items() if hasattr(terms, "items") else (terms or ())
        for raw, value in items:
            key = interaction_set(raw)
            if key and key[-1] >= self.n:
                raise ValueError(f"interaction {key} out of range for n={self.n}")
            total = beta.get(key, 0.0) + float(value)
            if not math.isfinite(total):  # NaN would pass the prune as negligible
                raise ValueError(f"coefficient of {key} must be finite, got {total}")
            beta[key] = total
        close_subsets(beta)
        beta.setdefault((), 0.0)
        if prune:
            prune_dead(beta, lambda b: abs(b) >= PRUNE_TOL)
        self._beta = beta

    # -- queries ---------------------------------------------------------

    def beta(self, indices) -> float:
        """Coefficient of the given interaction set (0.0 if absent)."""
        return self._beta.get(interaction_set(indices), 0.0)

    def __contains__(self, indices) -> bool:
        return interaction_set(indices) in self._beta

    def terms(self) -> dict[InteractionSet, float]:
        """A copy of the coefficient map (includes closure zeros)."""
        return dict(self._beta)

    def interaction_sets(self) -> list[InteractionSet]:
        """All stored sets, sorted by (size, lexicographic)."""
        return sorted(self._beta, key=lambda s: (len(s), s))

    def __len__(self) -> int:
        return len(self._beta)

    def __repr__(self) -> str:
        return f"PseudoBooleanFunction(n={self.n}, sets={len(self._beta)})"


def close_subsets(beta: dict[InteractionSet, float]) -> None:
    """Insert every missing subset of ``beta``'s sets into it at zero."""
    stack = list(beta)
    while stack:
        key = stack.pop()
        for k in range(len(key)):
            sub = key[:k] + key[k + 1 :]
            if sub not in beta:
                beta[sub] = 0.0
                stack.append(sub)


def prune_dead(beta: dict[InteractionSet, float], keep) -> None:
    """Drop sets whose coefficient fails ``keep`` and that no kept set needs.

    Processing by decreasing size keeps the family dense: a set is kept
    whenever a kept superset needs it.  The constant term always stays.
    When every coefficient passes ``keep`` nothing is dropped, and the walk
    is skipped.
    """
    if all(map(keep, beta.values())):
        return
    needed: set[InteractionSet] = set()
    for key in sorted(beta, key=len, reverse=True):
        if not key:
            continue
        if key in needed or keep(beta[key]):
            for k in range(len(key)):
                needed.add(key[:k] + key[k + 1 :])
        else:
            del beta[key]


# -- evaluation and transforms -----------------------------------------


def evaluate(f: PseudoBooleanFunction, x) -> float:
    """Evaluate f at a single binary vector of length n.

    A plain Python sum over the nonzero coefficients in dict order, with
    no numpy call per set: the same float additions from 0.0 as
    :func:`evaluate_many` makes for one row, so the same bits.
    """
    x = np.asarray(x)
    if x.shape != (f.n,):
        raise ValueError(f"state has shape {x.shape}, expected ({f.n},)")
    values = x.tolist()
    total = 0.0
    for key, b in f._beta.items():
        if b != 0.0:
            total += b * math.prod(map(values.__getitem__, key))
    return total


def evaluate_many(f: PseudoBooleanFunction, states: np.ndarray) -> np.ndarray:
    """Evaluate f at each row of a (count, n) 0/1 array."""
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[1] != f.n:
        raise ValueError(f"states have shape {states.shape}, expected (*, {f.n})")
    out = np.zeros(states.shape[0])
    for key, b in f._beta.items():
        if b == 0.0:
            continue
        if key:
            out += b * states[:, key].prod(axis=1)
        else:
            out += b
    return out


def tabulate(pairs, variables, context: str, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Values of sum of beta * prod_{k in L} x_k over ``(L, beta)`` pairs.

    Entry ``mask`` is the value at the assignment where bit k gives the
    value of ``variables[k]``; variables of L that are not listed count as
    fixed at 1.  Each beta has shape ``batch``: ``(B,)`` tabulates B
    functions at once, into a (2^m, B) table.  Raises ResourceCapError,
    prefixed by ``context``, when the table would exceed the dense cap.
    """
    _check_table_size(len(variables), context)
    bit = {v: 1 << k for k, v in enumerate(variables)}
    weights = np.zeros((1 << len(variables), *batch))
    for key, b in pairs:
        mask = 0
        for v in key:
            mask |= bit.get(v, 0)
        weights[mask] += b
    return zeta_transform(weights)


def subset_keys(variables) -> list[tuple[int, ...]]:
    """The subset of ``variables`` selected by each mask, in mask order.

    Entry ``mask`` holds ``variables[k]`` for every set bit k, in list
    order, so a sorted list yields canonical interaction sets.
    """
    keys: list[tuple[int, ...]] = [()]
    for v in variables:
        keys += [key + (v,) for key in keys]
    return keys


def _add_table_terms(terms: dict[InteractionSet, float], cells, coeffs) -> None:
    """Add a coefficient table over ``cells`` into the coefficient map ``terms``.

    Entry ``mask`` of ``coeffs`` is the coefficient of the subset of
    ``cells`` that :func:`subset_keys` lists at ``mask``.  Each nonzero entry
    is added, in mask order, under its canonical (sorted) key; a key new to
    the map goes after the keys already there.
    """
    get = terms.get
    for key, c in zip(subset_keys(cells), coeffs):
        if c != 0.0:
            if len(key) > 1:  # a set of one variable or none is canonical already
                key = tuple(sorted(key))
            terms[key] = get(key, 0.0) + c


@functools.cache
def _row_weights(k: int) -> np.ndarray:
    """2^j for j < k, in the narrowest unsigned dtype that holds k + 1 bits.

    The spare bit lets a caller append one more bit to a row index in
    place (``rows <<= 1; rows |= x``) without widening it.
    """
    weights = np.left_shift(1, np.arange(k)).astype(np.min_scalar_type((2 << k) - 1))
    weights.setflags(write=False)
    return weights


def table_rows(values: np.ndarray, variables):
    """Table entry of each assignment, bit k the value of ``variables[k]``.

    ``values[v]`` is variable v's 0/1 value in one state of shape (n,), or
    its row in a column-major (n, count) batch: one entry per column.  For
    0/1 uint8 values the entries come in the narrowest unsigned dtype that
    holds one bit more than ``len(variables)``.
    """
    picked = values.take(variables, axis=0)
    return np.einsum("k,k...->...", _row_weights(len(variables)), picked)


# -- factor tables ---------------------------------------------------------

# A dense factor: a sorted scope and its 2^m values, entry ``mask`` the value
# where bit k gives ``scope[k]`` (the :func:`tabulate` convention).  A batch
# of B members keeps one (2^m, B) table per factor, the members on the last
# axis; a run of one keeps the flat (2^m,) table.
_Factor = tuple[tuple[int, ...], np.ndarray]


def _split(scope: tuple[int, ...], table: np.ndarray, v: int):
    """(scope without v, the table at x_v = 0, the table at x_v = 1)."""
    k = scope.index(v)
    tail = table.shape[1:]
    halves = table.reshape((-1, 2, 1 << k) + tail)
    flat = (-1,) + tail
    return scope[:k] + scope[k + 1 :], halves[:, 0].reshape(flat), halves[:, 1].reshape(flat)


@functools.cache
def _masks(m: int) -> tuple[np.ndarray, ...]:
    """Entry masks of a table t over m variables: (rows, p, q, halves).

    Column c of the (4, L) ``rows`` reads (t[r0] - t[r2]) - (t[r1] - t[r3]),
    a difference of a Moebius transform: for each pair a < b, rows
    e_a + e_b, e_a, e_b and 0 give b_ab, once at (p, q) = (a, b) and once
    at (b, a); then per k, rows e_k, 0, 0 and 0 give b_k (exactly, for
    finite t) at (m, k).  ``halves[0, k]`` holds the masks with bit k
    clear and ``halves[1, k]`` the same with bit k set.
    """
    bits = np.left_shift(1, np.arange(m))
    a, b = np.triu_indices(m, 1)
    pairs = np.tile((bits[a] | bits[b], bits[a], bits[b], 0 * a), 2)
    rows = np.concatenate((pairs, [bits, *[0 * bits] * 3]), 1)
    p = np.concatenate((a, b, np.full(m, m)))
    q = np.concatenate((b, a, np.arange(m)))
    every = np.arange(1 << m)
    clear = np.array([every[every & bit == 0] for bit in bits], dtype=int)
    clear = clear.reshape(m, len(every) // 2)
    return rows, p, q, np.stack((clear, clear + bits[:, None]))


# The sum kernel caches an index of at most 2^_GATHER_WIDTH entries per
# (width, mask) it meets, and the others index a capped step's tables, over
# at most nu + 1 (or table_cap + 1) variables.  A lattice model meets few
# such shapes: each cache holds at most this many.
_INDEX_CACHE = 1 << 10

# The widest joint whose flat tables :func:`_sum_over` gathers through
# cached :func:`_lift` indices (32 KiB each); a wider joint, or tables with
# a member axis, where a gather copies one member row per index, broadcast.
_GATHER_WIDTH = 12


@functools.lru_cache(maxsize=_INDEX_CACHE)
def _entries(m: int, mask: int, bits: int) -> np.ndarray:
    """The entries of a table over m variables whose bits at ``mask`` are ``bits``, in order."""
    every = np.arange(1 << m)
    return every[every & mask == bits]


@functools.lru_cache(maxsize=_INDEX_CACHE)
def _lift(m: int, mask: int) -> np.ndarray:
    """Per entry of a table over m variables, the entry of a factor over the ``mask`` variables.

    Bit k of the factor's entry is the k-th set bit of ``mask`` in the
    table's entry, so the factor's table indexed by this reads as the
    factor over all m variables.
    """
    every = np.arange(1 << m)
    lifted = np.zeros(1 << m, dtype=np.intp)
    for k, bit in enumerate(b for b in range(m) if mask >> b & 1):
        lifted |= (every >> bit & 1) << k
    return lifted


def _sum_over(joint, factors, tail: tuple[int, ...]) -> np.ndarray:
    """The sum of factors whose scopes lie in ``joint``, as a flat table over it.

    Tables are flat over their scopes, then ``tail``: () in a run of one,
    (B,) in a batch.  Each factor is added in turn into a zero table, read
    as a table over the joint either through :func:`_lift`'s entries or
    broadcast over the joint's axes (C order puts the last variable of a
    scope on axis 0), so both ways give the same bits.  Flat tables over
    at most _GATHER_WIDTH variables take the gather, which costs a
    fraction of a many-axis broadcast; the broadcast needs no index, so it
    serves tables up to the dense cap.
    """
    m = len(joint)
    if not tail and m <= _GATHER_WIDTH:
        bits = {v: 1 << k for k, v in enumerate(joint)}
        total = np.zeros(1 << m)
        for scope, table, *_ in factors:
            total += table[_lift(m, sum(map(bits.__getitem__, scope)))]
        return total
    total = np.zeros((2,) * m + tail)
    members = [*tail]
    for scope, table, *_ in factors:
        total += table.reshape([2 if v in scope else 1 for v in reversed(joint)] + members)
    return total.reshape((-1,) + tail)


def interactions_from_values(variables, values, n: int | None = None) -> PseudoBooleanFunction:
    """The unique coefficient set reproducing every entry of a value table.

    ``values[mask]`` is the value at the assignment where bit k gives the
    value of ``variables[k]``, as :func:`tabulate` lays it out.  ``n``
    defaults to one past the largest listed variable.  Duplicate variables,
    or other than 2^m values for m variables, raise ValueError; a table
    over more than TERMS_TABLE_CAP variables raises ResourceCapError.
    """
    variables = tuple(int(v) for v in variables)
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variables in {variables}")
    _check_terms_size(len(variables), "interactions_from_values")
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size != 1 << len(variables):
        raise ValueError(
            f"table for {len(variables)} variables needs {1 << len(variables)} values, "
            f"got {values.size}"
        )
    if n is None:
        n = max(variables) + 1 if variables else 0
    terms: dict[InteractionSet, float] = {}
    _add_table_terms(terms, variables, moebius_transform(values).tolist())
    return PseudoBooleanFunction(n, terms)


def add_scaled(
    f: PseudoBooleanFunction, g: PseudoBooleanFunction, a: float, b: float
) -> PseudoBooleanFunction:
    """The function a*f + b*g on the dense closure of both families."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    terms = {key: a * value for key, value in f._beta.items()}
    for key, value in g._beta.items():
        terms[key] = terms.get(key, 0.0) + b * value
    return PseudoBooleanFunction(f.n, terms)


def scale(f: PseudoBooleanFunction, a: float) -> PseudoBooleanFunction:
    """The function a*f."""
    return PseudoBooleanFunction(f.n, {k: a * v for k, v in f._beta.items()})


def extract_subset_family(
    f: PseudoBooleanFunction, lam, mode: str
) -> list[tuple[InteractionSet, float]]:
    """Subset-family query on the stored sets.

    mode "containing" returns {L in S : lam subseteq L}; "complement"
    returns S minus that family; "disjoint" returns {L in S : lam and L
    share no index}.  Pairs come back sorted by (size, lexicographic).
    """
    lamset = set(interaction_set(lam))
    if mode == "containing":
        keys = [k for k in f._beta if lamset.issubset(k)]
    elif mode == "complement":
        keys = [k for k in f._beta if not lamset.issubset(k)]
    elif mode == "disjoint":
        keys = [k for k in f._beta if lamset.isdisjoint(k)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return [(k, f._beta[k]) for k in sorted(keys, key=lambda s: (len(s), s))]


# -- serialization -------------------------------------------------------


def _fmt(x: float) -> str:
    """Reals printed with 17 significant digits (round-trip safe)."""
    return f"{float(x):.17g}"


def to_json(f: PseudoBooleanFunction) -> str:
    """Serialize with terms sorted by (size, lexicographic indices)."""
    parts = [f'{{"n": {f.n}, "terms": [']
    rows = []
    for key in f.interaction_sets():
        rows.append(f'{{"set": {list(key)}, "beta": {_fmt(f._beta[key])}}}')
    parts.append(", ".join(rows))
    parts.append("]}")
    return "".join(parts)
