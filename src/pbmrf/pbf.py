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
transform) and :func:`subset_keys` with :func:`moebius_transform`
(values back to coefficients).  :func:`table_rows` reads a table at given
states, with the same bit convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DENSE_TABLE_CAP",
    "TERMS_TABLE_CAP",
    "PRUNE_TOL",
    "InteractionSet",
    "ResourceCapError",
    "interaction_set",
    "DenseLocalFunction",
    "PseudoBooleanFunction",
    "evaluate",
    "evaluate_many",
    "values_from_interactions",
    "interactions_from_values",
    "tabulate",
    "subset_keys",
    "table_rows",
    "add_scaled",
    "scale",
    "extract_subset_family",
    "to_json",
    "from_json",
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


def interaction_set(indices) -> InteractionSet:
    """Canonicalise ``indices`` into a strictly increasing tuple.

    Raises ValueError on duplicates or negative indices.
    """
    t = tuple(sorted(indices))
    if any(i < 0 for i in t):
        raise ValueError(f"negative variable index in {t}")
    if any(t[k] == t[k + 1] for k in range(len(t) - 1)):
        raise ValueError(f"duplicate variable index in {t}")
    return t


def _check_table_size(m: int, context: str) -> None:
    if m > DENSE_TABLE_CAP:
        raise ResourceCapError(
            f"{context}: table over {m} variables needs 2^{m} entries, "
            f"cap is 2^{DENSE_TABLE_CAP}"
        )


def zeta_transform(weights: np.ndarray) -> np.ndarray:
    """Subset sums over the Boolean lattice.

    ``out[mask] = sum of weights[sub] over sub subseteq mask`` where bit k
    of the index is the value of the k-th variable.  In place over a copy,
    O(m 2^m).
    """
    v = np.array(weights, dtype=float)
    size = v.size
    if size & (size - 1):
        raise ValueError(f"table length {size} is not a power of two")
    step = 1
    while step < size:
        v = v.reshape(-1, 2 * step)
        v[:, step:] += v[:, :step]
        step *= 2
    return v.reshape(size)


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


@dataclass(frozen=True)
class DenseLocalFunction:
    """All 2^m values of a function of m listed binary variables.

    ``values[idx]`` is the function value at the assignment where bit k of
    ``idx`` gives the value of ``variables[k]``.  The bit convention is
    fixed so serialized tables are portable.
    """

    variables: tuple[int, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        variables = tuple(int(v) for v in self.variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variables in {variables}")
        m = len(variables)
        _check_table_size(m, "DenseLocalFunction")
        values = np.asarray(self.values, dtype=float).reshape(-1).copy()
        if values.size != 1 << m:
            raise ValueError(
                f"table for {m} variables needs {1 << m} values, got {values.size}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return len(self.variables)


class PseudoBooleanFunction:
    """A pseudo-Boolean function on a dense interaction family.

    Immutable after construction; safe to read from many threads.  The
    constructor takes any mapping/iterable of ``(indices, beta)`` pairs,
    adds the subset closure, and prunes negligible leaf coefficients.

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
            beta[key] = beta.get(key, 0.0) + float(value)
        close_subsets(beta, beta)
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

    def variables(self) -> list[int]:
        """Sorted indices actually mentioned by some stored set."""
        seen: set[int] = set()
        for key in self._beta:
            seen.update(key)
        return sorted(seen)

    def degree(self) -> int:
        return max((len(k) for k in self._beta), default=0)

    def __len__(self) -> int:
        return len(self._beta)

    def __repr__(self) -> str:
        return f"PseudoBooleanFunction(n={self.n}, sets={len(self._beta)})"


def close_subsets(beta: dict[InteractionSet, float], keys) -> list[InteractionSet]:
    """Insert every missing subset of ``keys`` into ``beta`` at zero.

    Returns the inserted sets, in insertion order.
    """
    added: list[InteractionSet] = []
    stack = list(keys)
    while stack:
        key = stack.pop()
        for k in range(len(key)):
            sub = key[:k] + key[k + 1 :]
            if sub not in beta:
                beta[sub] = 0.0
                added.append(sub)
                stack.append(sub)
    return added


def prune_dead(beta: dict[InteractionSet, float], keep) -> list[InteractionSet]:
    """Drop sets whose coefficient fails ``keep`` and that no kept set needs.

    Processing by decreasing size keeps the family dense: a set is kept
    whenever a kept superset needs it.  The constant term always stays.
    Returns the dropped sets.
    """
    needed: set[InteractionSet] = set()
    dropped: list[InteractionSet] = []
    for key in sorted(beta, key=len, reverse=True):
        if not key:
            continue
        if key in needed or keep(beta[key]):
            for k in range(len(key)):
                needed.add(key[:k] + key[k + 1 :])
        else:
            del beta[key]
            dropped.append(key)
    return dropped


# -- evaluation and transforms -----------------------------------------


def evaluate(f: PseudoBooleanFunction, x) -> float:
    """Evaluate f at a single binary vector of length n."""
    x = np.asarray(x)
    if x.shape != (f.n,):
        raise ValueError(f"state has shape {x.shape}, expected ({f.n},)")
    return float(evaluate_many(f, x.reshape(1, -1))[0])


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


def values_from_interactions(
    f: PseudoBooleanFunction, variables=None
) -> DenseLocalFunction:
    """Tabulate f over all assignments of the listed variables.

    ``variables`` defaults to the variables f actually mentions.  It is an
    error for f to mention a variable not listed.
    """
    mentioned = f.variables()
    if variables is None:
        variables = mentioned
    variables = tuple(int(v) for v in variables)
    listed = set(variables)
    if len(listed) != len(variables):
        raise ValueError(f"duplicate variables in {variables}")
    missing = [v for v in mentioned if v not in listed]
    if missing:
        raise ValueError(f"function mentions unlisted variables {missing}")
    values = tabulate(f._beta.items(), variables, "values_from_interactions")
    return DenseLocalFunction(variables, values)


def tabulate(pairs, variables, context: str) -> np.ndarray:
    """Values of sum of beta * prod_{k in L} x_k over ``(L, beta)`` pairs.

    Entry ``mask`` is the value at the assignment where bit k gives the
    value of ``variables[k]``; variables of L that are not listed count as
    fixed at 1.  Raises ResourceCapError, prefixed by ``context``, when the
    table would exceed the dense cap.
    """
    _check_table_size(len(variables), context)
    bit = {v: 1 << k for k, v in enumerate(variables)}
    weights = np.zeros(1 << len(variables))
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


def table_rows(values: np.ndarray, variables):
    """Table entry of each assignment, bit k the value of ``variables[k]``.

    ``values[v]`` is variable v's 0/1 value in one state of shape (n,), or
    its row in a column-major (n, count) batch: one entry per column.
    """
    bits = np.left_shift(1, np.arange(len(variables), dtype=np.int64))
    return bits @ values[list(variables)].astype(np.int64)


def interactions_from_values(
    table: DenseLocalFunction, n: int | None = None
) -> PseudoBooleanFunction:
    """The unique coefficient set reproducing every table entry.

    Inverse of :func:`values_from_interactions`.  ``n`` defaults to one
    past the largest listed variable.  Raises ResourceCapError for tables
    over more than TERMS_TABLE_CAP variables.
    """
    variables = table.variables
    if n is None:
        n = max(variables) + 1 if variables else 0
    terms = _table_terms(table.values, variables, "interactions_from_values")
    return PseudoBooleanFunction(n, terms)


def _table_terms(values, variables, context: str) -> dict[InteractionSet, float]:
    """Moebius coefficient of each subset of ``variables``, keyed in mask order.

    Keys are sorted interaction sets; a -0.0 coefficient is stored as 0.0.
    Raises ResourceCapError, prefixed by ``context``, for tables over more
    than TERMS_TABLE_CAP variables.
    """
    if len(variables) > TERMS_TABLE_CAP:
        raise ResourceCapError(
            f"{context}: table over {len(variables)} variables "
            f"would become 2^{len(variables)} terms, cap is 2^{TERMS_TABLE_CAP}"
        )
    coeffs = moebius_transform(values).tolist()
    return {tuple(sorted(k)): 0.0 + c for k, c in zip(subset_keys(variables), coeffs)}


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


def from_json(text: str) -> PseudoBooleanFunction:
    doc = json.loads(text)
    terms = {tuple(entry["set"]): float(entry["beta"]) for entry in doc["terms"]}
    return PseudoBooleanFunction(int(doc["n"]), terms, prune=False)
