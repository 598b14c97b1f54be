"""Least-squares approximation and bounding of pseudo-Boolean functions.

Removing interactions from a dense family and re-fitting the remaining
coefficients by least squares has closed-form solutions in two important
cases: removing a single maximal interaction, and removing every
interaction containing a given variable pair (second-order interaction
removal, SOIR).  Both are implemented here as coefficient updates.

The module also builds one-sided bounds: a function f can be replaced by
f_U >= f (or f_L <= f) carrying no interaction over a chosen pair {i,j},
by clamping the pair's interaction sum through a max/min with zero.
Canonicalising the clamp needs a dense table over the extra variables it
mentions; when that table would be too large the sum is split on a pivot
variable and each part is bounded separately, recursively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .pbf import (
    DENSE_TABLE_CAP,
    InteractionSet,
    PseudoBooleanFunction,
    ResourceCapError,
    extract_subset_family,
    interaction_set,
    moebius_transform,
    subset_keys,
    tabulate,
    values_from_interactions,
)

__all__ = [
    "BoundDirection",
    "ApproximationReport",
    "remove_single_interaction",
    "soir",
    "sse",
    "bound_remove_pair",
    "fstar_scores",
    "fstar_choice",
]

BoundDirection = Literal["upper", "lower"]


@dataclass(frozen=True)
class ApproximationReport:
    """What an approximation step removed and what it cost.

    ``sse`` is the error sum of squares over all 2^n states, or None when
    computing it would need a table beyond the dense cap.  ``partner`` is
    the second variable of a pair removal, when one was chosen.
    """

    removed: tuple[InteractionSet, ...]
    sse: float | None
    partner: int | None = None

    def to_json(self) -> str:
        removed = ", ".join(str(list(k)) for k in self.removed)
        sse = "null" if self.sse is None else f"{self.sse:.17g}"
        partner = "null" if self.partner is None else str(self.partner)
        return f'{{"removed": [{removed}], "sse": {sse}, "partner": {partner}}}'


# -- pair-removal kernels on coefficient maps -----------------------------


def soir_removal_updates(
    pair_sets: list[tuple[InteractionSet, float]], i: int, j: int
) -> dict[InteractionSet, float]:
    """Coefficient deltas that least-squares-remove all sets containing {i,j}.

    For each removed set L the three subsets L\\{i,j}, L\\{i}, L\\{j} pick up
    -beta/4, +beta/2 and +beta/2 respectively; every other coefficient is
    untouched.  The caller deletes the removed sets and applies the deltas.
    """
    updates: dict[InteractionSet, float] = {}

    def bump(key: InteractionSet, delta: float) -> None:
        updates[key] = updates.get(key, 0.0) + delta

    for key, b in pair_sets:
        if b == 0.0:
            continue
        without_i = tuple(v for v in key if v != i)
        without_j = tuple(v for v in key if v != j)
        without_ij = tuple(v for v in without_i if v != j)
        bump(without_ij, -0.25 * b)
        bump(without_i, 0.5 * b)
        bump(without_j, 0.5 * b)
    return updates


def soir_sse(
    pair_sets: list[tuple[InteractionSet, float]], i: int, j: int, n: int
) -> float | None:
    """Closed-form SOIR error sum of squares, None when the table is too big.

    The pointwise error has constant magnitude |inner|/4, where inner is the
    pair's interaction sum at x_i = x_j = 1, so the SSE over all 2^n states
    collapses to a sum over the extra-variable assignments.
    """
    extras = sorted({v for key, _ in pair_sets for v in key if v != i and v != j})
    if len(extras) > DENSE_TABLE_CAP:
        return None
    inner = tabulate(pair_sets, extras, f"pair ({i},{j})")
    return 0.25 * float(2 ** (n - 2 - len(extras))) * float(np.sum(inner * inner))


def bound_removal_updates(
    pair_sets: list[tuple[InteractionSet, float]],
    i: int,
    j: int,
    direction: BoundDirection,
    table_cap: int,
) -> tuple[dict[InteractionSet, float], int]:
    """Coefficient deltas replacing the {i,j} interactions by a one-sided bound.

    The pair's interaction sum g(x) = x_i x_j * inner(x) is bounded by
    x_i * max{0, inner(x)} (min for a lower bound) and the clamp is
    canonicalised through a dense table.  Groups whose clamp would mention
    more than ``table_cap`` extra variables are split on the pivot of
    :func:`fstar_choice` and each part bounded separately; splitting
    repeats until every table fits.  Returns (deltas, number of splits performed).
    """
    if table_cap < 0:
        raise ValueError(f"table_cap must be >= 0, got {table_cap}")
    if table_cap > DENSE_TABLE_CAP:
        raise ResourceCapError(
            f"table_cap {table_cap} exceeds dense cap {DENSE_TABLE_CAP}"
        )
    clamp = np.maximum if direction == "upper" else np.minimum
    updates: dict[InteractionSet, float] = {}
    n_splits = 0
    stack: list[tuple[InteractionSet, list[tuple[InteractionSet, float]]]] = [
        (interaction_set((i, j)), list(pair_sets))
    ]
    while stack:
        base, members = stack.pop()
        baseset = set(base)
        extras = sorted({v for key, _ in members for v in key if v not in baseset})
        if len(extras) <= table_cap:
            inner = tabulate(members, extras, f"pair ({i},{j})")
            coeffs = moebius_transform(clamp(0.0, inner))
            for key, value in zip(subset_keys(extras), coeffs):
                key = tuple(sorted(key + (i,)))
                updates[key] = updates.get(key, 0.0) + value
        else:
            pivot = fstar_choice(base, extras, members)
            n_splits += 1
            with_pivot = [(k, b) for k, b in members if pivot in k]
            without = [(k, b) for k, b in members if pivot not in k]
            if with_pivot:
                stack.append((interaction_set(base + (pivot,)), with_pivot))
            if without:
                stack.append((base, without))
    return updates, n_splits


# -- pivot / partner scoring ---------------------------------------------


def fstar_scores(
    base: InteractionSet,
    candidates: list[int],
    members: list[tuple[InteractionSet, float]],
) -> dict[int, float]:
    """Truncated worst-case error scores for extending ``base`` by one variable.

    The score of candidate r is the exact maximum over assignments of
    |beta[base+r] + sum_l beta[base+r+l] x_l|, i.e. the error bound after
    zeroing every interaction of order above |base|+2.  Choosing x_l
    independently per sign makes the maximum a sum of clamped terms, so no
    enumeration is needed.
    """
    size1 = len(base) + 1
    baseset = set(base)
    b0 = dict.fromkeys(candidates, 0.0)
    pos = dict.fromkeys(candidates, 0.0)
    neg = dict.fromkeys(candidates, 0.0)
    # One pass in member order adds each candidate's terms in the same order
    # as a separate scan per candidate would.
    for key, b in members:
        if len(key) not in (size1, size1 + 1) or not baseset.issubset(key):
            continue
        if len(key) == size1:
            (r,) = (v for v in key if v not in baseset)
            if r in b0:
                b0[r] = b
        else:
            up = max(b, 0.0)
            down = min(b, 0.0)
            for r in key:
                if r in pos and r not in baseset:
                    pos[r] += up
                    neg[r] += down
    return {r: max(b0[r] + pos[r], -(b0[r] + neg[r])) for r in candidates}


def fstar_choice(base, candidates, members) -> int:
    """Pivot minimising the truncated error score; ties go to the smallest index."""
    scores = fstar_scores(base, candidates, members)
    return min(candidates, key=lambda r: (scores[r], r))


# -- public operators ------------------------------------------------------


def remove_single_interaction(
    f: PseudoBooleanFunction, lam
) -> tuple[PseudoBooleanFunction, ApproximationReport]:
    """Least-squares removal of one maximal interaction.

    Every proper subset L of lam picks up
    (-1)^(|lam|-1-|L|) (1/2)^(|lam|-|L|) beta[lam]; removing a non-maximal
    set is rejected (highest-degree-first discipline).  The reported SSE is
    beta^2 * 2^(n - 2|lam|): on the states where lam is fully on the error
    is the constant beta * 2^-|lam|, which collapses the defining sum.
    """
    lam = interaction_set(lam)
    terms = f.terms()
    if lam not in terms:
        raise ValueError(f"{lam} is not represented in f")
    if any(len(k) > len(lam) and set(lam).issubset(k) for k in terms):
        raise ValueError(f"{lam} has a superset in S; remove highest degree first")
    b = terms.pop(lam)
    size = len(lam)
    for sub in subset_keys(lam)[:-1]:
        terms[sub] = terms.get(sub, 0.0) + (
            (-1.0) ** (size - 1 - len(sub)) * 0.5 ** (size - len(sub)) * b
        )
    err = b * b * float(2 ** (f.n - 2 * size))
    return PseudoBooleanFunction(f.n, terms), ApproximationReport((lam,), err)


def soir(
    f: PseudoBooleanFunction, i: int, j: int
) -> tuple[PseudoBooleanFunction, ApproximationReport]:
    """Second-order interaction removal: project onto sets avoiding {i,j}.

    The closed-form coefficient updates agree with sequentially removing
    every set containing both i and j; the pointwise error is
    (x_i x_j + 1/4 - x_i/2 - x_j/2) times the pair's interaction sum, so
    its magnitude never depends on x_i or x_j.
    """
    if i == j:
        raise ValueError("SOIR needs two distinct variables")
    pair = interaction_set((i, j))
    if pair not in f:
        # Nothing to remove: the projection onto S is f itself.
        return f, ApproximationReport((), 0.0, partner=j)
    pair_sets = extract_subset_family(f, pair, "containing")
    terms = f.terms()
    for key, _ in pair_sets:
        del terms[key]
    for key, delta in soir_removal_updates(pair_sets, i, j).items():
        terms[key] = terms.get(key, 0.0) + delta
    report = ApproximationReport(
        tuple(k for k, _ in pair_sets), soir_sse(pair_sets, i, j, f.n), partner=j
    )
    return PseudoBooleanFunction(f.n, terms), report


def sse(f: PseudoBooleanFunction, g: PseudoBooleanFunction) -> float:
    """Error sum of squares between two functions, over all 2^n states."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    if f.n > DENSE_TABLE_CAP:
        raise ResourceCapError(f"exhaustive SSE unsupported for n={f.n}")
    listing = tuple(range(f.n))
    fv = values_from_interactions(f, listing).values
    gv = values_from_interactions(g, listing).values
    diff = fv - gv
    return float(diff @ diff)


def bound_remove_pair(
    f: PseudoBooleanFunction,
    i: int,
    j: int,
    direction: BoundDirection,
    table_cap: int,
) -> PseudoBooleanFunction:
    """One-sided bound of f with no interaction containing both i and j.

    Upper: f(x) <= result(x) everywhere; lower: result(x) <= f(x).  Sets
    avoiding the pair keep their coefficients; the pair part is replaced by
    x_i-linear clamp terms, split recursively on the pivot of
    :func:`fstar_choice` while the clamp table would exceed ``table_cap``
    variables.
    """
    if i == j:
        raise ValueError("bound removal needs two distinct variables")
    if direction not in ("upper", "lower"):
        raise ValueError(f"unknown direction {direction!r}")
    pair = interaction_set((i, j))
    if pair not in f:
        raise ValueError(f"pair {pair} is not represented in f")
    pair_sets = extract_subset_family(f, pair, "containing")
    terms = f.terms()
    for key, _ in pair_sets:
        del terms[key]
    updates, _ = bound_removal_updates(pair_sets, i, j, direction, table_cap)
    for key, delta in updates.items():
        terms[key] = terms.get(key, 0.0) + delta
    return PseudoBooleanFunction(f.n, terms)
