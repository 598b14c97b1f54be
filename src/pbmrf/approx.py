"""Least-squares approximation and bounding of pseudo-Boolean functions.

Removing interactions from a dense family and re-fitting the remaining
coefficients by least squares has closed-form solutions in two important
cases: removing a single maximal interaction (a coefficient update), and
removing every interaction containing a variable pair {i, j} (second-order
interaction removal, SOIR).  A one-sided bound f_U >= f (or f_L <= f)
with no interaction over the pair clamps the pair's part instead.

A pair removal is an operation on tables: f = x_i h + r, with x_i's
coefficient h in pieces (:func:`coefficient_pieces`), and the pieces that
hold x_j are reduced over the j axis, to their mean plus residual factors
for SOIR (:func:`soir_removal_updates`), to their max or min for a bound
(:func:`bound_removal_updates`).  :func:`fstar_scores` and
:func:`fstar_choice` pick the partner j.  The elimination engine runs
these kernels at each step over its cap; :func:`soir` and
:func:`bound_remove_pair` run them on one function.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .pbf import (
    DENSE_TABLE_CAP,
    _INDEX_CACHE,
    InteractionSet,
    PseudoBooleanFunction,
    _add_table_terms,
    _check_terms_size,
    _Factor,
    _entries,
    _lift,
    _masks,
    _split,
    _sum_over,
    as_table_cap,
    extract_subset_family,
    interaction_set,
    moebius_transform,
    subset_keys,
)

__all__ = [
    "BoundDirection",
    "ApproximationReport",
    "remove_single_interaction",
    "soir",
    "bound_remove_pair",
    "coefficient_pieces",
    "fstar_scores",
    "fstar_choice",
    "soir_removal_updates",
    "bound_removal_updates",
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


# -- pair-removal kernels on tables ---------------------------------------


def coefficient_pieces(
    i: int, factors: list[_Factor], pairs, tail: tuple[int, ...] = ()
) -> tuple[list[_Factor], list[_Factor]]:
    """x_i's energy x_i h + r, as (the pieces of h, the parts of r).

    ``factors`` all hold x_i; each ``(set, beta)`` of ``pairs`` (sets
    holding i, beta of shape ``tail``) is a monomial, beta at its set's
    all-ones entry.  By decreasing scope size, factors before monomials,
    each factor or monomial whose scope lies inside an earlier one's is
    added into the first such one (a monomial at the entries where all its
    set's variables are 1); a monomial that no scope holds becomes a table.
    The first addition into a table copies it as ``t + 0.0``, which turns
    -0.0 into 0.0 as a sum from zero does, and every addition goes into
    that copy in place, so no input changes.  Each resulting factor splits
    on x_i into a part of r (its x_i = 0 slice) and a piece of h (the
    difference of its slices), both over its scope without i.
    """
    items = [(scope, table, False) for scope, table in factors]
    items += [(key, b, True) for key, b in pairs]
    items.sort(key=lambda item: len(item[0]), reverse=True)
    # [scope, its variables, each variable's bit, table, whether we own the table]
    merged: list[list] = []
    for scope, value, monomial in items:
        for outer in merged:
            outer_scope, variables, bits, table, owned = outer
            if variables.issuperset(scope):
                if not owned:
                    table = outer[3] = table + 0.0
                    outer[4] = True
                mask = sum(map(bits.__getitem__, scope))
                if monomial:
                    table[_entries(len(outer_scope), mask, mask)] += value
                else:
                    table += value[_lift(len(outer_scope), mask)]
                break
        else:
            if monomial:
                value, b = np.zeros((1 << len(scope),) + tail), value
                value[-1] = b
            bits = {v: 1 << k for k, v in enumerate(scope)}
            merged.append([scope, frozenset(scope), bits, value, False])
    pieces, rest = [], []
    for scope, _, _, table, _ in merged:
        scope, t0, t1 = _split(scope, table, i)
        rest.append((scope, t0))
        pieces.append((scope, t1 - t0))
    return pieces, rest


def fstar_scores(pieces: list[list], slot: dict[int, int]) -> np.ndarray:
    """The f* score of each neighbour r (at ``slot[r]``), read from h's pieces.

    The score is max over x of |b_r + sum_l b_rl x_l|, the worst-case error
    after zeroing every interaction of x_i's coefficient h of order above 2
    that holds r; choosing x_l independently per sign makes the maximum a
    sum of clamped terms.  A piece is [scope, table t, its differences or
    None]; h's order-1 and order-2 Moebius coefficients are the sums of the
    pieces' b_r = t(e_r) - t(0) and, for a < b,
    b_ab = (t(e_a+e_b) - t(e_b)) - (t(e_a) - t(0)), in the operation order
    of a Moebius transform, read with one gather per piece.  A piece keeps
    its differences once read.  A batch's scores have the members on a
    last axis.
    """
    size = len(slot)
    tail = pieces[0][1].shape[1:]
    width = tail[0] if tail else 1
    for piece in pieces:
        if piece[2] is None:
            scope, table, _ = piece
            t = table[_masks(len(scope))[0]]
            d = t[:2] - t[2:]  # t[r0] - t[r2] and t[r1] - t[r3]
            values = (d[0] - d[1]).reshape(-1)
            piece[2] = (_slot_map(tuple(map(slot.__getitem__, scope)), size, width), values)
    slots = np.concatenate([p[2][0] for p in pieces])
    values = np.concatenate([p[2][1] for p in pieces])
    total = np.bincount(slots, values, size * (size + 1) * width)
    total = total.reshape((size + 1, size) + tail)
    order1, order2 = total[size], total[:size]
    up = order1 + np.add.reduce(np.maximum(order2, 0.0), 0)
    down = order1 + np.add.reduce(np.minimum(order2, 0.0), 0)
    return np.maximum(up, -down)


@functools.lru_cache(maxsize=_INDEX_CACHE)
def _slot_map(at: tuple[int, ...], size: int, width: int) -> np.ndarray:
    """Where the differences of a piece over the neighbours at slots ``at`` count.

    b_ab at (a, b) and (b, a) of a size x size block, b_r in a last row:
    column c of :func:`pbf._masks`'s rows counts at ``at[p] * size + at[q]``
    (``at`` extended by ``size``), and member k of a batch of ``width`` at
    that times ``width`` plus k.
    """
    _, p, q, _ = _masks(len(at))
    at = np.array([*at, size])
    slots = at[p] * size + at[q]
    return (slots[:, None] * width + np.arange(width)).reshape(-1)


def fstar_choice(scores: np.ndarray, alive: np.ndarray):
    """Per member, the live neighbour of least score and whether every live score vanished.

    ``scores`` are :func:`fstar_scores` (the members on a last axis, if
    any); the dead neighbours' scores are set to infinity in place.  Ties
    go to the smallest index.
    """
    scores[~alive] = np.inf
    live = scores[alive]  # never negative, so they all vanish where none is nonzero
    return scores.argmin(axis=0), np.count_nonzero(live, axis=0 if live.ndim > 1 else None) == 0


def soir_removal_updates(held: list[_Factor], j: int) -> tuple[list[_Factor], list[_Factor]]:
    """SOIR of the pair {i, j} on the pieces of h that hold x_j.

    x_i h becomes x_i mean_j(h) plus (x_j/2 - 1/4)(h1 - h0), piece by
    piece: returns each piece's mean over the j axis, and its residual as
    a factor over the piece's scope (x_i is not in it).
    """
    means, residuals = [], []
    for scope, table in held:
        k = scope.index(j)
        tail = table.shape[1:]
        halves = table.reshape((-1, 2, 1 << k) + tail)
        d0, d1 = halves[:, 0], halves[:, 1]
        means.append((scope[:k] + scope[k + 1 :], (0.5 * (d0 + d1)).reshape((-1,) + tail)))
        quarter = 0.25 * (d1 - d0)  # -quarter at x_j = 0, quarter at x_j = 1, in one table
        residuals.append((scope, np.concatenate((-quarter, quarter), 1).reshape(table.shape)))
    return means, residuals


def bound_removal_updates(
    held: list[_Factor], j: int, reduce, table_cap: int
) -> tuple[list[_Factor], int]:
    """A one-sided removal of the pair {i, j} on the pieces of h that hold x_j.

    x_i h becomes x_i max_j(h) for an upper bound (``reduce`` np.maximum),
    x_i min_j(h) for a lower one.  The pieces are summed into one table
    first when together they span at most ``table_cap`` variables besides
    j; otherwise each is clamped on its own, which is looser.  Returns the
    clamped pieces and the number of clamps beyond one (the splits).
    """
    span = sorted(set().union(*(scope for scope, _ in held)))
    if len(held) > 1 and len(span) - 1 <= table_cap:
        tail = held[0][1].shape[1:]
        held = [(tuple(span), _sum_over(span, held, tail))]
    clamped = []
    for scope, table in held:
        rest, d0, d1 = _split(scope, table, j)
        clamped.append((rest, reduce(d0, d1)))
    return clamped, len(held) - 1


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


def _pair_pieces(f: PseudoBooleanFunction, i: int, j: int):
    """The pieces of x_i's coefficient in f: (those holding x_j, the others).

    They are built as an elimination step over the cap builds them, from
    f's nonzero sets holding i; every such set holds x_i, so r is zero.
    """
    pairs = [(key, b) for key, b in f.terms().items() if i in key and b != 0.0]
    pieces, _ = coefficient_pieces(i, [], pairs)
    return [p for p in pieces if j in p[0]], [p for p in pieces if j not in p[0]]


def _rebuilt(f: PseudoBooleanFunction, i: int, pieces, factors=()) -> PseudoBooleanFunction:
    """f with x_i's part replaced by x_i times the pieces' sum, plus the factors.

    Each table's Moebius coefficients go straight into f's coefficient map.
    """
    terms = {key: b for key, b in f.terms().items() if i not in key}
    lifted = [(scope + (i,), np.concatenate((np.zeros_like(t), t))) for scope, t in pieces]
    for scope, table in lifted + list(factors):
        _check_terms_size(len(scope), "pair removal")
        _add_table_terms(terms, scope, moebius_transform(table).tolist())
    return PseudoBooleanFunction(f.n, terms)


def soir(
    f: PseudoBooleanFunction, i: int, j: int
) -> tuple[PseudoBooleanFunction, ApproximationReport]:
    """Second-order interaction removal: project onto sets avoiding {i,j}.

    The result agrees with sequentially removing every set containing both
    i and j; the pointwise error is (x_i - 1/2)(x_j - 1/2) g, where g, the
    pair's interaction sum, is the sum over the pieces holding x_j of
    h1 - h0.  Its magnitude |g|/4 never depends on x_i or x_j, so the SSE
    over all 2^n states is 1/4 2^(n-2-e) sum g^2 for g over e variables.
    """
    if i == j:
        raise ValueError("SOIR needs two distinct variables")
    pair = interaction_set((i, j))
    if pair not in f:
        # Nothing to remove: the projection onto S is f itself.
        return f, ApproximationReport((), 0.0, partner=j)
    removed = tuple(k for k, _ in extract_subset_family(f, pair, "containing"))
    held, kept = _pair_pieces(f, i, j)
    means, residuals = soir_removal_updates(held, j)
    extras = sorted(set().union(*(scope for scope, _ in held)) - {j})
    error = None
    if len(extras) <= DENSE_TABLE_CAP:
        diffs = [(rest, d1 - d0) for rest, d0, d1 in (_split(*p, j) for p in held)]
        g = _sum_over(extras, diffs, ())
        error = 0.25 * 2.0 ** (f.n - 2 - len(extras)) * float(g @ g)
    report = ApproximationReport(removed, error, partner=j)
    return _rebuilt(f, i, kept + means, residuals), report


def bound_remove_pair(
    f: PseudoBooleanFunction,
    i: int,
    j: int,
    direction: BoundDirection,
    table_cap: int,
) -> PseudoBooleanFunction:
    """One-sided bound of f with no interaction containing both i and j.

    Upper: f(x) <= result(x) everywhere; lower: result(x) <= f(x).  Sets
    avoiding i keep their coefficients; x_i's part is rebuilt from the
    pieces of its coefficient, those holding x_j clamped by
    :func:`bound_removal_updates` (summed first when they span at most
    ``table_cap`` variables besides j, else one by one), as an elimination
    step over the cap removes a partner.
    """
    if i == j:
        raise ValueError("bound removal needs two distinct variables")
    if direction not in ("upper", "lower"):
        raise ValueError(f"unknown direction {direction!r}")
    pair = interaction_set((i, j))
    if pair not in f:
        raise ValueError(f"pair {pair} is not represented in f")
    table_cap = as_table_cap(table_cap)
    held, kept = _pair_pieces(f, i, j)
    reduce = np.maximum if direction == "upper" else np.minimum
    clamped, _ = bound_removal_updates(held, j, reduce, table_cap)
    return _rebuilt(f, i, kept + clamped)
