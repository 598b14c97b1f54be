"""Variable elimination over pseudo-Boolean energies.

One elimination step gathers the part of the energy touching the chosen
variable i, folds it over x_i (log-sum-exp for partition sums, max for
Viterbi), and hands the folded function of i's neighbours on.  A step
costs 2^eta for i's current neighbour count eta.

One step loop serves every mode.  The working energy is a list of dense
value factors (scope, table) per bucket, filed by earliest variable in
the elimination order as in Dechter's bucket elimination (the constant
in one extra last bucket), so i's bucket holds exactly the factors
containing i; the input's sets are tabulated at their step.  A step
within the cap nu (every step of exact mode) tabulates them as one
factor, sums its factors onto (x_i, neighbours), folds the x_i axis and
files the message.

A step over the cap writes its energy as x_i h + r: it makes each input
set a factor of its own, merges each factor whose scope lies inside
another's into it, hands each factor's
x_i = 0 slice on as part of r, and keeps the rest as the pieces of h.
Each partner j is then removed by a reduction over the j axis of the
pieces holding x_j: the least-squares SOIR update (approximate mode)
takes their mean and files each piece's residual (x_j/2 - 1/4)(h1 - h0);
a one-sided clamp (bound modes, certified lower/upper ln c) takes their
max or min, over one summed table when they span at most ``table_cap``
variables besides j, else piece by piece.  Partners minimise the f*
score of :func:`pbmrf.approx.fstar_scores`, read from finite differences
of h.  The fold of h, without the axes it is exactly constant along, is
the step's message.

Each step keeps one record, its local table h over its neighbours: the
max marginal reads its maximising state backwards from h > 0; a
partially ordered Markov model takes expit(h) as x_i's conditional, with
h from before the removals (closest to the target) or, like the max
marginal, the table the step folds (dependency sets at most nu).
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace

import numpy as np

from .pbf import (
    DENSE_TABLE_CAP,
    InteractionSet,
    PseudoBooleanFunction,
    ResourceCapError,
    add_scaled,
    table_rows,
    tabulate,
)
from .pomm import PartiallyOrderedMarkovModel, PommConditional

__all__ = [
    "MODES",
    "MARGINALS",
    "POMM_VARIANTS",
    "EliminationConfig",
    "StepDiagnostics",
    "EliminationResult",
    "eliminate",
    "eliminate_exact_sum",
    "eliminate_approx",
    "eliminate_bound",
    "eliminate_max",
    "moment",
]

logger = logging.getLogger(__name__)

MODES = ("exact", "approximate", "lower_bound", "upper_bound")
MARGINALS = ("sum", "max")
POMM_VARIANTS = ("none", "pre_approximation", "post_approximation")


@dataclass(frozen=True)
class EliminationConfig:
    """How to run one elimination.

    ``nu`` caps the neighbourhood size in the non-exact modes (exact mode
    ignores it).  ``order`` is the elimination order, defaulting to the
    natural (row-major) node order.  ``table_cap`` is the bound modes'
    canonicalisation cap: the most variables a merged clamp table may span
    besides the removed partner, defaulting to nu.
    """

    mode: str = "exact"
    marginal: str = "sum"
    nu: int | None = None
    order: tuple[int, ...] | None = None
    pomm_variant: str = "none"
    table_cap: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.marginal not in MARGINALS:
            raise ValueError(f"unknown marginal {self.marginal!r}")
        if self.pomm_variant not in POMM_VARIANTS:
            raise ValueError(f"unknown pomm_variant {self.pomm_variant!r}")
        if self.nu is not None:
            object.__setattr__(self, "nu", int(self.nu))
        if self.mode != "exact" and (self.nu is None or self.nu < 1):
            raise ValueError(f"mode {self.mode!r} needs nu >= 1, got {self.nu}")
        if self.table_cap is not None:
            object.__setattr__(self, "table_cap", int(self.table_cap))
            if self.table_cap < 0:
                raise ValueError(f"table_cap must be >= 0, got {self.table_cap}")
            if self.table_cap > DENSE_TABLE_CAP:
                raise ResourceCapError(
                    f"table_cap {self.table_cap} exceeds the dense-table "
                    f"cap {DENSE_TABLE_CAP}"
                )
        if self.pomm_variant != "none" and self.marginal != "sum":
            raise ValueError("a POMM can only be recorded under the sum marginal")
        if self.order is not None:
            object.__setattr__(self, "order", tuple(int(v) for v in self.order))


@dataclass(frozen=True)
class StepDiagnostics:
    """What happened while eliminating one variable."""

    variable: int
    eta_before: int
    eta_after: int
    partners: tuple[int, ...] = ()
    fallback_partners: int = 0
    splits: int = 0


@dataclass(frozen=True)
class EliminationResult:
    """Outcome of one elimination run.

    ``log_value`` is ln of the computed quantity: the partition sum (or
    its bound) under the sum marginal, max_x exp{U(x)} under max.
    ``argmax`` is filled by the max marginal's backward pass.
    """

    log_value: float
    mode: str
    marginal: str
    nu: int | None
    argmax: np.ndarray | None = None
    pomm: PartiallyOrderedMarkovModel | None = None
    per_step: tuple[StepDiagnostics, ...] = ()

    def eta_trace(self) -> tuple[int, ...]:
        return tuple(step.eta_after for step in self.per_step)

    def to_json(self) -> str:
        nu = "null" if self.nu is None else str(self.nu)
        trace = ", ".join(str(e) for e in self.eta_trace())
        return (
            f'{{"mode": "{self.mode}", "marginal": "{self.marginal}", '
            f'"nu": {nu}, "log_value": {self.log_value:.17g}, '
            f'"eta_trace": [{trace}]}}'
        )


# -- factors ------------------------------------------------------------------

# A dense factor: a sorted scope and its 2^m values, entry ``mask`` the value
# where bit k gives ``scope[k]`` (the :func:`pbmrf.pbf.tabulate` convention).
_Factor = tuple[tuple[int, ...], np.ndarray]


def _first(rank: list[int], key) -> int:
    """The bucket of a set: its earliest position in the order (the constant last)."""
    return min(map(rank.__getitem__, key), default=len(rank))


def _sum_over(joint, factors) -> np.ndarray:
    """The sum of factors whose scopes lie in ``joint``, as a table over it.

    C order puts the last variable of a scope on axis 0.
    """
    total = np.zeros((2,) * len(joint))
    for scope, table, *_ in factors:
        total += table.reshape([2 if v in scope else 1 for v in reversed(joint)])
    return total


def _split(scope: tuple[int, ...], table: np.ndarray, v: int):
    """(scope without v, the table at x_v = 0, the table at x_v = 1)."""
    k = scope.index(v)
    halves = table.reshape(-1, 2, 1 << k)
    return scope[:k] + scope[k + 1 :], halves[:, 0].reshape(-1), halves[:, 1].reshape(-1)


@functools.cache
def _masks(m: int) -> tuple[np.ndarray, ...]:
    """Entry masks of a table over m variables.

    The unit masks e_k; for each pair a < b, a, b and e_a + e_b; and per k
    (one row each) the masks with bit k clear and the same with bit k set.
    """
    bits = np.left_shift(1, np.arange(m))
    a, b = np.triu_indices(m, 1)
    every = np.arange(1 << m)
    clear = np.array([every[every & bit == 0] for bit in bits]).reshape(m, len(every) // 2)
    return bits, a, b, bits[a] | bits[b], clear, clear + bits[:, None]


def _squeeze(scope: tuple[int, ...], table: np.ndarray) -> _Factor:
    """Drop every variable along which the table is exactly constant."""
    clear, set_ = _masks(len(scope))[4:]
    flat = (table[clear] == table[set_]).all(axis=1)
    if not flat.any():
        return scope, table
    at = tuple(0 if f else slice(None) for f in flat[::-1])  # x_k = 0 where flat
    kept = tuple(v for v, f in zip(scope, flat) if not f)
    return kept, table.reshape((2,) * len(scope))[at].reshape(-1)


def _merge_nested(factors: list[_Factor]) -> list[_Factor]:
    """Add each factor whose scope lies inside another's into the first such one."""
    merged: list[_Factor] = []
    for scope, table in sorted(factors, key=lambda f: len(f[0]), reverse=True):
        for k, (outer, _) in enumerate(merged):
            if set(scope).issubset(outer):
                merged[k] = (outer, _sum_over(outer, [merged[k], (scope, table)]).reshape(-1))
                break
        else:
            merged.append((scope, table))
    return merged


def _partner_scores(pieces: list[list], slot: dict[int, int]) -> np.ndarray:
    """The f* score of each neighbour r (at ``slot[r]``), read from h's pieces.

    The score is max over x of |b_r + sum_l b_rl x_l|, as in
    :func:`pbmrf.approx.fstar_scores`.  A piece is [scope, table t, its
    differences or None]; h's order-1 and order-2 Moebius coefficients are
    the sums of the pieces' b_r = t(e_r) - t(0) and, for a < b,
    b_ab = (t(e_a+e_b) - t(e_b)) - (t(e_a) - t(0)), in the operation order
    of a Moebius transform.  A piece keeps its differences once read.
    """
    size = len(slot)
    for piece in pieces:
        if piece[2] is None:
            scope, table, _ = piece
            bits, a, b, both = _masks(len(scope))[:4]
            at = np.array([slot[v] for v in scope], dtype=np.intp)
            single = table[bits]
            order1 = single - table[0]
            order2 = (table[both] - single[b]) - order1[a]
            # b_ab at (a, b) and (b, a) of a size x size block, b_r in a last row
            slots = (at[a] * size + at[b], at[b] * size + at[a], size * size + at)
            piece[2] = (np.concatenate(slots), np.concatenate((order2, order2, order1)))
    slots, values = map(np.concatenate, zip(*(p[2] for p in pieces)))
    total = np.bincount(slots, values, size * (size + 1)).reshape(size + 1, size)
    order1, order2 = total[size], total[:size]
    up = order1 + np.maximum(order2, 0.0).sum(axis=0)
    down = order1 + np.minimum(order2, 0.0).sum(axis=0)
    return np.maximum(up, -down)


def _soir(held: list[_Factor], j: int) -> tuple[list[_Factor], list[_Factor]]:
    """SOIR of the pair {i, j} on the pieces of h that hold x_j.

    x_i h becomes x_i mean_j(h) plus (x_j/2 - 1/4)(h1 - h0), piece by
    piece: returns each piece's mean over the j axis, and its residual as
    a factor over the piece's scope (x_i is not in it).
    """
    means, residuals = [], []
    for scope, table in held:
        rest, d0, d1 = _split(scope, table, j)
        means.append((rest, 0.5 * (d0 + d1)))
        quarter = (0.25 * (d1 - d0)).reshape(-1, 1, 1 << scope.index(j))
        residuals.append((scope, np.concatenate((-quarter, quarter), 1).reshape(-1)))
    return means, residuals


def _clamp(held: list[_Factor], j: int, reduce, table_cap: int) -> tuple[list[_Factor], int]:
    """A one-sided removal of the pair {i, j} on the pieces of h that hold x_j.

    x_i h becomes x_i max_j(h) for an upper bound (``reduce`` np.maximum),
    x_i min_j(h) for a lower one.  The pieces are summed into one table
    first when together they span at most ``table_cap`` variables besides
    j; otherwise each is clamped on its own, which is looser.  Returns the
    clamped pieces and the number of clamps beyond one (the splits).
    """
    span = sorted(set().union(*(scope for scope, _ in held)))
    if len(held) > 1 and len(span) - 1 <= table_cap:
        held = [(tuple(span), _sum_over(span, held).reshape(-1))]
    clamped = []
    for scope, table in held:
        rest, d0, d1 = _split(scope, table, j)
        clamped.append((rest, reduce(d0, d1)))
    return clamped, len(held) - 1


def _expit(h: np.ndarray) -> np.ndarray:
    out = np.empty_like(h)
    pos = h >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-h[pos]))
    ez = np.exp(h[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _energy_of(target) -> PseudoBooleanFunction:
    if isinstance(target, PseudoBooleanFunction):
        return target
    energy = getattr(target, "energy", None)
    if isinstance(energy, PseudoBooleanFunction):
        return energy
    raise TypeError(f"expected an MRF or PseudoBooleanFunction, got {type(target)!r}")


def _check_width(context: str, m: int) -> None:
    if m > DENSE_TABLE_CAP:
        raise ResourceCapError(
            f"{context}: eta {m - 1} needs a joint table "
            f"of 2^{m} entries, cap is 2^{DENSE_TABLE_CAP}"
        )


# -- the engine ---------------------------------------------------------------

# A step's record: the variable, its sorted neighbours, and its local table
# (float h for a POMM, h > 0 for the max marginal's backward pass).
_Record = tuple[int, list[int], np.ndarray]


def _eliminate(
    energy: PseudoBooleanFunction, order: tuple[int, ...], cfg: EliminationConfig
) -> tuple[float, list[_Record], list[StepDiagnostics]]:
    """Variable elimination on per-bucket lists of dense factors, in every mode.

    Bucket r holds the input's sets and the factors whose earliest variable
    is ``order[r]``, so a step reads one bucket and touches no other.
    """
    summing = cfg.marginal == "sum"
    fold = np.logaddexp if summing else np.maximum
    clamp = np.maximum if cfg.mode == "upper_bound" else np.minimum
    table_cap = cfg.table_cap if cfg.table_cap is not None else cfg.nu
    record = not summing or cfg.pomm_variant != "none"
    record_pre = cfg.pomm_variant == "pre_approximation"
    rank = [0] * len(order)
    for r, v in enumerate(order):
        rank[v] = r
    inputs: list[dict[InteractionSet, float]] = [{} for _ in range(len(order) + 1)]
    for key, b in energy.terms().items():
        inputs[_first(rank, key)][key] = b
    buckets: list[list[_Factor]] = [[] for _ in inputs]

    def file(scope, table) -> None:
        """File a factor of a capped step, without the axes it is constant along."""
        if table.any():  # an exact zero adds nothing
            scope, table = _squeeze(scope, table)
            buckets[_first(rank, scope)].append((scope, table))

    records: list[_Record] = []
    steps: list[StepDiagnostics] = []
    for step_no, i in enumerate(order):
        context = f"step {step_no}, variable {i}"
        pairs = [(key, b) for key, b in inputs[step_no].items() if b != 0.0]
        factors = buckets[step_no]
        inputs[step_no], buckets[step_no] = {}, []  # free the consumed bucket
        own = tuple(sorted({v for key, _ in pairs for v in key}))
        joint = sorted({i, *own}.union(*(scope for scope, _ in factors)))
        eta = len(joint) - 1
        if cfg.mode == "exact" or eta <= cfg.nu:
            _check_width(context, len(joint))
            if pairs:
                factors.insert(0, (own, tabulate(pairs, own, context)))
            extras, t0, t1 = _split(tuple(joint), _sum_over(joint, factors).reshape(-1), i)
            if record:
                h = t1 - t0
                records.append((i, list(extras), h if summing else h > 0.0))
            buckets[_first(rank, extras)].append((extras, fold(t0, t1)))
            steps.append(StepDiagnostics(variable=i, eta_before=eta, eta_after=eta))
            continue

        # Over the cap: x_i's energy is x_i h + r.  Each input set is a
        # factor of its own, nonzero at its all-ones entry.
        for key, b in pairs:
            monomial = np.zeros(1 << len(key))
            monomial[-1] = b
            factors.append((key, monomial))
        neighbours = [v for v in joint if v != i]
        slot = {v: k for k, v in enumerate(neighbours)}
        pieces = []
        for scope, table in _merge_nested(factors):
            rest, t0, t1 = _split(scope, table, i)
            file(rest, t0)  # a part of r
            pieces.append([rest, t1 - t0, None])
        if record_pre:
            _check_width(context, len(joint))
            records.append((i, neighbours, _sum_over(neighbours, pieces).reshape(-1)))

        partners: list[int] = []
        fallbacks = splits = 0
        alive = np.ones(eta, dtype=bool)
        while len(partners) < eta - cfg.nu:
            scores = _partner_scores(pieces, slot)
            scores[~alive] = np.inf
            k = int(np.argmin(scores))  # ties go to the smallest index
            j = neighbours[k]
            if scores[alive].max() == 0.0:
                fallbacks += 1
                logger.debug("step %d: every partner score of %d vanished; "
                             "taking the smallest index %d", step_no, i, j)
            held = [(scope, table) for scope, table, _ in pieces if j in scope]
            pieces = [p for p in pieces if j not in p[0]]
            if cfg.mode == "approximate":
                reduced, residuals = _soir(held, j)
                for scope, table in residuals:
                    file(scope, table)
            else:
                reduced, extra = _clamp(held, j, clamp, table_cap)
                splits += extra
            pieces += [[scope, table, None] for scope, table in reduced]
            alive[k] = False
            partners.append(j)

        extras = [v for v, live in zip(neighbours, alive) if live]
        h = _sum_over(extras, pieces).reshape(-1)
        if record and not record_pre:
            records.append((i, extras, h if summing else h > 0.0))
        file(tuple(extras), fold(0.0, h))
        steps.append(
            StepDiagnostics(i, eta, len(extras), tuple(partners), fallbacks, splits)
        )
    log_value = 0.0 + inputs[-1].get((), 0.0)  # a -0.0 constant gives 0.0
    for _, message in buckets[-1]:
        log_value += float(message[0])
    return log_value, records, steps


def eliminate(target, cfg: EliminationConfig) -> EliminationResult:
    """Run variable elimination on an MRF or a raw energy polynomial."""
    energy = _energy_of(target)
    n = energy.n
    order = cfg.order if cfg.order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all variable indices")

    log_value, records, steps = _eliminate(energy, order, cfg)

    argmax = None
    if cfg.marginal == "max":
        argmax = np.zeros(n, dtype=np.uint8)
        for i, extras, wins in reversed(records):
            argmax[i] = wins[table_rows(argmax, extras)]

    pomm = None
    if cfg.pomm_variant != "none":
        pomm = PartiallyOrderedMarkovModel(
            n, tuple(PommConditional(i, tuple(e), _expit(h)) for i, e, h in records)
        )

    return EliminationResult(
        log_value=float(log_value),
        mode=cfg.mode,
        marginal=cfg.marginal,
        nu=cfg.nu,
        argmax=argmax,
        pomm=pomm,
        per_step=tuple(steps),
    )


# -- public entry points --------------------------------------------------------


def _require(cfg: EliminationConfig, modes: tuple[str, ...], marginal: str) -> None:
    if cfg.mode not in modes or cfg.marginal != marginal:
        raise ValueError(
            f"configuration ({cfg.mode}, {cfg.marginal}) not valid here; "
            f"expected mode in {modes} with marginal {marginal!r}"
        )


def eliminate_exact_sum(target, cfg: EliminationConfig | None = None) -> EliminationResult:
    """ln of the partition sum, exactly."""
    cfg = cfg or EliminationConfig()
    _require(cfg, ("exact",), "sum")
    return eliminate(target, cfg)


def eliminate_approx(target, cfg: EliminationConfig) -> EliminationResult:
    """ln of the approximate partition sum under the neighbourhood cap."""
    _require(cfg, ("approximate",), "sum")
    return eliminate(target, cfg)


def eliminate_bound(target, cfg: EliminationConfig) -> EliminationResult:
    """A certified lower or upper bound on ln of the partition sum."""
    _require(cfg, ("lower_bound", "upper_bound"), "sum")
    return eliminate(target, cfg)


def eliminate_max(target, cfg: EliminationConfig) -> EliminationResult:
    """max_x U(x) (exact, approximate, or bounded) plus a maximising state."""
    if cfg.marginal != "max":
        raise ValueError("eliminate_max needs the max marginal")
    return eliminate(target, cfg)


def moment(target, log_psi: PseudoBooleanFunction, cfg: EliminationConfig):
    """E{psi(x)} for psi given through its logarithm as a polynomial.

    Two elimination runs: one on U + ln(psi), one on U, and the moment is
    the exponentiated difference.  In the bound modes the result is the
    certified interval (divide the lower sum by the upper constant and
    vice versa).
    """
    if cfg.marginal != "sum":
        raise ValueError("moments need the sum marginal")
    energy = _energy_of(target)
    tilted = add_scaled(energy, log_psi, 1.0, 1.0)
    base = replace(cfg, pomm_variant="none")
    if cfg.mode in ("exact", "approximate"):
        num = eliminate(tilted, base).log_value
        den = eliminate(energy, base).log_value
        return float(np.exp(num - den))
    lo_cfg = replace(base, mode="lower_bound")
    hi_cfg = replace(base, mode="upper_bound")
    lower = np.exp(
        eliminate(tilted, lo_cfg).log_value - eliminate(energy, hi_cfg).log_value
    )
    upper = np.exp(
        eliminate(tilted, hi_cfg).log_value - eliminate(energy, lo_cfg).log_value
    )
    return float(lower), float(upper)
