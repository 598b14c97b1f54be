"""Variable elimination over pseudo-Boolean energies.

One elimination step gathers the part of the energy touching the chosen
variable i, folds it over x_i (log-sum-exp for partition sums, max for
Viterbi), and hands the folded function of i's neighbours on.  A step
costs 2^eta for i's current neighbour count eta.

One step loop serves every mode.  The working energy is a list of dense
value factors (scope, table) per bucket, filed by earliest variable in
the elimination order as in Dechter's bucket elimination (the constant,
a factor over no variables, in one extra last bucket), so i's bucket
holds exactly the factors containing i; the input's sets are filed the
same way and tabulated at their step.  A step within the cap nu (every
step of exact mode) tabulates them as one factor, sums its factors onto
(x_i, neighbours), folds the x_i axis and files the message.

A step over the cap writes its energy as x_i h + r, with h in pieces,
and removes partners from h with the pair-removal kernels of
:mod:`pbmrf.approx`: SOIR in approximate mode, a one-sided clamp in the
bound modes (certified lower/upper ln c), each partner the live
neighbour of least f* score.  The fold of h, without the axes it is
exactly constant along, is the step's message.

Each step keeps one record, its local table h over its neighbours: the
max marginal reads its maximising state backwards from h > 0; a
partially ordered Markov model takes expit(h) as x_i's conditional, with
h from before the removals (closest to the target) or, like the max
marginal, the table the step folds (dependency sets at most nu).

:func:`eliminate_many` runs B energies over the same variables through
the same step loop in lockstep: each factor keeps one (2^m, B) table
with the members on a last axis, so a step costs one pass of numpy calls
for the whole batch.  The input sets are compared once, before step 0:
energies whose nonzero sets differ, or come in another order, start in
batches of their own.  Every other decision depends on the data and is
checked per step, and the members stay together while they agree:
whether a filed factor is all zero and which axes it is constant along,
each partner argmin and whether its scores vanished, and whether B * 2^m
joint entries fit the dense-table cap.  At the first disagreement the
step is abandoned (a step commits only at its end) and the batch splits
into groups of agreeing members, in the order of their first members
(for the cap, consecutive groups that fit); each group redoes that step
and goes on alone, and a group of one drops the batch axis.  Every
member's result is byte-identical to its own run: :func:`eliminate` is
the batch of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .approx import (
    bound_removal_updates,
    coefficient_pieces,
    fstar_choice,
    fstar_scores,
    soir_removal_updates,
)
from .pbf import (
    DENSE_TABLE_CAP,
    PseudoBooleanFunction,
    ResourceCapError,
    _Factor,
    _masks,
    _split,
    _sum_over,
    add_scaled,
    as_int,
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
    "eliminate_many",
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
            object.__setattr__(self, "nu", as_int("nu", self.nu))
        if self.mode != "exact" and (self.nu is None or self.nu < 1):
            raise ValueError(f"mode {self.mode!r} needs nu >= 1, got {self.nu}")
        if self.table_cap is not None:
            object.__setattr__(self, "table_cap", as_int("table_cap", self.table_cap))
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


def _first(rank: list[int], key) -> int:
    """The bucket of a set: its earliest position in the order (the constant last)."""
    return min(map(rank.__getitem__, key), default=len(rank))


def _groups(labels) -> list[list[int]]:
    """Positions with equal labels, in the order of their first positions."""
    groups: dict[object, list[int]] = {}
    for member, label in enumerate(labels):
        groups.setdefault(label, []).append(member)
    return list(groups.values())


class _Split(Exception):
    """The members of a batch disagree on a decision of the current step.

    ``groups`` holds the agreeing members (positions in the batch), in the
    order of their first members.
    """

    def __init__(self, labels):
        self.groups = _groups(labels)
        super().__init__(self.groups)


def _agreed(decision: np.ndarray) -> np.ndarray:
    """A decision made per member (the last axis), if every member made it the same."""
    first = decision[..., :1]
    if (decision == first).all():
        return first[..., 0]
    raise _Split(column.tobytes() for column in decision.reshape(-1, decision.shape[-1]).T)


def _squeeze(scope: tuple[int, ...], table: np.ndarray) -> _Factor:
    """Drop every variable along which the table is exactly constant."""
    clear, set_ = _masks(len(scope))[4:]
    flat = (table[clear] == table[set_]).all(axis=1)
    if table.ndim > 1:
        flat = _agreed(flat)
    if not np.count_nonzero(flat):
        return scope, table
    tail = table.shape[1:]
    at = tuple(0 if f else slice(None) for f in flat[::-1])  # x_k = 0 where flat
    kept = tuple(v for v, f in zip(scope, flat) if not f)
    return kept, table.reshape((2,) * len(scope) + tail)[at].reshape((-1,) + tail)


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


def _check_width(context: str, m: int, width: int) -> None:
    """Refuse a joint table over m variables past the dense cap.

    A batch of ``width`` members needs width * 2^m entries: past the cap it
    splits into consecutive groups that fit, down to runs of one.
    """
    if m > DENSE_TABLE_CAP:
        raise ResourceCapError(
            f"{context}: eta {m - 1} needs a joint table "
            f"of 2^{m} entries, cap is 2^{DENSE_TABLE_CAP}"
        )
    if width > 1 and width << m > 1 << DENSE_TABLE_CAP:
        raise _Split(k >> (DENSE_TABLE_CAP - m) for k in range(width))


# -- the engine ---------------------------------------------------------------

# A step's record: the variable, its sorted neighbours, and its local table
# (float h for a POMM, h > 0 for the max marginal's backward pass).
_Record = tuple[int, list[int], np.ndarray]


@dataclass
class _Batch:
    """Energies that run in lockstep, at the start of step ``start``.

    ``members`` are the energies' positions in the call; they hold the same
    nonzero input sets in the same order.  ``inputs[r]`` lists the sets
    filed in bucket r with their coefficients, each a (B,) array of the
    members' values.  Factor tables and records carry the members on a
    last axis likewise.  A batch of one keeps scalar coefficients and flat
    tables.
    """

    members: list[int]
    inputs: list[list]
    buckets: list[list[_Factor]]
    records: list[_Record] = field(default_factory=list)
    steps: list[StepDiagnostics] = field(default_factory=list)
    start: int = 0

    def take(self, group: list[int]) -> _Batch:
        """The members at positions ``group``, at the same step."""

        def pick(table):  # one member's column of a table, or its coefficient
            return table.T[group[0]].copy() if len(group) == 1 else table[..., group]

        return _Batch(
            [self.members[m] for m in group],
            [[(key, pick(b)) for key, b in pairs] for pairs in self.inputs],
            [[(scope, pick(table)) for scope, table in bucket] for bucket in self.buckets],
            [(i, extras, pick(h)) for i, extras, h in self.records],
            list(self.steps),
            self.start,
        )


def _batch(members: list[int], keys: tuple, energies: list, rank: list[int]) -> _Batch:
    """A batch of the ``members`` of ``energies``, whose nonzero sets are ``keys``.

    Each set is filed by its earliest variable, the constant as a factor.
    """
    tail = (len(members),) if len(members) > 1 else ()
    values = np.array([[energies[m]._beta[key] for key in keys] for m in members])
    inputs: list[list] = [[] for _ in range(len(rank) + 1)]
    for key, b in zip(keys, values.T.reshape((-1,) + tail)):
        inputs[_first(rank, key)].append((key, b))
    buckets: list[list[_Factor]] = [[] for _ in range(len(rank))]
    buckets.append([((), np.array([b])) for _, b in inputs.pop()])
    return _Batch(members, inputs, buckets)


def _eliminate(
    energies: list[PseudoBooleanFunction], order: tuple[int, ...], cfg: EliminationConfig
) -> list[tuple[float, list[_Record], list[StepDiagnostics]]]:
    """Variable elimination of energies over the same variables, in every mode.

    Bucket r holds the input sets and the factors whose earliest variable
    is ``order[r]``, so a step reads one bucket and touches no other.  The
    energies start as one batch per tuple of nonzero input sets (in the
    energy's order); a batch whose members disagree on a step's decision
    splits, and each group of agreeing members redoes that step.
    """
    rank = [0] * len(order)
    for r, v in enumerate(order):
        rank[v] = r
    keys = [tuple(key for key, b in energy._beta.items() if b != 0.0) for energy in energies]
    groups = _groups(keys)
    if len(groups) > 1:
        logger.debug("step %d: batch splits into %s", 0, groups)
    runs: list = [None] * len(energies)
    pending = [_batch(group, keys[group[0]], energies, rank) for group in reversed(groups)]
    while pending:
        batch = pending.pop()
        try:
            _run(batch, order, rank, cfg)
        except _Split as split:
            groups = [[batch.members[m] for m in group] for group in split.groups]
            logger.debug("step %d: batch splits into %s", batch.start, groups)
            pending += [batch.take(group) for group in reversed(split.groups)]
            continue
        one = len(batch.members) == 1
        for k, member in enumerate(batch.members):
            log_value = 0.0
            for _, message in batch.buckets[-1]:  # the constant first, then the messages
                log_value += float(message[0] if one else message[0, k])
            records = [(i, e, h if one else h[:, k]) for i, e, h in batch.records]
            runs[member] = (log_value, records, batch.steps)
    return runs


def _run(batch: _Batch, order: tuple[int, ...], rank: list[int], cfg: EliminationConfig) -> None:
    """Run a batch's steps from ``batch.start`` on.

    A step works on locals and commits at its end, so a _Split raised
    within it leaves the batch at the step's start.
    """
    summing = cfg.marginal == "sum"
    fold = np.logaddexp if summing else np.maximum
    clamp = np.maximum if cfg.mode == "upper_bound" else np.minimum
    table_cap = cfg.table_cap if cfg.table_cap is not None else cfg.nu
    record = not summing or cfg.pomm_variant != "none"
    record_pre = cfg.pomm_variant == "pre_approximation"
    width = len(batch.members)
    batched = width > 1
    tail = (width,) if batched else ()
    buckets = batch.buckets
    filed: list[_Factor] = []

    def file(scope, table) -> None:
        """File a factor of a capped step, without the axes it is constant along."""
        # an exact zero adds nothing
        if _agreed(table.any(axis=0)) if batched else np.count_nonzero(table):
            filed.append(_squeeze(scope, table))

    for step_no in range(batch.start, len(order)):
        batch.start = step_no
        i = order[step_no]
        context = f"step {step_no}, variable {i}"
        pairs = batch.inputs[step_no]
        factors = buckets[step_no]
        own = tuple(sorted({v for key, _ in pairs for v in key}))
        joint = sorted({i, *own}.union(*(scope for scope, _ in factors)))
        eta = len(joint) - 1
        filed = []
        kept = None  # the step's record
        if cfg.mode == "exact" or eta <= cfg.nu:
            _check_width(context, len(joint), width)
            if pairs:
                factors = [(own, tabulate(pairs, own, context, tail)), *factors]
            extras, t0, t1 = _split(tuple(joint), _sum_over(joint, factors, tail), i)
            if record:
                h = t1 - t0
                kept = (i, list(extras), h if summing else h > 0.0)
            filed.append((extras, fold(t0, t1)))
            step = StepDiagnostics(variable=i, eta_before=eta, eta_after=eta)
        else:
            neighbours = [v for v in joint if v != i]
            slot = {v: k for k, v in enumerate(neighbours)}
            pieces, rest = coefficient_pieces(i, factors, pairs, tail)
            for scope, table in rest:
                file(scope, table)
            pieces = [[scope, table, None] for scope, table in pieces]
            if record_pre:
                _check_width(context, len(joint), width)
                kept = (i, neighbours, _sum_over(neighbours, pieces, tail))

            partners: list[int] = []
            fallbacks = splits = 0
            alive = np.ones(eta, dtype=bool)
            while len(partners) < eta - cfg.nu:
                choice = fstar_choice(fstar_scores(pieces, slot), alive)
                k, vanished = _agreed(np.array(choice)) if batched else choice
                k = int(k)
                j = neighbours[k]
                if vanished:
                    fallbacks += 1
                    logger.debug("step %d: every partner score of %d vanished; "
                                 "taking the smallest index %d", step_no, i, j)
                held = [(scope, table) for scope, table, _ in pieces if j in scope]
                pieces = [p for p in pieces if j not in p[0]]
                if cfg.mode == "approximate":
                    reduced, residuals = soir_removal_updates(held, j)
                    for scope, table in residuals:
                        file(scope, table)
                else:
                    reduced, extra = bound_removal_updates(held, j, clamp, table_cap)
                    splits += extra
                pieces += [[scope, table, None] for scope, table in reduced]
                alive[k] = False
                partners.append(j)

            extras = [v for v, live in zip(neighbours, alive) if live]
            h = _sum_over(extras, pieces, tail)
            if record and not record_pre:
                kept = (i, extras, h if summing else h > 0.0)
            file(tuple(extras), fold(0.0, h))
            step = StepDiagnostics(i, eta, len(extras), tuple(partners), fallbacks, splits)

        buckets[step_no] = []  # commit: free the consumed bucket, file the new factors
        for scope, table in filed:
            buckets[_first(rank, scope)].append((scope, table))
        if kept is not None:
            batch.records.append(kept)
        batch.steps.append(step)
    batch.start = len(order)


def _result(n: int, cfg: EliminationConfig, run) -> EliminationResult:
    log_value, records, steps = run
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


def eliminate_many(targets, cfg: EliminationConfig) -> list[EliminationResult]:
    """Run variable elimination on several MRFs or energies over the same variables.

    The runs share one step loop while they take the same decisions (see
    the module docstring); each result equals its own :func:`eliminate`
    run byte for byte.
    """
    energies = [_energy_of(target) for target in targets]
    if not energies:
        return []
    n = energies[0].n
    if any(energy.n != n for energy in energies):
        raise ValueError("every target must have the same number of variables")
    order = cfg.order if cfg.order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all variable indices")
    return [_result(n, cfg, run) for run in _eliminate(energies, order, cfg)]


def eliminate(target, cfg: EliminationConfig) -> EliminationResult:
    """Run variable elimination on an MRF or a raw energy polynomial."""
    return eliminate_many([target], cfg)[0]


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
