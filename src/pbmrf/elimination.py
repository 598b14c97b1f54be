"""Variable elimination over pseudo-Boolean energies.

One elimination step gathers the part of the energy touching the chosen
variable, folds it over the variable's two values (log-sum-exp for
partition sums, max for Viterbi), and hands the folded function of the
variable's neighbours on.  The cost of a step is 2^eta for the variable's
current neighbour count eta, so exact elimination dies once
neighbourhoods grow past the dense-table cap.

Both engines file the working energy in buckets by each set's earliest
variable in the elimination order, as in Dechter's bucket elimination,
with the constant in one extra last bucket: once the variables before i
are summed out, i's bucket holds exactly the parts of the energy
containing i, so a step reads one bucket and touches no other.  One
helper files the input's sets, and what a step hands on goes through the
same earliest-variable rule.  Exact mode keeps a list of dense value
factors (scope, table) beside each bucket: a step sums its sets and factors
onto (x_i, neighbours), folds the x_i axis and files the message, and no
coefficient is ever written.  The capped modes keep each bucket as a
coefficient map, because their removals read and rewrite interaction
coefficients.  A capped step takes (and prunes) its bucket once and
works on it as a local sorted list; only SOIR's residual sets, which
lack x_i, and the Moebius coefficients of its folded table go to later
buckets.

Three tactics keep eta at a user cap nu: before summing a variable whose
neighbourhood is too large, interactions linking it to a chosen partner
are removed either by the least-squares SOIR update (approximate mode)
or by a one-sided clamp bound (bound modes, giving certified lower/upper
log normalising constants).  Partners, and pivots for bound splitting,
are picked by the truncated worst-case error score of
:func:`pbmrf.approx.fstar_scores`.

Each step keeps one record, its local table h: x_i's coefficient over
its neighbours, the step's summed table at x_i = 1 minus that at x_i = 0.
The max marginal keeps only h > 0 and reads its maximising state
backwards from it; a partially ordered Markov model takes expit(h) as
x_i's conditional, with h from before the cap-forcing removals (closest
to the target) or, like the max marginal, the table the step folds (every
dependency set is then at most nu, so normalisation stays cheap).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .approx import (
    bound_removal_updates,
    fstar_scores,
    soir_removal_updates,
)
from .pbf import (
    DENSE_TABLE_CAP,
    InteractionSet,
    PseudoBooleanFunction,
    ResourceCapError,
    add_scaled,
    moebius_transform,
    prune_dead,
    subset_keys,
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
    natural (row-major) node order.  ``table_cap`` limits the clamp
    canonicalisation tables in bound modes and defaults to nu.
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


# -- buckets -------------------------------------------------------------------

# Coefficient maps by first-eliminated variable, the constant in the last one.
_Buckets = list[dict[InteractionSet, float]]


def _first(rank: list[int], key) -> int:
    """The bucket of a set: its earliest position in the order (the constant last)."""
    return min(map(rank.__getitem__, key), default=len(rank))


def _file_terms(
    terms: dict[InteractionSet, float], order: tuple[int, ...]
) -> tuple[list[int], _Buckets]:
    """Each variable's position in ``order``, and the terms filed by :func:`_first`.

    Once the variables before ``order[r]`` are summed out, bucket r holds
    exactly the sets containing ``order[r]``, and every superset of one of
    them, so a step reads one bucket and touches no other.
    """
    rank = [0] * len(order)
    for r, v in enumerate(order):
        rank[v] = r
    buckets: _Buckets = [{} for _ in range(len(order) + 1)]
    for key, b in terms.items():
        buckets[_first(rank, key)][key] = b
    buckets[-1].setdefault((), 0.0)
    return rank, buckets


def _take(buckets: _Buckets, r: int) -> list[tuple[InteractionSet, float]]:
    """Prune bucket r, empty it and return its sets sorted.

    Call it once the variables before ``order[r]`` are summed out: a prune
    of all buckets together would then drop the same sets from it.  Only
    exact zeros with no surviving superset go.  Discarding small-but-nonzero
    coefficients would perturb the energy and void the bound certificates at
    the same magnitude, so unlike public polynomial arithmetic the engine
    never rounds mass away.
    """
    bucket = buckets[r]
    buckets[r] = {}
    if any(b == 0.0 for b in bucket.values()):
        prune_dead(bucket, bool)
    return sorted(bucket.items())


def _add_table(
    buckets: _Buckets, rank: list[int], variables: list[int], deltas: np.ndarray
) -> None:
    """Add a folded table's Moebius coefficients, each to its set's bucket.

    Entry ``mask`` is the set :func:`pbmrf.pbf.subset_keys` lists there; its
    bucket is built alongside, one variable at a time.  That listing puts
    every set after its subsets, so the family stays closed under subsets.
    """
    firsts = [len(rank)]
    for v in variables:
        rv = rank[v]
        firsts += [f if f < rv else rv for f in firsts]
    for key, first, delta in zip(subset_keys(variables), firsts, deltas.tolist()):
        bucket = buckets[first]
        bucket[key] = bucket.get(key, 0.0) + delta  # a new -0.0 delta stores 0.0


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


# -- the engine ---------------------------------------------------------------

# A step's record: the variable, its sorted neighbours, and its local table
# (float h for a POMM, h > 0 for the max marginal's backward pass).
_Record = tuple[int, list[int], np.ndarray]


def _eliminate_dense(
    energy: PseudoBooleanFunction, order: tuple[int, ...], cfg: EliminationConfig
) -> tuple[float, list[_Record], list[StepDiagnostics]]:
    """Exact elimination on per-bucket lists of dense value factors.

    A factor is (scope, table): a sorted scope and its 2^m values in the
    :func:`pbmrf.pbf.tabulate` bit convention.  The input's nonzero sets are
    tabulated once per bucket, at its step.  The step sums its factors onto
    the joint scope (x_i and its neighbours), folds the x_i axis, and files
    the message under its first remaining variable.
    """
    summing = cfg.marginal == "sum"
    fold = np.logaddexp if summing else np.maximum
    record = not summing or cfg.pomm_variant != "none"
    rank, inputs = _file_terms(energy.terms(), order)
    buckets: list[list[tuple[tuple[int, ...], np.ndarray]]] = [[] for _ in inputs]

    records: list[_Record] = []
    steps: list[StepDiagnostics] = []
    for step_no, i in enumerate(order):
        pairs = [(key, b) for key, b in inputs[step_no].items() if b != 0.0]
        factors = buckets[step_no]
        inputs[step_no], buckets[step_no] = {}, []  # free the consumed bucket
        own = tuple(sorted({v for key, _ in pairs for v in key}))
        joint = sorted({i, *own}.union(*(scope for scope, _ in factors)))
        eta = len(joint) - 1
        if len(joint) > DENSE_TABLE_CAP:
            raise ResourceCapError(
                f"step {step_no}, variable {i}: eta {eta} needs a joint table "
                f"of 2^{len(joint)} entries, cap is 2^{DENSE_TABLE_CAP}"
            )
        if pairs:
            table = tabulate(pairs, own, f"step {step_no}, variable {i}")
            factors.insert(0, (own, table))
        # C order puts the last variable of the joint scope on axis 0.
        axes = joint[::-1]
        total = np.zeros((2,) * len(joint))
        for scope, table in factors:
            total += table.reshape([2 if v in scope else 1 for v in axes])
        t0, t1 = np.moveaxis(total, axes.index(i), 0)
        extras = [v for v in joint if v != i]
        if record:
            h = (t1 - t0).reshape(-1)
            records.append((i, extras, h if summing else h > 0.0))
        message = fold(t0, t1).reshape(-1)
        buckets[_first(rank, extras)].append((tuple(extras), message))
        steps.append(StepDiagnostics(variable=i, eta_before=eta, eta_after=eta))
    log_value = 0.0 + inputs[-1][()]  # a -0.0 constant gives 0.0
    for _, message in buckets[-1]:
        log_value += float(message[0])
    return log_value, records, steps


def _eliminate_capped(
    energy: PseudoBooleanFunction, order: tuple[int, ...], cfg: EliminationConfig
) -> tuple[float, list[_Record], list[StepDiagnostics]]:
    """Capped elimination on per-bucket coefficient maps (approximate and bounds)."""
    rank, buckets = _file_terms(energy.terms(), order)
    direction = {"lower_bound": "lower", "upper_bound": "upper"}.get(cfg.mode)
    table_cap = cfg.table_cap if cfg.table_cap is not None else cfg.nu
    summing = cfg.marginal == "sum"

    records: list[_Record] = []
    record_folds = not summing or cfg.pomm_variant == "post_approximation"
    steps: list[StepDiagnostics] = []

    for step_no, i in enumerate(order):
        context = f"step {step_no}, variable {i}"
        # x_i's sets, sorted: every float sum below runs in this order.
        bucket = _take(buckets, step_no)
        neighbours = sorted({v for key, _ in bucket for v in key if v != i})
        eta_before = len(neighbours)
        if cfg.pomm_variant == "pre_approximation":
            records.append((i, neighbours, tabulate(bucket, neighbours, context)))

        partners: list[int] = []
        fallbacks = 0
        splits = 0
        while len(neighbours) > cfg.nu:
            scores = fstar_scores((i,), neighbours, bucket)
            j = min(neighbours, key=lambda r: (scores[r], r))
            if max(scores.values()) == 0.0:
                fallbacks += 1
                logger.debug(
                    "step %d: truncated error score vanished for every "
                    "partner of %d; falling back to smallest index %d",
                    step_no,
                    i,
                    j,
                )
            pair_sets = [(key, b) for key, b in bucket if j in key]
            kept = {key: b for key, b in bucket if j not in key}
            if cfg.mode == "approximate":
                updates = soir_removal_updates(pair_sets, i, j)
            else:
                updates, n_splits = bound_removal_updates(
                    pair_sets, i, j, direction, table_cap
                )
                splits += n_splits
            size = len(kept)
            for key, delta in sorted(updates.items()):
                if i in key:
                    kept[key] = kept.get(key, 0.0) + delta
                else:
                    # SOIR's residual: a subset of a set just taken, so
                    # it is filed already (the family is closed under subsets)
                    buckets[_first(rank, key)][key] += delta
            # Only a clamp adds sets to the bucket; re-sort only then.
            bucket = list(kept.items()) if len(kept) == size else sorted(kept.items())
            # The bucket is closed under subsets, so L minus j keeps every
            # other variable of a removed set L in the neighbourhood.
            neighbours = [v for v in neighbours if v != j]
            partners.append(j)

        h = tabulate(bucket, neighbours, context)
        if record_folds:
            records.append((i, neighbours, h if summing else h > 0.0))
        folded = np.logaddexp(0.0, h) if summing else np.maximum(0.0, h)
        _add_table(buckets, rank, neighbours, moebius_transform(folded))
        steps.append(
            StepDiagnostics(
                variable=i,
                eta_before=eta_before,
                eta_after=len(neighbours),
                partners=tuple(partners),
                fallback_partners=fallbacks,
                splits=splits,
            )
        )

    leftovers = [key for bucket in buckets[:-1] for key in bucket]
    if leftovers:
        raise RuntimeError(f"internal error: sets {leftovers} survived elimination")
    return buckets[-1][()], records, steps


def eliminate(target, cfg: EliminationConfig) -> EliminationResult:
    """Run variable elimination on an MRF or a raw energy polynomial."""
    energy = _energy_of(target)
    n = energy.n
    order = cfg.order if cfg.order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all variable indices")

    run = _eliminate_dense if cfg.mode == "exact" else _eliminate_capped
    log_value, records, steps = run(energy, order, cfg)

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
