"""Variable elimination over pseudo-Boolean energies.

One elimination step gathers the part of the energy touching the chosen
variable, folds it over the variable's two values (log-sum-exp for
partition sums, max for Viterbi), and hands the folded function of the
variable's neighbours on.  The cost of a step is 2^eta for the variable's
current neighbour count eta, so exact elimination dies once
neighbourhoods grow past the dense-table cap.

Both working representations are filed in buckets by their earliest
variable in the elimination order, as in Dechter's bucket elimination:
once the variables before i are summed out, i's bucket holds exactly the
parts of the energy containing i, so a step reads one bucket and touches
no other.  Exact mode keeps each bucket as a list of dense value factors
(scope, table): a step sums them onto (x_i, neighbours), folds the x_i
axis and files the message, and no coefficient is ever written.  The
capped modes keep one coefficient map instead, because their removals
read and rewrite interaction coefficients.  A capped step takes (and
prunes) its bucket once and works on it as a local sorted list, so the
store holds only what lies outside the current bucket: the step hands
back SOIR's residual sets, which lack x_i, and its folded table.

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


# -- mutable working state ---------------------------------------------------


class _TermStore:
    """Coefficient map filed in buckets by first-eliminated variable.

    ``buckets[r]`` holds the stored sets whose earliest variable in the
    elimination order is ``order[r]``; the constant sits in an extra last
    bucket.  Once the variables before ``order[r]`` are summed out, bucket
    r holds exactly the sets containing ``order[r]``, and every superset of
    one of them, so a step takes that one bucket and the store keeps only
    what lies outside it.  The stored family stays closed under subsets.
    """

    __slots__ = ("beta", "buckets", "rank")

    def __init__(self, terms: dict[InteractionSet, float], order: tuple[int, ...]):
        self.beta = dict(terms)
        self.beta.setdefault((), 0.0)
        self.rank = [0] * len(order)
        for r, v in enumerate(order):
            self.rank[v] = r
        self.buckets: list[set[InteractionSet]] = [set() for _ in range(len(order) + 1)]
        for key in self.beta:
            self._file(key)

    def _file(self, key: InteractionSet) -> None:
        first = min(map(self.rank.__getitem__, key), default=len(self.rank))
        self.buckets[first].add(key)

    def take(self, i: int) -> list[tuple[InteractionSet, float]]:
        """Prune the bucket of the current variable i, remove it, return it sorted."""
        r = self.rank[i]
        self.prune(r)
        taken = [(key, self.beta.pop(key)) for key in sorted(self.buckets[r])]
        self.buckets[r].clear()
        return taken

    def add(self, key: InteractionSet, delta: float) -> None:
        """Add to a stored set: a residual is a subset of a set just taken."""
        self.beta[key] += delta

    def add_table(self, keys: list[InteractionSet], deltas: np.ndarray) -> None:
        """Add each delta to its key, for keys listed after all their subsets.

        :func:`pbmrf.pbf.subset_keys` of a sorted list is such a listing, so
        every subset of a new key is already stored and no closure is needed.
        """
        beta = self.beta
        for key, delta in zip(keys, deltas.tolist()):
            if key in beta:
                beta[key] += delta
            else:
                beta[key] = 0.0 + delta  # a -0.0 delta stores 0.0
                self._file(key)

    def prune(self, r: int) -> None:
        """Drop the structurally dead sets of bucket r.

        Call it once the variables before ``order[r]`` are summed out: every
        superset of a set in the bucket is then in the bucket too, so
        pruning it alone drops what a whole-store prune would drop there.
        Only exact zeros with no surviving superset go.  Discarding
        small-but-nonzero coefficients would perturb the energy and void
        the bound certificates at the same magnitude, so unlike public
        polynomial arithmetic the engine never rounds mass away.
        """
        bucket = self.buckets[r]
        beta = self.beta
        if not any(beta[key] == 0.0 for key in bucket):
            return
        for key in prune_dead({key: beta[key] for key in bucket}, bool):
            del beta[key]
            bucket.discard(key)


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
    rank = [0] * len(order)
    for r, v in enumerate(order):
        rank[v] = r

    log_value = 0.0
    inputs: list[list[tuple[InteractionSet, float]]] = [[] for _ in order]
    for key, b in energy.terms().items():
        if b == 0.0:
            continue
        if key:
            inputs[min(map(rank.__getitem__, key))].append((key, b))
        else:
            log_value += b
    buckets: list[list[tuple[tuple[int, ...], np.ndarray]]] = [[] for _ in order]

    records: list[_Record] = []
    steps: list[StepDiagnostics] = []
    for step_no, i in enumerate(order):
        pairs, factors = inputs[step_no], buckets[step_no]
        inputs[step_no] = buckets[step_no] = []  # free the consumed bucket
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
        if extras:
            first = min(map(rank.__getitem__, extras))
            buckets[first].append((tuple(extras), message))
        else:
            log_value += float(message[0])
        steps.append(StepDiagnostics(variable=i, eta_before=eta, eta_after=eta))
    return log_value, records, steps


def _eliminate_store(
    energy: PseudoBooleanFunction, order: tuple[int, ...], cfg: EliminationConfig
) -> tuple[float, list[_Record], list[StepDiagnostics]]:
    """Capped elimination on the coefficient store (approximate and bounds)."""
    store = _TermStore(energy.terms(), order)
    direction = {"lower_bound": "lower", "upper_bound": "upper"}.get(cfg.mode)
    table_cap = cfg.table_cap if cfg.table_cap is not None else cfg.nu
    summing = cfg.marginal == "sum"

    records: list[_Record] = []
    record_folds = not summing or cfg.pomm_variant == "post_approximation"
    steps: list[StepDiagnostics] = []

    for step_no, i in enumerate(order):
        context = f"step {step_no}, variable {i}"
        # x_i's sets, sorted: every float sum below runs in this order.
        bucket = store.take(i)
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
                    store.add(key, delta)  # SOIR's residual, outside the bucket
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
        store.add_table(subset_keys(neighbours), moebius_transform(folded))
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

    leftovers = [k for k in store.beta if k]
    if leftovers:
        raise RuntimeError(f"internal error: sets {leftovers} survived elimination")
    return store.beta.get((), 0.0), records, steps


def eliminate(target, cfg: EliminationConfig) -> EliminationResult:
    """Run variable elimination on an MRF or a raw energy polynomial."""
    energy = _energy_of(target)
    n = energy.n
    order = cfg.order if cfg.order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all variable indices")

    run = _eliminate_dense if cfg.mode == "exact" else _eliminate_store
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
