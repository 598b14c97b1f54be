"""Variable elimination over pseudo-Boolean energies.

One elimination step splits the energy into the part touching the chosen
variable and the rest, folds the touching part over the variable's two
values (log-sum-exp for partition sums, max for Viterbi), and converts
the folded table back into interaction coefficients.  The cost of a step
is 2^eta for the variable's current neighbour count eta, so exact
elimination dies once neighbourhoods grow past the dense-table cap.

Three tactics keep eta at a user cap nu: before summing a variable whose
neighbourhood is too large, interactions linking it to a chosen partner
are removed either by the least-squares SOIR update (approximate mode)
or by a one-sided clamp bound (bound modes, giving certified lower/upper
log normalising constants).  Partners, and pivots for bound splitting,
are picked by the truncated worst-case error score of
:func:`pbmrf.approx.fstar_scores`.

As a by-product each step can record the variable's conditional
distribution, yielding a partially ordered Markov model: either before
the cap-forcing removals (closest to the target) or after them (every
dependency set is at most nu, so conditional normalisation stays cheap).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .approx import (
    bound_removal_updates,
    fstar_choice,
    fstar_scores,
    soir_removal_updates,
)
from .pbf import (
    DENSE_TABLE_CAP,
    InteractionSet,
    PseudoBooleanFunction,
    ResourceCapError,
    add_scaled,
    close_subsets,
    moebius_transform,
    subset_keys,
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
    """Dense coefficient map with per-variable membership and pair indexes.

    ``by_var[v]`` holds the stored sets containing v and ``partners[v]``
    the variables w whose pair {v, w} is stored.  Because the family is
    dense, the partners of v are exactly the variables sharing a set with
    v, and a set K has a stored superset exactly when K + {w} is stored for
    some w, which is then a partner of every variable of K.

    ``touched`` holds the sets that may have died since the last
    :meth:`prune`: every set whose coefficient ``add`` changed and the
    direct subsets of every set ``take`` removed.  A set outside it still
    has the nonzero coefficient or the surviving superset that kept it
    alive at the last prune, so only touched sets can die.  A new store
    marks every set as touched, which makes its first prune a full one.
    """

    __slots__ = ("beta", "by_var", "partners", "touched")

    def __init__(self, terms: dict[InteractionSet, float]):
        self.beta = dict(terms)
        self.beta.setdefault((), 0.0)
        self.by_var: dict[int, set[InteractionSet]] = {}
        self.partners: dict[int, set[int]] = {}
        for key in self.beta:
            self._index(key)
        self.touched: set[InteractionSet] = set(self.beta)

    def _index(self, key: InteractionSet) -> None:
        for v in key:
            self.by_var.setdefault(v, set()).add(key)
        if len(key) == 2:
            a, b = key
            self.partners.setdefault(a, set()).add(b)
            self.partners.setdefault(b, set()).add(a)

    def _unindex(self, key: InteractionSet) -> None:
        for v in key:
            self.by_var[v].discard(key)
        if len(key) == 2:
            a, b = key
            self.partners[a].discard(b)
            self.partners[b].discard(a)

    def neighbours(self, i: int) -> list[int]:
        return sorted(self.partners.get(i, ()))

    def supersets(self, base: InteractionSet) -> list[tuple[InteractionSet, float]]:
        pools = [self.by_var.get(v, set()) for v in base]
        if not base:
            keys = list(self.beta)
        elif len(base) == 1:
            keys = pools[0]
        elif any(not pool for pool in pools):
            return []
        else:
            smallest = min(pools, key=len)
            baseset = set(base)
            keys = [k for k in smallest if baseset.issubset(k)]
        return sorted((k, self.beta[k]) for k in keys)

    def take(self, base: InteractionSet) -> list[tuple[InteractionSet, float]]:
        """Remove and return :meth:`supersets` of ``base``.

        The removed family is closed under supersets, so the direct subsets
        of a removed set that stay are those missing one variable of base.
        """
        members = self.supersets(base)
        for key, _ in members:
            del self.beta[key]
            self._unindex(key)
            for v in base:
                k = key.index(v)
                self.touched.add(key[:k] + key[k + 1 :])
        return members

    def add(self, key: InteractionSet, delta: float) -> None:
        if key not in self.beta:
            # New set: insert its full subset closure to keep the family dense.
            self.beta[key] = 0.0
            for k in [key] + close_subsets(self.beta, [key]):
                self._index(k)
        self.beta[key] += delta
        self.touched.add(key)

    def add_table(self, keys: list[InteractionSet], deltas: np.ndarray) -> None:
        """``add`` each key in turn, for keys listed after all their subsets.

        :func:`pbmrf.pbf.subset_keys` of a sorted list is such a listing, so
        every subset of a new key is already stored and no closure is needed.
        """
        beta = self.beta
        for key, delta in zip(keys, deltas.tolist()):
            if key in beta:
                beta[key] += delta
            else:
                beta[key] = 0.0 + delta  # as in add: a -0.0 delta stores 0.0
                self._index(key)
        self.touched.update(keys)

    def prune(self) -> None:
        # Only structurally dead sets (exact zeros with no surviving
        # superset) are dropped.  Discarding small-but-nonzero
        # coefficients would perturb the energy and void the bound
        # certificates at the same magnitude, so unlike public polynomial
        # arithmetic the engine never rounds mass away.  Only touched sets
        # can die; they are visited from the largest size down, so every
        # superset that dies goes first, and the direct subsets of each
        # dropped set join the visit.
        beta = self.beta
        partners = self.partners
        by_size: dict[int, set[InteractionSet]] = {}
        for key in self.touched:
            if key and beta.get(key, 1.0) == 0.0:
                by_size.setdefault(len(key), set()).add(key)
        self.touched = set()
        size = max(by_size, default=0)
        while size > 0:
            for key in by_size.pop(size, ()):
                pool = min((partners.get(u, ()) for u in key), key=len)
                if any(
                    tuple(sorted(key + (w,))) in beta for w in pool if w not in key
                ):
                    continue
                del beta[key]
                self._unindex(key)
                if size > 1:
                    for k in range(size):
                        sub = key[:k] + key[k + 1 :]
                        if beta.get(sub, 1.0) == 0.0:
                            by_size.setdefault(size - 1, set()).add(sub)
            size -= 1


def _local_table(
    members: list[tuple[InteractionSet, float]], i: int, context: str
) -> tuple[list[int], np.ndarray]:
    """Tabulate the part of the energy touching variable i at x_i = 1.

    ``members`` are the sets containing i with their coefficients.
    Returns the sorted neighbour list V and the table of
    sum over sets containing i of beta * prod_{k in set, k != i} x_k,
    indexed with bit t = value of V[t].
    """
    extras = sorted({v for key, _ in members for v in key if v != i})
    return extras, tabulate(members, extras, f"{context}, variable {i}")


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


def eliminate(target, cfg: EliminationConfig) -> EliminationResult:
    """Run variable elimination on an MRF or a raw energy polynomial."""
    energy = _energy_of(target)
    n = energy.n
    order = cfg.order if cfg.order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all variable indices")

    store = _TermStore(energy.terms())
    approximating = cfg.mode != "exact"
    direction = {"lower_bound": "lower", "upper_bound": "upper"}.get(cfg.mode)
    table_cap = cfg.table_cap if cfg.table_cap is not None else cfg.nu
    summing = cfg.marginal == "sum"

    conditionals: list[PommConditional] = []
    max_records: list[tuple[int, list[int], np.ndarray]] = []
    steps: list[StepDiagnostics] = []

    for step_no, i in enumerate(order):
        eta_before = len(store.neighbours(i))
        if cfg.pomm_variant == "pre_approximation":
            conditionals.append(_capture_conditional(store, i, step_no))

        partners: list[int] = []
        fallbacks = 0
        splits = 0
        if approximating:
            neighbours = store.neighbours(i)
            while len(neighbours) > cfg.nu:
                members_i = store.supersets((i,))
                scores = fstar_scores((i,), neighbours, members_i)
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
                pair_sets = store.take(tuple(sorted((i, j))))
                if cfg.mode == "approximate":
                    updates = soir_removal_updates(pair_sets, i, j)
                else:
                    updates, n_splits = bound_removal_updates(
                        pair_sets, i, j, direction, table_cap, fstar_choice
                    )
                    splits += n_splits
                for key, delta in sorted(updates.items()):
                    store.add(key, delta)
                partners.append(j)
                neighbours = store.neighbours(i)
            if len(neighbours) > cfg.nu:
                raise RuntimeError(
                    f"internal error: eta {len(neighbours)} > nu {cfg.nu} "
                    f"after forced removals at step {step_no}"
                )

        if cfg.pomm_variant == "post_approximation":
            conditionals.append(_capture_conditional(store, i, step_no))

        extras, h = _local_table(store.take((i,)), i, f"step {step_no}")
        eta_after = len(extras)
        if summing:
            folded = np.logaddexp(0.0, h)
        else:
            max_records.append((i, extras, h))
            folded = np.maximum(0.0, h)
        store.add_table(subset_keys(extras), moebius_transform(folded))
        store.prune()
        steps.append(
            StepDiagnostics(
                variable=i,
                eta_before=eta_before,
                eta_after=eta_after,
                partners=tuple(partners),
                fallback_partners=fallbacks,
                splits=splits,
            )
        )

    leftovers = [k for k in store.beta if k]
    if leftovers:
        raise RuntimeError(f"internal error: sets {leftovers} survived elimination")
    log_value = store.beta.get((), 0.0)

    argmax = None
    if not summing:
        argmax = np.zeros(n, dtype=np.uint8)
        for i, extras, h in reversed(max_records):
            mask = 0
            for t, v in enumerate(extras):
                mask |= int(argmax[v]) << t
            argmax[i] = 1 if h[mask] > 0.0 else 0

    pomm = None
    if cfg.pomm_variant != "none":
        pomm = PartiallyOrderedMarkovModel(n, tuple(conditionals))

    return EliminationResult(
        log_value=float(log_value),
        mode=cfg.mode,
        marginal=cfg.marginal,
        nu=cfg.nu,
        argmax=argmax,
        pomm=pomm,
        per_step=tuple(steps),
    )


def _capture_conditional(store: _TermStore, i: int, step_no: int) -> PommConditional:
    extras, h = _local_table(
        store.supersets((i,)), i, f"POMM capture at step {step_no}"
    )
    return PommConditional(i, tuple(extras), _expit(h))


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
