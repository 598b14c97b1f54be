"""Inference applications built on the elimination engine.

* MLE bracketing: certified bounds on the log likelihood over a shrinking
  theta grid pin down an interval that must contain the maximum
  likelihood estimate of a scalar-parameter model.
* MAP estimation: a Gaussian observation model adds a linear term to the
  prior energy and max-marginal elimination returns the posterior mode.
* Rejection sampling: a POMM proposal plus a certified bound on
  min_x [ln proposal - ln target] gives exact draws from the MRF.
* Metropolis-Hastings acceptance rate: measures how well a POMM mimics
  its MRF (normalising constants cancel in the ratio).
* Gibbs sampling: the reference sampler for everything above.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .elimination import EliminationConfig, _expit, eliminate, eliminate_max
from .models import MarkovRandomField
from .pbf import (
    PRUNE_TOL,
    PseudoBooleanFunction,
    _check_table_size,
    _table_terms,
    evaluate_many,
    prune_dead,
)
from .pomm import (
    PartiallyOrderedMarkovModel,
    SampleBatch,
    _walk,
    log_density_many,
    sample as pomm_sample,
)
from .rng import GIBBS_STREAM, REJECT_STREAM, generator

__all__ = [
    "GaussianLikelihoodSpec",
    "MleRound",
    "MleBracket",
    "mle_bracket",
    "map_estimate",
    "pomm_log_density_polynomial",
    "RejectionResult",
    "rejection_sampler",
    "mh_acceptance_rate",
    "gibbs_sampler",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GaussianLikelihoodSpec:
    """Per-class means and a shared standard deviation for observations y."""

    mu0: float
    mu1: float
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


# -- maximum likelihood bracketing ----------------------------------------


@dataclass(frozen=True)
class MleRound:
    """One grid refinement: bound curves, survivors, retained interval.

    ``kept_lo``/``kept_hi`` index the outermost grid points whose upper
    curve clears the cut; the retained interval extends one grid cell
    beyond them on each side (clamped to the grid), because the cut
    crossing of a concave likelihood lies between a surviving point and
    its excluded neighbour.
    """

    nu: int
    grid: tuple[float, ...]
    ell_lower: tuple[float, ...]
    ell_upper: tuple[float, ...]
    cut: float
    kept_lo: int
    kept_hi: int
    theta_lo: float
    theta_hi: float


@dataclass(frozen=True)
class MleBracket:
    """Interval certified to contain the MLE, with the per-round history."""

    theta_lo: float
    theta_hi: float
    rounds: tuple[MleRound, ...] = field(default=())
    nu_schedule: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.theta_lo > self.theta_hi:
            raise ValueError("empty bracket")


def mle_bracket(
    observed: np.ndarray,
    model_builder: Callable[[float], MarkovRandomField],
    theta_grid,
    nu_schedule,
    grid_points: int = 11,
    table_cap: int | None = None,
) -> MleBracket:
    """Bracket the MLE of a scalar parameter by bound curves.

    Per round: at each grid theta the log likelihood ell(theta) =
    U(observed; theta) - ln c(theta) is sandwiched by replacing ln c with
    its bounds at the round's nu.  No theta whose upper curve falls below
    the best lower value can be the MLE, and under a concave likelihood
    the survivors form an interval; the retained interval spans the
    outermost surviving grid points (conservative widening, since the
    crossing point lies between grid values).  The next round re-grids the
    interval with ``grid_points`` values and a larger nu.

    A later round can only be trusted inside the previous interval, so
    grids never leave it; an empty survivor set would mean the concavity
    assumption failed and raises instead of clamping.
    """
    observed = np.asarray(observed, dtype=np.uint8).reshape(1, -1)
    grid = [float(t) for t in theta_grid]
    if sorted(grid) != grid or len(grid) < 3:
        raise ValueError("theta grid must be sorted with at least 3 points")
    schedule = [int(v) for v in nu_schedule]
    if not schedule:
        raise ValueError("nu schedule is empty")

    rounds: list[MleRound] = []
    for nu in schedule:
        lo_cfg = EliminationConfig(mode="lower_bound", nu=nu, table_cap=table_cap)
        hi_cfg = EliminationConfig(mode="upper_bound", nu=nu, table_cap=table_cap)

        ell_lower: list[float] = []
        ell_upper: list[float] = []
        for theta in grid:
            model = model_builder(theta)
            energy = float(evaluate_many(model.energy, observed)[0])
            ln_c_lower = eliminate(model, lo_cfg).log_value
            ln_c_upper = eliminate(model, hi_cfg).log_value
            ell_lower.append(energy - ln_c_upper)
            ell_upper.append(energy - ln_c_lower)
        cut = max(ell_lower)
        survivors = [k for k, e in enumerate(ell_upper) if e >= cut]
        if not survivors:
            raise RuntimeError(
                "no grid point survives its own lower-bound cut; the "
                "log-likelihood cannot be concave over this grid"
            )
        kept_lo, kept_hi = min(survivors), max(survivors)
        lo = grid[max(kept_lo - 1, 0)]
        hi = grid[min(kept_hi + 1, len(grid) - 1)]
        rounds.append(
            MleRound(
                nu=nu,
                grid=tuple(grid),
                ell_lower=tuple(ell_lower),
                ell_upper=tuple(ell_upper),
                cut=cut,
                kept_lo=kept_lo,
                kept_hi=kept_hi,
                theta_lo=lo,
                theta_hi=hi,
            )
        )
        grid = list(np.linspace(lo, hi, grid_points))
    return MleBracket(
        theta_lo=rounds[-1].theta_lo,
        theta_hi=rounds[-1].theta_hi,
        rounds=tuple(rounds),
        nu_schedule=tuple(schedule),
    )


# -- maximum posterior estimation -------------------------------------------


def posterior_energy(
    y: np.ndarray, prior: MarkovRandomField, lik: GaussianLikelihoodSpec
) -> PseudoBooleanFunction:
    """Prior energy plus the Gaussian log likelihood of the observations.

    ln phi(y_i; mu_{x_i}, sigma) splits into a constant and a term linear
    in x_i, so the posterior energy stays on the prior's interaction sets.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (prior.n,):
        raise ValueError(f"observations have shape {y.shape}, expected ({prior.n},)")
    var2 = 2.0 * lik.sigma * lik.sigma
    log_norm = -math.log(lik.sigma * math.sqrt(2.0 * math.pi))
    terms = prior.energy.terms()
    constant = float(np.sum(-((y - lik.mu0) ** 2) / var2 + log_norm))
    terms[()] = terms.get((), 0.0) + constant
    linear = ((y - lik.mu0) ** 2 - (y - lik.mu1) ** 2) / var2
    for i in range(prior.n):
        terms[(i,)] = terms.get((i,), 0.0) + float(linear[i])
    return PseudoBooleanFunction(prior.n, terms)


def map_estimate(
    y: np.ndarray,
    prior: MarkovRandomField,
    lik: GaussianLikelihoodSpec,
    cfg: EliminationConfig,
) -> np.ndarray:
    """State maximising the posterior, via max-marginal elimination."""
    if cfg.marginal != "max":
        raise ValueError("map_estimate needs a max-marginal configuration")
    result = eliminate_max(posterior_energy(y, prior, lik), cfg)
    return result.argmax


# -- rejection sampling -------------------------------------------------------


def pomm_log_density_polynomial(
    pomm: PartiallyOrderedMarkovModel,
) -> PseudoBooleanFunction:
    """ln of the POMM density as a pseudo-Boolean polynomial.

    Each conditional adds the coefficients of its log table over the
    variable and its dependencies, negligible leaves pruned.  Degenerate
    probabilities (0 or 1) have no finite polynomial and are rejected, and
    tables over more than TERMS_TABLE_CAP variables raise ResourceCapError.
    """
    total: dict = {}
    for cond in pomm.conditionals:
        p = cond.prob_one
        if np.any(p <= 0.0) or np.any(p >= 1.0):
            raise ValueError(
                f"conditional for variable {cond.variable} is degenerate; "
                "its log has no polynomial representation"
            )
        variables = (cond.variable,) + cond.depends_on
        local = _table_terms(cond.log_table(), variables, "pomm_log_density_polynomial")
        prune_dead(local, lambda b: abs(b) >= PRUNE_TOL)
        for key, value in local.items():
            total[key] = total.get(key, 0.0) + value
    return PseudoBooleanFunction(pomm.n, total)


@dataclass(frozen=True)
class RejectionResult:
    """Accepted exact samples plus the run's bookkeeping."""

    samples: SampleBatch
    acceptance_rate: float
    log_k_bound: float
    trials: int
    max_alpha: float


def rejection_sampler(
    target: MarkovRandomField,
    nu: int,
    seed: int,
    count: int,
    *,
    rate_floor: float = 1e-3,
    trial_budget: int | None = None,
    table_cap: int | None = None,
) -> RejectionResult:
    """Exact samples from the MRF by rejection against a POMM proposal.

    The proposal is the post-approximation POMM at the given nu (its
    conditional tables must be cheap to normalise, hence that variant).
    Candidates are accepted with probability
    alpha(x) = k * exp{U(x)} / proposal(x), with ln k a certified lower
    bound on min_x [ln proposal(x) - U(x)] obtained by an upper-bound
    max-elimination of the negated difference; alpha <= 1 is guaranteed.

    Trial t consumes uniform block t (n state draws plus one acceptance
    draw), so results are reproducible and independent of batch sizes.
    Aborts when the empirical rate stays under ``rate_floor`` after
    ``trial_budget`` trials, which signals that nu is too small.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    cfg = EliminationConfig(
        mode="approximate",
        nu=nu,
        pomm_variant="post_approximation",
        table_cap=table_cap,
    )
    pomm = eliminate(target, cfg).pomm
    n = target.n
    # U - ln proposal, whose certified maximum bounds -ln k.
    terms = {k: -v for k, v in pomm_log_density_polynomial(pomm).terms().items()}
    for key, value in target.energy.terms().items():
        terms[key] = terms.get(key, 0.0) + value
    bound_cfg = EliminationConfig(
        mode="upper_bound", marginal="max", nu=nu, table_cap=table_cap
    )
    log_k = -eliminate_max(PseudoBooleanFunction(n, terms), bound_cfg).log_value

    budget = trial_budget if trial_budget is not None else max(10_000, 200 * count)
    rng = generator(seed, REJECT_STREAM)
    kept_states: list[np.ndarray] = []
    kept_dens: list[np.ndarray] = []
    accepted = 0
    trials = 0
    max_alpha = 0.0
    batch = max(1024, 2 * count)
    backward = pomm.conditionals[::-1]
    while accepted < count and trials < budget:
        block = min(batch, budget - trials)
        uniforms = rng.random((block, n + 1))
        states = np.zeros((n, block), dtype=np.uint8)
        log_dens = _walk(backward, states, uniforms)
        log_alpha = log_k + evaluate_many(target.energy, states.T) - log_dens
        max_alpha = max(max_alpha, float(np.exp(log_alpha.max(initial=-np.inf))))
        accept = uniforms[:, n] < np.exp(np.minimum(log_alpha, 0.0))
        kept_states.append(states.T[accept])
        kept_dens.append(log_dens[accept])
        accepted += int(accept.sum())
        trials += block
    if accepted < count:
        rate = accepted / trials if trials else 0.0
        if rate < rate_floor:
            raise RuntimeError(
                f"rejection rate {rate:.2e} below floor {rate_floor:.2e} after "
                f"{trials} trials; nu={nu} is too small for this target"
            )
        logger.warning(
            "trial budget %d exhausted with %d of %d samples accepted",
            trials,
            accepted,
            count,
        )
    states = np.concatenate(kept_states)[:count]
    dens = np.concatenate(kept_dens)[:count]
    samples = SampleBatch(seed=int(seed), states=states, log_densities=dens)
    return RejectionResult(
        samples=samples,
        acceptance_rate=accepted / trials if trials else 0.0,
        log_k_bound=float(log_k),
        trials=trials,
        max_alpha=max_alpha,
    )


# -- Metropolis-Hastings acceptance rate --------------------------------------


def mh_acceptance_rate(
    target: MarkovRandomField,
    pomm: PartiallyOrderedMarkovModel,
    reference_sampler: Callable[[int, int], np.ndarray],
    pairs: int,
    seed: int,
) -> float:
    """Mean acceptance of independent POMM proposals against the MRF.

    ``reference_sampler(count, seed)`` must yield (approximately)
    independent draws from the target.  For each pair (x from the target,
    x' from the POMM) the acceptance is
    min{1, exp(U(x')) p~(x) / [exp(U(x)) p~(x')]}; the unknown normalising
    constants cancel.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    current = np.asarray(reference_sampler(pairs, seed), dtype=np.uint8)
    if current.shape != (pairs, target.n):
        raise ValueError(
            f"reference sampler returned shape {current.shape}, "
            f"expected ({pairs}, {target.n})"
        )
    proposal = pomm_sample(pomm, seed, pairs)
    log_ratio = (
        evaluate_many(target.energy, proposal.states)
        - evaluate_many(target.energy, current)
        + log_density_many(pomm, current)
        - proposal.log_densities
    )
    return float(np.mean(np.exp(np.minimum(log_ratio, 0.0))))


# -- Gibbs sampling ------------------------------------------------------------


def _site_conditionals(
    energy: PseudoBooleanFunction,
) -> tuple[list[list[int]], list[np.ndarray]]:
    """Each site's energy neighbours and its full-conditional table.

    Entry t of site k's table is P(x_k = 1 | neighbours), where bit s of t
    is the value of ``neighbours[k][s]``.  Its logit adds, from 0.0 and in
    the energy's term order, the coefficient of every term holding k whose
    other variables are all 1: the same float sum a site-by-site update
    forms, so tabulating changes no draw.  A site with more than
    DENSE_TABLE_CAP neighbours raises ResourceCapError naming it before
    any table is built.
    """
    site_terms: list[list[tuple[tuple[int, ...], float]]] = [
        [] for _ in range(energy.n)
    ]
    for key, b in energy.terms().items():
        if b == 0.0:
            continue
        for k in key:
            site_terms[k].append((tuple(v for v in key if v != k), b))
    neighbours = [
        sorted({v for others, _ in terms for v in others}) for terms in site_terms
    ]
    for k, nbrs in enumerate(neighbours):
        _check_table_size(len(nbrs), f"gibbs_sampler, site {k}")
    tables = []
    for terms, nbrs in zip(site_terms, neighbours):
        bit = {v: 1 << s for s, v in enumerate(nbrs)}
        masks = np.arange(1 << len(nbrs))
        logit = np.zeros(masks.size)
        for others, b in terms:
            need = sum(bit[v] for v in others)
            logit[(masks & need) == need] += b
        tables.append(_expit(logit))
    return neighbours, tables


def _gibbs_levels(neighbours: list[list[int]]) -> list[list[int]]:
    """Sites grouped into levels, each updated at once within a sweep.

    ``level[k]`` is one more than the largest level among k's lower-index
    neighbours (0 without any).  Sites of one level share no term, each
    site's lower neighbours sit in earlier levels and its higher neighbours
    in later ones, so a level update reads exactly what the row-major
    single-site scan reads.  An r x c Ising lattice has r + c - 1 levels.
    """
    level: list[int] = []
    for k, nbrs in enumerate(neighbours):
        level.append(1 + max((level[j] for j in nbrs if j < k), default=-1))
    groups: list[list[int]] = [[] for _ in range(max(level, default=-1) + 1)]
    for k, lv in enumerate(level):
        groups[lv].append(k)
    return groups


def gibbs_sampler(
    mrf: MarkovRandomField,
    sweeps: int,
    burn_in: int,
    thin: int,
    seed: int,
    chains: int = 1,
) -> SampleBatch:
    """Systematic-scan single-site Gibbs sampling.

    Full conditionals come from the energy's interactions touching each
    site: P(x_k = 1 | rest) = expit(sum of beta * prod of the other
    variables).  States are recorded at sweeps s >= burn_in with
    (s - burn_in) % thin == 0.  ``chains`` independent replicas run in
    lockstep (uniforms are consumed sweep by sweep, site by site, chain by
    chain) and their draws are concatenated chain-major.

    Each site's conditional is tabulated once over its neighbours, and a
    sweep updates the sites level by level (see ``_gibbs_levels``): the
    draws are those of the site-by-site scan in index order, bit for bit.

    The returned log_densities hold the unnormalised log target U(x);
    the true sampling density of a Gibbs draw is not available.
    """
    if sweeps < 1 or burn_in < 0 or thin < 1 or chains < 1:
        raise ValueError("need sweeps >= 1, burn_in >= 0, thin >= 1, chains >= 1")
    n = mrf.n
    neighbours, tables = _site_conditionals(mrf.energy)
    prob_one = np.concatenate(tables)
    offsets = np.cumsum([0] + [t.size for t in tables[:-1]])
    # Per level: its sites, their neighbour columns padded with column n
    # (always 0, so padding adds nothing to a table index), the bit value
    # of each column and the sites' table offsets.
    schedule = []
    for sites in _gibbs_levels(neighbours):
        width = max(len(neighbours[k]) for k in sites)
        gather = np.full((len(sites), width), n, dtype=np.intp)
        for row, k in enumerate(sites):
            gather[row, : len(neighbours[k])] = neighbours[k]
        schedule.append(
            (np.array(sites), gather, 1 << np.arange(width), offsets[sites])
        )

    rng = generator(seed, GIBBS_STREAM)
    states = np.zeros((chains, n + 1), dtype=np.uint8)
    states[:, :n] = rng.random((chains, n)) < 0.5
    snapshots: list[np.ndarray] = []
    for sweep in range(sweeps):
        uniforms = rng.random((n, chains))
        for sites, gather, bits, base in schedule:
            rows = base + (states[:, gather] * bits).sum(axis=2)
            states[:, sites] = uniforms[sites].T < prob_one[rows]
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            snapshots.append(states[:, :n].copy())
    if not snapshots:
        raise ValueError("no sweep satisfied the burn-in/thinning schedule")
    # chain-major: all of chain 0's snapshots first.
    stacked = np.stack(snapshots, axis=1).reshape(-1, n)
    energies = evaluate_many(mrf.energy, stacked)
    return SampleBatch(seed=int(seed), states=stacked, log_densities=energies)


def gibbs_reference_sampler(
    mrf: MarkovRandomField, sweeps_per_sample: int, burn_in: int, chains: int = 1
) -> Callable[[int, int], np.ndarray]:
    """Adapt the Gibbs sampler to the (count, seed) reference interface."""

    def sampler(count: int, seed: int) -> np.ndarray:
        per_chain = -(-count // chains)
        batch = gibbs_sampler(
            mrf,
            sweeps=burn_in + per_chain * sweeps_per_sample,
            burn_in=burn_in,
            thin=sweeps_per_sample,
            seed=seed,
            chains=chains,
        )
        return batch.states[:count]

    return sampler
