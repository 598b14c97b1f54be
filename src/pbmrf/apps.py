"""Inference applications built on the elimination engine.

* MLE bracketing: certified bounds on the log likelihood over a shrinking
  theta grid pin down an interval that must contain the maximum
  likelihood estimate of a scalar-parameter model.
* MAP estimation: a Gaussian observation model adds a linear term to the
  prior energy and max-marginal elimination returns the posterior mode.
* Rejection sampling: a POMM proposal plus a certified bound on
  min_x [ln proposal - ln target], read from the SOIR removal errors of
  the approximate run, gives exact draws from the MRF.
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

from .elimination import EliminationConfig, _expit, eliminate, eliminate_many
from .pbf import (
    PseudoBooleanFunction,
    ResourceCapError,
    _allocate,
    _check_table_size,
    _entries,
    as_int,
    evaluate,
    evaluate_many,
    table_rows,
)
from .pomm import (
    _BLOCK_ROWS,
    PartiallyOrderedMarkovModel,
    SampleBatch,
    _uniform_columns,
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
    "RejectionResult",
    "rejection_sampler",
    "mh_acceptance_rate",
    "gibbs_sampler",
    "GIBBS_UPDATE_CAP",
]

logger = logging.getLogger(__name__)

# Most site updates one gibbs_sampler call may run, chains * sweeps run * n
# (about 1.7e10).  Measured on 2 CPUs, an update costs 13.5 ns (Ising 30x30,
# 400 chains) to 160 ns (Ising 12x12, one chain), so a run at the cap takes
# from 4 to 45 minutes.
GIBBS_UPDATE_CAP = 1 << 34


@dataclass(frozen=True)
class GaussianLikelihoodSpec:
    """Per-class means and a shared standard deviation for observations y."""

    mu0: float
    mu1: float
    sigma: float = 1.0

    def __post_init__(self):
        if not self.sigma > 0:  # NaN too
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
    model_builder: Callable[[float], PseudoBooleanFunction],
    theta_grid,
    nu_schedule,
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
    interval with as many values as ``theta_grid`` (at least 3) and a larger
    nu.

    A round bounds ln c over its whole grid with one call of
    :func:`pbmrf.elimination.eliminate_many`, with a lower-bound and an
    upper-bound config for each grid model: the members, both bounds of
    every theta, share engine steps while they take the same decisions,
    and each bound equals its own single run byte for byte.

    A later round can only be trusted inside the previous interval, so
    grids never leave it; an empty survivor set would mean the concavity
    assumption failed and raises instead of clamping.  ``observed`` must
    hold 0/1 values, the grid finite values, and each nu an integer;
    otherwise ValueError names the argument.
    """
    observed = np.asarray(observed).reshape(-1)
    if not np.all((observed == 0) | (observed == 1)):
        raise ValueError("observed must hold only 0/1 values")
    observed = observed.astype(np.uint8)
    grid = [float(t) for t in theta_grid]
    if not all(map(math.isfinite, grid)):
        raise ValueError("theta_grid values must be finite")
    if sorted(grid) != grid or len(grid) < 3:
        raise ValueError("theta_grid must be sorted with at least 3 points")
    schedule = [as_int("nu", v) for v in nu_schedule]
    if not schedule:
        raise ValueError("nu_schedule is empty")

    rounds: list[MleRound] = []
    for nu in schedule:
        ell_lower, ell_upper = _bound_curves(observed, model_builder, grid, nu, table_cap)
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
        grid = [float(t) for t in np.linspace(lo, hi, len(grid))]
    return MleBracket(
        theta_lo=rounds[-1].theta_lo,
        theta_hi=rounds[-1].theta_hi,
        rounds=tuple(rounds),
        nu_schedule=tuple(schedule),
    )


def _bound_curves(observed, model_builder, grid, nu, table_cap) -> tuple[list, list]:
    """ell(theta) bounded from below and above at each grid theta.

    One batched elimination covers both bounds over the whole grid.
    """
    lo_cfg, hi_cfg = (
        EliminationConfig(mode=mode, nu=nu, table_cap=table_cap)
        for mode in ("lower_bound", "upper_bound")
    )
    models = [model_builder(theta) for theta in grid]
    energies = [evaluate(model, observed) for model in models]
    size = len(models)
    bounds = eliminate_many(models + models, [lo_cfg] * size + [hi_cfg] * size)
    ln_c_lower, ln_c_upper = bounds[:size], bounds[size:]
    return (
        [e - r.log_value for e, r in zip(energies, ln_c_upper)],
        [e - r.log_value for e, r in zip(energies, ln_c_lower)],
    )


# -- maximum posterior estimation -------------------------------------------


def posterior_energy(
    y: np.ndarray, prior: PseudoBooleanFunction, lik: GaussianLikelihoodSpec
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
    terms = prior.terms()
    # an overflow reaches the constructor, which refuses it by name, unwarned
    with np.errstate(all="ignore"):
        constant = float(np.sum(-((y - lik.mu0) ** 2) / var2 + log_norm))
        linear = ((y - lik.mu0) ** 2 - (y - lik.mu1) ** 2) / var2
    terms[()] = terms.get((), 0.0) + constant
    for i in range(prior.n):
        terms[(i,)] = terms.get((i,), 0.0) + float(linear[i])
    return PseudoBooleanFunction(prior.n, terms)


def map_estimate(
    y: np.ndarray,
    prior: PseudoBooleanFunction,
    lik: GaussianLikelihoodSpec,
    cfg: EliminationConfig,
) -> np.ndarray:
    """State maximising the posterior, via max-marginal elimination."""
    if cfg.marginal != "max":
        raise ValueError("map_estimate needs a max-marginal configuration")
    result = eliminate(posterior_energy(y, prior, lik), cfg)
    return result.argmax


# -- rejection sampling -------------------------------------------------------


@dataclass(frozen=True)
class RejectionResult:
    """Accepted exact samples plus the run's bookkeeping."""

    samples: SampleBatch
    acceptance_rate: float
    log_k_bound: float
    trials: int
    max_alpha: float


def rejection_sampler(
    target: PseudoBooleanFunction,
    nu: int,
    seed: int,
    count: int,
    *,
    rate_floor: float = 1e-3,
    trial_budget: int | None = None,
) -> RejectionResult:
    """Exact samples from the MRF by rejection against a POMM proposal.

    The proposal is the post-approximation POMM at the given nu (its
    conditional tables must be cheap to normalise, hence that variant).
    Candidates are accepted with probability
    alpha(x) = k * exp{U(x)} / proposal(x), with ln k a certified lower
    bound on min_x [ln proposal(x) - U(x)].  Each SOIR removal k of the
    run changes the energy by (x_i - 1/2)(x_j - 1/2) g_k, so
    U(x) - ln proposal(x) = ln c~ + sum_k of those errors, and
    ln k = -(ln c~ + soir_error), with ln c~ the run's log_value and
    ``soir_error`` (see :class:`pbmrf.elimination.EliminationResult`) at
    least sum_k max|g_k| / 4; alpha <= 1 is guaranteed.

    Trial t consumes uniform block t (n state draws plus one acceptance
    draw), so results are reproducible and independent of batch sizes.
    Each round of max(1024, 2 * count) trials is drawn and walked
    _BLOCK_ROWS trials at a time, so memory beyond the kept states is O(n).
    Aborts when the empirical rate stays under ``rate_floor`` after
    ``trial_budget`` trials (at least 1), which signals that nu is too small.
    """
    count = as_int("count", count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0.0 <= rate_floor <= 1.0:  # NaN too
        raise ValueError(f"rate_floor must lie in [0, 1], got {rate_floor}")
    if trial_budget is None:
        trial_budget = max(10_000, 200 * count)
    budget = as_int("trial_budget", trial_budget)
    if budget < 1:
        raise ValueError(f"trial_budget must be >= 1, got {budget}")
    rng = generator(seed, REJECT_STREAM)
    cfg = EliminationConfig(mode="approximate", nu=nu, pomm_variant="post_approximation")
    result = eliminate(target, cfg)
    pomm = result.pomm
    n = target.n
    log_k = -(result.log_value + result.soir_error)

    # the first ``count`` accepted states, in trial order; no more than
    # ``budget`` can be accepted
    room = min(count, budget)
    kept_states = _allocate((room, n), np.uint8, f"count={count}")
    kept_dens = _allocate(room, float, f"count={count}")
    accepted = 0
    trials = 0
    max_alpha = 0.0
    batch = max(1024, 2 * count)
    backward = pomm.conditionals[::-1]
    while accepted < count and trials < budget:
        block = min(batch, budget - trials)
        for start in range(0, block, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, block - start)
            uniforms = _uniform_columns(rng, rows, n + 1)
            states = np.zeros((n, rows), dtype=np.uint8)
            log_dens = _walk(backward, states, uniforms)
            log_alpha = log_k + evaluate_many(target, states.T) - log_dens
            max_alpha = max(max_alpha, float(np.exp(log_alpha.max(initial=-np.inf))))
            accept = np.flatnonzero(uniforms[n] < np.exp(np.minimum(log_alpha, 0.0)))
            kept = min(accepted, count)
            keep = accept[: count - kept]
            kept_states[kept : kept + len(keep)] = states.T[keep]
            kept_dens[kept : kept + len(keep)] = log_dens[keep]
            accepted += len(accept)
        trials += block
    if accepted < count:
        rate = accepted / trials
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
    kept = min(accepted, count)
    samples = SampleBatch(states=kept_states[:kept], log_densities=kept_dens[:kept])
    return RejectionResult(
        samples=samples,
        acceptance_rate=accepted / trials,
        log_k_bound=float(log_k),
        trials=trials,
        max_alpha=max_alpha,
    )


# -- Metropolis-Hastings acceptance rate --------------------------------------


def mh_acceptance_rate(
    target: PseudoBooleanFunction,
    pomm: PartiallyOrderedMarkovModel,
    current,
    seed: int,
) -> float:
    """Mean acceptance of independent POMM proposals against the MRF.

    ``current`` is a (pairs, n) 0/1 array of (approximately) independent
    draws from the target, and ``seed`` draws one POMM proposal per row.
    For each pair (x from the target, x' from the POMM) the acceptance is
    min{1, exp(U(x')) p~(x) / [exp(U(x)) p~(x')]}; the unknown normalising
    constants cancel.  An empty or mis-shaped ``current``, or one holding
    values other than 0/1, raises ValueError naming it.
    """
    current = np.asarray(current)
    if current.ndim != 2 or current.shape[1] != target.n or not len(current):
        raise ValueError(
            f"current must be a non-empty (pairs, {target.n}) array, got shape {current.shape}"
        )
    if not np.all((current == 0) | (current == 1)):
        raise ValueError("current must hold only 0/1 values")
    current = current.astype(np.uint8)
    proposal = pomm_sample(pomm, seed, len(current))
    log_ratio = (
        evaluate_many(target, proposal.states)
        - evaluate_many(target, current)
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
        logit = np.zeros(1 << len(nbrs))
        for others, b in terms:
            need = sum(bit[v] for v in others)
            logit[_entries(len(nbrs), need, need)] += b
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


def _gibbs_skew(neighbours: list[list[int]], levels: list[list[int]], window: int) -> int:
    """Steps between a site's updates in consecutive sweeps of the wavefront.

    Site k of sweep s runs at step level(k) + skew * s.  A higher neighbour
    j of k must show k its sweep s - 1 value, so that update must come
    first: skew > level(j) - level(k) for every neighbour pair j > k, which
    also keeps neighbours out of one step (2 on a lattice).  A step reads
    the uniforms of (len(levels) - 1) // skew + 1 sweeps, so the skew
    widens until they fit in ``window`` sweeps; at skew = len(levels) the
    sweeps run one after another.
    """
    level = {k: lv for lv, sites in enumerate(levels) for k in sites}
    least = 1 + max(
        (level[j] - level[k] for k, nbrs in enumerate(neighbours) for j in nbrs if j > k),
        default=0,
    )
    return max(least, (len(levels) - 1) // window + 1)


def gibbs_sampler(
    mrf: PseudoBooleanFunction,
    sweeps: int,
    burn_in: int,
    thin: int,
    seed: int,
    chains: int = 1,
) -> np.ndarray:
    """Systematic-scan single-site Gibbs sampling from the energy ``mrf``.

    Full conditionals come from the energy's interactions touching each
    site: P(x_k = 1 | rest) = expit(sum of beta * prod of the other
    variables).  States are recorded at sweeps s >= burn_in with
    (s - burn_in) % thin == 0 below ``sweeps``, and no sweep runs after the
    last record.  ``chains`` independent replicas run in lockstep (uniforms
    are consumed sweep by sweep, site by site, chain by chain), and the
    recorded states are returned as one (chains * records, n) uint8 array,
    chain-major.

    Each site's conditional is tabulated once over its neighbours.  Site k
    of sweep s is updated at step level(k) + skew * s (see ``_gibbs_levels``
    and ``_gibbs_skew``), so one step advances several sweeps at once (loop
    skewing; Wolfe, 1986).  Each site still reads exactly what the
    site-by-site scan in index order reads, so the draws are the scan's,
    bit for bit.  Uniforms are drawn a chunk of sweeps at a time into a ring
    of max(1, _BLOCK_ROWS // chains) sweeps.

    A run of more than GIBBS_UPDATE_CAP site updates,
    chains * (burn_in + (records - 1) * thin + 1) * n, raises
    ResourceCapError naming the arguments before the first draw.  A Gibbs
    draw has no sampling density to return; ``evaluate_many(mrf, states)``
    gives the unnormalised log target U(x).
    """
    sweeps = as_int("sweeps", sweeps)
    burn_in = as_int("burn_in", burn_in)
    thin = as_int("thin", thin)
    chains = as_int("chains", chains)
    if sweeps < 1 or burn_in < 0 or thin < 1 or chains < 1:
        raise ValueError("need sweeps >= 1, burn_in >= 0, thin >= 1, chains >= 1")
    n = mrf.n
    neighbours, tables = _site_conditionals(mrf)
    prob_one = np.concatenate(tables)
    offsets = np.cumsum([0] + [t.size for t in tables[:-1]])
    levels = _gibbs_levels(neighbours)
    depth = len(levels)
    # Uniforms of at most this many sweeps are held: _BLOCK_ROWS * n values.
    window = max(1, _BLOCK_ROWS // chains)
    skew = _gibbs_skew(neighbours, levels, window)
    # Per phase r < skew, the levels r, r + skew, ... that share a step,
    # their sites in level order: the sites, their neighbour columns
    # (bit-major, padded with column n, always 0, so padding adds nothing to
    # a table index), their table offsets, each site's uniform row k - m * n
    # and the index of each level's first site.  A step of phase r updates
    # level r + skew * m at sweep q - m, where q = step // skew, so site k
    # reads uniform row (q - m) * n + k, held at that modulo window * n.
    phases = []
    for r in range(skew):
        group = levels[r::skew]
        sites = np.array([k for g in group for k in g])
        width = max(len(neighbours[k]) for k in sites)
        gather = np.full((width, len(sites)), n, dtype=np.intp)
        for col, k in enumerate(sites):
            gather[: len(neighbours[k]), col] = neighbours[k]
        lag = np.repeat(np.arange(len(group)), [len(g) for g in group])
        starts = np.cumsum([0] + [len(g) for g in group]).tolist()
        phases.append((sites, gather, offsets[sites][:, None], sites - lag * n, starts))
    level_sites = [np.array(sites) for sites in levels]

    rng = generator(seed, GIBBS_STREAM)
    records = max(0, -(-(sweeps - burn_in) // thin))
    context = f"chains={chains}, sweeps={sweeps}, burn_in={burn_in}, thin={thin}"
    if not records:
        raise ValueError(f"no sweep satisfied the burn-in/thinning schedule: {context}")
    # Allocated before the first draw, so a record count past memory fails
    # at once; chain-major: all of chain 0's records first.
    recorded = _allocate((chains, records, n), np.uint8, context)
    total = burn_in + (records - 1) * thin + 1
    if chains * total * n > GIBBS_UPDATE_CAP:
        raise ResourceCapError(
            f"gibbs_sampler: {context} asks for {chains * total * n} site updates "
            f"on {n} sites, cap is {GIBBS_UPDATE_CAP}"
        )
    states = np.zeros((n + 1, chains), dtype=np.uint8)
    states[:n] = (rng.random((chains, n)) < 0.5).T
    # sweep s's (n, chains) uniforms sit in slot s % window; ``ready`` are drawn
    drawn = np.empty((window, n, chains))
    flat = drawn.reshape(-1, chains)
    ready = 0
    for step in range(skew * (total - 1) + depth):
        q, r = divmod(step, skew)
        sites, gather, base, draw_rows, starts = phases[r]
        m_lo, m_hi = max(0, q - total + 1), min(len(starts) - 1, q + 1)
        lo, hi = starts[m_lo], starts[m_hi]
        if lo >= hi:
            continue
        if q - m_lo >= ready:
            # draw on, into the slots of the sweeps no later step reads
            stop = min(total, max(0, -((depth - 1 - step) // skew)) + window)
            while ready < stop:
                slot = ready % window
                fresh = min(stop - ready, window - slot)
                rng.random(out=drawn[slot : slot + fresh])
                ready += fresh
        index = base[lo:hi] + table_rows(states, gather[:, lo:hi])
        uniforms = flat.take((draw_rows[lo:hi] + q * n) % (window * n), axis=0)
        states[sites[lo:hi]] = uniforms < prob_one.take(index)
        # record sweep s once this step finishes its level, step - skew * s
        newest, oldest = q - m_lo, q - m_hi + 1
        for j in range(max(0, -(-(oldest - burn_in) // thin)), records):
            s = burn_in + j * thin
            if s > newest:
                break
            done = level_sites[step - skew * s]
            recorded[:, j, done] = states[done].T
    return recorded.reshape(-1, n)
