"""Binary Markov random fields as sparse pseudo-Boolean polynomials.

Exact, approximate and certified-bounded normalising constants, MAP
states and moments by (approximate) variable elimination, plus samplable
partially-ordered-Markov-model surrogates of the field.
"""

from .pbf import (
    DENSE_TABLE_CAP,
    DenseLocalFunction,
    InteractionSet,
    PseudoBooleanFunction,
    ResourceCapError,
    add_scaled,
    evaluate,
    evaluate_many,
    extract_subset_family,
    from_json,
    interaction_set,
    interactions_from_values,
    scale,
    to_json,
    values_from_interactions,
)
from .approx import (
    ApproximationReport,
    BoundDirection,
    bound_remove_pair,
    remove_single_interaction,
    soir,
    sse,
)
from .models import (
    LatticeSpec,
    MarkovRandomField,
    NeighbourhoodSystem,
    build_2x2_rotinv,
    build_autologistic,
    build_higher_order,
    build_independence,
    build_ising,
    lattice_neighbourhood,
    load_model_config,
    model_from_config,
)
from .elimination import (
    EliminationConfig,
    EliminationResult,
    StepDiagnostics,
    eliminate,
    eliminate_approx,
    eliminate_bound,
    eliminate_exact_sum,
    eliminate_max,
    moment,
)
from .pomm import (
    PartiallyOrderedMarkovModel,
    PommConditional,
    SampleBatch,
    log_density,
    log_density_many,
    sample,
)
from .apps import (
    GaussianLikelihoodSpec,
    MleBracket,
    RejectionResult,
    gibbs_sampler,
    map_estimate,
    mh_acceptance_rate,
    mle_bracket,
    rejection_sampler,
)

__version__ = "0.1.0"
