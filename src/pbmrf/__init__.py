"""Binary Markov random fields as sparse pseudo-Boolean polynomials.

Exact, approximate and certified-bounded normalising constants, MAP
states and moments by (approximate) variable elimination, plus samplable
partially-ordered-Markov-model surrogates of the field.
"""

from .pbf import (
    DENSE_TABLE_CAP,
    InteractionSet,
    PseudoBooleanFunction,
    ResourceCapError,
    add_scaled,
    evaluate,
    evaluate_many,
    extract_subset_family,
    interaction_set,
    interactions_from_values,
    scale,
    to_json,
)
from .approx import (
    ApproximationReport,
    BoundDirection,
    bound_remove_pair,
    remove_single_interaction,
    soir,
)
from .models import (
    LatticeSpec,
    build_2x2_rotinv,
    build_autologistic,
    build_higher_order,
    build_independence,
    build_ising,
    model_from_config,
)
from .elimination import (
    EliminationConfig,
    EliminationResult,
    StepDiagnostics,
    eliminate,
    eliminate_exact_sum,
    eliminate_many,
    moment,
)
from .pomm import (
    PartiallyOrderedMarkovModel,
    PommConditional,
    SampleBatch,
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
