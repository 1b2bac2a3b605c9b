"""gaplab: spectral gaps of finite group actions, averaging operators,
Kazhdan constants, expander certification, shrinking-target walks, and
discretized warped cones."""

from .group_core import (
    CayleyGraph,
    FiniteAction,
    GeneratorSystem,
    GroupElement,
    Sl2GroupTable,
    build_cyclic,
    build_sl2_quotient,
    is_ergodic,
    orbit_restriction,
    word_ball,
)
from .measures import (
    AdmissibilityCertificate,
    DiscreteMeasure,
    NotAdmissibleError,
    certify_admissible,
    convolve,
    dirac,
    power,
    uniform_extended,
    uniform_on,
)
from .rep_markov import (
    Decomposition,
    MarkovOperator,
    NormEstimate,
    Representation,
    defect_curve,
    markov_operator,
    neumann_projection,
    operator_identities_check,
    restricted_norm,
)
from .kazhdan import (
    KazhdanCertificate,
    boost_pair,
    hecke_conversion,
    hilbert_improvement,
    kappa_from_decay,
    kazhdan_constant_oracle,
    modulus,
    norm_bound_from_kappa,
    product_average_bound,
)
from .expanders import (
    PoincareReport,
    QuotientSequence,
    certify_sequence,
    mirho_upper_bound,
    poincare_scalar,
    poincare_vector_lower,
)
from .ergodic_walk import (
    ShrinkingTargetPlan,
    conditioned_series,
    ergodic_error_curve,
    estimate_drift_mc,
    moment_inequality_check,
    plan_from_radii,
    plan_from_sets,
    shrinking_series_exact,
    shrinking_series_mc,
)
from .warped_cone import (
    WarpedLevel,
    ball_measure_profile,
    build_cone,
    build_warped_level,
    ghost_defect,
    ghost_locality,
    propagation_check,
)

__version__ = "0.1.0"
