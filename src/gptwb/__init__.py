"""Measurement theory on finite-dimensional general probabilistic theories.

State spaces are vertex-represented convex bases of a cone (plus Euclidean
norm balls for the closed-form criteria); observables are normalized effect
families; the post-processing, simulation, compatibility and ultraweak
majorization relations are decided by a built-in simplex solver that runs on
floats with a global tolerance or on exact rationals.
"""

from .numerics import (
    Context,
    DEFAULT,
    EXACT,
    FLOAT,
    LPProblem,
    LPResult,
    UnboundedObjective,
    lp_solve,
    orthogonal_rows,
    rank,
)
from .spaces import (
    DualRay,
    StateSpace,
    UnsupportedSpace,
    direct_sum,
    make_ball,
    make_classical,
    make_polygon,
    make_square,
    polygon_extreme_even,
    polygon_extreme_odd,
    polygon_radius,
    space_from_json,
    space_from_ref,
)
from .observables import (
    Observable,
    NoiseReport,
    PreconditionViolated,
    apply_postprocessing,
    is_extreme_clean,
    is_indecomposable_effect,
    is_trivial,
    lambda_max_obs,
    lambda_min_obs,
    minimally_sufficient,
    mix_observables,
    noise_content,
    observable,
    observable_from_json,
    trivial_observable,
    uniform_trivial,
    validate,
)
from .postprocess import are_pp_equivalent, find_postprocessing, is_pp_clean
from .simulation import (
    DichotomicVerdict,
    SimWitness,
    dichotomic_generators,
    effect_in_depolarized_class,
    effect_in_noise_class,
    enumerate_irreducibles,
    is_effectively_dichotomic,
    is_simulable,
    is_simulation_irreducible,
    noise_class_gap_observable,
    ntomic_screen,
    observable_in_noise_class,
    range_in_effect_class,
    unambiguous_qubit_bounds,
    verify_sim_witness,
)
from .compatibility import (
    NoiseCompatReport,
    PsymVerdict,
    are_compatible,
    construct_joint_unbiased,
    dichotomic_compat_g,
    dichotomic_compat_margin,
    fc_noise_lower_bound,
    find_nontrivial_fully_compatible,
    is_fully_compatible,
    is_nondisturbing,
    marginal,
    noise_sufficient_compat,
    psym_compat_test,
    pure_state_decomposition,
)
from .communication import (
    CommMatrix,
    MonotoneReport,
    SpaceDims,
    UltraweakResult,
    build_comm_matrix,
    canonical_reduce,
    comm_matrix,
    identity_matrix,
    monotones,
    nonneg_factorization,
    space_dims,
    ultraweak_leq,
    uniform_matrix,
    verify_ultraweak_witness,
)
from .instruments import (
    MPInstrument,
    equiv_indecomposable_check,
    is_indecomposable_mp,
    mp_instrument,
    mp_instrument_from_json,
    mp_postprocess_check,
)

__version__ = "0.1.0"
