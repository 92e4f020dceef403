"""Gradient Gibbs measures on regular trees built from periodic boundary laws.

The package solves the q-periodic boundary-law fixed point for summable
symmetric increment potentials, turns solutions into layer-dependent walk
kernels and their mod-q fuzzy chains, computes exact finite-volume marginals
of the pinned measures and of their stationary mixtures, samples them, and
certifies the structural identities (dual representations, consistency under
volume growth, homogeneity, reversibility, correlation bounds).
"""

from .errors import (
    Diverged,
    GGMError,
    MaxIterations,
    NonStochastic,
    NonSummable,
    OutOfWindow,
    PeriodMismatch,
    PinInsideInner,
    TailTooFat,
    UnsupportedDegree,
    UnsupportedPeriod,
)
from .model import (
    SOS,
    DiscreteGaussian,
    FiniteTreeVolume,
    IncrementWindow,
    LiftedPotts,
    PeriodicBoundaryLaw,
    Table,
    cayley_ball,
    eval_q,
    model_from_json,
    model_to_json,
    path_volume,
    total_mass,
    wrapped_row,
    wrapped_sum,
)
from .bl_solver import (
    SolveReport,
    closed_form_q2_sos,
    critical_beta,
    effective_beta,
    find_branches,
    fixed_point_solve,
    ising_type_solve,
    residual,
)
from .chains import (
    FuzzyChain,
    LayerKernel,
    build_layer_kernel,
    check_reversibility,
    fuzzy_transform,
    mixing_profile,
    tv_distance,
)
from .measures import (
    Certificate,
    GGMSpec,
    PinnedMeasureSpec,
    check_consistency,
    check_homogeneity,
    check_restricted_dlr,
    max_dual_gap_ggm,
    max_dual_gap_pinned,
    sample_ggm_batch,
    single_bond_marginal,
    two_bond_marginal,
)
from .transfer import (
    CirculantSpec,
    clock_reduction,
    lift_potts,
    potts_boundary_laws,
    potts_row,
)
from .diagnostics import (
    CounterexampleChain,
    correlation_and_bound,
    counterexample_conditional_ratio,
    decay_envelope,
    identifiability_check,
)

__version__ = "0.1.0"
