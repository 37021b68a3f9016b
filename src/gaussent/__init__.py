"""Gaussian covariance-matrix toolkit for continuous-variable entanglement sharing."""

from .core import (
    GaussianState,
    InvariantTriple,
    apply_symplectic,
    char_poly_invariants,
    is_classical,
    load_state,
    partial_transpose,
    reduce_modes,
    save_state,
    symplectic_eigenvalues,
    symplectic_form,
    validate_cm,
)
from .errors import (
    BadCountError,
    BadModeIndexError,
    DimensionMismatchError,
    DomainError,
    GaussentError,
    NotBisymmetricError,
    NotSymmetricError,
    NotSymplecticError,
    NumericalFailureError,
    SingularConditioningError,
    UnphysicalError,
)
from .ops import (
    MeasurementSpec,
    SampleBatch,
    SymplecticTransform,
    beam_splitter,
    condition_on_measurement,
    embed_vacuum,
    mode_permutation,
    sample_preparation,
)
from .protocol import (
    BlockSet,
    ProtocolParams,
    StageState,
    ThresholdReport,
    final_cm,
    gap_profile,
    initial_cm,
    mu_m,
    numeric_threshold_r_e,
    numeric_threshold_r_m,
    reduced_pair_cm,
    shared_cm,
    stage_state,
    sweep_profile,
    threshold_r_e,
    threshold_r_l,
    threshold_r_m,
    threshold_report,
)
from .separability import (
    EntanglementMetrics,
    SeparabilityReport,
    SplittingVerdict,
    classify_three_mode,
    localizable_mu,
    log_negativity,
    measurement_scan_oracle,
    splitting_sigma,
    two_mode_metrics,
)

__version__ = "0.1.0"
