"""Spectra of segmented linear-process covariance matrices.

Simulates the covariance matrix built from one long record of a stationary
linear process partitioned into equal segments, solves the fixed-point
equation characterizing its limiting eigenvalue law, and verifies theory
against seeded Monte Carlo ensembles.
"""

__version__ = "0.1.0"

from .lsd import (
    ConvergenceError,
    DEFAULT_VARIANT,
    EquationVariant,
    LsdSolution,
    MarchenkoPasturLaw,
    SolverConfig,
    all_variants,
    lsd_cdf,
    marchenko_pastur,
    quadrature_integral,
    solve_lsd,
    solve_stieltjes,
)
from .matrices import (
    MatrixShape,
    autocovariance_matrix,
    circulant,
    clipped_circulant,
    gram,
    innovation_matrix,
    segment_matrix,
    shift_representation_check,
    truncated_segment_matrix,
)
from .process import (
    CoefficientModel,
    InnovationSpec,
    ProcessSpec,
    SpectralDensity,
    autocovariance,
    coefficients,
    default_horizon,
    simulate_record,
    spectral_density,
)
from .spectra import (
    EmpiricalCdf,
    EmpiricalSpectrum,
    empirical_stieltjes,
    ks_distance,
    sym_eigenvalues,
    wasserstein1,
)
from .verify import (
    CalibrationError,
    EnsembleConfig,
    EnsembleReport,
    calibrate_equation_variant,
    convergence_study,
    derive_seed,
    run_ensemble,
    trace_moment_check,
)
