"""Spectral toolkit for quasi-periodic lattice operators.

Finite-range self-adjoint operators on the line and their block-strip
regroupings, the transfer cocycles they generate, Lyapunov spectra and
rotation numbers, dominated splittings with growth certificates,
half-line boundary matrices and resolvent oracles, densities of states
with scaling probes, and boundary-pairing subordinacy checks.
"""

__version__ = "0.1.0"

from .linalg import (
    ArgumentError,
    ConvergenceError,
    InvariantError,
    eigenvalues_banded,
    nearest_eigenpair,
    orthonormal_columns,
    principal_angles,
    restriction_norm,
)
from .operators import (
    GOLDEN_MEAN,
    Hopping,
    LineOperator,
    Potential,
    StripOperator,
    almost_mathieu,
    config_digest,
    dual_operator,
    fold_to_strip,
    fold_vector,
    free_laplacian,
    operator_from_config,
    unfold_vector,
)
from .symplectic import (
    canonical_basis,
    direct_sum,
    form_defect,
    form_value,
    krein_matrix,
    pairing_matrix,
    preserves_form,
    reverse_norm_check,
    reverse_norm_constant,
    signature,
    wronskian,
)
from .cocycle import (
    AccelerationEstimate,
    Cocycle,
    LyapunovEstimate,
    acceleration,
    companion_cocycle,
    energy_monotonicity,
    finite_window_rates,
    iterate,
    lyapunov_spectrum,
    phase_lattice,
    rotation_number,
    top_lyapunov,
    transfer_cocycle,
    upper_lyapunov_sum,
)
from .splitting import (
    CenterVariationReport,
    Splitting,
    TelescopingReport,
    center_growth,
    center_variation_check,
    compute_splitting,
    critical_set_test,
    detect_splitting,
    horizontal_angle,
    telescoping_check,
    vertical_angle,
)
from .weyl import (
    SpectralBoundReport,
    WeylData,
    green_oracle,
    im_m_trace,
    m_matrix,
    m_minus,
    m_plus,
    spectral_bound,
)
from .measures import (
    AlphaDerivativeReport,
    HolderReport,
    IdsTable,
    holder_probe,
    ids,
    log_energy_integral,
    stieltjes,
    thouless_residual,
    upper_alpha_derivative,
)
from .longrange import (
    GrowthReport,
    SubordinacyReport,
    duality_transform,
    lagrange_form,
    lagrange_sum_bounds,
    solution_growth,
    subordinacy_probe,
)
from .corpus import cubic_tail_operator, run_corpus, spectrum_sample
