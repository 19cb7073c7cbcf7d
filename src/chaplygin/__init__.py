"""Numerical workbench for almost-Poisson brackets of rolling rigid bodies.

Covers the reduced and full phase-space bracket structures of a ball with a
generalized rolling constraint of rank 0..3 (rank 2 is the Chaplygin
sphere), gauge transformations by 2-forms, conformal and twisted-Poisson
Hamiltonization checks, Casimirs, invariant measures, and fixed-step
dynamics with conservation diagnostics.
"""

from .brackets import (
    BivectorPatch,
    ScalarField,
    casimir_defect,
    conformal_jacobiator,
    coordinate_field,
    distribution_probe,
    dynamical_gauge_check,
    gauge_matrix,
    gauge_transform,
    ham_vf,
    jacobi_tensor,
    jacobiator,
    scale_bivector,
    twisted_defect,
)
from .dynamics import (
    MONITOR_NAMES,
    IntegratorConfig,
    Trajectory,
    divergence_defect,
    hermite_sample,
    integrate,
    invariant_drift,
    monitor_series,
    reparametrized_integrate,
    rk4_step,
    series_drift,
)
from .errors import (
    AnnihilationViolated,
    DegenerateDenominator,
    NonFiniteState,
    NonPositiveFactor,
    ScenarioError,
    SingularGauge,
    SymmetricInput,
    UnsupportedRank,
)
from .geometry import (
    FormPatch,
    fd_exterior_derivative,
    fd_gradient,
    fd_partials,
    hat,
    random_rotation,
    sample_reduced_state,
    unhat,
    wedge_1_2,
)
from .rolling import (
    FULL_DIM,
    REDUCED_DIM,
    RHO_INDEX,
    BodyParams,
    K_from_omega,
    X_nh_full,
    annihilator_one_form,
    casimir_gamma_norm,
    casimir_kgamma,
    conformal_factor,
    full_hamiltonian_field,
    gauge_form_on_M,
    hamiltonian,
    hamiltonian_field,
    hamiltonizable_variant,
    horizontal_lift,
    invariant_density,
    leafwise_two_form,
    lift_reduced_state,
    matrix_A,
    nh_bracket_full,
    omega_from_K,
    omega_jacobians,
    pack_full,
    poisson_variant,
    project_rho,
    reduced_bracket,
    reduced_vf,
    reduction_consistency,
    reduction_defect,
    sample_full_state,
    split_full,
    split_reduced,
    twist_three_form,
    twist_two_form,
)
from .scenario import Scenario, load_scenario, scenario_from_dict
from .verify import SUITE_NAMES, run_all_suites, run_suite

__version__ = "0.1.0"
