"""Symplectic P-stable additive Runge-Kutta methods for split Hamiltonian systems."""

from symparc.tableaux import (
    ArkScheme,
    OrderConditionReport,
    QuadratureRule,
    RkTableau,
    Variant,
    build_scheme,
    gauss_legendre_quadrature,
    lobatto_iiia,
    lobatto_quadrature,
    scheme_from_json,
    scheme_to_json,
    verify_order_conditions,
)
from symparc.integrator import (
    ArkStepper,
    NonconvergenceError,
    NumericalFailureError,
    OracleFailureError,
    PhaseState,
    SingularStageSystemError,
    SplitForceSystem,
    Trajectory,
    ark_step,
    integrate,
    make_stepper,
    reference_solve,
    scheme_from_name,
    solve_stages,
    yoshida_compose,
)
from symparc.stability import (
    FilterEvaluation,
    NotStableError,
    StabilityMatrix,
    StabilityReport,
    check_m11_equals_m22,
    filter_functions,
    half_trace,
    half_trace_samples,
    modified_frequency,
    stability_intervals,
    stability_matrix,
    trig_form_step_check,
)
from symparc.fput import (
    EnergyBreakdown,
    EnergyHistory,
    FputParams,
    ReductionTable,
    SweepResult,
    energy_breakdown,
    experiment_energy,
    experiment_order_reduction,
    experiment_resonance_sweep,
    fput_system,
    paper_initial_state,
)

__version__ = "0.1.0"
