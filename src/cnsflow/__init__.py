"""Periodic-box chemotaxis-fluid solver with a local-regularity
verification suite.

The package simulates the coupled density/chemoattractant/velocity system
pseudo-spectrally, computes scale-invariant cylinder quantities, checks
global and local energy inequalities, flags points where epsilon-smallness
criteria fail to certify regularity, and estimates the parabolic covering
dimension of the flagged set.
"""

__version__ = "0.1.0"

from .grid_fields import (
    CylinderRangeError,
    Grid,
    NonFiniteFieldError,
    ParabolicCylinder,
    RescaleError,
    ball_mask,
    dealias,
    divergence,
    gradient,
    hessian_components,
    integrate_cylinder,
    laplacian,
    leray_project,
    spectral_upsample,
    sup_over_time,
)
from .state import InitialNorms, State, Trajectory, rescale_state
from .snapshot import (
    read_snapshot,
    read_trajectory,
    write_snapshot,
    write_trajectory,
)
from .solver import (
    CFLError,
    PhysParams,
    SimulationConfig,
    initial_state,
    simulate,
    step,
)
from .pressure import (
    PressureDecomposition,
    cz_sanity_report,
    decompose_local,
    eval_field_at,
    harmonic_interior_bound_check,
    harmonic_residual,
    harmonic_test_family,
    riesz_potential,
    solve_pressure,
)
from .diagnostics import (
    INVARIANT_NAMES,
    LocalQuantities,
    LogSplit,
    compute_quantities,
    log_split,
    rescaled_cylinder,
    verify_scaling_invariance,
)
from .energy import (
    LEIReport,
    TestFunction,
    check_heat_properties,
    global_energy_check,
    heat_test_function,
    lei_residual,
    smooth_bump,
)
from .regularity import (
    FlagEntry,
    FlagSet,
    RegularityConfig,
    ScaleRecord,
    flag_sweep,
    flag_thm13,
    flag_thm16,
    gamma_window,
    induction_verify,
    iteration_trace,
    thresholds,
    trace_from_trajectory,
)
from .hausdorff import (
    CoveringEstimate,
    contains_backward_half,
    dimension_estimate,
    parabolic_distance,
    shifted_cover,
    verify_vitali,
    vitali_subcover,
)
