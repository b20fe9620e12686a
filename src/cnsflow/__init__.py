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
    divergence,
    gradient,
    laplacian,
)
from .state import PhysParams, State, Trajectory, rescale_state
from .snapshot import (
    read_snapshot,
    read_trajectory,
    write_snapshot,
    write_trajectory,
)
from .solver import (
    CFLError,
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
    harmonic_residual,
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
    FlagSet,
    RegularityConfig,
    ScaleRecord,
    flag_sweep,
    flag_thm13,
    flag_thm16,
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
