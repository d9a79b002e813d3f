"""WKB machinery for cubic anharmonic oscillators and Painleve-I pole lattices.

The package locates poles of the tritronquee solution of Painleve I through
the associated cubic oscillator psi'' = (4 x^3 - 2 a x - 28 b) psi: it
classifies Stokes complexes, solves the two-cycle Bohr-Sommerfeld-Boutroux
quantization system, and cross-checks solutions with a direct-monodromy ODE
oracle.
"""

from .potential import (
    CubicPotential,
    GroupElement,
    TurningPointSet,
    apply_group,
    orbit_modulus,
    turning_points,
)
from .action import (
    ActionValue,
    ClearanceError,
    CyclePeriod,
    alpha_integral,
    cycle_period,
    label_turning_points_by_periods,
    line_action,
)
from .stokes import (
    AmbiguousClassError,
    ClassificationError,
    SectorRelation,
    StokesComplexGraph,
    classify,
    classify_by_periods,
    trace_stokes_lines,
)
from .wkb import (
    AsymptoticValues,
    RelativeError,
    asymptotic_values_320,
    relative_errors,
)
from .bsb import (
    BsbIndex,
    BsbSolution,
    SolverError,
    real_orbit_constants,
    real_poles,
    solve_bsb,
    solve_lattice,
)
from .monodromy import (
    MonodromyError,
    StokesMultipliers,
    stokes_multipliers,
    tritronquee_test,
)
from .painleve import LaurentSeries, laurent_coeffs, pi_residual
from .export import graph_to_json, graph_to_svg

__all__ = [
    "CubicPotential", "GroupElement", "TurningPointSet", "apply_group",
    "orbit_modulus", "turning_points",
    "ActionValue", "ClearanceError", "CyclePeriod",
    "alpha_integral", "cycle_period", "label_turning_points_by_periods",
    "line_action",
    "AmbiguousClassError", "ClassificationError", "SectorRelation",
    "StokesComplexGraph", "classify", "classify_by_periods",
    "trace_stokes_lines",
    "AsymptoticValues", "RelativeError", "asymptotic_values_320",
    "relative_errors",
    "BsbIndex", "BsbSolution", "SolverError", "real_orbit_constants",
    "real_poles", "solve_bsb", "solve_lattice",
    "MonodromyError", "StokesMultipliers", "stokes_multipliers",
    "tritronquee_test",
    "LaurentSeries", "laurent_coeffs", "pi_residual",
    "graph_to_json", "graph_to_svg",
]
