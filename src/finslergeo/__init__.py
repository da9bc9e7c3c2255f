"""Numerical differential-geometry engine for a spherically symmetric
Riemannian metric family and its Finsleroid spray extension, built around
closed forms cross-validated by independent differentiation oracles."""

from .tensors import TOLERANCE_CLASSES, StencilError, fd_partials
from .profiles import DomainError, ProfilePair
from .riemann import (
    ComboScalars,
    Frame,
    FrameError,
    MetricState,
    RadialSingularityError,
    RicciCoefficients,
    build_metric,
    christoffel,
    christoffel_definitional,
    christoffel_dot,
    combo_scalars,
    curvature_closed,
    curvature_dot,
    curvature_fd_oracle,
    curvature_presubstitution,
    nabla_b,
    nabla_b_dot,
    ricci_closed,
    ricci_from_curvature,
)
from .vacuum import (
    contraction_identities,
    reduced_curvature,
    verify_vacuum,
)
from .finsler import (
    AdmissibilityError,
    DegenerateFiberError,
    FinsleroidState,
    OutsideConeError,
    hh_curvature,
    kinematic_identity_residuals,
    kinematics,
    spray_coefficients,
    spray_derivatives,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .report import CheckResult, RunReport, SuiteResult
from .suites import run

__version__ = "0.1.0"
