"""Numerical differential-geometry engine for a spherically symmetric
Riemannian metric family and its Finsleroid spray extension, built around
closed forms cross-validated by independent differentiation oracles."""

from .tensors import (
    ConeStencilError,
    DiffConfig,
    Jet2,
    StencilError,
    StencilMissError,
    TOLERANCE_CLASSES,
    fd_partials,
)
from .profiles import (
    ComboScalars,
    DomainError,
    ProfilePair,
    ProfileValues,
    RicciCoefficients,
    combo_scalars,
    ricci_coefficients,
)
from .riemann import (
    Frame,
    FrameError,
    MetricState,
    RadialSingularityError,
    build_metric,
    christoffel,
    christoffel_definitional,
    christoffel_dot,
    curvature_closed,
    curvature_fd_oracle,
    curvature_presubstitution,
    nabla_b,
    nabla_b_definitional,
    nabla_c,
    nabla_c_definitional,
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
