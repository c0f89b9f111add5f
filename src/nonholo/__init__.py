"""Conformally Hamiltonian nonholonomic systems on the plane and the sphere.

The package implements momentum-direction flows on R^6 with an invariant
measure, the rank-4 bracket family they generate, the gauge group acting on
that family, a constructive reduction of every member to the e(3)
Lie-Poisson bracket, the planar analogue, and the model library (rolling
ball and constrained rigid body, with gyrostats) plus simulation and
verification tooling.
"""

from .core import (
    ConfigError,
    DomainError,
    ScalarField,
    StiffnessError,
    ToleranceFailure,
    Tolerances,
    TOLS,
    VectorField3,
    fd_curl,
    fd_gradient,
    fd_jacobian,
    hat,
    jacobiator,
    pack,
    skew_defect,
    unpack,
    vector,
)
from .gauge import (
    GFParams,
    GaugeTransform,
    apply_gauge_state,
    compose,
    curl_target_F,
    gf_bivector,
    identity_gauge,
    inverse,
    pushforward_bivector,
    pushforward_params,
    reduce_to_e3,
    reduction_report,
    zero_level_jacobian,
    zero_level_reduce,
)
from .integrate import (
    IntegratorConfig,
    Trajectory,
    drift_report,
    integrate,
    integrate_reparametrized,
    integrate_sphere,
    map_to_physical_time,
    trajectory_csv,
)
from .models import (
    BallParams,
    VeselovaParams,
    ball_K,
    ball_M_from_omega,
    ball_omega_from_M,
    ball_system,
    duality_map,
    extra_integral_drifts,
    linear_potential,
    quadratic_potential,
    veselova_K,
    veselova_M_from_omega,
    veselova_omega_from_M,
    veselova_system,
)
from .sphere import (
    DirectS,
    IntegralValues,
    ReducedS,
    SphereSystem,
    assemble_P,
    bivector_field,
    conformal_residual,
    e3_bivector,
    integrals,
    k_from_gf,
    measure_residual,
    random_states,
    rhs,
    s_value,
)
from .spherical import (
    CurlSolution,
    SphereGrid,
    SphereSpectralField,
    make_grid,
    solve_curl_equation,
    sphere_quadrature,
)
