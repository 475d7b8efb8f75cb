"""crorbit: partial connections, flow transport and CR-orbit minimality.

The package computes the differential-geometric transport machinery of
generic submanifolds of C^n and of abstract flattened chart models:

* expression-defined vector fields with exact forward-mode derivatives,
* numerical flows with joint variational (flow-differential) integration,
* the partial connection on the normal bundle of a flattened submanifold,
  with horizontal-lift, flow-differential and dual (conormal) transport,
* complex/CR linear algebra: tangent spaces, conormal forms, quotient
  bundle representatives and their transported connection,
* CR orbits: Lie hulls, flow-pushforward spans, reachable clouds and
  reproducible global-minimality certificates.
"""

from .expr import (
    ExprDomainError,
    ExprError,
    ExprSyntaxError,
    ScalarExpr,
    differentiate,
    parse_expr,
    to_text,
)
from .vectorfield import (
    CotangentPoint,
    VectorFieldSpec,
    hamiltonian_field,
    lie_bracket,
    lie_bracket_field,
    symbol,
)
from .flow import (
    FlowBlowupError,
    FlowDomainError,
    FlowError,
    FlowResult,
    FlowWord,
    IntegratorConfig,
    RetractionError,
    composed_flow,
    retract,
)
from .connection import (
    ChartSetup,
    ChartValidationError,
    ConormalCovector,
    NormalVector,
    connection_axioms_check,
    covariant_derivative,
    curve_transport,
    dual_transport,
    flow_transport,
    hamiltonian_restriction_check,
    horizontal_transport,
    validate_chart,
    xhat_field,
)
from .crmanifold import (
    AdaptedChart,
    EmbeddedManifold,
    HolomorphicForm,
    ManifoldError,
    NonGenericPointError,
    PointNotOnManifoldError,
    complex_tangent_space,
    conormal_fiber,
    cr_frame,
    e_fiber,
    genericity_check,
    lemma21_check,
    pair_e_estar,
    tangent_space,
    theta_star_transport,
    theta_transport,
)
from .linalg import SubspaceBasis
from .orbit import (
    Certificate,
    LieHullResult,
    MinimalityReport,
    PushforwardSpan,
    global_minimality_certificate,
    lie_hull,
    pushforward_span,
    reachable_samples,
    verify_certificate,
)
from .report import Report, TOOL_VERSION
from .scenario import Scenario, ScenarioError, builtin_scenario, load_scenario

__version__ = TOOL_VERSION

__all__ = [name for name in dir() if not name.startswith("_")]
