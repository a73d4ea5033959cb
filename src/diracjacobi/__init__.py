"""Symbolic/numeric verification of Dirac, Dirac-Jacobi, and precontact-groupoid
structures on explicit coordinate charts."""

__version__ = "0.1.0"

from .symcalc import (  # noqa: F401
    Expr,
    ExprError,
    EvaluationError,
    SamplingPolicy,
    ZeroVerdict,
    differentiate,
    evaluate,
    is_zero,
    normalize,
    parse,
    render,
)
from .chart_tensor import (  # noqa: F401
    Chart,
    ChartError,
    DifferentialForm,
    Multivector,
    SmoothMap,
    VectorField,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
    pullback,
    sharp,
    wedge,
)
from .courant import (  # noqa: F401
    SectionE1,
    SectionTM,
    courant_bracket,
    extended_courant_bracket,
    pairing_e1,
    pairing_tm,
)
from .structures import (  # noqa: F401
    Ambient,
    ConformalFactor,
    FrameSubbundle,
    check_forward_map,
    check_involutivity,
    check_maximal_isotropy,
    check_structures_equal,
    conformal_change,
    construct_L_jacobi,
    construct_L_theta,
    construct_two_form_pair,
    graph_of_bivector,
    graph_of_two_form,
    induced_dirac_on_MxR,
    lift_dirac,
)
from .algebroid import (  # noqa: F401
    AlgebroidOnL,
    Cocycle1,
    FrameCochain2,
    TimeSection,
    action_algebroid_anchor,
    action_algebroid_bracket,
    algebroid_differential_2,
    central_extension_bracket,
    check_action_iso,
    check_cocycle,
    extract_cocycle,
    omega_skew_half,
)
from .groupoid import (  # noqa: F401
    GroupoidModel,
    PrecontactData,
    PresymplecticData,
    build_action_groupoid,
    check_contact_form,
    check_groupoid,
    check_multiplicative_function,
    check_precontact,
    check_presymplectic,
    equivalence_transform,
    eta_from_precontact_form,
    eta_to_omega,
    extract_LM,
    omega_to_eta,
    pair_groupoid,
    pair_groupoid_with_line,
)
from .report import CheckResult, CheckVerdict  # noqa: F401
