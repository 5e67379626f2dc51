"""Periodic geodesics on compact semi-Riemannian manifolds.

The library locates critical orbits of the energy function f = g(K, K)
of a Killing field K, certifies the integral curves through them as
periodic geodesics, and approximates non-closed fields by closed ones
through continued-fraction torus directions.
"""

from .errors import (
    DegenerateCriticalPointError,
    KillingGeodesicsError,
    NotTimelikeError,
    OffManifoldError,
    SearchFailureError,
    SingularMetricError,
    StiffnessError,
    UnsupportedCapabilityError,
    VanishingFieldError,
)
from .geometry import (
    DeckElement,
    ManifoldModel,
    MetricField,
    christoffel,
    covariant_derivative,
    make_deck_generator,
    metric_eval,
    reduce_point,
)
from .killing import (
    KillingFamily,
    KillingField,
    as_field,
    certify_killing_field,
    combine_family,
    energy,
    gram_matrix,
    killing_residual,
    lie_bracket,
    lorentz_to_riemann,
    make_killing_family,
    make_killing_field,
    riemann_to_lorentz,
)
from .flows import (
    CurveSample,
    PeriodCertificate,
    certified_flow,
    curve_to_csv,
    detect_period,
    flow,
    geodesic_residual,
    hausdorff_distance,
    shoot_geodesic,
    translate_geodesic,
)
from .critical import (
    CriticalOrbit,
    classify_critical,
    find_critical_orbits,
    find_critical_orbits_many,
    grad_f,
)
from .rational import (
    ApproximationCertificate,
    approximate_closed,
    certify_uniform_convergence,
    continued_fraction_convergents,
)
from .gallery import (
    ENTRY_NAMES,
    GalleryEntry,
    build_entry,
    make_commuting_family_example,
    make_flat_lorentzian_torus,
    make_klein_bottle,
    make_mapping_torus,
    make_stationary_sphere,
    validate_entry,
)
from .report import AnalysisReport, analyze_entry, approximate_entry, trace_entry

__version__ = "0.1.0"
