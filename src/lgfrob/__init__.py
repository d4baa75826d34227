"""Exact construction and certification of the graded Frobenius algebra
attached to a Calabi-Yau hypersurface in a simplicial Gorenstein toric Fano
variety."""

from .errors import (
    DegeneratePolytope,
    DegreeMismatch,
    HypothesisFailed,
    InputSchemaError,
    InvalidFan,
    LgfrobError,
    NotHomogeneous,
    NotReflexivePipeline,
    PolySyntaxError,
    TorsionClassGroup,
    ToricJacobianZero,
    UnknownVariable,
)
from .fixtures import Fixture, fixture_names, get_fixture
from .frobenius import (
    FrobeniusAlgebraData,
    build_algebra,
    frobenius_axiom_check,
    mul_twisted,
    pairing_gram,
    trace,
)
from .jacobian import (
    IDEAL_J,
    IDEAL_J0,
    JacobianSystem,
    QuotientBasis,
    crit_containment_check,
    dim_R,
    graded_piece,
    jacobian_system,
    normal_form,
    socle_certificates,
)
from .poly import GradedPolynomial, check_homogeneous, parse_polynomial
from .toric import (
    AnticanPolytope,
    FanData,
    GradingMap,
    ValidationReport,
    anticanonical_polytope,
    betti_numbers,
    class_group,
    extraisom_necessary_check,
    monomial_basis,
    normalized_volume,
    validate_fan,
)

__version__ = "0.1.0"
