"""Supersingular elliptic curves over GF(3^d): classification and counting.

Classifies canonical-form curves y^2 = x^3 + a4*x + a6 (a4 != 0) into
explicit isomorphism classes and computes their group orders in closed
form, with brute-force character-sum oracles for verification.
"""

from .classify import (
    CurveClass,
    CurveType,
    IsomorphismWitness,
    canonicalize,
    class_representative,
    isomorphic,
    quadratic_twist,
)
from .count import (
    ClassEntry,
    CountResult,
    count_class,
    count_general,
    count_supersingular,
    list_classes,
    s_brute,
    s_closed,
)
from .curve import (
    GeneralCurve,
    Point,
    ReductionResult,
    ShortCurve,
    add,
    double,
    naive_count,
    negate,
    random_point,
    random_supersingular_curve,
    reduce_curve,
    scalar_mul,
)
from .errors import (
    ContextMismatch,
    DegreeOutOfRange,
    DivisionByZero,
    DParityError,
    InvalidArgument,
    InvalidCurve,
    ModulusReducible,
    NotANonSquare,
    NotSupersingularError,
    OracleTooLarge,
    ParseError,
    PointNotOnCurve,
    SingularCurve,
    SS3Error,
)
from .field import (
    FieldContext,
    FieldElement,
    chi,
    context_to_json,
    decode_element,
    fourth_roots,
    is_irreducible,
    make_context,
    smallest_nonsquare,
    solve_linearized,
    sqrt,
    trace,
)

__version__ = "0.1.0"
