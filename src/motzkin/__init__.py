"""Exact and numeric computations around the Motzkin algebra.

Layers, from the bottom up:

- ``diagram_core``: exact diagram calculus (Fraction coefficients).
- ``qpoly``: the Chebyshev-style polynomials, the ratio function phi and
  the dimension sequence of the associated subproduct system.
- ``jones_wenzl``: the tower of Jones-Wenzl idempotents.
- ``representation``: concrete operators on tensor powers built from a
  Motzkin pair (v_A, v).
- ``fock``: the subproduct system, its creation operators and the
  Toeplitz-type relations they satisfy.
- ``cli``: command line front end and a small expression language.
"""

from .diagram_core import (
    Element,
    MotzkinDiagram,
    adjoint,
    check_presentation,
    conditional_expectation,
    embed,
    enumerate_basis,
    generator,
    identity,
    juxtapose,
    motzkin_number,
    multiply,
    reflect,
)
from .errors import (
    LimitError,
    MotzkinError,
    ParameterError,
    ParseError,
    StructureError,
)
from .fock import (
    SubproductSystem,
    build_subproduct,
    coassociativity_residuals,
    cuntz_pimsner_residual,
    gauge_average,
    ideal_generator,
    matrix_unit_dimension,
    operator_family,
    orthonormal_basis,
    projection_rank,
    reverse_identity,
    subproduct_projection,
    toeplitz_residuals,
    word_vectors,
)
from .jones_wenzl import (
    JWCache,
    cup_element,
    jones_wenzl,
    jw_report,
    qk_element,
    uniqueness_probe,
)
from .qpoly import (
    PhiFunction,
    chebyshev_P,
    chebyshev_Q,
    dim_subproduct,
    is_generic,
    phi,
    phi_infinity,
    q_parameter,
    validate_lam,
)
from .representation import (
    MotzkinPair,
    build_example_pair,
    evaluate_diagram,
    evaluate_element,
    evaluate_word,
    generator_operator,
    relation_residuals,
    rep_conditional_expectation,
    span_dimension,
    validate_pair,
)

__all__ = [
    "Element",
    "MotzkinDiagram",
    "adjoint",
    "check_presentation",
    "conditional_expectation",
    "embed",
    "enumerate_basis",
    "generator",
    "identity",
    "juxtapose",
    "motzkin_number",
    "multiply",
    "reflect",
    "LimitError",
    "MotzkinError",
    "ParameterError",
    "ParseError",
    "StructureError",
    "PhiFunction",
    "chebyshev_P",
    "chebyshev_Q",
    "dim_subproduct",
    "is_generic",
    "phi",
    "phi_infinity",
    "q_parameter",
    "validate_lam",
    "JWCache",
    "cup_element",
    "jones_wenzl",
    "jw_report",
    "qk_element",
    "uniqueness_probe",
    "MotzkinPair",
    "build_example_pair",
    "evaluate_diagram",
    "evaluate_element",
    "evaluate_word",
    "generator_operator",
    "relation_residuals",
    "rep_conditional_expectation",
    "span_dimension",
    "validate_pair",
    "SubproductSystem",
    "build_subproduct",
    "coassociativity_residuals",
    "cuntz_pimsner_residual",
    "gauge_average",
    "ideal_generator",
    "matrix_unit_dimension",
    "operator_family",
    "orthonormal_basis",
    "projection_rank",
    "reverse_identity",
    "subproduct_projection",
    "toeplitz_residuals",
    "word_vectors",
]

__version__ = "0.1.0"
