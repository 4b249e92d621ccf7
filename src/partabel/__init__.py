"""Exact computer algebra for partial abelianizations of free products of
split semisimple algebras k^a * k^b.

The library constructs the quotients S_x of k^3 * k^3 by one commutator
relation indexed by x in P^3, certifies their dimensions through filtered
ideal-span linear algebra (upper bounds) and explicit representations
(lower bounds), and classifies the degenerate strata.
"""

from .freeproduct import (
    AlgebraElement, Signature, Word, commutator, central_element_check,
    filtration_dim, idempotent, words_up_to,
)
from .quotient import (
    ClosureCertificate, ClosureFailure, ClosureTrace, CommutatorRelation,
    FiltrationReport, IdealSpan, closure_certificate, make_relation,
    reduction_coefficients, sigma_check, stabilization_scan,
    standard_generator_rank,
)
from .classify import (
    ClassificationVerdict, SubspacePresentation, classify_l2, classify_p3,
    genericity_check, grassmann_chart, partition_of, rewrite_left_module,
)
from .reptheory import (
    ConicTriple, ExtensionSpec, RepMatrices, build_rho, conics,
    determinantal_cubic, intersect_conics, irreducibility, tq_rewrite,
    wedderburn_verify,
)
from .pipeline import (
    PointCertificate, certify_point, certify_point_multi,
    sample_generic_points, suspected_nongeneric,
)
from .scalars import (
    DegenerateSpecialization, ExtensionField, FunctionField, PoleError,
    Polynomial, PrimeField, QQ, RationalFunction, UniPoly, gcd_univariate,
    is_probable_prime, random_prime,
)

__version__ = "0.1.0"
