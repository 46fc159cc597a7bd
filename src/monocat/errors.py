"""Exception types shared across the library."""


class MonocatError(Exception):
    """Base class for all library-specific errors."""


class ParseError(MonocatError):
    """Malformed scalar, matrix, or input file."""


class DivisionLeavesRing(MonocatError):
    """Exact division whose quotient falls outside the base ring."""


class SingularMatrix(MonocatError):
    """Inverse requested for a matrix with zero determinant."""


class ContextMismatch(MonocatError):
    """Operands built over different ring contexts."""


class NonSquare(MonocatError):
    """Object matrices must be square: a non-square injective matrix
    cannot have a cokernel killed by omega."""


class NotMono(MonocatError):
    """The matrix has zero determinant, so it is not injective."""


class CokernelNotOmegaTorsion(MonocatError):
    """Some elementary divisor exponent exceeds t."""


class SquareNotCommuting(MonocatError):
    """Candidate morphism pair fails psi0 . f = f' . psi1."""


class InvalidWitness(MonocatError):
    """Homotopy witness does not satisfy its defining identity."""


class NotExactTriangle(MonocatError):
    """Triangle fails the null-composite invariants."""


class SquaresNotHomotopyCommuting(MonocatError):
    """Square completion requested for a square that does not commute
    even up to homotopy."""


class NotComposable(MonocatError):
    """Morphism endpoints do not line up for composition."""


class NotIndecomposable(MonocatError):
    """Operation requires an indecomposable input."""


class ProjectiveObject(MonocatError):
    """Operation is undefined for projective objects."""


class InternalInvariantError(AssertionError):
    """A postcondition of the library's own constructions failed: a defect
    in monocat, not in its input.  Raised explicitly, so it survives
    ``python -O``."""


class InfiniteResidueField(MonocatError):
    """Enumeration needs a finite residue field (int-local, or a
    polynomial ring over a prime field)."""


# Enumeration budgets, checked before anything is enumerated.  The
# verifier decides a morphism class by one valuation and
# `almost_split._iso_classes` by one residue elimination of a 2n x 2n
# matrix; a vector of R^n costs one residue matrix-vector product.  On a
# 2-vCPU host an `_iso_classes` class took about 18 us and a
# `stable.resolution_is_exact` vector about 10 us (n = 2 and 4), so the
# 16x gap between the budgets is not a cost ratio (CHANGES.md, FOUND on
# CLASS_BUDGET).  2^16 admits the 27^3 vectors `mon check` draws at its
# default sizes and refuses 27^4.  Brute-force stable Hom enumerates
# |R|^(k*g) maps into R^k under the same budget: 31^3 passes, 101^3 is
# refused.
CLASS_BUDGET = 4096    # morphism classes per sampling.class_residues call
VECTOR_BUDGET = 2 ** 16  # vectors of R^n, or maps into R^k, per enumeration


class ParametersTooLarge(MonocatError):
    """Guardrail: requested enumeration exceeds CLASS_BUDGET or
    VECTOR_BUDGET (resolution checks and the brute-force stable Hom),
    raised before anything is enumerated; or a result holds an integer too
    long to print (``rings.MAX_INT_DIGITS``)."""
