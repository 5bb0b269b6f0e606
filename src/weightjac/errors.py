"""Exception types shared across the package.

Input-level errors (bad forms, mismatched fields, parse failures) all derive
from WeightjacError so the CLI can map them to exit code 2 uniformly.
"""


class WeightjacError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(WeightjacError):
    """Malformed textual input (rational, element, form, lattice, hodge data)."""


class FieldMismatch(WeightjacError):
    """Operands live in different imaginary quadratic fields."""


class DivisionByZero(WeightjacError):
    """Division by the zero element."""


class RationalInput(WeightjacError):
    """A degree-2 operation was applied to a rational (degree-1) element."""


class InvalidForm(WeightjacError):
    """Not a primitive positive-definite binary quadratic form."""


class DiscriminantMismatch(WeightjacError):
    """Composition of forms with different discriminants."""


class InvalidDiscriminant(WeightjacError):
    """Discriminant is not a negative integer congruent to 0 or 1 mod 4."""


class DiscriminantTooLarge(WeightjacError):
    """Discriminant beyond the budget of the algorithms that enumerate its forms."""


class JacobianTooLarge(WeightjacError):
    """Weight-m Jacobian with more factors than the budget of the routes that build it."""


class HodgeTooLarge(WeightjacError):
    """Hodge numbers with more digits than the budget for building and printing them."""


class DegenerateBasis(WeightjacError):
    """Proposed lattice generators do not span a rank-2 lattice."""


class NotCM(WeightjacError):
    """Lattice has no complex multiplication."""


class BadWeight(WeightjacError):
    """Cohomological weight outside 2 <= m <= n."""


class NotADivisor(WeightjacError):
    """Target conductor does not divide the source conductor."""


class OrderMismatch(WeightjacError):
    """Curve classes belong to different orders."""


class DimensionMismatch(WeightjacError):
    """Products of different dimensions compared."""


class DimensionTooSmall(WeightjacError):
    """Operation requires a higher-dimensional product."""


class PrimitivityViolation(WeightjacError):
    """Operation defined only for primitive (equal-order) surfaces."""


class WeightMismatch(WeightjacError):
    """Direct sum of Hodge structures with different weights."""


class MissingSummand(WeightjacError):
    """Blowup/projective-bundle data lacks a required weight."""


class NoJacobian(WeightjacError):
    """Hodge structure has positive Jacobian discrepancy."""


class LowerHalfPlane(WeightjacError):
    """j-invariant requested at a point with non-positive imaginary part."""


class PrecisionExhausted(WeightjacError):
    """A class polynomial needs more precision than the 2^16-bit cap, or more
    digits than the int/str limit prints (both by Enge's bound, before any j)."""


class CacheUnusable(WeightjacError):
    """The result-cache path cannot be opened for reading or appending."""
