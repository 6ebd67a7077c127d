"""Exception types raised across the package.

Everything derives from HermrankError so callers can catch broadly; the
concrete classes exist because several of them signal conditions a caller
may want to handle individually (bad CLI input vs. a decoding failure vs.
an enumeration that would not fit in memory).
"""


class HermrankError(Exception):
    """Base class for all errors raised by this package."""


class BadParamsError(HermrankError, ValueError):
    """(q, n, d) is not an admissible code parameter triple."""


class NotPrimeError(BadParamsError):
    """The base field order q is not a prime."""


class EvenExtensionError(BadParamsError):
    """The extension length n is not a positive odd integer."""


class TooLargeError(HermrankError, ValueError):
    """The field F_{q^(2n)} does not fit the 64-bit element budget."""


class NotADivisorError(HermrankError, ValueError):
    """A subfield degree was requested that does not divide 2n."""


class BadElementError(HermrankError, ValueError):
    """A field element is not a list of 2n reduced integer coefficients."""


class BadOperandError(HermrankError, ValueError):
    """A field operation got more terms or rows than the odd-q slot bound
    allows, operands of unequal length (dot's two sides, combine_rows'
    values and rows, an fq_combine digit row and its elements), an
    fq_combine digit outside [0, q), a negative exponent, or a power or
    exponent that is not an int."""


class BadShapeError(HermrankError, ValueError):
    """A message or word document does not have the expected JSON shape or length."""


class ZeroInputError(HermrankError, ValueError):
    """An operation that requires a nonzero input received zero."""


class BasisSearchFailedError(HermrankError, RuntimeError):
    """The randomized orthonormal-basis search exhausted its retry budget."""


class NotInSubfieldError(HermrankError, ValueError):
    """A message component lies outside the required subfield F_{q^n}."""


class BadRankError(HermrankError, ValueError):
    """A rank argument t is outside its admissible range."""


class SymmetryCheckError(HermrankError, ValueError):
    """Recovered coefficients violate the conjugate-symmetry window pattern."""


class SubfieldCheckError(HermrankError, ValueError):
    """A recovered coefficient fails its subfield membership test."""


class TooLargeToEnumerateError(HermrankError, ValueError):
    """The code has more words than the enumeration cap allows."""
