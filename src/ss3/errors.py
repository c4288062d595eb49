"""Exception types shared across the package."""


class SS3Error(Exception):
    """Base class for every error raised by this library."""


class DegreeOutOfRange(SS3Error):
    """Requested extension degree is outside the supported range."""


class ModulusReducible(SS3Error):
    """A supplied modulus polynomial is not irreducible over F3."""


class ContextMismatch(SS3Error):
    """Operands belong to different field contexts."""


class DivisionByZero(SS3Error, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class InvalidArgument(SS3Error, ValueError):
    """A numeric argument lies outside the range the operation accepts."""


class ParseError(SS3Error, ValueError):
    """Text does not decode to a field element, curve, or modulus."""


class SingularCurve(SS3Error):
    """Weierstrass coefficients define a curve with zero discriminant."""


class InvalidCurve(SS3Error):
    """Canonical-form curve violates the a4 != 0 requirement."""


class PointNotOnCurve(SS3Error):
    """Coordinates do not satisfy the curve equation."""


class OracleTooLarge(SS3Error):
    """Field is too large for brute-force enumeration."""


class NotANonSquare(SS3Error):
    """Twisting element must be a non-square."""


class DParityError(SS3Error):
    """Formula only applies for the other parity of the extension degree."""


class NotSupersingularError(SS3Error):
    """Input curve is ordinary; carries its j-invariant."""

    def __init__(self, j, message: str = "curve is not supersingular"):
        super().__init__(f"{message} (j = {j})")
        self.j = j
        self.message = message

    def __reduce__(self):
        # args holds the formatted text, which __init__ cannot take back
        return type(self), (self.j, self.message)
