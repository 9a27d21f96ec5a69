"""Exception types shared across the package, and the domain check of a norm power."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def check_power(name: str, value: float) -> None:
    """Refuse a norm power p or q that is not a finite number >= 1 (NaN
    compares False both ways, so `value < 1` alone lets it through)."""
    if not 1 <= value < float("inf"):
        raise DomainError(f"{name} must be >= 1 and finite")


class ShapeError(ValueError):
    """An element does not conform to the space it is used with."""


class ArityError(ValueError):
    """Too few torus coordinates supplied for a monomial or polynomial."""


class OverflowLimitError(OverflowError):
    """An integer result would exceed the supported range (2**63 - 1)."""


class ResourceError(RuntimeError):
    """A computation would exceed the configured memory/grid budget."""


class UndefinedRatioError(ZeroDivisionError):
    """A ratio whose denominator is zero (degenerate instance)."""


class ValidationError(ValueError):
    """A problem file failed validation.

    `pointer` locates the offending node as a JSON-pointer-style path.
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer or '/'}: {message}" if pointer else message)
        self.pointer = pointer
        self.message = message
