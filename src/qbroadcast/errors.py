"""Exception types shared across the package, and the two input rules every boundary uses: ``prefixed``
names the field an error came from, ``integer`` checks every count."""

import numbers


class ValidationError(ValueError):
    """An input violates a structural contract (shape, labels, normalization)."""


class BudgetError(RuntimeError):
    """A requested computation exceeds the configured combinatorial or matrix budget."""


def prefixed(field: str, make, *args):
    """``make(*args)``, with ``field: `` put in front of any ``ValidationError`` it raises."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ValidationError(f"{field}: {exc}") from None


def integer(value, field: str, minimum: int | None = None) -> int:
    """``value`` as a Python int; a bool, a non-integer (float, NaN, str) or a value below ``minimum``
    is a ``ValidationError`` naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{field}: must be an integer{bound}, got {value!r}")
    return int(value)
