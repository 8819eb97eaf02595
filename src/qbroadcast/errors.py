"""Exception types shared across the package, and the one rule that names the input field an error came from."""


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
