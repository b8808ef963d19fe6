"""Exception hierarchy shared by all modules.

Three failure kinds are kept apart because the CLI maps them to distinct
exit codes: bad input (3), blown enumeration budget (3), and a falsified
theorem-level guarantee (4, should never fire on valid data).  Caps set
through the environment are parsed here, once, for every module.
"""

import os


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class HellyPreconditionError(ValidationError):
    """An operation that requires a Helly graph observed a non-Helly witness."""


class ResourceCapExceeded(RuntimeError):
    """An enumeration exceeded its configured cap."""


class InvariantViolation(AssertionError):
    """A verified guarantee failed on concrete data."""


def cap_from_env(name, default):
    """Enumeration cap from environment variable `name`, else `default`.

    The value must be a nonnegative integer; anything else is bad input.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"{name} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValidationError(f"{name} must be nonnegative, got {cap}")
    return cap
