"""Exception hierarchy shared by all modules.

Three failure kinds are kept apart because the CLI maps them to distinct
exit codes: bad input (3), blown enumeration budget (3), and a falsified
theorem-level guarantee (4, should never fire on valid data).  Environment
caps and JSON input are parsed here, once, for every module.
"""

import json
import os
from itertools import chain


# the most vertices a strong product, a union of subproducts or a generated
# graph may have (or, for a generator, pairs it may visit) unless a caller
# passes its own cap
SIZE_CAP = 200000


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


def json_value(text):
    """Decode JSON text; malformed text is bad input."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from None


def json_object(text, *keys):
    """Decode a JSON object holding `keys`; anything else is bad input."""
    return object_with(json_value(text), *keys)


def object_with(data, *keys):
    """`data`, a decoded JSON value, if it is an object holding `keys`;
    anything else is bad input."""
    if not isinstance(data, dict) or not all(k in data for k in keys):
        raise ValidationError(f"expected a JSON object with keys {list(keys)}" if keys
                              else "expected a JSON object")
    return data


def vertex_count(value):
    """A JSON "n" field: an integer >= 0; 2.5 and true are refused, not coerced."""
    if type(value) is not int or value < 0:
        raise ValidationError(f'"n" must be a nonnegative integer, got {value!r}')
    return value


def int_lists(value, name):
    """`value` if it is a list of lists of JSON integers; anything else is bad input."""
    if not (type(value) is list and set(map(type, value)) <= {list}
            and set(map(type, chain.from_iterable(value))) <= {int}):
        raise ValidationError(f"{name} must be a list of integer lists")
    return value
