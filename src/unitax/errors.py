"""Exception types shared across the package, and the checks that raise
them where input files are read."""

import json


class UnitaxError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(UnitaxError):
    """An input artifact violates a structural invariant."""


class InvalidClass(ValidationError):
    """A class was given an empty or otherwise unusable atom set."""


class NotFound(UnitaxError):
    """A referenced dataset or class does not exist."""


class AmbiguousDeclaration(UnitaxError):
    """A declaration targets an already-split class and cannot be applied
    without guessing which part is meant."""


class InconsistentDeclaration(UnitaxError):
    """Post-hoc verification of a declared relation failed."""


class UnmappedLabel(UnitaxError):
    """A label maps to no universal class."""


class InvalidLogit(UnitaxError):
    """A logit vector contains non-finite entries."""


class InvalidProbability(UnitaxError):
    """A probability lies outside [0, 1]."""


class TrainingDiverged(UnitaxError):
    """The training loss became non-finite."""


class OrthogonalDataset(UnitaxError):
    """No class of the foreign dataset intersects the ground-truth class."""


def _is(value, kind):
    """isinstance, except that an int is also a float and a bool is neither."""
    return (not isinstance(value, bool)
            and isinstance(value, (int, float) if kind is float else kind))


def require_field(data, key, kind, where=""):
    """``data[key]`` when ``data`` is a dict holding a ``kind`` there.

    Otherwise raises a ValidationError naming the field as ``where + key``.
    """
    value = data.get(key) if isinstance(data, dict) else None
    if not _is(value, kind):
        raise ValidationError(f"field {where + key!r} is missing or not {kind.__name__}")
    return value


def require_list(values, kind, where, size=None):
    """``values`` when it is a list of ``kind`` values (exactly ``size`` of
    them, if given).  Otherwise raises a ValidationError naming the field
    ``where``."""
    if (not isinstance(values, list) or not all(_is(v, kind) for v in values)
            or size not in (None, len(values))):
        count = f"{size} " if size is not None else ""
        raise ValidationError(f"field {where!r} must be a list of {count}{kind.__name__} values")
    return values


def load_json(path, parse=None):
    """``parse(data)`` for the JSON value in the file at ``path`` (the value
    itself without ``parse``).  A ValidationError, for the JSON syntax or
    from ``parse``, names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}: line {exc.lineno}: not valid JSON ({exc.msg})") from None
    try:
        return parse(data) if parse else data
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
