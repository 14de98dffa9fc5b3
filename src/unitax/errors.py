"""Exception types shared across the package, the checks that raise them
where input files are read, and the one JSON writer."""

import json
import sys


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
    """A declared relation contradicts the relation the declarations derive."""


class UnmappedLabel(UnitaxError):
    """A label maps to no universal class."""


class InvalidLogit(UnitaxError):
    """A logit vector contains non-finite entries."""


class InvalidProbability(UnitaxError):
    """A probability lies outside [0, 1]."""


class TrainingDiverged(UnitaxError):
    """The training loss became non-finite."""


class OrthogonalDataset(UnitaxError):
    """The classes of a foreign dataset that meet the ground-truth class
    carry no probability mass."""


def _is(value, kind):
    """isinstance, except that a bool is only a bool and an int is also a
    float when ``float()`` can convert it."""
    if kind is bool or isinstance(value, bool):
        return type(value) is kind
    if kind is float:
        return isinstance(value, float) or (
            isinstance(value, int) and -sys.float_info.max <= value <= sys.float_info.max)
    return isinstance(value, kind)


def require_field(data, key, kind, where=""):
    """``data[key]`` when ``data`` is a dict holding a ``kind`` there.

    Otherwise raises a ValidationError naming the field as ``where + key``.
    """
    value = data.get(key) if isinstance(data, dict) else None
    if type(value) is not kind and not _is(value, kind):
        raise ValidationError(f"field {where + key!r} is missing or not {kind.__name__}")
    return value


def require_list(values, kind, where, size=None):
    """``values`` when it is a list of ``kind`` values (exactly ``size`` of
    them, if given).  Otherwise raises a ValidationError naming the field
    ``where``."""
    if (not isinstance(values, list)
            or not (set(map(type, values)) <= {kind} or all(_is(v, kind) for v in values))
            or size not in (None, len(values))):
        count = f"{size} " if size is not None else ""
        raise ValidationError(f"field {where!r} must be a list of {count}{kind.__name__} values")
    return values


def read_text(path):
    """The text of the UTF-8 file at ``path``.  A file that does not decode
    raises a ValidationError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def write_json(path, data) -> None:
    """Write ``data`` to ``path`` as UTF-8 JSON: two-space indent, sorted
    keys, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _rejected(exc):
    """Why the JSON decoder rejected a text, from what it raised: a syntax
    error (a JSONDecodeError), nesting deeper than the recursion limit (a
    RecursionError), or an integer literal longer than int() converts (the
    one other ValueError it raises)."""
    if isinstance(exc, json.JSONDecodeError):
        return f"not valid JSON ({exc.msg})"
    if isinstance(exc, RecursionError):
        return "JSON nested too deeply to decode"
    return f"JSON integer of more than {sys.get_int_max_str_digits()} digits"


def load_json(path, parse):
    """``parse(data)`` for the JSON value in the file at ``path``.  A
    ValidationError, for the encoding, the JSON text or from ``parse``,
    names the file: a syntax error by its line, JSON nested too deeply or
    an integer too long to decode by what it is."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: {_rejected(exc)}") from None
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: {_rejected(exc)}") from None
    try:
        return parse(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
