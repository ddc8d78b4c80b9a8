"""Exception types shared across the package, and the type rule for config fields."""

import builtins
import dataclasses
import sys


class PragmatuneError(Exception):
    """Base class for package-specific errors."""


class NestParseError(PragmatuneError, ValueError):
    """A loop-nest description document is malformed."""


class DuplicateLoopIdError(NestParseError):
    """A nest document reuses a loop id."""


class InvalidTargetError(PragmatuneError, ValueError):
    """A transformation targets a missing, frozen, or ineligible loop."""


class MissingAnchorError(PragmatuneError, ValueError):
    """A source template lacks the anchor comment a transformation needs."""


class EmptyHistoryError(PragmatuneError, ValueError):
    """An operation needs at least one successful evaluation on record."""


class ExperimentConfigError(PragmatuneError, ValueError):
    """An experiment configuration file failed validation."""


class LogParseError(PragmatuneError, ValueError):
    """A run log line is not a well-formed evaluation record."""


class RootEvaluationError(PragmatuneError, RuntimeError):
    """The baseline (empty) configuration could not be measured."""


def _fits(value: object, hint: str, scope: dict) -> bool:
    hint, _, optional = hint.partition(" | ")
    if optional and value is None:
        return True
    if hint == "float":
        return type(value) in (int, float)
    if hint.startswith("tuple["):
        return type(value) is tuple and all(_fits(v, hint[6:-6], scope) for v in value)
    kind = scope[hint] if hint in scope else getattr(builtins, hint)
    return type(value) is kind if kind in (int, bool) else isinstance(value, kind)


def check_fields(obj: object) -> None:
    """Check each field of the frozen dataclass ``obj`` against its annotation.

    Annotations are read as strings, so the defining module postpones
    their evaluation. ``int`` and ``bool`` mean exactly that type (a bool
    would render as "True" in a pragma's sizes), ``float`` an int or a
    float (stored as float), ``tuple[T, ...]`` a tuple of T, ``X | None``
    also None, and any other class an instance of it. Raises TypeError
    naming the field.
    """
    scope = vars(sys.modules[type(obj).__module__])
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not _fits(value, f.type, scope):
            raise TypeError(f"'{f.name}' must be {f.type}, got {value!r}")
        if f.type == "float":
            object.__setattr__(obj, f.name, float(value))


def from_json(cls, doc: object, what: str, error: type[PragmatuneError]):
    """``cls`` built from the JSON object ``doc``, each list as a tuple.

    Anything ``cls`` rejects (not an object, an unknown or missing key,
    a wrong type, a bad value) raises ``error`` as "bad <what>: ...".
    """
    try:
        if not isinstance(doc, dict):
            raise TypeError("must be an object")
        return cls(**{k: tuple(v) if type(v) is list else v for k, v in doc.items()})
    except (TypeError, ValueError) as exc:
        raise error(f"bad {what}: {exc}") from exc
