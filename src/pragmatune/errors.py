"""Exception types shared across the package."""


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
