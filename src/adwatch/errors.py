"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so new error types should subclass one
of the three categories below rather than raising bare exceptions.
"""


class AdwatchError(Exception):
    """Base class for all package errors."""


class ConfigError(AdwatchError):
    """Invalid configuration: unknown keys, bad values, malformed scripts."""


class DataError(AdwatchError):
    """Invalid or missing input data (sessions, timelines, ground truth)."""


class SessionFormatError(DataError):
    """A session file failed to parse or violated a record invariant."""


class MissingArtifactError(AdwatchError):
    """A required trained model artifact is absent or not loadable."""
