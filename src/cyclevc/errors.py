"""Exception hierarchy shared by all cyclevc modules.

Input-side problems (bad data, bad configuration, malformed files, mismatched
pairings) map to CLI exit code 1; anything else that escapes is an internal
error and maps to exit code 2.
"""

from numbers import Real


class CycleVCError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CycleVCError):
    """Invalid input data (empty sets, out-of-contract values)."""


class ConfigError(CycleVCError):
    """Invalid configuration (unsupported sample rate, bad knob value, unknown key)."""


class FormatError(InputError):
    """Malformed on-disk artifact (feature file, checkpoint, manifest)."""


class ShapeError(InputError):
    """Array dimensionality or length does not match the operation's contract."""


class PairingError(InputError):
    """Utterance sets cannot be paired (missing ids, temporal mismatch)."""


class TrainingError(CycleVCError):
    """Optimization aborted (non-finite loss); carries epoch/utterance diagnostics."""


def check(name, value, kind, rule, ok=lambda value: True):
    """Raise ConfigError "{name} must be {rule}, got {value!r}" unless `value`
    is a `kind` and `ok(value)` holds. A bool is a `kind` only when `kind` is
    bool; a float field takes any real number that is not a bool."""
    kind = Real if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind) or not ok(value):
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
