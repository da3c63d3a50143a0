"""Exception types shared across the toolkit.

Every error raised on purpose derives from LoadcastError so callers (and the
CLI) can distinguish domain failures from bugs. `describe` is the one place
that turns an exception into the `Kind: message` text of an error line.
"""


def describe(exc: BaseException) -> str:
    """`Kind: message` on one line: the public class name, each line break a space."""
    # numpy raises a private MemoryError subclass; name the public one.
    kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    return f"{kind}: {' '.join(str(exc).splitlines())}"


class LoadcastError(Exception):
    """Base class for all toolkit errors."""


class MalformedRow(LoadcastError):
    """A CSV row could not be parsed (bad numeric field, off-grid or duplicate timestamp)."""


class MalformedReport(LoadcastError):
    """A JSON run report could not be read: not JSON, or a field missing or of the wrong type."""


class GapError(LoadcastError):
    """A 5-minute slot is missing from a day's road series."""

    def __init__(self, message: str, slot: int | None = None):
        super().__init__(message)
        self.slot = slot


class BoundsError(LoadcastError, ValueError):
    """A value lies outside its sanity range (negative flow or count, speed > 120 mph, ...)."""


class WorkerDied(LoadcastError):
    """A grid worker process ended abruptly (killed by a signal, say), losing its row."""


class DegenerateFeature(LoadcastError):
    """A feature column has zero variance on the training split."""


class InsufficientData(LoadcastError):
    """The series is too short (or misaligned) for the requested windows or split."""


class ShapeMismatch(LoadcastError, ValueError):
    """Array shapes or lengths disagree: model tensors, windows, aligned series."""


class EmptyBatch(LoadcastError):
    """A metric was requested over zero predictions."""


class ConfigError(LoadcastError, ValueError):
    """A config file, CLI flag or constructor argument failed validation."""


class Diverged(LoadcastError):
    """Training diverged before a usable epoch: a loss or MAE not finite, or an MAE far too large."""
