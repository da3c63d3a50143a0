"""Exception types shared across the toolkit.

Every error raised on purpose derives from LoadcastError so callers (and the
CLI) can distinguish domain failures from bugs. `describe` is the one place
that turns an exception into the `Kind: message` text of an error line, for
`cli.dispatch` and for the import guard in `__main__` alike; this module
imports nothing, so the guard can load it before numpy.
"""


def describe(exc: BaseException) -> str:
    """`Kind: message` on one line: the public class name, each line break a space.

    An `ImportError` (a `ModuleNotFoundError` too) is named `ImportError` and
    says what the last error of its `__cause__` chain says: numpy wraps a failed
    C-extension load in a page of advice. A `MemoryError` with no text, as
    Python raises when an allocation of its own fails, says `out of memory`.
    """
    # The public class, not a subclass such as numpy's private MemoryError.
    kind = next((k.__name__ for k in (ImportError, MemoryError) if isinstance(exc, k)), type(exc).__name__)
    while kind == "ImportError" and exc.__cause__ is not None:
        exc = exc.__cause__
    text = str(exc) or ("out of memory" if kind == "MemoryError" else "")
    return f"{kind}: {' '.join(text.splitlines())}"


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
