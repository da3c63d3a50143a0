"""`python -m v2x_loadcast ...` and the installed `v2x-loadcast` (its target is `main`) run the CLI
through this guard.

Importing the CLI loads numpy, which can fail: numpy missing, a tight
address-space limit, or Ctrl-C while it loads. `errors.describe` is imported
first, and the failure is one error line with exit 1, or 130 for an interrupt,
as `cli.dispatch` reports a failure once the CLI runs.
"""

import sys

from .errors import describe

try:
    from .cli import dispatch
except (ImportError, MemoryError, KeyboardInterrupt) as exc:
    print(f"error: {describe(exc)}", file=sys.stderr)
    sys.exit(130 if isinstance(exc, KeyboardInterrupt) else 1)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
