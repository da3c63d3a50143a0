"""`python -m v2x_loadcast ...` and the installed `v2x-loadcast` run the CLI through this guard."""

import sys

try:
    from .cli import main
except (ImportError, MemoryError) as exc:  # numpy missing, or a tight address-space limit
    kind = "MemoryError" if isinstance(exc, MemoryError) else "ImportError"
    while exc.__cause__ is not None:  # numpy wraps a failed C-extension load in a page of advice
        exc = exc.__cause__
    print(f"error: {kind}: {' '.join(str(exc).split())}", file=sys.stderr)
    sys.exit(1)

if __name__ == "__main__":
    main()
