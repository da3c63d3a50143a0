"""`python -m v2x_loadcast ...` runs the command-line interface."""

import sys

try:
    from .cli import main
except MemoryError as exc:  # importing numpy can exhaust a tight address-space limit
    print(f"error: MemoryError: {exc}", file=sys.stderr)
    sys.exit(1)

if __name__ == "__main__":
    main()
