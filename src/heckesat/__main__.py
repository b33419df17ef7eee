"""``python3 -m heckesat``: the same command line as ``heckesat``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
