"""`python -m uniar`: the same entry point as the `uniar` script."""

from .cli import main

if __name__ == "__main__":
    main()
