"""`python -m normality_lab`: the same command line as `normality-lab`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
