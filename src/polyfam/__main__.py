"""`python -m polyfam`: the same command line as the `polyfam` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
