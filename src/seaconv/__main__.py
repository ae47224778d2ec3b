"""`python -m seaconv`: the same command line as the `seaconv` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
