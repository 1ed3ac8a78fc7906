"""``python -m riversim``: the riversim command line, runnable from a checkout."""

from .cli import entry

if __name__ == "__main__":
    entry()
