"""The process entry point: ``python -m genocchi`` and the ``genocchi`` script."""

import gc
import sys

from .cli import main


def run() -> None:
    """Run the command line, then exit the process with its code.

    The heap is frozen once main has returned and flushed its output, so
    the interpreter's collections at shutdown skip every object the run
    left alive (the number and polynomial caches among them)
    instead of walking them just before the process ends.  No object in
    the package has a finalizer for such a collection to run.  main itself
    never freezes: tests and library callers run it many times in one
    process, and frozen objects are never collected.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
