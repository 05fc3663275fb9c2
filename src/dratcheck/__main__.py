"""Process entry point of `python -m dratcheck` and of the `dratcheck` script.

run() keeps the cyclic garbage collector off and freezes the heap once main()
returns, so exit neither walks nor frees it; checking and converting make no
reference cycles per step (tests/test_no_cycles.py). main() leaves gc alone. A stdout that fails exits 2:
silently if it is closed, else with one ``c error:`` line on stderr.
"""

import gc
import os
import sys


def run() -> int:
    gc.disable()
    from .cli import main

    try:
        code = main()
        sys.stdout.flush()  # so that a failed stdout fails here, and not at exit
    except OSError as exc:  # main() reports the errors of the files it names, so this is stdout's
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so that the flush at exit cannot fail
        if not isinstance(exc, BrokenPipeError):
            print("c error: stdout: %s" % exc, file=sys.stderr)
        code = 2
    finally:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
