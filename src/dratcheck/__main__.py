"""Process entry point of `python -m dratcheck` and of the `dratcheck` script.

run() keeps the cyclic garbage collector off and freezes the heap once main()
returns, so exit neither walks nor frees it; checking and converting make no
reference cycles per step (tests/test_no_cycles.py). main() leaves gc alone. A closed stdout exits 2.
"""

import gc
import os
import sys


def run() -> int:
    gc.disable()
    from .cli import main

    try:
        code = main()
        sys.stdout.flush()  # so that a closed stdout fails here, and not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so that the flush at exit cannot fail
        code = 2
    finally:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
