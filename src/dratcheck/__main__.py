"""Process entry point of `python -m dratcheck` and of the `dratcheck` script.

run() keeps the cyclic garbage collector off and freezes the heap once main()
returns, so exit neither walks nor frees it; checking and converting make no
reference cycles per step (tests/test_no_cycles.py). main() leaves gc alone.
"""

import gc
import sys


def run() -> int:
    gc.disable()
    from .cli import main

    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
