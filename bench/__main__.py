"""``python -m bench`` entry point: pin the environment, then hand over to the CLI."""

import sys
import time

_PROCESS_START = time.perf_counter()

from bench import env  # noqa: E402 - the clock above must start before any import

if __name__ == "__main__":
    # Thread counts must be pinned before NumPy is imported, which the CLI
    # module does; hence the late import.
    env.prepare()
    from bench.cli import main

    sys.exit(main(process_start=_PROCESS_START))
