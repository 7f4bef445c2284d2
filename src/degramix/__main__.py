"""The command-line entry: ``python -m degramix`` and the ``degramix`` script.

Unless the user set any of ``BLAS_THREADS``, the process runs BLAS on one
thread, so its outputs are the same bytes whatever the host's CPU count.
numpy reads these variables once, when it loads, so they are set before the
CLI is imported.  Library callers, ``cli.run`` among them, pin their own.
"""

import os
import sys

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas(environ) -> None:
    """Set every one of ``BLAS_THREADS`` in ``environ`` to 1 if none is set."""
    if not any(name in environ for name in BLAS_THREADS):
        environ.update(dict.fromkeys(BLAS_THREADS, "1"))


def main() -> None:
    pin_blas(os.environ)
    from .cli import run

    sys.exit(run())


if __name__ == "__main__":
    main()
