"""Entry point of the `penpath` console script.

It lives outside the penpath package because importing the package imports
numpy, and OpenBLAS reads its thread count once, when numpy loads it.
Unless the user set them, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS default
to 1 here.  On a 2-CPU host a fused-lasso job took 1.7-2.7 s with OpenBLAS's
default two threads against 1.0-1.5 s with one, and crossval solves its
folds in forked processes only with one BLAS thread (penpath.cli).  Library
callers set the variables themselves.
"""

import os
import sys


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from penpath.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
