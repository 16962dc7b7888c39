"""Fixed reference computations that measure how fast the host is running.

On a shared 2-vCPU host the speed of one core drifts by up to 1.6x over
minutes (no steal time is reported and CPU time equals wall time), so times
taken minutes apart differ by more than any useful regression bound.  The
benchmark therefore times a kernel right before every measured operation, in
the same process, and reports the operation at the reference speed:

    time at reference speed = measured time * nominal time / kernel time

The kernels do not touch penpath, so a change to penpath cannot move them.
The nominal times are the kernels' typical times on the 2-vCPU Xeon host the
benchmark's bounds were set on.
"""

import time

KERNEL_NOMINAL_S = 0.16
PYTHON_KERNEL_NOMINAL_S = 0.1


def kernel():
    """Seconds taken by a fixed mix of interpreter loops and small Cholesky solves."""
    import numpy as np
    from scipy.linalg import cho_factor, cho_solve

    matrix = 60.0 * np.eye(60) + np.ones((60, 60))
    start = time.perf_counter()
    total = 0.0
    for _ in range(1500):
        total += float(cho_solve(cho_factor(matrix), matrix[0])[0])
        for k in range(400):
            total += k * 0.5
    return time.perf_counter() - start


def python_kernel():
    """Seconds taken by a fixed interpreter loop; it needs no imports, so a
    fresh interpreter can run it before the import it calibrates."""
    start = time.perf_counter()
    total = 0.0
    for k in range(1_100_000):
        total += k * 0.5
    return time.perf_counter() - start


def at_reference(seconds, kernel_seconds, nominal=KERNEL_NOMINAL_S):
    return seconds * nominal / kernel_seconds
