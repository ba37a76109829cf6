"""Thread-count pinning for multiprocessing fan-out.

The sweep scheduler already fans out one python process per core;
letting each worker's BLAS/OpenMP runtime spin up its own thread pool
on top oversubscribes the machine (P workers × T BLAS threads), which
slows the numpy kernels down instead of speeding them up.  The pool
worker initializer calls :func:`pin_math_threads` to cap the native
pools at one thread per worker.
"""

from __future__ import annotations

import os

#: environment knobs honoured by the common BLAS/OpenMP runtimes
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: keeps the threadpoolctl limiter alive (it restores the previous
#: limits when garbage-collected)
_controller = None


def pin_math_threads(n: int = 1) -> None:
    """Pin native BLAS/OpenMP thread pools in this process to ``n``.

    Environment variables cover libraries that have not been loaded yet
    (and any grandchild processes); already-initialised pools — the
    usual case under the ``fork`` start method, where workers inherit a
    loaded numpy — are capped through ``threadpoolctl`` when it is
    installed.  Best-effort by design: with neither mechanism available
    the call is a no-op rather than an error.
    """
    global _controller
    value = str(n)
    for var in _THREAD_VARS:
        os.environ[var] = value
    try:
        import threadpoolctl
    except ImportError:
        return
    try:
        _controller = threadpoolctl.threadpool_limits(limits=n)
    except Exception:  # pragma: no cover - defensive: never break a worker
        pass
