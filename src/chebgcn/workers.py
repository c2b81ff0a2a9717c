"""Worker processes: how many to run, and one ordered map over them.

Training (``experiments``) and the graph writers (``io.save_graph``) share
this module, so ``threads`` means the same everywhere: None is one worker
per usable CPU where a worker can pin NumPy's BLAS to one thread, else 1.
Every worker pins its own BLAS when it starts; the calling process keeps
its BLAS as it was. Workers start by the platform's default method, fork on
Linux up to Python 3.13; under spawn or forkserver each one re-imports
NumPy first, and SciPy only when a task or its initializer's arguments hold
a CSR array.
"""

import collections
import contextlib
import ctypes
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

# Tasks each worker may hold submitted and not yet handed back in order:
# one running and one queued keep it busy while the caller consumes.
_AHEAD_PER_WORKER = 2


@functools.cache
def _openblas():
    """NumPy's own OpenBLAS if it exports its set-threads call, else None."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_-*.so"):
        lib = ctypes.CDLL(str(path))
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return lib
    return None


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def worker_count(threads) -> int:
    """``threads``, or for None one per usable CPU where workers can pin
    their BLAS, else 1."""
    if threads is not None:
        return threads
    return _usable_cpus() if _openblas() is not None else 1


def _init_worker(initializer, *initargs) -> None:
    """Pin this worker's BLAS to one thread, then run the caller's initializer."""
    if _openblas() is not None:
        _openblas().scipy_openblas_set_num_threads64_(1)
    if initializer is not None:
        initializer(*initargs)


def _ordered(pool, ahead: int, fn, tasks):
    """Yield ``fn(task)`` for each task, in order, from ``pool``, with at
    most ``ahead`` tasks submitted and not yet yielded."""
    pending = collections.deque()
    try:
        for task in tasks:
            if len(pending) == ahead:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, task))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


@contextlib.contextmanager
def worker_map(workers: int, initializer=None, initargs=()):
    """A ``map(fn, tasks)`` that runs in ``workers`` processes when that is
    above 1, else the builtin ``map``, which runs here.

    The pooled map yields results lazily and in task order, holding at most
    two tasks per worker in flight, and re-raises a worker's exception where
    its result is read. Processes start with the first task; ``fn``, each
    task and each result are pickled, and so are ``initializer`` and
    ``initargs`` unless the workers are forked.
    """
    if workers <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(initializer, *initargs)) as pool:
        yield functools.partial(_ordered, pool, _AHEAD_PER_WORKER * workers)
