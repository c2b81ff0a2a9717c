"""Worker processes: how many to run, and one ordered map over them.

Training (``experiments``) and the graph writers (``io.save_graph``) share
this module, so ``threads`` means the same everywhere: None is one worker
per usable CPU where a worker can pin NumPy's BLAS to one thread, else 1.
Every worker pins its own BLAS when it starts; the calling process keeps
its BLAS as it was. Workers start by the platform's default method, fork on
Linux up to Python 3.13; under spawn or forkserver each one re-imports
NumPy first, and opens SciPy's compiled sparse kernels (never
``scipy.sparse``) only when a task or its initializer's arguments hold a
CSR Laplacian. ``concurrent.futures``' process pool and ``multiprocessing``
(about 20 ms to import) load with the first pool, so a process that starts
none never imports them. A worker that dies without handing back its result,
as one the kernel kills for lack of memory does, is a :class:`WorkerDied`.
"""

import collections
import contextlib
import ctypes
import functools
import itertools
import os
from pathlib import Path

import numpy as np

# Tasks each worker may hold submitted and not yet handed back in order:
# one running and one queued keep it busy while the caller consumes.
_AHEAD_PER_WORKER = 2


class WorkerDied(MemoryError):
    """A worker process ended without handing back a result, as one killed
    by a signal does; on a machine short of memory, the signal is most likely
    the kernel's out-of-memory killer's. Its cause is the pool's
    ``BrokenProcessPool``."""


def ProcessPoolExecutor(**kwargs):
    """``concurrent.futures.ProcessPoolExecutor(**kwargs)``, imported here on first use."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(**kwargs)


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


def _ordered(pool, fn, tasks, ahead):
    """Submit ``fn(task)`` for the first ``ahead`` tasks (None: all of them)
    to ``pool`` now; returns an iterator over the results in task order that
    submits one more task for each result it reads."""
    tasks = iter(tasks)
    pending = collections.deque(pool.submit(fn, task) for task in itertools.islice(tasks, ahead))
    return _results(pool, fn, tasks, pending)


def _results(pool, fn, tasks, pending):
    try:
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, task) for task in itertools.islice(tasks, 1))
            yield result
    finally:
        for future in pending:
            future.cancel()


def _here(fn, tasks, ahead=None):
    """The builtin ``map``: tasks run here as their results are read."""
    return map(fn, tasks)


@contextlib.contextmanager
def worker_map(workers: int, initializer=None, initargs=()):
    """A ``map(fn, tasks, ahead=2 * workers)`` that runs in ``workers``
    processes when that is above 1, else here, as the builtin ``map``.

    The pooled map submits the first ``ahead`` tasks (None: every task) at
    once, then one more for each result read, and yields the results in
    task order. It re-raises a worker's exception where its result is read,
    and raises :class:`WorkerDied` there if a worker died. Processes start
    with the first task; ``fn``, each task and each result
    are pickled, and so are ``initializer`` and ``initargs`` unless the
    workers are forked. If the block raises, tasks not yet started are
    cancelled; either way it exits only once the workers have.
    """
    if workers <= 1:
        yield _here
        return
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(initializer, *initargs)) as pool:
        from concurrent.futures.process import BrokenProcessPool

        try:
            yield functools.partial(_ordered, pool, ahead=_AHEAD_PER_WORKER * workers)
        except BaseException as exc:
            pool.shutdown(cancel_futures=True)
            if isinstance(exc, BrokenProcessPool):
                raise WorkerDied("a worker process was killed, most likely for lack of "
                                 "memory") from exc
            raise
