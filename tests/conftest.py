"""Shared oracle implementations for the test suite.

These deliberately avoid the library's own code paths: plain Python loops,
dense matrix recurrences, and eigendecompositions, so that agreement with
the package is evidence rather than tautology.
"""

import collections
import math
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import chebgcn
from chebgcn.graph import CsrMatrix

# Acceptance checks that retrain hundreds of networks and take minutes; a
# quick local loop is ``pytest -m "not slow"``.
SLOW_TESTS = ("test_03a_", "test_03b_", "test_03c_", "test_04_")


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name == "test_acceptance.py" and item.name.startswith(SLOW_TESTS):
            item.add_marker(pytest.mark.slow)


def package_env() -> dict:
    """This process's environment with the package's source directory first
    on PYTHONPATH, for a check that runs the package in a fresh interpreter."""
    src = Path(chebgcn.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if a worker pool starts."""
    def refuse(**kwargs):
        raise AssertionError("no worker pool may start here")
    monkeypatch.setattr("chebgcn.workers.ProcessPoolExecutor", refuse)


class CountingPool:
    """Stands in for ProcessPoolExecutor: runs each task in this process when
    its result is read, and records, per task function, the most tasks
    submitted and not yet read."""

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.outstanding = collections.Counter()
        self.peak = collections.Counter()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        name = fn.__name__
        self.outstanding[name] += 1
        self.peak[name] = max(self.peak[name], self.outstanding[name])
        pool = self

        class Pending:
            def result(self):
                pool.outstanding[name] -= 1
                return fn(task)

            def cancel(self):
                return True

        return Pending()


def scipy_of(m: CsrMatrix):
    """The ``scipy.sparse.csr_array`` around a CsrMatrix's arrays."""
    return sp.csr_array((m.data, m.indices, m.indptr), shape=m.shape)


def csr_of(matrix) -> CsrMatrix:
    """``matrix``, a CsrMatrix or anything ``scipy.sparse.csr_array`` takes,
    as canonical float64 CSR (sorted rows, no duplicates, no stored zeros)
    in the package's own type, built by SciPy."""
    if isinstance(matrix, CsrMatrix):
        matrix = scipy_of(matrix)
    csr = sp.csr_array(matrix, dtype=np.float64, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    return CsrMatrix(csr.data, csr.indices, csr.indptr, csr.shape)


def random_adjacency(rng, n, p=0.3, weighted=False):
    """Random symmetric adjacency with zero diagonal, built entry by entry."""
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = rng.uniform(0.5, 2.0) if weighted else 1.0
                a[i, j] = w
                a[j, i] = w
    return a


def path_adjacency(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = 1.0
        a[i + 1, i] = 1.0
    return a


def loop_normalized_laplacian(a):
    """I - D^{-1/2} A D^{-1/2} computed scalar by scalar."""
    n = a.shape[0]
    deg = [float(sum(a[i])) for i in range(n)]
    lap = np.eye(n)
    for i in range(n):
        for j in range(n):
            if a[i, j] != 0.0 and deg[i] > 0 and deg[j] > 0:
                lap[i, j] -= a[i, j] / math.sqrt(deg[i] * deg[j])
    return lap


def dense_cheb_matrices(lt, order):
    """[T_0(lt), ..., T_order(lt)] as dense matrices via the recurrence."""
    n = lt.shape[0]
    mats = [np.eye(n)]
    if order >= 1:
        mats.append(np.array(lt, dtype=np.float64))
    for _ in range(2, order + 1):
        mats.append(2.0 * (lt @ mats[-1]) - mats[-2])
    return mats


def spectral_cheb_apply(lt, x, order):
    """T_r(lt) x via eigendecomposition and cos(r arccos(lambda)).

    Valid when the spectrum of lt lies in [-1, 1]; eigenvalues are clamped
    to absorb roundoff at the interval ends.
    """
    vals, vecs = np.linalg.eigh(np.asarray(lt, dtype=np.float64))
    vals = np.clip(vals, -1.0, 1.0)
    out = []
    for r in range(order + 1):
        filt = np.cos(r * np.arccos(vals))
        out.append(vecs @ (filt[:, None] * (vecs.T @ x)))
    return out


def bfs_hop_distances(a):
    """All-pairs hop distances over the support of a, by explicit BFS."""
    n = a.shape[0]
    dist = np.full((n, n), np.inf)
    for src in range(n):
        dist[src, src] = 0
        frontier = [src]
        d = 0
        seen = {src}
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in range(n):
                    if a[u, v] != 0.0 and v not in seen:
                        seen.add(v)
                        dist[src, v] = d
                        nxt.append(v)
            frontier = nxt
    return dist


def euclidean_distance(x):
    """The (N, N) Euclidean distance matrix of feature rows by one broadcast,
    zero on the diagonal."""
    diff = x[:, None, :] - x[None, :, :]
    out = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(out, 0.0)
    return out


def pearson_distance_scalar(x, y):
    """1 - Pearson correlation of two vectors, from scratch."""
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return 1.0 - num / (dx * dy)
