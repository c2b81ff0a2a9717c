"""Population graphs, normalized Laplacians, and Chebyshev filtering.

All numeric data is float64. A :class:`PopulationGraph` holds its edges as
the upper-triangle columns ``(lo, hi, w)`` that an edge list and its sidecar
hold (see :mod:`chebgcn.io`), and builds its ``adjacency`` from them when
first read: CSR below ``SPARSE_DENSITY_CUTOFF``, a dense ndarray at or above
it. A Laplacian keeps the storage of its adjacency and is built from the
edge columns by one per-edge formula in both storages, without the adjacency.

A storage is an ndarray or a :class:`CsrMatrix`, the named tuple ``(data,
indices, indptr, shape)`` of canonical CSR arrays, so
``isinstance(m, np.ndarray)`` tells them apart. A CSR adjacency or
Laplacian is always a :class:`CsrMatrix`; its products run SciPy's compiled
kernel, loaded by file path, and ``scipy.sparse.csr_array((m.data,
m.indices, m.indptr), shape=m.shape)`` wraps it without a copy.
``scipy.sparse``, slower to import than NumPy, is imported only to read a
scipy sparse matrix given as an adjacency.
"""

import functools
import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Population graphs come both as sparse geometric graphs (a few percent of
# pairs) and as half-full meta-data graphs. L @ H on a 55%-dense Laplacian is
# 2-5x faster dense than CSR; at 3.5% density CSR is 2-3x faster.
SPARSE_DENSITY_CUTOFF = 0.25


class GraphInvariantError(ValueError):
    """A graph or Laplacian violates a structural invariant."""


class _Edges(NamedTuple):
    """Canonical upper-triangle edge columns of an ``n``-node graph: int64
    ``lo < hi`` in ``[0, n)``, the ``(lo, hi)`` pairs strictly increasing,
    ``w`` float64, finite and positive."""

    lo: np.ndarray
    hi: np.ndarray
    w: np.ndarray
    n: int

    def canonical(self) -> bool:
        """Whether the columns keep every rule above."""
        lo, hi, w, n = self
        if not (lo.dtype == hi.dtype == np.int64 and w.dtype == np.float64
                and lo.shape == hi.shape == w.shape == (w.size,)):
            return False
        keys = lo * n + hi  # strictly increasing once lo and hi are in range
        return not w.size or bool(lo.min() >= 0 and hi.max() < n and np.all(lo < hi)
                                  and np.all(keys[1:] > keys[:-1]) and np.all(w > 0.0)
                                  and np.all(w < np.inf))


def _stored_sparse(nnz: int, n: int, m: int) -> bool:
    """The storage rule: CSR when fewer than ``SPARSE_DENSITY_CUTOFF`` of an
    (n, m) matrix's entries are nonzero."""
    return nnz < SPARSE_DENSITY_CUTOFF * n * m


@functools.cache
def _sparsetools():
    """SciPy's compiled sparse kernels, the module ``scipy.sparse`` multiplies
    with. It is opened by its file path, as ``chebgcn._sparsetools`` (an
    extension's init function is named after the last part of its module
    name), so that training on a CSR graph skips importing ``scipy.sparse``:
    0.1-0.2 s and about 14 MB in every process. Where SciPy lays its files
    out otherwise, it is imported through ``scipy.sparse``."""
    spec = importlib.util.find_spec("scipy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if spec else ():
        path = Path(spec.submodule_search_locations[0], "sparse", "_sparsetools" + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(f"{__package__}._sparsetools", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from scipy.sparse import _sparsetools

    return _sparsetools


class CsrMatrix(NamedTuple):
    """A canonical float64 CSR matrix (sorted rows, no duplicates, no stored
    zeros) held as bare NumPy arrays, with int32 indices unless out of range.
    ``m @ x``, for x of ``shape[1]`` rows, runs SciPy's compiled
    ``csr_matvecs``, as ``scipy.sparse.csr_array(m) @ x`` does, so the two
    products have the same bits; neither needs ``scipy.sparse`` imported."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return self.data.size

    def __matmul__(self, other):
        other = np.ascontiguousarray(other, dtype=np.float64)
        if other.ndim not in (1, 2) or other.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} matrix by shape {other.shape}")
        out = np.zeros(self.shape[:1] + other.shape[1:])
        cols = other.shape[1] if other.ndim == 2 else 1
        _sparsetools().csr_matvecs(*self.shape, cols, self.indptr, self.indices, self.data,
                                   other.ravel(), out.ravel())
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return out


# Edges per step of the loops that fill a Laplacian in from edge columns:
# 8,192 float64s (64 KiB) stay under glibc's initial 128 KiB mmap
# threshold, so the heap reuses one step's temporaries for the next, and
# no temporary grows with the edge count.
_EDGE_CHUNK = 8192


class _EdgePattern(NamedTuple):
    """Where the symmetric (n, n) CSR matrix of canonical edge columns (see
    :class:`_Edges`) stores its entries, with or without a stored diagonal,
    worked out once for every matrix on the same edges. Row r holds, in
    column order, its ``below[r]`` (r, lo) entries, from the edges with
    hi == r in edge order (``order`` lists the edges by hi, stably), then
    (r, r) if the diagonal is stored, then its ``above[r]`` (r, hi) entries,
    from the edges with lo == r, which the edge order keeps together."""

    lo: np.ndarray
    hi: np.ndarray
    order: np.ndarray
    below: np.ndarray
    above: np.ndarray

    @classmethod
    def of(cls, lo, hi, n: int) -> "_EdgePattern":
        return cls(lo, hi, np.argsort(hi, kind="stable"), np.bincount(hi, minlength=n),
                   np.bincount(lo, minlength=n))

    def indptr(self, diagonal: bool) -> np.ndarray:
        out = np.zeros(self.below.size + 1, dtype=np.int64)
        np.cumsum(self.below + self.above + diagonal, out=out[1:])
        return out

    def fill(self, data, value, diagonal: bool = False, indices=None) -> None:
        """Write ``value(k)``, the entries of the edges ``k`` (a slice or an
        index array), at both places of each edge in ``data``, and their
        columns in ``indices`` unless it is None, a chunk of edges at a time."""
        lo, hi, order = self.lo, self.hi, self.order
        start = self.indptr(diagonal)[:-1]
        # Edge k's (lo, hi) entry goes to k + upper[lo[k]], and the (hi, lo)
        # entry of the j-th edge by hi to j + lower[hi[order[j]]].
        upper = start + self.below + diagonal - (np.cumsum(self.above) - self.above)
        lower = start - (np.cumsum(self.below) - self.below)
        for s in range(0, lo.size, _EDGE_CHUNK):
            at = np.arange(s, min(s + _EDGE_CHUNK, lo.size))
            for k, rows, cols, offset in ((slice(s, s + at.size), lo, hi, upper),
                                          (order[s:s + at.size], hi, lo, lower)):
                pos = at + offset[rows[k]]
                data[pos] = value(k)
                if indices is not None:
                    indices[pos] = cols[k]

    def row_sums(self, w) -> np.ndarray:
        """The row sums of the matrix of weights ``w``, added as
        ``csr_array.sum(axis=1)`` adds them: ``np.add.reduceat`` over the
        non-empty rows. (``np.bincount`` adds each row from left to right,
        another order once a row holds three entries.)"""
        data = np.empty(2 * w.size)
        self.fill(data, lambda k: w[k])
        indptr = self.indptr(False)
        rows = np.flatnonzero(np.diff(indptr))
        out = np.zeros(indptr.size - 1)
        out[rows] = np.add.reduceat(data, indptr[rows])
        return out

    def csr(self, value, diagonal: float = 0.0) -> CsrMatrix:
        """The matrix of the edge entries ``value(k)`` (see :meth:`fill`) with
        ``diagonal`` at every (i, i), stored zeros dropped: the arrays SciPy's
        COO to CSR conversion gives, indices int32 unless the size or the
        entry count is out of its range. Nothing but the result grows with
        the edge count."""
        n = self.below.size
        indptr = self.indptr(bool(diagonal))
        data = np.empty(indptr[-1])
        indices = np.empty(data.size, dtype=_csr_index(n, data.size))
        self.fill(data, value, bool(diagonal), indices)
        if diagonal:
            at = indptr[:-1] + self.below
            data[at] = diagonal
            indices[at] = np.arange(n)
        if np.count_nonzero(data) < data.size:
            keep = data != 0.0
            data, indices = data[keep], indices[keep]
            indptr = np.concatenate([[0], np.cumsum(keep)])[indptr]
        index = _csr_index(n, data.size)
        return CsrMatrix(data, indices.astype(index, copy=False), indptr.astype(index), (n, n))


def _csr_index(n: int, nnz: int):
    """The index dtype of SciPy's CSR arrays for an (n, n) matrix of ``nnz`` entries."""
    return np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64


def _edge_dense(lo, hi, w, n: int) -> np.ndarray:
    """The symmetric (n, n) ndarray of canonical edge columns."""
    out = np.zeros((n, n))
    out[lo, hi] = w
    out[hi, lo] = w
    return out


def _freeze(matrix):
    """Mark the backing buffers of a matrix read-only, in place."""
    if isinstance(matrix, np.ndarray):
        matrix.setflags(write=False)
    else:
        for buf in (matrix.data, matrix.indices, matrix.indptr):
            buf.setflags(write=False)
    return matrix


def _matrix_edges(matrix) -> _Edges:
    """The edge columns of an adjacency matrix (an ndarray, anything
    ``np.array`` takes, a :class:`CsrMatrix` or a scipy sparse matrix), once
    it is known to be square, finite, symmetric and nonnegative with a zero
    diagonal. Zeros, stored ones of a sparse matrix included, are not edges."""
    if not isinstance(matrix, (np.ndarray, CsrMatrix)) and hasattr(matrix, "tocoo"):
        import scipy.sparse as sp  # the package's only import of it

        adj = sp.csr_array(matrix, dtype=np.float64, copy=True)
        adj.sum_duplicates()  # sorts each row too
        matrix = CsrMatrix(adj.data, adj.indices, adj.indptr, adj.shape)
    dense = not isinstance(matrix, CsrMatrix)
    adj = np.asarray(matrix, dtype=np.float64) if dense else matrix
    n = adj.shape[0]
    if adj.shape[1] != n:
        raise GraphInvariantError(f"adjacency must be square, got {adj.shape}")
    if dense:
        # Row-major order, as CSR stores its entries. A flat scan of a
        # boolean mask is several times faster than np.nonzero on 2-D floats.
        flat = np.flatnonzero(adj != 0.0)
        rows, cols = np.divmod(flat, n)
        vals = adj.ravel()[flat]
    else:
        rows = np.repeat(np.arange(n), np.diff(adj.indptr))
        cols, vals = adj.indices.astype(np.int64), np.asarray(adj.data, dtype=np.float64)
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = bad[0]
        raise GraphInvariantError(
            f"edge weights must be finite: edge ({rows[k]}, {cols[k]}) is {vals[k]}")
    # Listed by column, the entries of a symmetric matrix are its entries
    # listed by row, with rows and columns swapped.
    by_col = np.lexsort((rows, cols))
    if not (np.array_equal(cols[by_col], rows) and np.array_equal(rows[by_col], cols)
            and np.array_equal(vals[by_col], vals)):
        raise GraphInvariantError("adjacency must be exactly symmetric")
    if vals.size and float(np.min(vals)) < 0.0:
        raise GraphInvariantError("edge weights must be nonnegative")
    if np.any(rows == cols):
        raise GraphInvariantError("adjacency diagonal must be zero (no self-loops)")
    upper = rows < cols
    edges = _Edges(rows[upper].astype(np.int64, copy=False), cols[upper], vals[upper], n)
    if not edges.canonical():  # a CsrMatrix with unsorted rows or duplicates
        raise GraphInvariantError("a CsrMatrix adjacency must have sorted rows without duplicates")
    return edges


@dataclass(frozen=True, init=False)
class PopulationGraph:
    """A node-attributed graph over a whole population of samples.

    Fields
    ------
    edges : tuple of ndarray (lo, hi, w)
        The edge columns of the (N, N) ``adjacency`` argument, which must be
        symmetric, nonnegative and finite with a zero diagonal, dense, a
        :class:`CsrMatrix` or scipy sparse: one entry per nonzero weight
        ``w`` at ``(lo, hi)``, ``lo < hi``, sorted by ``(lo, hi)``.
    features : ndarray, (N, d)
        One row of finite measurements per node.
    labels : ndarray of int, (N,)
        Class index per node, in ``[0, n_classes)``.
    train_mask : ndarray of bool, (N,)
        Training-split membership; every other node is a test node.
    test_mask : ndarray of bool, (N,)
        Not a parameter: ``~train_mask``, computed on construction.

    ``adjacency`` is built from ``edges`` when first read: CSR below
    ``SPARSE_DENSITY_CUTOFF``, a dense ndarray at or above it. Instances are
    immutable: arrays are copied on construction and their buffers, the
    adjacency's too, marked read-only.
    """

    edges: tuple
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    test_mask: np.ndarray

    def __init__(self, adjacency, features, labels, train_mask):
        # Package code hands over canonical columns as an _Edges, uncopied.
        if isinstance(adjacency, _Edges):
            edges = adjacency
            if not edges.canonical():
                raise GraphInvariantError("edge columns must be canonical (see graph._Edges)")
        else:
            edges = _matrix_edges(adjacency)
        feats = np.array(features, dtype=np.float64)
        labels = np.asarray(labels)
        train = np.array(train_mask, dtype=bool)

        n = edges.n
        if n == 0:
            raise GraphInvariantError("graph must contain at least one node")
        if feats.ndim != 2 or feats.shape[0] != n:
            raise GraphInvariantError(
                f"features must be (n_nodes, d), got {feats.shape} for {n} nodes"
            )
        if labels.ndim != 1 or labels.shape[0] != n:
            raise GraphInvariantError("labels must be a 1-D array with one entry per node")
        if not np.issubdtype(labels.dtype, np.integer):
            raise GraphInvariantError(f"labels must be integers, got dtype {labels.dtype}")
        if labels.min() < 0:
            raise GraphInvariantError("labels must be nonnegative class indices")
        if train.shape != (n,):
            raise GraphInvariantError(f"train_mask must be a boolean array of length {n}")
        if not np.isfinite(feats).all():
            node, col = np.argwhere(~np.isfinite(feats))[0]
            raise GraphInvariantError(
                f"features must be finite: node {node}, column {col} is {feats[node, col]}"
            )

        labels = labels.astype(np.int64)
        test = ~train
        for arr in (*edges[:3], feats, labels, train, test):
            arr.setflags(write=False)
        object.__setattr__(self, "edges", tuple(edges[:3]))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "train_mask", train)
        object.__setattr__(self, "test_mask", test)

    @functools.cached_property
    def adjacency(self):
        """(N, N) edge weights, CSR or ndarray as the density rule picks;
        built from ``edges`` on first read, then kept."""
        lo, hi, w = self.edges
        n = self.n_nodes
        if _stored_sparse(2 * w.size, n, n):
            return _freeze(_EdgePattern.of(lo, hi, n).csr(lambda k: w[k]))
        return _freeze(_edge_dense(lo, hi, w, n))

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (node pairs with a nonzero weight)."""
        return self.edges[2].size

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class NormalizedLaplacian:
    """A symmetric graph Laplacian, read-only.

    ``matrix`` is I - D^{-1/2} A D^{-1/2}, with spectrum inside [0, 2], or its
    Chebyshev-domain rescaling L - I, with spectrum inside [-1, 1]: an
    ndarray or a :class:`CsrMatrix`.
    """

    matrix: object

    def __post_init__(self):
        if not isinstance(self.matrix, (np.ndarray, CsrMatrix)):
            raise TypeError("a Laplacian matrix must be an ndarray or a CsrMatrix, "
                            f"got {type(self.matrix).__name__}")
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise GraphInvariantError(f"Laplacian must be square, got {self.matrix.shape}")
        _freeze(self.matrix)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        m = self.matrix
        return np.array(m) if isinstance(m, np.ndarray) else m.toarray()


def build_laplacian(graph) -> NormalizedLaplacian:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2} of a graph.

    Accepts a :class:`PopulationGraph` or a bare adjacency matrix (checked
    and stored as a graph's adjacency is); the Laplacian keeps the
    adjacency's storage.
    Rows and columns of isolated nodes come out as identity rows: their
    degree inverse is taken to be zero. The result is symmetrized as
    (L + L^T) / 2 so that it is exactly equal to its transpose despite
    roundoff.
    """
    if isinstance(graph, PopulationGraph):
        edges = _Edges(*graph.edges, graph.n_nodes)  # checked at construction
    else:
        edges = _matrix_edges(graph)
    return NormalizedLaplacian(matrix=_edge_laplacian(edges, 1.0))


def _edge_laplacian(edges: _Edges, diagonal: float):
    """The normalized Laplacian of canonical edge columns in the storage the
    density rule picks, with ``diagonal`` on its diagonal: 1.0 gives
    I - D^{-1/2} A D^{-1/2}, 0.0 the Chebyshev rescaling L - I (a CSR one,
    a :class:`CsrMatrix`, stores no zeros). The degrees are the adjacency's
    row sums as its storage adds them, and each edge's (L + L^T) / 2 entry is
    :func:`_edge_values`: bit for bit the whole-matrix formula. A dense L
    reuses the adjacency buffer, a CSR one the adjacency's pattern; the
    entries are filled in a chunk of edges at a time."""
    lo, hi, w, n = edges
    sparse = _stored_sparse(2 * w.size, n, n)
    if sparse:
        pattern = _EdgePattern.of(lo, hi, n)
        deg = pattern.row_sums(w)
    else:
        adj = _edge_dense(lo, hi, w, n)
        deg = adj.sum(axis=1)
    d = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
    if sparse:
        return pattern.csr(lambda k: _edge_values(lo[k], hi[k], w[k], d), diagonal)
    for s in range(0, w.size, _EDGE_CHUNK):
        k = slice(s, s + _EDGE_CHUNK)
        adj[lo[k], hi[k]] = adj[hi[k], lo[k]] = _edge_values(lo[k], hi[k], w[k], d)
    adj.flat[::n + 1] = diagonal
    return adj


def _edge_values(lo, hi, w, d) -> np.ndarray:
    """The (L + L^T) / 2 entry of each edge, ((0 - (w d_lo) d_hi) + (0 -
    (w d_hi) d_lo)) * 0.5 with d = D^{-1/2}, in three temporaries of the
    edges' size."""
    d_lo, d_hi = d[lo], d[hi]
    out = w * d_lo
    out *= d_hi
    np.subtract(0.0, out, out=out)
    d_hi *= w
    d_hi *= d_lo
    np.subtract(0.0, d_hi, out=d_hi)
    out += d_hi
    out *= 0.5
    return out


def rescale_laplacian(lap: NormalizedLaplacian) -> NormalizedLaplacian:
    """Map a normalized Laplacian to the Chebyshev domain: 2 L / 2 - I = L - I.

    The largest eigenvalue of L is at most 2, so the result's spectrum lies
    inside [-1, 1]. A CSR L must store every row's diagonal entry, as
    :func:`build_laplacian`'s does; the result stores no zeros.
    """
    n, m = lap.n_nodes, lap.matrix
    if isinstance(m, np.ndarray):
        scaled = m.copy()
        scaled.flat[::n + 1] -= 1.0
        return NormalizedLaplacian(matrix=scaled)
    # Subtract 1 at each row's stored diagonal entry, then drop the entries
    # that become 0, as _EdgePattern.csr drops them.
    rows = np.repeat(np.arange(n), np.diff(m.indptr))
    diagonal = np.flatnonzero(m.indices == rows)
    if diagonal.size < n:
        row = np.flatnonzero(np.bincount(rows[diagonal], minlength=n) == 0)[0]
        raise GraphInvariantError(f"row {row} of the CSR Laplacian stores no diagonal entry")
    data = m.data.copy()
    data[diagonal] -= 1.0
    keep = data != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep)])[m.indptr]
    index = _csr_index(n, np.count_nonzero(keep))
    return NormalizedLaplacian(matrix=CsrMatrix(
        data[keep], m.indices[keep].astype(index, copy=False), indptr.astype(index), m.shape))


def _chebyshev_laplacian(graph: PopulationGraph) -> NormalizedLaplacian:
    """``rescale_laplacian(build_laplacian(graph))``, bit for bit, built from
    the graph's edge columns without its adjacency or a second Laplacian."""
    return NormalizedLaplacian(matrix=_edge_laplacian(_Edges(*graph.edges, graph.n_nodes), 0.0))


def chebyshev_apply(lap: NormalizedLaplacian, x: np.ndarray, order: int) -> list[np.ndarray]:
    """Chebyshev basis applied to a signal: [T_0(L)x, T_1(L)x, ..., T_order(L)x].

    Uses the three-term recurrence T_r = 2 L T_{r-1} - T_{r-2} with
    T_0(L)x = x and T_1(L)x = Lx, where L is ``lap.matrix`` (normally the
    rescaled Laplacian). ``x`` must be a 2-D (n_nodes, d) array.
    """
    x = _check_signal(lap, x, order)
    mat = lap.matrix
    out = [x]
    if order >= 1:
        out.append(mat @ x)
    for _ in range(2, order + 1):
        term = mat @ out[-1]
        term *= 2.0
        term -= out[-2]
        out.append(term)
    return out


def _check_signal(lap: NormalizedLaplacian, x, order) -> np.ndarray:
    """``x`` as float64, once it and ``order`` are known to suit a basis of ``lap``."""
    if not (isinstance(order, (int, np.integer)) and order >= 0):
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"signal must be 2-D (n_nodes, d), got shape {x.shape}")
    if x.shape[0] != lap.n_nodes:
        raise ValueError(
            f"signal has {x.shape[0]} rows but the Laplacian has {lap.n_nodes} nodes"
        )
    return x


def _chebyshev_basis(lap: NormalizedLaplacian, x: np.ndarray, order: int) -> np.ndarray:
    """``np.hstack(chebyshev_apply(lap, x, order))``, bit for bit, as one
    (N, (order + 1) d) matrix. For a dense L, T_r(L)x is multiplied straight
    into columns r d:(r + 1) d, so no term is copied."""
    mat = lap.matrix
    if not isinstance(mat, np.ndarray):
        return np.hstack(chebyshev_apply(lap, x, order))
    x = _check_signal(lap, x, order)
    d = x.shape[1]
    out = np.empty((x.shape[0], (order + 1) * d))
    terms = [out[:, r * d:(r + 1) * d] for r in range(order + 1)]
    terms[0][...] = x
    for r in range(1, order + 1):
        np.matmul(mat, terms[r - 1], out=terms[r])
        if r >= 2:
            terms[r] *= 2.0
            terms[r] -= terms[r - 2]
    return out


def khop_reach(lap: NormalizedLaplacian, k: int) -> np.ndarray:
    """Boolean (N, N) matrix: entry (i, j) iff j is within k hops of i.

    Hop distance is taken over the support of the off-diagonal part of the
    Laplacian, so it matches the adjacency the Laplacian was built from.
    Every node reaches itself (k = 0 gives the identity pattern).
    """
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    support = lap.toarray() != 0.0
    np.fill_diagonal(support, False)
    step = support.astype(np.int64)
    reach = np.eye(lap.n_nodes, dtype=bool)
    for _ in range(k):
        reach = reach | ((reach.astype(np.int64) @ step) > 0)
    return reach
