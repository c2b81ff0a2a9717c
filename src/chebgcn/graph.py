"""Population graphs, normalized Laplacians, and Chebyshev filtering.

All numeric data is float64. A :class:`PopulationGraph` holds its edges as
the upper-triangle columns ``(lo, hi, w)`` that an edge list and its sidecar
hold (see :mod:`chebgcn.io`), and builds its ``adjacency`` from them when
first read: CSR below ``SPARSE_DENSITY_CUTOFF``, a dense ndarray at or above
it. Laplacians keep the storage of their adjacency, and both storage paths
compute the same values to within floating-point roundoff.

A storage is an ndarray or a canonical ``scipy.sparse.csr_array``, so
``isinstance(m, np.ndarray)`` tells them apart. ``scipy.sparse``, slower to
import than NumPy, is imported only where a CSR array is built or read.
"""

import functools
from dataclasses import dataclass
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


def _canonical_csr(matrix):
    """A float64 CSR copy of ``matrix`` with sorted indices, no duplicates
    and no stored zeros."""
    import scipy.sparse as sp

    out = sp.csr_array(matrix, dtype=np.float64, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _edge_csr(lo, hi, w, n: int):
    """The symmetric (n, n) CSR array of canonical edge columns (see
    :class:`_Edges`)."""
    import scipy.sparse as sp

    index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    lo, hi = lo.astype(index), hi.astype(index)
    # The pairs are sorted, so listing each edge's (hi, lo) entry before its
    # (lo, hi) one leaves every CSR row sorted and spares scipy a sort.
    return sp.csr_array(
        (np.concatenate([w, w]), (np.concatenate([hi, lo]), np.concatenate([lo, hi]))),
        shape=(n, n),
    )


def _edge_storage(lo, hi, w, n: int):
    """The adjacency of canonical edge columns (see :class:`_Edges`) in the
    storage the density rule picks. The edge count decides before anything
    is built, so a dense graph is filled in directly, without a CSR step."""
    if _stored_sparse(2 * w.size, n, n):
        return _edge_csr(lo, hi, w, n)
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
    ``np.array`` takes, or a scipy sparse matrix), once it is known to be
    square, finite, symmetric and nonnegative with a zero diagonal. Zeros,
    stored ones of a sparse matrix included, are not edges."""
    dense = isinstance(matrix, np.ndarray)
    if not dense:
        import scipy.sparse as sp

        dense = not sp.issparse(matrix)
    adj = np.asarray(matrix, dtype=np.float64) if dense else _canonical_csr(matrix)
    if adj.shape[0] != adj.shape[1]:
        raise GraphInvariantError(f"adjacency must be square, got {adj.shape}")
    if dense:
        # Row-major order, as CSR stores its entries. A flat scan of a
        # boolean mask is several times faster than np.nonzero on 2-D floats.
        flat = np.flatnonzero(adj != 0.0)
        rows, cols = np.divmod(flat, adj.shape[1])
        vals = adj.ravel()[flat]
    else:
        rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
        cols, vals = adj.indices.astype(np.int64), adj.data
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = bad[0]
        raise GraphInvariantError(
            f"edge weights must be finite: edge ({rows[k]}, {cols[k]}) is {vals[k]}")
    if not (np.array_equal(adj, adj.T) if dense else (adj != adj.T).nnz == 0):
        raise GraphInvariantError("adjacency must be exactly symmetric")
    if vals.size and float(np.min(vals)) < 0.0:
        raise GraphInvariantError("edge weights must be nonnegative")
    if np.any(rows == cols):
        raise GraphInvariantError("adjacency diagonal must be zero (no self-loops)")
    upper = rows < cols
    return _Edges(rows[upper].astype(np.int64, copy=False), cols[upper], vals[upper],
                  adj.shape[0])


@dataclass(frozen=True, init=False)
class PopulationGraph:
    """A node-attributed graph over a whole population of samples.

    Fields
    ------
    edges : tuple of ndarray (lo, hi, w)
        The edge columns of the (N, N) ``adjacency`` argument, which must be
        symmetric, nonnegative and finite with a zero diagonal, dense or
        scipy sparse: one entry per nonzero weight ``w`` at ``(lo, hi)``,
        ``lo < hi``, sorted by ``(lo, hi)``.
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
        return _freeze(_edge_storage(*self.edges, self.n_nodes))

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

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node."""
        return self.adjacency.sum(axis=1)


@dataclass(frozen=True)
class NormalizedLaplacian:
    """A symmetric graph Laplacian, read-only.

    ``matrix`` is I - D^{-1/2} A D^{-1/2}, with spectrum inside [0, 2], or its
    Chebyshev-domain rescaling L - I, with spectrum inside [-1, 1]; CSR or
    dense.
    """

    matrix: object

    def __post_init__(self):
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
        adj = graph.adjacency  # checked at construction
    else:
        adj = _edge_storage(*_matrix_edges(graph))

    deg = adj.sum(axis=1)
    d_inv_sqrt = np.zeros_like(deg)
    nonzero = deg > 0
    d_inv_sqrt[nonzero] = 1.0 / np.sqrt(deg[nonzero])

    n = adj.shape[0]
    if isinstance(adj, np.ndarray):
        lap = np.eye(n) - adj * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
        lap = (lap + lap.T) * 0.5
    else:
        import scipy.sparse as sp

        d_half = sp.diags_array(d_inv_sqrt, format="csr")
        lap = sp.eye_array(n, format="csr") - d_half @ adj @ d_half
        lap = _canonical_csr((lap + lap.T) * 0.5)
    return NormalizedLaplacian(matrix=lap)


def rescale_laplacian(lap: NormalizedLaplacian) -> NormalizedLaplacian:
    """Map a normalized Laplacian to the Chebyshev domain: 2 L / 2 - I = L - I.

    The largest eigenvalue of L is at most 2, so the result's spectrum lies
    inside [-1, 1].
    """
    n = lap.n_nodes
    if isinstance(lap.matrix, np.ndarray):
        scaled = lap.matrix - np.eye(n)
    else:
        import scipy.sparse as sp

        scaled = _canonical_csr(lap.matrix - sp.eye_array(n, format="csr"))
    return NormalizedLaplacian(matrix=scaled)


def chebyshev_apply(lap: NormalizedLaplacian, x: np.ndarray, order: int) -> list[np.ndarray]:
    """Chebyshev basis applied to a signal: [T_0(L)x, T_1(L)x, ..., T_order(L)x].

    Uses the three-term recurrence T_r = 2 L T_{r-1} - T_{r-2} with
    T_0(L)x = x and T_1(L)x = Lx, where L is ``lap.matrix`` (normally the
    rescaled Laplacian). ``x`` must be a 2-D (n_nodes, d) array.
    """
    if not (isinstance(order, (int, np.integer)) and order >= 0):
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"signal must be 2-D (n_nodes, d), got shape {x.shape}")
    if x.shape[0] != lap.n_nodes:
        raise ValueError(
            f"signal has {x.shape[0]} rows but the Laplacian has {lap.n_nodes} nodes"
        )
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
