"""Population graphs, normalized Laplacians, and Chebyshev filtering.

All numeric data is float64. :func:`to_storage` picks each adjacency's
storage once, by density: CSR below ``SPARSE_DENSITY_CUTOFF``, a dense
ndarray at or above it. Laplacians keep the storage of their adjacency, and
both storage paths compute the same values to within floating-point roundoff.

A storage is an ndarray or a canonical ``scipy.sparse.csr_array``, so
``isinstance(m, np.ndarray)`` tells them apart. ``scipy.sparse`` is imported
only where a CSR array is built or read: its import takes longer than
NumPy's, and a dense graph never needs it.
"""

from dataclasses import dataclass, field

import numpy as np

# Population graphs come both as sparse geometric graphs (a few percent of
# pairs) and as half-full meta-data graphs. L @ H on a 55%-dense Laplacian is
# 2-5x faster dense than CSR; at 3.5% density CSR is 2-3x faster.
SPARSE_DENSITY_CUTOFF = 0.25


class GraphInvariantError(ValueError):
    """A graph or Laplacian violates a structural invariant."""


def _stored_sparse(nnz: int, n: int, m: int) -> bool:
    """The storage rule: CSR when fewer than ``SPARSE_DENSITY_CUTOFF`` of an
    (n, m) matrix's entries are nonzero."""
    return nnz < SPARSE_DENSITY_CUTOFF * n * m


def _nnz(matrix) -> int:
    return int(np.count_nonzero(matrix)) if isinstance(matrix, np.ndarray) else matrix.nnz


def _canonical_csr(matrix):
    """A float64 CSR copy of ``matrix`` with sorted indices, no duplicates
    and no stored zeros."""
    import scipy.sparse as sp

    out = sp.csr_array(matrix, dtype=np.float64, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def to_storage(matrix):
    """Return a float64 copy of ``matrix``: canonical CSR when fewer than
    ``SPARSE_DENSITY_CUTOFF`` of its entries are nonzero, a dense ndarray
    otherwise. Stored zeros of a sparse input count as zero entries."""
    sparse = False
    if not isinstance(matrix, np.ndarray):
        import scipy.sparse as sp

        sparse = sp.issparse(matrix)
        if sparse:
            matrix = _canonical_csr(matrix)
    if _stored_sparse(_nnz(matrix), *matrix.shape):
        return matrix if sparse else _canonical_csr(matrix)
    return matrix.toarray() if sparse else np.array(matrix, dtype=np.float64)


def _edge_csr(lo, hi, w, n: int):
    """The symmetric (n, n) CSR array of canonical upper-triangle edge
    columns: ``lo < hi``, the pairs sorted and unique, ``w`` nonzero."""
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
    """The adjacency of canonical upper-triangle edge columns (see
    :func:`_edge_csr`) in the storage :func:`to_storage` picks for it. The
    edge count decides before anything is built, so a dense graph is filled
    in directly, without a CSR step."""
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


def _is_symmetric(matrix) -> bool:
    if isinstance(matrix, np.ndarray):
        return np.array_equal(matrix, matrix.T)
    return (matrix != matrix.T).nnz == 0


def _check_adjacency(adj) -> None:
    """Reject an adjacency, as :func:`to_storage` returns it, that is not
    square, finite, symmetric and nonnegative with a zero diagonal."""
    if adj.shape[0] != adj.shape[1]:
        raise GraphInvariantError(f"adjacency must be square, got {adj.shape}")
    dense = isinstance(adj, np.ndarray)
    data = adj if dense else adj.data
    if not np.isfinite(data).all():
        if dense:
            row, col = np.argwhere(~np.isfinite(adj))[0]
            value = adj[row, col]
        else:
            import scipy.sparse as sp

            coo = sp.coo_array(adj)
            k = np.flatnonzero(~np.isfinite(coo.data))[0]
            row, col, value = coo.row[k], coo.col[k], coo.data[k]
        raise GraphInvariantError(f"edge weights must be finite: edge ({row}, {col}) is {value}")
    if not _is_symmetric(adj):
        raise GraphInvariantError("adjacency must be exactly symmetric")
    if data.size and float(np.min(data)) < 0.0:
        raise GraphInvariantError("edge weights must be nonnegative")
    if np.any(adj.diagonal() != 0.0):
        raise GraphInvariantError("adjacency diagonal must be zero (no self-loops)")


@dataclass(frozen=True)
class PopulationGraph:
    """A node-attributed graph over a whole population of samples.

    Fields
    ------
    adjacency : csr_array or ndarray, (N, N)
        Symmetric, nonnegative, finite edge weights with a zero diagonal.
    features : ndarray, (N, d)
        One row of finite measurements per node.
    labels : ndarray of int, (N,)
        Class index per node, in ``[0, n_classes)``.
    train_mask : ndarray of bool, (N,)
        Training-split membership; every other node is a test node.
    test_mask : ndarray of bool, (N,)
        Not a parameter: ``~train_mask``, computed on construction.

    The adjacency is stored as :func:`to_storage` picks. Instances are
    immutable: arrays are copied on construction and their buffers marked
    read-only.
    """

    adjacency: object
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    test_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        adj = to_storage(self.adjacency)
        feats = np.array(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        train = np.array(self.train_mask, dtype=bool)

        _check_adjacency(adj)
        n = adj.shape[0]
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
        for arr in (feats, labels, train, test):
            arr.setflags(write=False)
        _freeze(adj)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "train_mask", train)
        object.__setattr__(self, "test_mask", test)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (node pairs with a nonzero weight)."""
        return _nnz(self.adjacency) // 2

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

    Accepts a :class:`PopulationGraph` or a bare adjacency matrix (stored as
    :func:`to_storage` picks and checked as a graph's adjacency is); the
    Laplacian keeps the adjacency's storage.
    Rows and columns of isolated nodes come out as identity rows: their
    degree inverse is taken to be zero. The result is symmetrized as
    (L + L^T) / 2 so that it is exactly equal to its transpose despite
    roundoff.
    """
    if isinstance(graph, PopulationGraph):
        adj = graph.adjacency  # checked at construction
    else:
        adj = to_storage(graph)
        _check_adjacency(adj)

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
