"""Population graphs, normalized Laplacians, and Chebyshev filtering.

All numeric data is float64. :func:`to_storage` picks each adjacency's
storage once, by density: CSR below ``SPARSE_DENSITY_CUTOFF``, a dense
ndarray at or above it. Laplacians keep the storage of their adjacency, and
both storage paths compute the same values to within floating-point roundoff.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Population graphs come both as sparse geometric graphs (a few percent of
# pairs) and as half-full meta-data graphs. L @ H on a 55%-dense Laplacian is
# 2-5x faster dense than CSR; at 3.5% density CSR is 2-3x faster.
SPARSE_DENSITY_CUTOFF = 0.25


class GraphInvariantError(ValueError):
    """A graph or Laplacian violates a structural invariant."""


def _nnz(matrix) -> int:
    return matrix.nnz if sp.issparse(matrix) else int(np.count_nonzero(matrix))


def _canonical_csr(matrix) -> sp.csr_array:
    """A float64 CSR copy of ``matrix`` with sorted indices, no duplicates
    and no stored zeros."""
    out = sp.csr_array(matrix, dtype=np.float64, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def to_storage(matrix):
    """Return a float64 copy of ``matrix``: canonical CSR when fewer than
    ``SPARSE_DENSITY_CUTOFF`` of its entries are nonzero, a dense ndarray
    otherwise. Stored zeros of a sparse input count as zero entries."""
    if sp.issparse(matrix):
        matrix = _canonical_csr(matrix)
    n, m = matrix.shape
    if _nnz(matrix) < SPARSE_DENSITY_CUTOFF * n * m:
        return matrix if sp.issparse(matrix) else _canonical_csr(matrix)
    return matrix.toarray() if sp.issparse(matrix) else np.array(matrix, dtype=np.float64)


def _freeze(matrix):
    """Mark the backing buffers of a matrix read-only, in place."""
    if sp.issparse(matrix):
        for buf in (matrix.data, matrix.indices, matrix.indptr):
            buf.setflags(write=False)
    else:
        matrix.setflags(write=False)
    return matrix


def _is_symmetric(matrix) -> bool:
    if sp.issparse(matrix):
        return (matrix != matrix.T).nnz == 0
    return np.array_equal(matrix, matrix.T)


def _check_adjacency(adj) -> None:
    """Reject an adjacency, as :func:`to_storage` returns it, that is not
    square, finite, symmetric and nonnegative with a zero diagonal."""
    if adj.shape[0] != adj.shape[1]:
        raise GraphInvariantError(f"adjacency must be square, got {adj.shape}")
    data = adj.data if sp.issparse(adj) else adj
    if not np.isfinite(data).all():
        coo = sp.coo_array(adj)
        k = np.flatnonzero(~np.isfinite(coo.data))[0]
        raise GraphInvariantError(
            f"edge weights must be finite: edge ({coo.row[k]}, {coo.col[k]}) is {coo.data[k]}"
        )
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
    train_mask, test_mask : ndarray of bool, (N,)
        Disjoint split membership flags.

    The adjacency is stored as :func:`to_storage` picks. Instances are
    immutable: arrays are copied on construction and their buffers marked
    read-only.
    """

    adjacency: object
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        adj = to_storage(self.adjacency)
        feats = np.array(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        train = np.array(self.train_mask, dtype=bool)
        test = np.array(self.test_mask, dtype=bool)

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
        for name, mask in (("train_mask", train), ("test_mask", test)):
            if mask.shape != (n,):
                raise GraphInvariantError(f"{name} must be a boolean array of length {n}")
        if bool(np.any(train & test)):
            raise GraphInvariantError("train and test masks overlap")
        if not np.isfinite(feats).all():
            node, col = np.argwhere(~np.isfinite(feats))[0]
            raise GraphInvariantError(
                f"features must be finite: node {node}, column {col} is {feats[node, col]}"
            )

        labels = labels.astype(np.int64)
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
        return m.toarray() if sp.issparse(m) else np.array(m)


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
    if sp.issparse(adj):
        d_half = sp.diags_array(d_inv_sqrt, format="csr")
        lap = sp.eye_array(n, format="csr") - d_half @ adj @ d_half
        lap = _canonical_csr((lap + lap.T) * 0.5)
    else:
        lap = np.eye(n) - adj * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
        lap = (lap + lap.T) * 0.5
    return NormalizedLaplacian(matrix=lap)


def rescale_laplacian(lap: NormalizedLaplacian) -> NormalizedLaplacian:
    """Map a normalized Laplacian to the Chebyshev domain: 2 L / 2 - I = L - I.

    The largest eigenvalue of L is at most 2, so the result's spectrum lies
    inside [-1, 1].
    """
    n = lap.n_nodes
    if sp.issparse(lap.matrix):
        scaled = _canonical_csr(lap.matrix - sp.eye_array(n, format="csr"))
    else:
        scaled = lap.matrix - np.eye(n)
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
