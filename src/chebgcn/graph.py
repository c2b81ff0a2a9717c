"""Population graphs, normalized Laplacians, and Chebyshev filtering.

All numeric data is float64. Adjacency and Laplacian matrices are stored in
CSR format when their density is below ``SPARSE_DENSITY_CUTOFF`` and as dense
ndarrays otherwise; both storage paths compute the same values to within
floating-point roundoff.
"""

from dataclasses import InitVar, dataclass

import numpy as np
import scipy.sparse as sp

# Matrices at or above this density gain nothing from CSR storage.
SPARSE_DENSITY_CUTOFF = 0.25


class GraphInvariantError(ValueError):
    """A graph or Laplacian violates a structural invariant."""


def density(matrix) -> float:
    """Fraction of nonzero entries in a square matrix (0.0 for an empty one)."""
    n, m = matrix.shape
    if n * m == 0:
        return 0.0
    nnz = matrix.nnz if sp.issparse(matrix) else int(np.count_nonzero(matrix))
    return nnz / (n * m)


def to_storage(matrix, storage: str = "auto"):
    """Return ``matrix`` as float64 in the requested storage.

    storage:
        "auto"   -- CSR when density < SPARSE_DENSITY_CUTOFF, dense otherwise
        "sparse" -- CSR always
        "dense"  -- ndarray always
    """
    if storage not in ("auto", "sparse", "dense"):
        raise ValueError(f"unknown storage mode {storage!r}")
    if storage == "auto":
        storage = "sparse" if density(matrix) < SPARSE_DENSITY_CUTOFF else "dense"
    if storage == "dense":
        out = matrix.toarray() if sp.issparse(matrix) else np.array(matrix, dtype=np.float64)
        return out.astype(np.float64, copy=False)
    out = sp.csr_array(matrix, dtype=np.float64)
    out.sum_duplicates()
    out.sort_indices()
    return out


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

    The ``storage`` init-only argument selects the adjacency representation
    (see :func:`to_storage`). Instances are immutable: arrays are copied on
    construction and their buffers marked read-only.
    """

    adjacency: object
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    test_mask: np.ndarray
    storage: InitVar[str] = "auto"

    def __post_init__(self, storage):
        adj = to_storage(self.adjacency, storage)
        feats = np.array(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        train = np.array(self.train_mask, dtype=bool)
        test = np.array(self.test_mask, dtype=bool)

        if adj.shape[0] != adj.shape[1]:
            raise GraphInvariantError(f"adjacency must be square, got {adj.shape}")
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
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node."""
        if sp.issparse(self.adjacency):
            return np.asarray(self.adjacency.sum(axis=1)).ravel()
        return self.adjacency.sum(axis=1)


@dataclass(frozen=True)
class NormalizedLaplacian:
    """A symmetric graph Laplacian together with an upper spectral estimate.

    ``matrix`` is I - D^{-1/2} A D^{-1/2} (or its Chebyshev-domain rescaling),
    CSR or dense. ``lambda_max`` bounds the largest eigenvalue from above;
    the symmetric normalization guarantees 2.0 is always valid.
    """

    matrix: object
    lambda_max: float = 2.0

    def __post_init__(self):
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise GraphInvariantError(f"Laplacian must be square, got {self.matrix.shape}")
        if not np.isfinite(self.lambda_max):
            raise GraphInvariantError("lambda_max must be finite")
        _freeze(self.matrix)

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        m = self.matrix
        return m.toarray() if sp.issparse(m) else np.array(m)


def build_laplacian(graph, storage: str = "auto", estimate: bool = False) -> NormalizedLaplacian:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2} of a graph.

    Accepts a :class:`PopulationGraph` or a bare adjacency matrix. Rows and
    columns of isolated nodes come out as identity rows: their degree inverse
    is taken to be zero. The result is symmetrized as (L + L^T) / 2 so that
    it is exactly equal to its transpose despite roundoff.

    With ``estimate=True`` the ``lambda_max`` field holds a power-iteration
    estimate of the top eigenvalue instead of the universal bound 2.0.
    """
    adj = graph.adjacency if isinstance(graph, PopulationGraph) else to_storage(graph, "auto")
    if adj.shape[0] != adj.shape[1]:
        raise GraphInvariantError(f"adjacency must be square, got {adj.shape}")
    if not _is_symmetric(adj):
        raise GraphInvariantError("adjacency must be exactly symmetric")

    if sp.issparse(adj):
        deg = np.asarray(adj.sum(axis=1)).ravel()
    else:
        deg = adj.sum(axis=1)
    d_inv_sqrt = np.zeros_like(deg)
    nonzero = deg > 0
    d_inv_sqrt[nonzero] = 1.0 / np.sqrt(deg[nonzero])

    n = adj.shape[0]
    if sp.issparse(adj):
        d_half = sp.diags_array(d_inv_sqrt, format="csr")
        lap = sp.eye_array(n, format="csr") - d_half @ adj @ d_half
        lap = (lap + lap.T) * 0.5
    else:
        lap = np.eye(n) - adj * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
        lap = (lap + lap.T) * 0.5
    lap = to_storage(lap, storage)

    lam = estimate_lambda_max(lap) if estimate else 2.0
    return NormalizedLaplacian(matrix=lap, lambda_max=lam)


def estimate_lambda_max(matrix, n_iter: int = 100, seed: int = 0) -> float:
    """Largest-eigenvalue estimate of a symmetric PSD matrix by power iteration."""
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(n_iter):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = float(v @ (matrix @ v))
    return lam


def rescale_laplacian(lap: NormalizedLaplacian) -> NormalizedLaplacian:
    """Map a Laplacian to the Chebyshev domain: 2 L / lambda_max - I.

    With the default ``lambda_max = 2`` this is exactly L - I, with spectrum
    inside [-1, 1]. The returned Laplacian carries ``lambda_max = 1.0``.
    """
    if not lap.lambda_max > 0.0:
        raise GraphInvariantError(f"lambda_max must be positive, got {lap.lambda_max}")
    scale = 2.0 / lap.lambda_max
    n = lap.n_nodes
    if sp.issparse(lap.matrix):
        scaled = lap.matrix * scale - sp.eye_array(n, format="csr")
        scaled = sp.csr_array(scaled)
        scaled.sort_indices()
    else:
        scaled = lap.matrix * scale - np.eye(n)
    return NormalizedLaplacian(matrix=scaled, lambda_max=1.0)


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
        out.append(2.0 * (mat @ out[-1]) - out[-2])
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
