"""Affinity graphs over populations: meta-data gates times feature similarity.

An affinity graph combines two ingredients. A meta-data element (age, sex,
acquisition site, ...) gates which node pairs may connect at all: nodes i, j
connect when |eta_i - eta_j| stays within a tolerance beta. Feature
similarity then weights the surviving edges with a Gaussian kernel on a
pairwise distance. Several meta-data elements can be mixed by averaging
their per-element graphs.

Every pairwise matrix here is computed a block of rows at a time: a block's
distances to all nodes, its similarity weights, its gates and their sum. Both
graph builders, this affinity graph and the simulated data's Euclidean
threshold graph (``_epsilon_edges``), keep only each block's upper-triangle
edges (``_block_edges``), so neither holds an (N, N) array. The public
helpers assemble their dense (N, N) results from the same blocks, exactly
symmetric, as the graph substrate requires.
"""

from dataclasses import dataclass

import numpy as np

from .graph import PopulationGraph, _edge_dense, _Edges

# Bytes of one row block: of the Euclidean distance's (rows, N, d)
# difference array, and of a (rows, N) float64 block of distances, weights
# or their sum.
_DISTANCE_BLOCK_BYTES = 8 * 2**20
_ROW_BLOCK_BYTES = 2**19
# Most distances the bandwidth's mean hands to one NumPy sum.
_SUM_LEAF = 2**14


class AffinityError(ValueError):
    """Invalid input to an affinity-graph construction."""


@dataclass(frozen=True)
class MetaElement:
    """One per-node meta-data column with its edge tolerance.

    ``values`` holds a number per node (categorical columns are coded to
    integers upstream). ``beta`` is the largest allowed |eta_i - eta_j| for
    an edge; 0 connects exact matches only. ``missing`` optionally flags
    nodes whose value is unknown; such nodes get no edges for this element.
    """

    name: str
    values: np.ndarray
    beta: float
    missing: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise AffinityError(f"meta-data element {self.name!r} must be a 1-D array")
        if np.any(~np.isfinite(values)):
            raise AffinityError(
                f"meta-data element {self.name!r} contains non-finite values; "
                "flag unknowns via the missing mask instead"
            )
        if not (np.isfinite(self.beta) and self.beta >= 0.0):
            raise AffinityError(f"beta for {self.name!r} must be >= 0, got {self.beta}")
        if self.missing is not None:
            missing = np.asarray(self.missing, dtype=bool)
            if missing.shape != values.shape:
                raise AffinityError(f"missing mask shape differs for {self.name!r}")
            object.__setattr__(self, "missing", missing)
        object.__setattr__(self, "values", values)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SimilarityKernel:
    """Gaussian similarity exp(-rho^2 / (2 sigma^2)) on a pairwise distance.

    ``distance`` picks rho: "correlation" (1 - Pearson correlation of feature
    rows) or "euclidean". ``sigma=None`` means: use the mean of all pairwise
    distances, computed from the data the kernel is applied to.
    """

    distance: str = "correlation"
    sigma: float | None = None

    def __post_init__(self):
        if self.distance not in ("correlation", "euclidean"):
            raise AffinityError(f"unknown distance {self.distance!r}")
        if self.sigma is not None and not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise AffinityError(f"sigma must be positive, got {self.sigma}")


def _row_blocks(n: int, d: int | None = None) -> list:
    """(start, stop) ranges of rows covering n rows, in order: each block
    within _ROW_BLOCK_BYTES as an (rows, n) float64 array and, given a
    feature count d, within _DISTANCE_BLOCK_BYTES as an (rows, n, d) one.
    Only a lone row is a one-row block, since NumPy multiplies a one-row
    matrix with a matrix-vector kernel that can round differently."""
    rows = _ROW_BLOCK_BYTES // (8 * max(1, n))
    if d is not None:
        rows = min(rows, _DISTANCE_BLOCK_BYTES // (8 * max(1, n * d)))
    starts = list(range(0, n, max(2, rows)))
    if len(starts) > 1 and starts[-1] == n - 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _zero_diagonal(block: np.ndarray, start: int) -> np.ndarray:
    """Clear, in place, the diagonal entries of rows start: of an (N, N)
    matrix held as the (rows, N) block ``block``."""
    block.flat[start::block.shape[1] + 1] = 0
    return block


def _distance_rows(features, metric):
    """The (N, N) distance matrix of 2-D features under "euclidean" (the L2
    distance between rows) or "correlation" (1 - Pearson correlation, in
    [0, 2]) as (rows, blocks): rows(s, e) is rows s:e of it with a zero
    diagonal, for (s, e) in blocks. Rows with zero variance have no defined
    correlation and raise, naming the first offending node. A correlation
    block is one GEMM, which can round a pair's last bit differently from the
    pair's transpose in another block, so a dense correlation result takes
    each pair from the row of its lower index."""
    x = np.asarray(features, dtype=np.float64)
    if metric == "euclidean":
        blocks = _row_blocks(x.shape[0], x.shape[1])
        # One (rows, N, d) buffer for every block's differences and their
        # squares, so no block allocates (and maps) its own.
        buffer = np.empty((max((e - s for s, e in blocks), default=0), *x.shape))

        def rows(s, e):
            # each entry is bitwise what one broadcast over all rows gives
            diff = np.subtract(x[s:e, None, :], x[None, :, :], out=buffer[:e - s])
            return _zero_diagonal(np.sqrt(np.multiply(diff, diff, out=diff).sum(axis=-1)), s)

        return rows, blocks
    if x.shape[1] < 2:
        raise AffinityError("correlation distance needs at least 2 features per node")
    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    flat = np.flatnonzero(norms == 0.0)
    if flat.size:
        raise AffinityError(
            f"node {flat[0]} has constant features; correlation distance is undefined"
        )

    def rows(s, e):
        corr = (centered[s:e] @ centered.T) / np.outer(norms[s:e], norms)
        return _zero_diagonal(1.0 - corr, s)

    return rows, _row_blocks(x.shape[0])


def _symmetric(rows, blocks, mirror: bool) -> np.ndarray:
    """The dense matrix of row blocks with a zero diagonal. With ``mirror``
    its lower triangle is copied from the upper one; without, the blocks
    must be exactly symmetric already, as Euclidean ones are."""
    n = blocks[-1][1] if blocks else 0
    out = np.empty((n, n))
    for s, e in blocks:
        out[s:e] = rows(s, e)
    if not mirror:
        return out
    upper = np.triu(out, 1)
    return upper + upper.T


def _bandwidth(rows, blocks) -> float:
    """The mean off-diagonal distance, ``rho[~np.eye(N, dtype=bool)].mean()``
    for the matrix rho whose row blocks ``rows`` gives, bit for bit, without
    holding rho; raises if it is zero.

    NumPy sums a contiguous array in a pairwise tree: it cuts an array of
    more than 128 values at half its size, rounded down to a multiple of 8,
    and sums the halves the same way. The off-diagonal values stream here in
    row-major order through that tree, and NumPy sums each subtree of at
    most _SUM_LEAF values itself.
    """
    n = blocks[-1][1]
    values = (np.delete(rows(s, e).ravel(), np.arange(e - s) * (n + 1) + s) for s, e in blocks)
    pending = np.empty(0)

    def total(count):
        nonlocal pending
        if count > _SUM_LEAF:
            half = count // 2 - count // 2 % 8
            return total(half) + total(count - half)
        while pending.size < count:
            pending = np.concatenate([pending, next(values)])
        leaf, pending = pending[:count], pending[count:]
        return leaf.sum()

    count = n * (n - 1)
    sigma = float(total(count) / count)
    if sigma <= 0.0:
        raise AffinityError(
            "mean pairwise distance is zero (identical rows); pass an explicit sigma"
        )
    return sigma


def _gaussian(rho: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-rho^2 / (2 sigma^2)), elementwise."""
    return np.exp(-(rho * rho) / (2.0 * sigma * sigma))


def _similarity_rows(features, kernel: SimilarityKernel):
    """(rows, blocks): rows(s, e) is rows s:e of similarity_weights."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise AffinityError("similarity needs a 2-D feature matrix with at least 2 nodes")
    dist, blocks = _distance_rows(x, kernel.distance)
    sigma = _bandwidth(dist, blocks) if kernel.sigma is None else kernel.sigma
    return (lambda s, e: _zero_diagonal(_gaussian(dist(s, e), sigma), s)), blocks


def _gate_rows(meta: MetaElement, s: int, e: int, strict: bool) -> np.ndarray:
    """Rows s:e of binarize_edges(meta, strict)."""
    v = meta.values
    gap = np.abs(v[s:e, None] - v[None, :])
    edges = gap < meta.beta if strict else gap <= meta.beta
    _zero_diagonal(edges, s)
    if meta.missing is not None and meta.missing.any():
        edges[meta.missing[s:e], :] = False
        edges[:, meta.missing] = False
    return edges


def binarize_edges(meta: MetaElement, strict: bool = False) -> np.ndarray:
    """Boolean (N, N) gate: connect i, j iff |eta_i - eta_j| <= beta.

    ``strict=True`` switches the comparison to a strict <, under which
    beta = 0 connects nothing. The diagonal is always False, and nodes
    flagged missing have no edges.
    """
    return _gate_rows(meta, 0, meta.n_nodes, strict)


def similarity_weights(features: np.ndarray, kernel: SimilarityKernel) -> np.ndarray:
    """Dense (N, N) Gaussian similarity matrix with a zero diagonal.

    Off-diagonal values lie in (0, 1]. When the kernel has no fixed sigma,
    the bandwidth is the mean off-diagonal pairwise distance; if that mean
    is zero (all rows identical) there is no usable scale and this raises.
    """
    return _symmetric(*_similarity_rows(features, kernel),
                      mirror=kernel.distance == "correlation")


def build_affinity(
    elements,
    features: np.ndarray,
    kernel: SimilarityKernel | None = None,
    mode: str = "single",
    element: str | None = None,
    strict: bool = False,
) -> np.ndarray:
    """Dense affinity adjacency from meta-data elements and node features.

    mode:
        "single"      -- Sim * E for one named element (default: the first)
        "mixed"       -- mean over elements of Sim * E_m
        "mixed_nosim" -- mean over elements of E_m (pure meta-data graph)

    ``element`` names the element of single mode; the other modes raise if
    it is given. ``kernel`` defaults to the correlation kernel with automatic
    bandwidth; it is unused by mixed_nosim.
    """
    return _edge_dense(*_build_affinity(elements, features, kernel, mode, element, strict)[0])


def _build_affinity(elements, features, kernel, mode, element, strict):
    """build_affinity's graph as canonical edge columns (``graph._Edges``)
    and, for each gate summed into it, the (element, edge count) pair.

    Each block of rows holds its similarity weights, each element's gate and
    their sum, in build_affinity's order of operations.
    """
    elements = list(elements)
    if not elements:
        raise AffinityError("need at least one meta-data element")
    n = elements[0].n_nodes
    for m in elements:
        if m.n_nodes != n:
            raise AffinityError("all meta-data elements must cover the same nodes")
    if mode not in ("single", "mixed", "mixed_nosim"):
        raise AffinityError(f"unknown mode {mode!r}")
    if mode == "single":
        names = [m.name for m in elements]
        if element is not None and element not in names:
            raise AffinityError(f"no meta-data element named {element!r} (have {names})")
        elements = [elements[0 if element is None else names.index(element)]]
    elif element is not None:
        raise AffinityError(f"element {element!r} applies only in single mode, not {mode!r}")

    weights, blocks = None, _row_blocks(n)
    if mode != "mixed_nosim":
        x = np.asarray(features)
        if x.ndim == 2 and x.shape[0] != n:
            raise AffinityError(f"features cover {x.shape[0]} nodes but meta-data {n}")
        weights, blocks = _similarity_rows(x, SimilarityKernel() if kernel is None else kernel)
    counts = [0] * len(elements)

    def summed(s, e):
        w = None if weights is None else weights(s, e)
        # Every term is non-negative, so starting the sum from zeros is exact.
        out = np.zeros((e - s, n))
        for k, m in enumerate(elements):
            gate = _gate_rows(m, s, e, strict)
            counts[k] += np.count_nonzero(gate)
            out += gate if w is None else w * gate
        out /= len(elements)
        return out

    edges = _block_edges(summed, blocks, n)
    return edges, [(m, count // 2) for m, count in zip(elements, counts)]


def _block_edges(rows, blocks, n: int) -> _Edges:
    """The canonical edge columns (``graph._Edges``) of the symmetric
    float64 (n, n) matrix whose rows s:e ``rows(s, e)`` gives, for (s, e)
    in ``blocks``: each block's upper-triangle nonzeros, so no (n, n) array
    is held."""
    keys, vals = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for s, e in blocks:
        out = rows(s, e)
        flat = np.flatnonzero(np.triu(out != 0.0, s + 1))
        keys.append(flat + s * n)
        vals.append(out.ravel()[flat])
    return _key_edges(keys, vals, n)


def _key_edges(keys, vals, n: int) -> _Edges:
    """Edge columns from lists of row-major upper-triangle keys lo * n + hi,
    in increasing order, and their weights."""
    # Rebinding frees each list once joined, so the columns peak at their size.
    keys = np.concatenate(keys)
    vals = np.concatenate(vals)
    hi = keys % n
    keys //= n
    return _Edges(keys, hi, vals, n)


def _epsilon_edges(points, beta: float, weighted: bool) -> _Edges:
    """The ε-graph of ``points`` as canonical edge columns: an edge wherever
    the Euclidean distance is strictly below ``beta``, of weight 1.0 or, if
    ``weighted``, the Gaussian similarity at the mean pairwise distance (an
    underflowed weight is no edge). Built a row block at a time, in one
    distance pass: each block keeps its upper-triangle pairs within beta and
    their distances, and the weighted graph weights them once the bandwidth's
    stream of the same blocks is done."""
    dist, blocks = _distance_rows(points, "euclidean")
    n = len(points)
    keys, near = [np.empty(0, dtype=np.int64)], [np.empty(0)]

    def rows(s, e):
        rho = dist(s, e)
        flat = np.flatnonzero(np.triu(rho < beta, s + 1))
        keys.append(flat + s * n)
        near.append(rho.ravel()[flat])
        return rho

    if weighted:
        sigma = _bandwidth(rows, blocks)
    else:
        for s, e in blocks:
            rows(s, e)
    edges = _key_edges(keys, near, n)
    if not weighted:
        return edges._replace(w=np.ones(edges.w.size))
    w = _gaussian(edges.w, sigma)
    keep = w != 0.0
    return _Edges(edges.lo[keep], edges.hi[keep], w[keep], n)


def affinity_graph(
    elements,
    features: np.ndarray,
    labels: np.ndarray,
    kernel: SimilarityKernel | None = None,
    mode: str = "single",
    element: str | None = None,
    strict: bool = False,
) -> PopulationGraph:
    """Convenience wrapper: build the affinity graph's edges and wrap them in a graph."""
    edges = _build_affinity(elements, features, kernel, mode, element, strict)[0]
    return PopulationGraph(
        adjacency=edges,
        features=features,
        labels=labels,
        train_mask=np.ones(edges.n, dtype=bool),
    )
