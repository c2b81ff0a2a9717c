"""Affinity graphs over populations: meta-data gates times feature similarity.

An affinity graph combines two ingredients. A meta-data element (age, sex,
acquisition site, ...) gates which node pairs may connect at all: nodes i, j
connect when |eta_i - eta_j| stays within a tolerance beta. Feature
similarity then weights the surviving edges with a Gaussian kernel on a
pairwise distance. Several meta-data elements can be mixed by averaging
their per-element graphs.

All pairwise matrices are built so that they are exactly symmetric, which
the graph substrate requires.
"""

from dataclasses import dataclass

import numpy as np

from .graph import PopulationGraph


# Bytes of one row block of the Euclidean distance's (rows, N, d) difference
# array; simdata's 600 x 2 positions fit in one block.
_DISTANCE_BLOCK_BYTES = 8 * 2**20


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


def pairwise_distance(features: np.ndarray, metric: str = "correlation") -> np.ndarray:
    """Exactly symmetric (N, N) distance matrix with a zero diagonal.

    "euclidean" is the usual L2 distance between feature rows. "correlation"
    is 1 - Pearson correlation, in [0, 2]; rows with zero variance have no
    defined correlation and raise, naming the first offending node.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise AffinityError(f"features must be 2-D, got shape {x.shape}")
    n = x.shape[0]
    if metric == "euclidean":
        # row blocks keep the (rows, N, d) temporaries bounded; each entry is
        # bitwise what one broadcast over all rows gives
        dist = np.empty((n, n))
        rows = max(1, _DISTANCE_BLOCK_BYTES // max(1, 8 * n * x.shape[1]))
        for s in range(0, n, rows):
            diff = x[s:s + rows, None, :] - x[None, :, :]
            dist[s:s + rows] = np.sqrt((diff * diff).sum(axis=-1))
    elif metric == "correlation":
        if x.shape[1] < 2:
            raise AffinityError("correlation distance needs at least 2 features per node")
        centered = x - x.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1)
        flat = np.flatnonzero(norms == 0.0)
        if flat.size:
            raise AffinityError(
                f"node {flat[0]} has constant features; correlation distance is undefined"
            )
        gram = centered @ centered.T
        gram = (gram + gram.T) * 0.5  # force exact symmetry despite BLAS blocking
        corr = gram / np.outer(norms, norms)
        dist = 1.0 - corr
    else:
        raise AffinityError(f"unknown distance {metric!r}")
    np.fill_diagonal(dist, 0.0)
    return dist


def binarize_edges(meta: MetaElement, strict: bool = False) -> np.ndarray:
    """Boolean (N, N) gate: connect i, j iff |eta_i - eta_j| <= beta.

    ``strict=True`` switches the comparison to a strict <, under which
    beta = 0 connects nothing. The diagonal is always False, and nodes
    flagged missing have no edges.
    """
    v = meta.values
    gap = np.abs(v[:, None] - v[None, :])
    edges = gap < meta.beta if strict else gap <= meta.beta
    np.fill_diagonal(edges, False)
    if meta.missing is not None and meta.missing.any():
        edges[meta.missing, :] = False
        edges[:, meta.missing] = False
    return edges


def similarity_weights(features: np.ndarray, kernel: SimilarityKernel) -> np.ndarray:
    """Dense (N, N) Gaussian similarity matrix with a zero diagonal.

    Off-diagonal values lie in (0, 1]. When the kernel has no fixed sigma,
    the bandwidth is the mean off-diagonal pairwise distance; if that mean
    is zero (all rows identical) there is no usable scale and this raises.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise AffinityError("similarity needs a 2-D feature matrix with at least 2 nodes")
    return _gaussian_weights(pairwise_distance(x, kernel.distance), kernel.sigma)


def _gaussian_weights(rho: np.ndarray, sigma: float | None) -> np.ndarray:
    """exp(-rho^2 / (2 sigma^2)) of a pairwise distance matrix, zero on the
    diagonal; ``sigma=None`` takes the mean off-diagonal distance."""
    if sigma is None:
        off = ~np.eye(rho.shape[0], dtype=bool)
        sigma = float(rho[off].mean())
        if sigma <= 0.0:
            raise AffinityError(
                "mean pairwise distance is zero (identical rows); pass an explicit sigma"
            )
    weights = np.exp(-(rho * rho) / (2.0 * sigma * sigma))
    np.fill_diagonal(weights, 0.0)
    return weights


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
    return _build_affinity(elements, features, kernel, mode, element, strict)[0]


def _build_affinity(elements, features, kernel, mode, element, strict):
    """build_affinity's adjacency and, for each gate summed into it, the
    (element, edge count) pair, counted as the gate is summed."""
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

    weights = None
    if mode != "mixed_nosim":
        weights = similarity_weights(features, SimilarityKernel() if kernel is None else kernel)
        if weights.shape[0] != n:
            raise AffinityError(f"features cover {weights.shape[0]} nodes but meta-data {n}")
    # Every term is non-negative, so starting the sum from zeros is exact.
    out = np.zeros((n, n))
    counts = []
    for m in elements:
        gate = binarize_edges(m, strict=strict)
        counts.append((m, np.count_nonzero(gate) // 2))
        out += gate if weights is None else weights * gate
    out /= len(elements)
    return out, counts


def affinity_graph(
    elements,
    features: np.ndarray,
    labels: np.ndarray,
    kernel: SimilarityKernel | None = None,
    mode: str = "single",
    element: str | None = None,
    strict: bool = False,
) -> PopulationGraph:
    """Convenience wrapper: build the affinity adjacency and wrap it in a graph."""
    adjacency = build_affinity(
        elements, features, kernel=kernel, mode=mode, element=element, strict=strict
    )
    n = adjacency.shape[0]
    return PopulationGraph(
        adjacency=adjacency,
        features=features,
        labels=labels,
        train_mask=np.ones(n, dtype=bool),
    )
