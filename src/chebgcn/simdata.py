"""Synthetic two-class benchmark data with a planted geometric graph.

Each class is an isotropic 2-D Gaussian cloud. The graph connects every
pair of points closer than a Euclidean threshold; the affinity module's
row-block builder makes its edge columns, so no (N, N) distance matrix is
held. Features are either the point positions themselves (so both the graph
and the features carry class signal) or fresh uniform noise (so only the
graph does).
"""

from dataclasses import dataclass

import numpy as np

from .affinity import _epsilon_edges
from .graph import PopulationGraph

FEATURE_MODES = ("discriminative", "random")
EDGE_WEIGHT_MODES = ("binary", "similarity")


@dataclass(frozen=True)
class SimConfig:
    """Generation settings for one synthetic dataset.

    ``means`` and ``variances`` give one scalar per class; class c is drawn
    from N(means[c], variances[c] * I) in 2-D. ``beta`` is the Euclidean
    edge threshold: points strictly closer than beta connect with weight 1
    ("binary") or with a Gaussian similarity weight ("similarity").
    """

    n_per_class: int = 300
    means: tuple = (-1.0, 1.0)
    variances: tuple = (0.5, 0.1)
    beta: float = 0.5
    feature_mode: str = "discriminative"
    edge_weights: str = "binary"
    seed: int = 0

    def __post_init__(self):
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be at least 1")
        if len(self.means) != len(self.variances):
            raise ValueError("means and variances must give one scalar per class")
        if len(self.means) < 2:
            raise ValueError("need at least two classes")
        if not np.all(np.isfinite(self.means)):
            raise ValueError(f"means must be finite, got {self.means}")
        if not all(0.0 < v < np.inf for v in self.variances):
            raise ValueError(f"variances must be positive and finite, got {self.variances}")
        if not self.beta >= 0:
            raise ValueError("beta must be non-negative")
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"unknown feature_mode {self.feature_mode!r}")
        if self.edge_weights not in EDGE_WEIGHT_MODES:
            raise ValueError(f"unknown edge_weights {self.edge_weights!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def generate(config: SimConfig) -> PopulationGraph:
    """Draw one dataset. The graph always comes from the point positions,
    regardless of feature mode, so random features leave the graph intact."""
    rng = np.random.default_rng(config.seed)
    n = config.n_per_class
    n_classes = len(config.means)
    total = n * n_classes

    positions = np.empty((total, 2))
    labels = np.empty(total, dtype=np.int64)
    for c, (mean, var) in enumerate(zip(config.means, config.variances)):
        positions[c * n : (c + 1) * n] = rng.normal(mean, np.sqrt(var), size=(n, 2))
        labels[c * n : (c + 1) * n] = c

    features = positions
    if config.feature_mode == "random":
        features = rng.uniform(0.0, 1.0, size=(total, 2))
    return PopulationGraph(
        adjacency=_epsilon_edges(positions, config.beta, config.edge_weights == "similarity"),
        features=features,
        labels=labels,
        train_mask=np.ones(total, dtype=bool),
    )


def stratified_folds(labels, n_folds: int, seed: int = 0) -> list:
    """Class-stratified k-fold split: list of (train_mask, test_mask) pairs.

    Within each class the nodes are shuffled and dealt round-robin to folds,
    so per-fold class proportions differ from the global ones by at most one
    node per class. Every node lands in exactly one test fold. ``labels``
    are nonnegative integer class indices, as a graph's are.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if not 2 <= n_folds <= n:
        raise ValueError(f"n_folds must be in [2, {n}], got {n_folds}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=np.int64)
    for c in np.flatnonzero(np.bincount(labels)):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(idx.size) % n_folds
    folds = []
    for f in range(n_folds):
        test = fold_of == f
        if not test.any():
            raise ValueError(
                f"fold {f} is empty; use fewer folds for {n} nodes"
            )
        folds.append((~test, test))
    return folds
