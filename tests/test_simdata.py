import numpy as np
import numpy.testing as npt
import pytest

from chebgcn import affinity, simdata
from chebgcn.affinity import SimilarityKernel, pairwise_distance, similarity_weights
from chebgcn.simdata import SimConfig, generate, stratified_folds


def dense_adj(graph):
    a = graph.adjacency
    return a.toarray() if hasattr(a, "toarray") else np.asarray(a)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.n_per_class == 300
        assert cfg.means == (-1.0, 1.0)
        assert cfg.variances == (0.5, 0.1)
        assert cfg.beta == 0.5

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(n_per_class=0)
        with pytest.raises(ValueError):
            SimConfig(means=(0.0,), variances=(1.0,))
        with pytest.raises(ValueError):
            SimConfig(means=(0.0, 1.0), variances=(1.0,))
        with pytest.raises(ValueError):
            SimConfig(variances=(1.0, 0.0))
        with pytest.raises(ValueError, match="variances"):
            SimConfig(variances=(float("inf"), 1.0))
        with pytest.raises(ValueError, match="variances"):
            SimConfig(variances=(float("nan"), 1.0))
        with pytest.raises(ValueError, match="means"):
            SimConfig(means=(0.0, float("nan")))
        with pytest.raises(ValueError):
            SimConfig(beta=-0.1)
        with pytest.raises(ValueError):
            SimConfig(feature_mode="pca")
        with pytest.raises(ValueError):
            SimConfig(edge_weights="cosine")

    def test_beta_zero_allowed(self):
        assert SimConfig(beta=0.0).beta == 0.0


class TestGenerate:
    def test_default_shapes_and_masks(self):
        g = generate(SimConfig(n_per_class=40, seed=1))
        assert g.n_nodes == 80
        assert g.n_features == 2
        npt.assert_array_equal(np.bincount(g.labels), [40, 40])
        assert g.train_mask.all()
        assert not g.test_mask.any()

    def test_three_classes(self):
        g = generate(SimConfig(n_per_class=10, means=(0.0, 2.0, 4.0), variances=(1.0,) * 3))
        assert g.n_nodes == 30
        assert g.n_classes == 3

    def test_same_seed_is_bitwise_identical(self):
        a = generate(SimConfig(n_per_class=25, seed=7))
        b = generate(SimConfig(n_per_class=25, seed=7))
        npt.assert_array_equal(dense_adj(a), dense_adj(b))
        npt.assert_array_equal(a.features, b.features)
        npt.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate(SimConfig(n_per_class=25, seed=0))
        b = generate(SimConfig(n_per_class=25, seed=1))
        assert not np.array_equal(a.features, b.features)

    def test_graph_ignores_feature_mode(self):
        a = generate(SimConfig(n_per_class=30, seed=3, feature_mode="discriminative"))
        b = generate(SimConfig(n_per_class=30, seed=3, feature_mode="random"))
        npt.assert_array_equal(dense_adj(a), dense_adj(b))
        assert not np.array_equal(a.features, b.features)

    def test_discriminative_features_separate_classes(self):
        g = generate(SimConfig(n_per_class=200, means=(-1.0, 1.0), variances=(0.1, 0.1), seed=5))
        m0 = g.features[g.labels == 0].mean()
        m1 = g.features[g.labels == 1].mean()
        assert m0 < -0.8 and m1 > 0.8

    def test_random_features_carry_no_class_signal(self):
        g = generate(SimConfig(n_per_class=500, seed=6, feature_mode="random"))
        m0 = g.features[g.labels == 0].mean()
        m1 = g.features[g.labels == 1].mean()
        assert abs(m0 - m1) < 0.05
        assert g.features.min() >= 0.0 and g.features.max() <= 1.0

    def test_edges_follow_strict_distance_threshold(self):
        cfg = SimConfig(n_per_class=20, seed=8)
        g = generate(cfg)
        pos = g.features  # discriminative mode: features are the positions
        dist = pairwise_distance(pos, "euclidean")
        expected = (dist < cfg.beta).astype(float)
        np.fill_diagonal(expected, 0.0)
        npt.assert_array_equal(dense_adj(g), expected)

    def test_larger_beta_is_edge_superset(self):
        small = generate(SimConfig(n_per_class=30, seed=9, beta=0.3))
        large = generate(SimConfig(n_per_class=30, seed=9, beta=0.9))
        s = dense_adj(small) != 0
        l = dense_adj(large) != 0
        assert (s & ~l).sum() == 0
        assert l.sum() > s.sum()

    def test_beta_zero_gives_empty_graph(self):
        g = generate(SimConfig(n_per_class=10, beta=0.0))
        assert (dense_adj(g) != 0).sum() == 0

    def test_similarity_weights_match_kernel(self):
        cfg = SimConfig(n_per_class=15, seed=10, edge_weights="similarity")
        g = generate(cfg)
        pos = g.features
        sim = similarity_weights(pos, SimilarityKernel(distance="euclidean"))
        gate = pairwise_distance(pos, "euclidean") < cfg.beta
        np.fill_diagonal(gate, False)
        npt.assert_array_equal(dense_adj(g), sim * gate)
        on_edges = dense_adj(g)[gate]
        assert (on_edges > 0).all() and (on_edges <= 1).all()

    def test_similarity_graph_takes_one_distance_matrix(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return pairwise_distance(*args, **kwargs)

        monkeypatch.setattr(simdata, "pairwise_distance", counted)
        monkeypatch.setattr(affinity, "pairwise_distance", counted)
        generate(SimConfig(n_per_class=15, seed=10, edge_weights="similarity"))
        assert calls == [("euclidean",)]

    def test_tight_variance_gives_denser_same_class_blocks(self):
        loose = generate(SimConfig(n_per_class=100, variances=(1.0, 1.0), seed=11))
        tight = generate(SimConfig(n_per_class=100, variances=(0.1, 0.1), seed=11))
        def within_class_edges(g):
            a = dense_adj(g) != 0
            same = g.labels[:, None] == g.labels[None, :]
            return (a & same).sum()
        assert within_class_edges(tight) > within_class_edges(loose)


class TestStratifiedFolds:
    def test_partition_and_stratification(self):
        labels = np.repeat([0, 1], 50)
        folds = stratified_folds(labels, 10, seed=0)
        assert len(folds) == 10
        coverage = np.zeros(100, dtype=int)
        for train, test in folds:
            npt.assert_array_equal(train, ~test)
            coverage += test.astype(int)
            for c in (0, 1):
                assert test[labels == c].sum() == 5
        npt.assert_array_equal(coverage, 1)

    def test_uneven_classes_stay_within_one(self):
        labels = np.array([0] * 7 + [1] * 11)
        folds = stratified_folds(labels, 3, seed=2)
        for train, test in folds:
            c0 = test[labels == 0].sum()
            c1 = test[labels == 1].sum()
            assert c0 in (2, 3) and c1 in (3, 4)

    def test_deterministic_per_seed(self):
        labels = np.repeat([0, 1, 2], 9)
        a = stratified_folds(labels, 3, seed=5)
        b = stratified_folds(labels, 3, seed=5)
        for (ta, sa), (tb, sb) in zip(a, b):
            npt.assert_array_equal(ta, tb)
            npt.assert_array_equal(sa, sb)
        c = stratified_folds(labels, 3, seed=6)
        assert any(not np.array_equal(sa, sc) for (_, sa), (_, sc) in zip(a, c))

    def test_fold_count_bounds(self):
        labels = np.repeat([0, 1], 5)
        with pytest.raises(ValueError):
            stratified_folds(labels, 1)
        with pytest.raises(ValueError):
            stratified_folds(labels, 11)

    def test_empty_fold_rejected(self):
        # 10 nodes, 10 folds, but each class only fills folds 0-4
        labels = np.repeat([0, 1], 5)
        with pytest.raises(ValueError):
            stratified_folds(labels, 10)

    def test_masks_are_boolean(self):
        train, test = stratified_folds(np.repeat([0, 1], 6), 3, seed=1)[0]
        assert train.dtype == bool and test.dtype == bool
