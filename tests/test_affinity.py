import math

import numpy as np
import numpy.testing as npt
import pytest

from chebgcn import affinity
from chebgcn.affinity import (
    AffinityError,
    MetaElement,
    SimilarityKernel,
    affinity_graph,
    binarize_edges,
    build_affinity,
    pairwise_distance,
    similarity_weights,
)

from conftest import pearson_distance_scalar


class TestBinarizeEdges:
    def test_age_like_within_tolerance(self):
        e = binarize_edges(MetaElement("age", np.array([65.0, 66.0]), beta=2.0))
        assert e[0, 1] and e[1, 0]

    def test_categorical_mismatch_never_connects(self):
        meta = MetaElement("gender", np.array([0.0, 1.0]), beta=0.0)
        assert not binarize_edges(meta)[0, 1]
        assert not binarize_edges(meta, strict=True)[0, 1]

    def test_equality_at_beta_zero(self):
        # Default rule connects exact matches at beta = 0; the literal
        # strict-< reading is available behind the flag and connects nothing.
        meta = MetaElement("gender", np.array([1.0, 1.0]), beta=0.0)
        assert binarize_edges(meta)[0, 1]
        assert not binarize_edges(meta, strict=True)[0, 1]

    def test_diagonal_false_and_symmetric(self):
        rng = np.random.default_rng(0)
        meta = MetaElement("m", rng.uniform(0, 10, size=12), beta=1.5)
        e = binarize_edges(meta)
        assert not e.diagonal().any()
        npt.assert_array_equal(e, e.T)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 5, size=20)
        for beta_lo, beta_hi in ((0.0, 0.5), (0.5, 2.0), (2.0, 10.0)):
            lo = binarize_edges(MetaElement("m", values, beta=beta_lo))
            hi = binarize_edges(MetaElement("m", values, beta=beta_hi))
            assert bool(np.all(hi | ~lo))  # every lo edge survives in hi

    def test_missing_nodes_are_isolated(self):
        meta = MetaElement(
            "site",
            np.array([1.0, 1.0, 1.0]),
            beta=0.0,
            missing=np.array([False, True, False]),
        )
        e = binarize_edges(meta)
        assert e[0, 2]
        assert not e[1].any() and not e[:, 1].any()

    def test_rejects_nan_values(self):
        with pytest.raises(AffinityError):
            MetaElement("m", np.array([1.0, np.nan]), beta=1.0)

    def test_rejects_negative_beta(self):
        with pytest.raises(AffinityError):
            MetaElement("m", np.array([1.0, 2.0]), beta=-0.1)


class TestSimilarityWeights:
    def test_identical_rows_give_similarity_one(self):
        x = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [5.0, 1.0, 0.0]])
        w = similarity_weights(x, SimilarityKernel(distance="correlation", sigma=1.0))
        assert w[0, 1] == 1.0

    def test_distance_sigma_sqrt2_gives_exp_minus_one(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])  # euclidean distance sqrt(2)
        w = similarity_weights(x, SimilarityKernel(distance="euclidean", sigma=1.0))
        npt.assert_allclose(w[0, 1], math.exp(-1.0), rtol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 6))
        w = similarity_weights(x, SimilarityKernel(distance="correlation", sigma=1.0))
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert w[i, j] == 0.0
                    continue
                rho = pearson_distance_scalar(list(x[i]), list(x[j]))
                npt.assert_allclose(w[i, j], math.exp(-rho * rho / 2.0), rtol=1e-12)

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((15, 8))
        w = similarity_weights(x, SimilarityKernel())
        off = ~np.eye(15, dtype=bool)
        assert (w[off] > 0.0).all() and (w[off] <= 1.0).all()
        npt.assert_array_equal(w, w.T)
        assert not w.diagonal().any()

    def test_sim_equals_one_iff_zero_distance(self):
        x = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])
        w = similarity_weights(x, SimilarityKernel(distance="euclidean", sigma=2.0))
        assert w[0, 1] == 1.0
        assert w[0, 2] < 1.0

    def test_default_sigma_is_mean_offdiagonal_distance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        rho = pairwise_distance(x, "euclidean")
        sigma = rho[~np.eye(6, dtype=bool)].mean()
        expected = np.exp(-(rho * rho) / (2.0 * sigma * sigma))
        np.fill_diagonal(expected, 0.0)
        got = similarity_weights(x, SimilarityKernel(distance="euclidean"))
        npt.assert_allclose(got, expected, atol=1e-15)

    def test_constant_row_rejected_for_correlation(self):
        x = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
        with pytest.raises(AffinityError, match="node 0"):
            similarity_weights(x, SimilarityKernel(distance="correlation", sigma=1.0))

    def test_identical_dataset_needs_explicit_sigma(self):
        x = np.tile(np.array([[0.0, 1.0]]), (4, 1))
        with pytest.raises(AffinityError):
            similarity_weights(x, SimilarityKernel(distance="euclidean"))

    def test_bad_kernel_params_rejected(self):
        with pytest.raises(AffinityError):
            SimilarityKernel(distance="cosine")
        with pytest.raises(AffinityError):
            SimilarityKernel(sigma=0.0)


def gate_loop(meta, i, j):
    """Scalar reference for one entry of binarize_edges."""
    return i != j and abs(meta.values[i] - meta.values[j]) <= meta.beta


class TestFuse:
    """single mode: the similarity weights times one element's gate."""

    def setup_method(self):
        rng = np.random.default_rng(2)
        self.x = rng.standard_normal((6, 4))
        self.kernel = SimilarityKernel(distance="correlation", sigma=1.0)
        self.w = similarity_weights(self.x, self.kernel)

    def single(self, values, beta=0.0):
        return build_affinity([MetaElement("m", values, beta)], self.x, self.kernel)

    def test_zero_gate_kills_everything(self):
        npt.assert_array_equal(self.single(np.arange(6.0)), np.zeros((6, 6)))

    def test_full_gate_keeps_offdiagonal(self):
        fused = self.single(np.ones(6))
        e = ~np.eye(6, dtype=bool)
        npt.assert_array_equal(fused[e], self.w[e])
        npt.assert_array_equal(fused.diagonal(), np.zeros(6))

    def test_matches_elementwise_loop(self):
        meta = MetaElement("m", np.random.default_rng(3).uniform(0, 4, size=6), beta=1.0)
        fused = build_affinity([meta], self.x, self.kernel)
        for i in range(6):
            for j in range(6):
                assert fused[i, j] == (self.w[i, j] if gate_loop(meta, i, j) else 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(AffinityError, match="features cover 6 nodes"):
            build_affinity([MetaElement("m", np.ones(4), 0.0)], self.x, self.kernel)


class TestMixGraphs:
    """mixed_nosim mode: the plain average of the elements' gates."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.standard_normal((7, 3))
        self.elements = [MetaElement(f"m{k}", rng.integers(0, 2, size=7).astype(float), 0.0)
                         for k in range(3)]

    def test_single_graph_unchanged(self):
        meta = self.elements[0]
        mixed = build_affinity([meta], self.x, mode="mixed_nosim")
        npt.assert_array_equal(mixed, binarize_edges(meta).astype(float))

    def test_identical_graphs_unchanged(self):
        meta = self.elements[1]
        mixed = build_affinity([meta, meta], self.x, mode="mixed_nosim")
        npt.assert_array_equal(mixed, binarize_edges(meta).astype(float))

    def test_three_binary_gates_mean(self):
        mixed = build_affinity(self.elements, self.x, mode="mixed_nosim")
        allowed = {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}
        for i in range(7):
            for j in range(7):
                g0, g1, g2 = (float(gate_loop(m, i, j)) for m in self.elements)
                assert mixed[i, j] == (g0 + g1 + g2) / 3
                assert mixed[i, j] in allowed

    def test_empty_list_rejected(self):
        with pytest.raises(AffinityError):
            build_affinity([], self.x, mode="mixed_nosim")


class TestBuildAffinity:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.x = rng.standard_normal((10, 5))
        self.elements = [
            MetaElement("age", rng.uniform(40, 80, size=10), beta=2.0),
            MetaElement("gender", rng.integers(0, 2, size=10).astype(float), beta=0.0),
            MetaElement("site", rng.integers(0, 3, size=10).astype(float), beta=0.0),
            MetaElement("score", rng.uniform(0, 4, size=10), beta=1.0),
        ]
        self.kernel = SimilarityKernel(distance="correlation", sigma=1.0)

    def test_single_mode_is_composition(self):
        got = build_affinity(self.elements[:1], self.x, self.kernel, mode="single")
        expected = similarity_weights(self.x, self.kernel) * binarize_edges(self.elements[0])
        npt.assert_array_equal(got, expected)

    def test_single_mode_gates_only_the_chosen_element(self, monkeypatch):
        calls = []

        def counting(meta, strict=False):
            calls.append(meta.name)
            return binarize_edges(meta, strict=strict)

        monkeypatch.setattr(affinity, "binarize_edges", counting)
        build_affinity(self.elements, self.x, self.kernel, mode="single", element="site")
        assert calls == ["site"]

    def test_mixed_of_identical_elements_equals_single(self):
        same = [self.elements[0], self.elements[0]]
        npt.assert_allclose(
            build_affinity(same, self.x, self.kernel, mode="mixed"),
            build_affinity(same, self.x, self.kernel, mode="single"),
            atol=1e-15,
        )

    def test_mixed_matches_bruteforce(self):
        three = self.elements[:3]
        got = build_affinity(three, self.x, self.kernel, mode="mixed")
        w = similarity_weights(self.x, self.kernel)
        for i in range(10):
            for j in range(10):
                t0, t1, t2 = (w[i, j] if gate_loop(m, i, j) else 0.0 for m in three)
                assert got[i, j] == (t0 + t1 + t2) / 3

    def test_mixed_nosim_entries_in_unit_interval(self):
        got = build_affinity(self.elements, self.x, mode="mixed_nosim")
        assert (got >= 0.0).all() and (got <= 1.0).all()
        w = similarity_weights(self.x, SimilarityKernel())
        with_sim = build_affinity(self.elements, self.x, mode="mixed")
        # the two modes differ as soon as Sim != 1 somewhere on a kept edge
        assert not np.array_equal(got, with_sim)

    def test_select_element_by_name(self):
        by_name = build_affinity(
            self.elements, self.x, self.kernel, mode="single", element="site"
        )
        expected = similarity_weights(self.x, self.kernel) * binarize_edges(self.elements[2])
        npt.assert_array_equal(by_name, expected)
        with pytest.raises(AffinityError, match="ethnicity"):
            build_affinity(self.elements, self.x, self.kernel, element="ethnicity")

    @pytest.mark.parametrize("mode", ["mixed", "mixed_nosim"])
    def test_element_outside_single_mode_rejected(self, mode):
        with pytest.raises(AffinityError, match="'site' applies only in single mode"):
            build_affinity(self.elements, self.x, self.kernel, mode=mode, element="site")

    def test_outputs_symmetric_zero_diagonal(self):
        for mode in ("single", "mixed", "mixed_nosim"):
            a = build_affinity(self.elements, self.x, self.kernel, mode=mode)
            npt.assert_array_equal(a, a.T)
            assert not a.diagonal().any()

    def test_affinity_graph_wraps_population_graph(self):
        labels = np.array([0, 1] * 5)
        g = affinity_graph(self.elements, self.x, labels, self.kernel, mode="mixed")
        assert g.n_nodes == 10
        npt.assert_array_equal(
            np.asarray(g.adjacency.toarray() if hasattr(g.adjacency, "toarray") else g.adjacency),
            build_affinity(self.elements, self.x, self.kernel, mode="mixed"),
        )

    def test_mismatched_element_lengths_rejected(self):
        bad = [self.elements[0], MetaElement("m", np.zeros(3), beta=0.0)]
        with pytest.raises(AffinityError):
            build_affinity(bad, self.x, self.kernel)
