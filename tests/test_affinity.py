import math
import tracemalloc

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
    similarity_weights,
)
from chebgcn.simdata import SimConfig, generate

from conftest import euclidean_distance, pearson_distance_scalar


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
        rho = euclidean_distance(x)
        sigma = rho[~np.eye(6, dtype=bool)].mean()
        expected = np.exp(-(rho * rho) / (2.0 * sigma * sigma))
        np.fill_diagonal(expected, 0.0)
        got = similarity_weights(x, SimilarityKernel(distance="euclidean"))
        npt.assert_allclose(got, expected, atol=1e-15)

    # below 8 values NumPy sums a row in order, from 8 on pairwise
    @pytest.mark.parametrize("d", [2, 8, 200])
    def test_euclidean_row_blocks_match_one_broadcast(self, d):
        x = np.random.default_rng(15).standard_normal((300, d))
        want = euclidean_distance(x)
        tracemalloc.start()
        try:
            got = affinity._symmetric(*affinity._distance_rows(x, "euclidean"), mirror=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        npt.assert_array_equal(got, want)
        # one broadcast over all rows peaks at 275 MB at d = 200
        assert peak < 32 * 2**20

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

        gate_rows = affinity._gate_rows

        def counting(meta, *args):
            calls.append(meta.name)
            return gate_rows(meta, *args)

        monkeypatch.setattr(affinity, "_gate_rows", counting)
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


@pytest.mark.parametrize("call, fragment", [
    (lambda: MetaElement("age", np.zeros((2, 2)), beta=0.0), "'age' must be a 1-D array"),
    (lambda: MetaElement("age", np.zeros(3), beta=0.0, missing=np.zeros(2, dtype=bool)),
     "missing mask shape differs for 'age'"),
    (lambda: similarity_weights(np.zeros(3), SimilarityKernel()),
     "similarity needs a 2-D feature matrix"),
    (lambda: similarity_weights(np.ones((3, 1)), SimilarityKernel()),
     "needs at least 2 features per node"),
    (lambda: SimilarityKernel(distance="cosine"), "unknown distance 'cosine'"),
    (lambda: similarity_weights(np.ones((1, 2)), SimilarityKernel()),
     "2-D feature matrix with at least 2 nodes"),
    (lambda: build_affinity([MetaElement("age", np.zeros(3), beta=0.0)], np.eye(3),
                            mode="median"),
     "unknown mode 'median'"),
])
def test_input_checks_reject_bad_arguments(call, fragment):
    with pytest.raises(AffinityError) as info:
        call()
    assert fragment in str(info.value)


def dense_affinity(elements, x, kernel, mode, strict):
    """The affinity graph by whole (N, N) matrices: the gates, the distances
    (one broadcast, or one Gram product), the mean off-diagonal distance,
    the weights and their sum, in the builder's order of operations."""
    n = elements[0].n_nodes
    gates = []
    for m in elements:
        gap = np.abs(m.values[:, None] - m.values[None, :])
        gate = gap < m.beta if strict else gap <= m.beta
        np.fill_diagonal(gate, False)
        if m.missing is not None:
            gate[m.missing, :] = False
            gate[:, m.missing] = False
        gates.append(gate)
    out = np.zeros((n, n))
    if mode == "mixed_nosim":
        for gate in gates:
            out += gate
    else:
        if kernel.distance == "euclidean":
            diff = x[:, None, :] - x[None, :, :]
            rho = np.sqrt((diff * diff).sum(axis=-1))
        else:
            centered = x - x.mean(axis=1, keepdims=True)
            norms = np.linalg.norm(centered, axis=1)
            rho = 1.0 - (centered @ centered.T) / np.outer(norms, norms)
        np.fill_diagonal(rho, 0.0)
        sigma = kernel.sigma
        if sigma is None:
            sigma = rho[~np.eye(n, dtype=bool)].mean()
        w = np.exp(-(rho * rho) / (2.0 * sigma * sigma))
        np.fill_diagonal(w, 0.0)
        for gate in gates:
            out += w * gate
    out /= len(gates)
    return out, [np.count_nonzero(gate) // 2 for gate in gates]


def cohort_elements(rng, n, sites=4):
    """An age with a tolerance and some unknowns, a sex and a site; node 0
    has an unknown age and a site of its own, so the mixed graphs leave it
    to its sex alone and a single site graph isolates it."""
    missing = rng.random(n) < 0.1
    missing[0] = True
    site = rng.integers(0, sites, n).astype(float)
    site[0] = sites
    return [
        MetaElement("age", np.where(missing, 0.0, rng.uniform(20.0, 80.0, n).round(1)), 2.0,
                    missing=missing),
        MetaElement("sex", rng.integers(0, 2, n).astype(float), 0.0),
        MetaElement("site", site, 0.0),
    ]


class TestRowBlockBuilder:
    """The builder's edge columns against the dense formulas, over several
    row blocks, the last of them merged rather than one row tall."""

    @pytest.fixture(autouse=True)
    def seven_row_blocks(self, monkeypatch):
        monkeypatch.setattr(affinity, "_ROW_BLOCK_BYTES", 7 * 8 * 50)

    @pytest.mark.parametrize("mode, element", [
        ("single", "site"), ("single", None), ("mixed", None), ("mixed_nosim", None)])
    @pytest.mark.parametrize("distance, sigma", [
        ("euclidean", None), ("euclidean", 0.7), ("correlation", None), ("correlation", 0.4)])
    @pytest.mark.parametrize("strict", [False, True])
    def test_columns_match_the_dense_formulas(self, mode, element, distance, sigma, strict):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((50, 6))
        elements = cohort_elements(rng, 50)
        kernel = SimilarityKernel(distance=distance, sigma=sigma)
        assert affinity._row_blocks(50)[-2:] == [(35, 42), (42, 50)]
        edges, counts = affinity._build_affinity(elements, x, kernel, mode, element, strict)
        chosen = elements if mode != "single" else [elements[2 if element else 0]]
        want, want_counts = dense_affinity(chosen, x, kernel, mode, strict)
        assert [(m.name, c) for m, c in counts] == [
            (m.name, c) for m, c in zip(chosen, want_counts)]
        lo, hi = np.nonzero(np.triu(want, 1))
        assert edges.n == 50 and edges.lo.dtype == edges.hi.dtype == np.int64
        npt.assert_array_equal(edges.lo, lo)
        npt.assert_array_equal(edges.hi, hi)
        if distance == "euclidean" or mode == "mixed_nosim":
            npt.assert_array_equal(edges.w, want[lo, hi])
        else:
            # a row block's GEMM may round a Gram entry's last bit differently
            # from one product over all rows
            npt.assert_allclose(edges.w, want[lo, hi], rtol=1e-13, atol=0.0)
        if element == "site":  # node 0 has a site of its own
            assert 0 not in np.concatenate([edges.lo, edges.hi])
        npt.assert_array_equal(build_affinity(elements, x, kernel, mode, element, strict),
                               edges_dense(edges))

    def test_dense_helpers_are_the_row_blocks(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((50, 6))
        meta = cohort_elements(rng, 50)[0]
        for strict in (False, True):
            npt.assert_array_equal(binarize_edges(meta, strict), dense_affinity(
                [meta], x, None, "mixed_nosim", strict)[0] != 0.0)
        for distance in ("euclidean", "correlation"):
            kernel = SimilarityKernel(distance=distance)
            w = similarity_weights(x, kernel)
            full = MetaElement("all", np.zeros(50), 0.0)
            npt.assert_array_equal(w, build_affinity([full], x, kernel))
            npt.assert_array_equal(w, w.T)

    @pytest.mark.parametrize("blocks", [1, 2, 7, 300])
    def test_bandwidth_is_the_mean_of_one_off_diagonal_array(self, blocks):
        # 89,700 off-diagonal values: several pairwise-sum leaves and row blocks
        rho = euclidean_distance(np.random.default_rng(23).standard_normal((300, 5)))
        bounds = list(range(0, 300, 300 // blocks)) + [300]
        got = affinity._bandwidth(lambda s, e: rho[s:e], list(zip(bounds, bounds[1:])))
        assert got == rho[~np.eye(300, dtype=bool)].mean()


def two_pass_epsilon_edges(points, beta):
    """The similarity-weighted ε-graph as two distance passes build it: the
    bandwidth's, then one that weights each block and keeps its nonzeros."""
    dist, blocks = affinity._distance_rows(points, "euclidean")
    sigma = affinity._bandwidth(dist, blocks)

    def rows(s, e):
        rho = dist(s, e)
        return (rho < beta) * affinity._zero_diagonal(affinity._gaussian(rho, sigma), s)

    return affinity._block_edges(rows, blocks, len(points))


class TestEpsilonEdges:
    def points(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, 2))
        pts[n // 3] = pts[0]  # a pair at distance 0 is an edge of weight 1
        return pts

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("beta", [0.5, 3.0])
    def test_one_pass_weights_are_the_two_pass_weights(self, seed, beta):
        pts = self.points(seed, 300 + 77 * seed)
        got = affinity._epsilon_edges(pts, beta, weighted=True)
        want = two_pass_epsilon_edges(pts, beta)
        assert got.canonical() and got.n == want.n
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_an_underflowed_weight_is_no_edge(self):
        # a tight cluster and two far points: sigma is about 0.015, so the far
        # pairs' exp(-rho^2 / (2 sigma^2)) underflows to 0
        pts = np.concatenate([np.random.default_rng(5).normal(0.0, 1e-3, (300, 2)),
                              [[1.0, 0.0], [1.001, 0.0]]])
        assert affinity._epsilon_edges(pts, 2.0, weighted=False).w.size == 301 * 302 // 2
        got = affinity._epsilon_edges(pts, 2.0, weighted=True)
        want = two_pass_epsilon_edges(pts, 2.0)
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b)
        far = got.hi >= 300
        assert list(zip(got.lo[far], got.hi[far])) == [(300, 301)]

    @pytest.mark.parametrize("weights", ["binary", "similarity"])
    def test_each_distance_block_is_computed_once(self, monkeypatch, weights):
        computed = []
        distance_rows = affinity._distance_rows

        def counting(features, metric):
            rows, blocks = distance_rows(features, metric)
            computed.append(blocks)
            return (lambda s, e: computed.append((s, e)) or rows(s, e)), blocks

        monkeypatch.setattr(affinity, "_distance_rows", counting)
        generate(SimConfig(variances=(1.0, 1.0), edge_weights=weights))
        blocks, evaluated = computed[0], computed[1:]
        assert len(blocks) > 1
        assert evaluated == blocks


def edges_dense(edges):
    out = np.zeros((edges.n, edges.n))
    out[edges.lo, edges.hi] = edges.w
    out[edges.hi, edges.lo] = edges.w
    return out


def test_builder_holds_no_dense_matrix():
    rng = np.random.default_rng(24)
    n = 1000
    x = rng.standard_normal((n, 200))
    elements = cohort_elements(rng, n, sites=20)
    tracemalloc.start()
    try:
        edges, _ = affinity._build_affinity(elements, x, None, "mixed", None, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges.w.size > 0.25 * n * n
    # one (N, N) float64 array plus 32 bytes per edge; dense gates, weights
    # and their sum, then a scan of the sum for its edges, hold about four
    # (N, N) arrays
    assert peak < 8 * n * n + 32 * edges.w.size
