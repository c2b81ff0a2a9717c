import importlib.machinery
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from chebgcn.graph import (
    SPARSE_DENSITY_CUTOFF,
    GraphInvariantError,
    NormalizedLaplacian,
    PopulationGraph,
    build_laplacian,
    chebyshev_apply,
    khop_reach,
    rescale_laplacian,
    _chebyshev_basis,
    _chebyshev_laplacian,
    CsrMatrix,
    _Edges,
    _sparsetools,
)

from chebgcn.io import write_edge_list
from chebgcn.simdata import SimConfig, generate

from conftest import (
    bfs_hop_distances,
    csr_of,
    dense_cheb_matrices,
    euclidean_distance,
    loop_normalized_laplacian,
    package_env,
    path_adjacency,
    random_adjacency,
    scipy_of,
    spectral_cheb_apply,
)


def make_graph(adjacency, **fields):
    """A graph on ``adjacency``, all train, with any other field replaced by ``fields``."""
    n = adjacency.n if isinstance(adjacency, _Edges) else adjacency.shape[0]
    return PopulationGraph(**{
        "adjacency": adjacency,
        "features": np.arange(2 * n, dtype=float).reshape(n, 2),
        "labels": np.zeros(n, dtype=np.int64),
        "train_mask": np.ones(n, dtype=bool),
        **fields,
    })


class TestBuildLaplacian:
    def test_two_node_unit_graph(self):
        lap = build_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        npt.assert_array_equal(lap.toarray(), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_all_isolated_gives_identity(self):
        lap = build_laplacian(np.zeros((3, 3)))
        npt.assert_array_equal(lap.toarray(), np.eye(3))

    def test_path3_spectrum(self):
        # Oracle (loop-built Laplacian + eigh) gives exactly {0, 1, 2} for
        # the 3-node path.
        lap = build_laplacian(path_adjacency(3))
        eigs = np.linalg.eigvalsh(lap.toarray())
        npt.assert_allclose(eigs, [0.0, 1.0, 2.0], atol=1e-12)
        assert eigs.min() >= -1e-8
        assert eigs.max() <= 2.0 + 1e-8

    def test_matches_loop_oracle_on_random_graphs(self):
        rng = np.random.default_rng(7)
        # the last graph is under the density cutoff, so it takes the CSR path
        for n, p in ((4, 0.4), (9, 0.4), (16, 0.4), (20, 0.1)):
            a = random_adjacency(rng, n, p=p, weighted=True)
            lap = build_laplacian(a)
            npt.assert_allclose(lap.toarray(), loop_normalized_laplacian(a), atol=1e-12)
        assert isinstance(lap.matrix, CsrMatrix)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            a = random_adjacency(np.random.default_rng(seed), 12, p=0.3, weighted=True)
            m = build_laplacian(a).toarray()
            assert np.array_equal(m, m.T)
        del rng

    def test_spectrum_bound_random_graphs(self):
        for seed in range(8):
            a = random_adjacency(np.random.default_rng(seed), 15, p=0.35, weighted=True)
            eigs = np.linalg.eigvalsh(build_laplacian(a).toarray())
            assert eigs.min() >= -1e-8
            assert eigs.max() <= 2.0 + 1e-8

    def test_isolated_node_row_is_identity_row(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0  # node 2 and 3 isolated
        dense = build_laplacian(a).toarray()
        npt.assert_array_equal(dense[2], np.array([0.0, 0.0, 1.0, 0.0]))
        npt.assert_array_equal(dense[:, 2], np.array([0.0, 0.0, 1.0, 0.0]))

    def test_sparse_and_dense_storage_agree(self):
        a = random_adjacency(np.random.default_rng(11), 14, p=0.3, weighted=True)
        dense = build_laplacian(a).toarray()
        lap_s = NormalizedLaplacian(matrix=csr_of(dense))
        lap_d = NormalizedLaplacian(matrix=dense)
        npt.assert_allclose(lap_s.toarray(), lap_d.toarray(), atol=1e-12)
        lt_s, lt_d = rescale_laplacian(lap_s), rescale_laplacian(lap_d)
        assert isinstance(lt_s.matrix, CsrMatrix)
        assert isinstance(lt_d.matrix, np.ndarray)
        npt.assert_allclose(lt_s.toarray(), lt_d.toarray(), atol=1e-12)

    def test_laplacian_keeps_csr_storage_of_its_adjacency(self):
        # 12 edges on 10 nodes: the adjacency is 24% dense, its Laplacian 34%
        a = path_adjacency(10)
        a[0, 5] = a[5, 0] = a[2, 7] = a[7, 2] = a[4, 9] = a[9, 4] = 1.0
        g = make_graph(a)
        assert isinstance(g.adjacency, CsrMatrix)
        assert g.adjacency.nnz == 24
        lap = build_laplacian(g)
        assert_bitwise(lap.matrix, csr_of(lap.toarray()))
        assert isinstance(rescale_laplacian(lap).matrix, CsrMatrix)
        npt.assert_allclose(lap.toarray(), loop_normalized_laplacian(a), atol=1e-12)

    def test_rejects_asymmetric_input(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        with pytest.raises(GraphInvariantError):
            build_laplacian(a)

    @pytest.mark.parametrize("a, fragment", [
        ([[0.0, -1.0], [-1.0, 0.0]], "edge weights must be nonnegative"),
        ([[1.0, 0.0], [0.0, 0.0]], "diagonal must be zero (no self-loops)"),
        ([[0.0, np.inf], [np.inf, 0.0]], "edge weights must be finite: edge (0, 1) is inf"),
        ([[0.0, np.nan], [np.nan, 0.0]], "edge weights must be finite: edge (0, 1) is nan"),
    ])
    def test_rejects_a_bare_adjacency_no_graph_would_hold(self, a, fragment):
        for storage in (np.array, sp.csr_array, csr_of):
            with pytest.raises(GraphInvariantError) as info:
                build_laplacian(storage(a))
            assert fragment in str(info.value)


class TestRescale:
    def test_identity_laplacian_maps_to_zero(self):
        lt = rescale_laplacian(NormalizedLaplacian(matrix=np.eye(3)))
        npt.assert_array_equal(lt.toarray(), np.zeros((3, 3)))

    def test_two_node_graph(self):
        lap = NormalizedLaplacian(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        npt.assert_array_equal(
            rescale_laplacian(lap).toarray(), np.array([[0.0, -1.0], [-1.0, 0.0]])
        )

    def test_path3_spectrum_in_unit_interval(self):
        lt = rescale_laplacian(build_laplacian(path_adjacency(3)))
        eigs = np.linalg.eigvalsh(lt.toarray())
        assert eigs.min() >= -1.0 - 1e-12
        assert eigs.max() <= 1.0 + 1e-12

    def test_default_rescale_is_l_minus_identity(self):
        a = random_adjacency(np.random.default_rng(4), 10, p=0.4)
        lap = build_laplacian(a)
        npt.assert_array_equal(
            rescale_laplacian(lap).toarray(), lap.toarray() - np.eye(10)
        )


class TestChebyshevApply:
    def test_order_zero_returns_input(self):
        lt = rescale_laplacian(build_laplacian(path_adjacency(4)))
        x = np.random.default_rng(0).standard_normal((4, 3))
        out = chebyshev_apply(lt, x, 0)
        assert len(out) == 1
        npt.assert_array_equal(out[0], x)

    def test_order_one_on_zero_operator(self):
        lt = NormalizedLaplacian(np.zeros((3, 3)))
        x = np.arange(6, dtype=float).reshape(3, 2)
        out = chebyshev_apply(lt, x, 1)
        npt.assert_array_equal(out[0], x)
        npt.assert_array_equal(out[1], np.zeros((3, 2)))

    def test_third_element_is_polynomial_of_order_two(self):
        rng = np.random.default_rng(5)
        a = random_adjacency(rng, 5, p=0.6)
        lt = rescale_laplacian(build_laplacian(a))
        x = rng.standard_normal((5, 2))
        dense = lt.toarray()
        expected = (2.0 * dense @ dense - np.eye(5)) @ x
        npt.assert_allclose(chebyshev_apply(lt, x, 2)[2], expected, atol=1e-12)

    def test_matches_dense_matrix_recurrence(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 21))
            a = random_adjacency(rng, n, p=0.4, weighted=True)
            lt = rescale_laplacian(build_laplacian(a))
            x = rng.standard_normal((n, 3))
            mats = dense_cheb_matrices(lt.toarray(), 6)
            got = chebyshev_apply(lt, x, 6)
            for r in range(7):
                expected = mats[r] @ x
                scale = max(1.0, np.abs(expected).max())
                assert np.abs(got[r] - expected).max() / scale < 1e-10

    def test_matches_eigendecomposition_form(self):
        rng = np.random.default_rng(12)
        a = random_adjacency(rng, 9, p=0.5)
        lt = rescale_laplacian(build_laplacian(a))
        x = rng.standard_normal((9, 2))
        expected = spectral_cheb_apply(lt.toarray(), x, 5)
        got = chebyshev_apply(lt, x, 5)
        for r in range(6):
            npt.assert_allclose(got[r], expected[r], atol=1e-9)

    def test_sparse_dense_paths_agree(self):
        rng = np.random.default_rng(8)
        a = random_adjacency(rng, 12, p=0.3, weighted=True)
        x = rng.standard_normal((12, 4))
        dense = rescale_laplacian(build_laplacian(a)).toarray()
        lt_s = NormalizedLaplacian(matrix=csr_of(dense))
        lt_d = NormalizedLaplacian(matrix=dense)
        for s, d in zip(chebyshev_apply(lt_s, x, 5), chebyshev_apply(lt_d, x, 5)):
            npt.assert_allclose(s, d, atol=1e-12)

    @pytest.mark.parametrize("storage", [np.asarray, csr_of])
    def test_in_place_recurrence_is_bitwise_the_out_of_place_one(self, storage):
        rng = np.random.default_rng(9)
        dense = rescale_laplacian(build_laplacian(random_adjacency(rng, 15, p=0.3))).toarray()
        lt = NormalizedLaplacian(matrix=storage(dense))
        x = rng.standard_normal((15, 3))
        expected = [x, lt.matrix @ x]
        for _ in range(2, 7):
            expected.append(2.0 * (lt.matrix @ expected[-1]) - expected[-2])
        for got, want in zip(chebyshev_apply(lt, x, 6), expected, strict=True):
            npt.assert_array_equal(got, want)

    def test_rejects_bad_inputs(self):
        lt = rescale_laplacian(build_laplacian(path_adjacency(3)))
        with pytest.raises(ValueError):
            chebyshev_apply(lt, np.zeros((3, 2)), -1)
        with pytest.raises(ValueError):
            chebyshev_apply(lt, np.zeros((4, 2)), 1)
        with pytest.raises(ValueError):
            chebyshev_apply(lt, np.zeros(3), 1)


class TestLocalization:
    def test_khop_path4(self):
        lt = rescale_laplacian(build_laplacian(path_adjacency(4)))
        reach1 = khop_reach(lt, 1)
        assert not reach1[1, 3]
        assert not reach1[0, 2]
        assert khop_reach(lt, 3).all()

    def test_khop_matches_bfs_oracle(self):
        rng = np.random.default_rng(21)
        a = random_adjacency(rng, 10, p=0.25)
        lt = rescale_laplacian(build_laplacian(a))
        dist = bfs_hop_distances(a)
        for k in (0, 1, 2, 4):
            npt.assert_array_equal(khop_reach(lt, k), dist <= k)

    def test_filter_row_untouched_by_far_perturbations(self):
        # Perturb every node farther than k hops from node i; row i of every
        # basis element must not move at all.
        rng = np.random.default_rng(30)
        a = random_adjacency(rng, 12, p=0.2)
        lt = rescale_laplacian(build_laplacian(a))
        dist = bfs_hop_distances(a)
        x = rng.standard_normal((12, 3))
        for k in (1, 2, 3):
            for i in (0, 5, 11):
                far = dist[i] > k
                if not far.any():
                    continue
                x2 = x.copy()
                x2[far] += rng.standard_normal((int(far.sum()), 3))
                base = chebyshev_apply(lt, x, k)
                pert = chebyshev_apply(lt, x2, k)
                for r in range(k + 1):
                    npt.assert_array_equal(base[r][i], pert[r][i])


class TestPopulationGraph:
    def test_storage_policy_density_cutoff(self):
        sparse_a = path_adjacency(10)  # density well under 25%
        dense_a = random_adjacency(np.random.default_rng(0), 10, p=0.9)
        assert isinstance(make_graph(sparse_a).adjacency, CsrMatrix)
        assert isinstance(make_graph(dense_a).adjacency, np.ndarray)

    def test_rejects_negative_weights(self):
        a = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(GraphInvariantError):
            make_graph(a)

    def test_rejects_self_loops(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(GraphInvariantError):
            make_graph(a)

    def test_rejects_non_finite_features_naming_node_and_column(self):
        feats = np.zeros((3, 2))
        feats[2, 1] = np.nan
        with pytest.raises(GraphInvariantError, match=r"finite: node 2, column 1 is nan"):
            PopulationGraph(
                adjacency=path_adjacency(3),
                features=feats,
                labels=np.zeros(3, dtype=np.int64),
                train_mask=np.ones(3, dtype=bool),
            )

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_rejects_non_finite_weights_naming_the_pair(self, storage, weight):
        # a 4-node path is 37.5% dense, a 10-node path 18%
        a = path_adjacency(4 if storage == "dense" else 10)
        assert isinstance(make_graph(a).adjacency, CsrMatrix) == (storage == "sparse")
        a[1, 2] = a[2, 1] = weight
        with pytest.raises(GraphInvariantError, match=rf"finite: edge \(1, 2\) is {weight}"):
            make_graph(a)

    def test_rejects_non_integer_labels(self):
        with pytest.raises(GraphInvariantError):
            PopulationGraph(
                adjacency=path_adjacency(2),
                features=np.zeros((2, 1)),
                labels=np.array([0.0, 1.0]),
                train_mask=np.ones(2, dtype=bool),
            )

    def test_test_mask_is_no_parameter(self):
        with pytest.raises(TypeError, match="test_mask"):
            make_graph(path_adjacency(3), test_mask=np.zeros(3, dtype=bool))

    def test_arrays_are_read_only(self):
        g = make_graph(path_adjacency(4))
        with pytest.raises(ValueError):
            g.features[0, 0] = 9.0
        with pytest.raises((ValueError, TypeError)):
            g.adjacency.data[0] = 9.0

    def test_counts(self):
        g = PopulationGraph(
            adjacency=path_adjacency(4),
            features=np.zeros((4, 3)),
            labels=np.array([0, 1, 2, 1]),
            train_mask=np.ones(4, dtype=bool),
        )
        assert g.n_nodes == 4
        assert g.n_features == 3
        assert g.n_classes == 3
        npt.assert_array_equal(g.adjacency.sum(axis=1), [1.0, 2.0, 2.0, 1.0])
        assert g.n_edges == 3

    def test_stored_zeros_are_not_edges(self, tmp_path):
        stored = sp.csr_array(([0.0, 0.0, 1.0, 1.0], ([0, 1, 1, 2], [1, 0, 2, 1])),
                              shape=(30, 30))
        g = make_graph(stored, features=np.ones((30, 2)))
        assert g.n_edges == 1
        npt.assert_array_equal(g.adjacency.indices, [2, 1])
        write_edge_list(tmp_path / "edges.txt", *g.edges)
        assert (tmp_path / "edges.txt").read_text() == "1 2 1.0\n"
        # the caller's matrix keeps its entries and shares no buffer with the graph
        assert stored.nnz == 4
        stored.data[:] = 5.0
        npt.assert_array_equal(g.adjacency.data, [1.0, 1.0])

    def test_a_read_only_sparse_adjacency_is_taken_again(self):
        # canonicalizing works on a copy, never in the frozen buffers
        g = make_graph(path_adjacency(10))
        assert isinstance(g.adjacency, CsrMatrix)
        assert make_graph(g.adjacency).n_edges == 9
        npt.assert_array_equal(build_laplacian(g.adjacency).toarray(),
                               build_laplacian(g).toarray())

    def test_stored_zeros_do_not_count_toward_density(self):
        # a 10-node path fills 18 of 100 entries; 10 stored zeros would make it 28
        path = sp.coo_array(path_adjacency(10))
        rows = np.concatenate([path.row, np.arange(5), np.arange(5) + 2])
        cols = np.concatenate([path.col, np.arange(5) + 2, np.arange(5)])
        data = np.concatenate([path.data, np.zeros(10)])
        stored = sp.csr_array((data, (rows, cols)), shape=(10, 10))
        assert stored.nnz == 28
        adj = make_graph(stored).adjacency
        assert isinstance(adj, CsrMatrix) and adj.nnz == 18
        npt.assert_array_equal(adj.toarray(), path_adjacency(10))


def canonical_csr(matrix):
    """A float64 CSR copy of ``matrix``: sorted indices, no duplicates and no
    stored zeros."""
    return scipy_of(csr_of(matrix))


def stored_matrix(matrix):
    """The adjacency a graph stored when it kept its input matrix itself:
    canonical float64 CSR when fewer than SPARSE_DENSITY_CUTOFF of the
    entries are nonzero (stored zeros not counted), else a float64 array."""
    csr = csr_of(matrix)
    if csr.nnz < SPARSE_DENSITY_CUTOFF * np.prod(csr.shape):
        return csr
    return np.array(matrix, dtype=np.float64) if isinstance(matrix, np.ndarray) else csr.toarray()


def assert_bitwise(got, want):
    assert type(got) is type(want)
    if isinstance(want, CsrMatrix):
        assert got.shape == want.shape
        assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()
        # The same index values; they are int32 whatever index dtype a CSR
        # input had, since the storage is built from the edge columns.
        for field in ("indices", "indptr"):
            assert getattr(got, field).dtype == np.int32, field
            npt.assert_array_equal(getattr(got, field), getattr(want, field))
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def upper_columns(dense):
    """A symmetric dense matrix's canonical edge columns, pair by pair."""
    n = dense.shape[0]
    lo, hi = np.array([(i, j) for i in range(n) for j in range(i + 1, n) if dense[i, j] != 0.0],
                      dtype=np.int64).T
    return _Edges(lo, hi, dense[lo, hi], n)


def with_stored_zeros(dense):
    """``dense`` as CSR, with zeros stored on its anti-diagonal too."""
    n = dense.shape[0]
    coo, anti = sp.coo_array(dense), np.arange(n)
    return sp.csr_array((np.concatenate([coo.data, np.zeros(n)]),
                         (np.concatenate([coo.row, anti]), np.concatenate([coo.col, anti[::-1]]))),
                        shape=(n, n))


# (name, dense adjacency): density below, above and exactly at the cutoff.
DENSITIES = [
    ("below", random_adjacency(np.random.default_rng(1), 12, p=0.1, weighted=True)),
    ("above", random_adjacency(np.random.default_rng(2), 12, p=0.6, weighted=True)),
    # 2 edges on 4 nodes fill 4 of 16 entries
    ("at", np.array([[0, 1.5, 0, 0], [1.5, 0, 0, 0], [0, 0, 0, 0.25], [0, 0, 0.25, 0]])),
]


class TestEdgeColumns:
    """A graph holds edge columns and builds the adjacency it used to store
    from them, bit for bit, on first read."""

    @pytest.mark.parametrize("given", [
        "dense", "csr", "csr-stored-zeros", "CsrMatrix", "CsrMatrix-stored-zeros", "columns"])
    @pytest.mark.parametrize("name, dense", DENSITIES, ids=[d[0] for d in DENSITIES])
    def test_adjacency_is_the_stored_matrix_bit_for_bit(self, given, name, dense):
        stored_zeros = with_stored_zeros(dense)
        arg = {"dense": dense, "csr": sp.csr_array(dense), "columns": upper_columns(dense),
               "csr-stored-zeros": stored_zeros, "CsrMatrix": csr_of(dense),
               "CsrMatrix-stored-zeros": CsrMatrix(stored_zeros.data, stored_zeros.indices,
                                                   stored_zeros.indptr, stored_zeros.shape)}[given]
        g = make_graph(arg)
        assert "adjacency" not in vars(g)
        assert g.n_edges == np.count_nonzero(dense) // 2
        want = stored_matrix(dense if given == "columns" else arg)
        assert isinstance(want, CsrMatrix) == (name == "below")
        assert_bitwise(g.adjacency, want)
        assert g.adjacency is g.adjacency
        for got, ref in zip(g.edges, upper_columns(dense)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("weights", ["binary", "similarity"])
    @pytest.mark.parametrize("beta", [0.5, 3.0], ids=["csr", "dense"])
    def test_generate_stores_the_thresholded_matrix(self, weights, beta):
        g = generate(SimConfig(n_per_class=40, beta=beta, edge_weights=weights))
        dist = euclidean_distance(g.features)
        close = dist < beta
        np.fill_diagonal(close, False)
        dense = close.astype(np.float64)
        if weights == "similarity":
            sigma = dist[~np.eye(dist.shape[0], dtype=bool)].mean()
            dense = np.exp(-(dist * dist) / (2.0 * sigma * sigma)) * close
        want = stored_matrix(dense)
        assert isinstance(want, CsrMatrix) == (beta == 0.5)
        assert g.n_edges == np.count_nonzero(dense) // 2
        assert_bitwise(g.adjacency, want)

    @pytest.mark.parametrize("break_rule", [
        "unsorted", "repeated", "reversed", "zero-weight", "nan-weight", "inf-weight",
        "negative-index", "index-past-n", "int32-index",
    ])
    def test_non_canonical_columns_are_rejected(self, break_rule):
        lo, hi, w, n = upper_columns(DENSITIES[1][1])
        if break_rule == "unsorted":
            lo, hi, w = lo[::-1], hi[::-1], w[::-1]
        elif break_rule == "repeated":
            lo, hi, w = np.repeat(lo, 2), np.repeat(hi, 2), np.repeat(w, 2)
        elif break_rule == "reversed":
            lo, hi = hi, lo
        elif break_rule == "int32-index":
            lo = lo.astype(np.int32)
        else:
            k, column, value = {"zero-weight": (0, w, 0.0), "nan-weight": (0, w, np.nan),
                                "inf-weight": (0, w, np.inf), "negative-index": (0, lo, -1),
                                "index-past-n": (-1, hi, n)}[break_rule]
            column[k] = value
        with pytest.raises(GraphInvariantError, match="edge columns must be canonical"):
            make_graph(_Edges(lo, hi, w, n))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: make_graph(np.zeros((3, 2))),
     GraphInvariantError, "adjacency must be square, got (3, 2)"),
    (lambda: make_graph(np.zeros((0, 0))), GraphInvariantError, "at least one node"),
    (lambda: make_graph(path_adjacency(3), features=np.zeros((2, 2))),
     GraphInvariantError, "features must be (n_nodes, d), got (2, 2) for 3 nodes"),
    (lambda: make_graph(path_adjacency(3), labels=np.zeros((3, 1), dtype=np.int64)),
     GraphInvariantError, "labels must be a 1-D array"),
    (lambda: make_graph(path_adjacency(3), labels=np.array([0, -1, 0])),
     GraphInvariantError, "labels must be nonnegative"),
    (lambda: make_graph(path_adjacency(3), train_mask=np.ones(2, dtype=bool)),
     GraphInvariantError, "train_mask must be a boolean array of length 3"),
    (lambda: NormalizedLaplacian(matrix=np.zeros((2, 3))),
     GraphInvariantError, "Laplacian must be square, got (2, 3)"),
    (lambda: NormalizedLaplacian(matrix=sp.csr_array(np.eye(2))),
     TypeError, "must be an ndarray or a CsrMatrix, got csr_array"),
    # row 1 stores only its (1, 0) entry
    (lambda: rescale_laplacian(NormalizedLaplacian(matrix=CsrMatrix(
        np.array([1.0, -0.5, -0.5]), np.array([0, 1, 0]), np.array([0, 2, 3]), (2, 2)))),
     GraphInvariantError, "row 1 of the CSR Laplacian stores no diagonal entry"),
    # (0, 1) and (1, 0) twice each
    (lambda: make_graph(CsrMatrix(np.ones(4), np.array([1, 1, 0, 0]), np.array([0, 2, 4]),
                                  (2, 2))),
     GraphInvariantError, "a CsrMatrix adjacency must have sorted rows without duplicates"),
    (lambda: khop_reach(build_laplacian(path_adjacency(3)), -1),
     ValueError, "k must be a nonnegative integer, got -1"),
])
def test_input_checks_reject_bad_arguments(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def formula_laplacian(adj):
    """I - D^{-1/2} A D^{-1/2}, symmetrized as (L + L^T) / 2, by the
    vectorized formula over the whole dense adjacency."""
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    d = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
    lap = adj * d[:, None]
    lap *= d[None, :]
    np.subtract(0.0, lap, out=lap)
    lap.flat[::n + 1] += 1.0
    lap += lap.T
    lap *= 0.5
    return lap


def csr_formula_laplacian(adj, rescaled=False):
    """I - D^{-1/2} A D^{-1/2} of a CSR adjacency by SciPy's whole-matrix
    formula, symmetrized as (L + L^T) / 2, then L - I if ``rescaled``; as
    canonical CSR."""
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    d_half = sp.diags_array(np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0),
                            format="csr")
    lap = sp.eye_array(n, format="csr") - d_half @ adj @ d_half
    lap = canonical_csr((lap + lap.T) * 0.5)
    return canonical_csr(lap - sp.eye_array(n, format="csr")) if rescaled else lap


def isolated_graph(rng, n, p):
    """A weighted random graph whose first two nodes are isolated."""
    a = random_adjacency(rng, n, p=p, weighted=True)
    a[:2] = a[:, :2] = 0.0
    return make_graph(a), a


class TestEdgeLaplacian:
    """Laplacians built from edge columns against the whole-matrix formula."""

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_laplacians_are_the_formula_bit_for_bit(self, seed):
        g, a = isolated_graph(np.random.default_rng(seed), 40, p=0.5)
        want = formula_laplacian(a)
        lap = build_laplacian(g)
        assert isinstance(lap.matrix, np.ndarray) and lap.matrix.tobytes() == want.tobytes()
        assert build_laplacian(a).matrix.tobytes() == want.tobytes()
        want.flat[::41] -= 1.0
        assert "adjacency" not in vars(g)
        for got in (_chebyshev_laplacian(g), rescale_laplacian(build_laplacian(g))):
            assert isinstance(got.matrix, np.ndarray) and got.matrix.tobytes() == want.tobytes()
        assert "adjacency" not in vars(g)

    # Weighted rows of about 3 entries at 40 nodes and 16 at 200, past the
    # eight partial sums np.add.reduceat keeps: a degree added in any order
    # but csr_array.sum's (np.bincount's, say) changes the bits.
    @pytest.mark.parametrize("seed, n", [(seed, 40) for seed in range(4)] + [(4, 200)])
    def test_csr_laplacians_keep_their_code(self, seed, n):
        g, a = isolated_graph(np.random.default_rng(seed), n, p=0.08)
        assert a[2:].any() and not a[:2].any() and not np.all(a == np.round(a))
        train = _chebyshev_laplacian(g)
        cases = [(build_laplacian(g), False), (build_laplacian(sp.csr_array(a)), False),
                 (build_laplacian(csr_of(a)), False),
                 (rescale_laplacian(build_laplacian(g)), True), (train, True)]
        assert "adjacency" not in vars(g)
        for lap, rescaled in cases:
            got, want = lap.matrix, csr_formula_laplacian(sp.csr_array(a), rescaled)
            assert isinstance(got, CsrMatrix)
            for field in ("data", "indices", "indptr"):
                x, y = getattr(got, field), getattr(want, field)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
        formula = formula_laplacian(a)
        formula.flat[::n + 1] -= 1.0
        npt.assert_allclose(got.toarray(), formula, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_rescaled_public_laplacian_is_the_training_one(self, storage):
        # every array and its dtype, on 200 random graphs with isolated nodes
        rng = np.random.default_rng(30)
        done = 0
        while done < 200:
            n = int(rng.integers(4, 40))
            p = rng.uniform(0.4, 0.9) if storage == "dense" else rng.uniform(0.01, 0.15)
            g, _ = isolated_graph(rng, n, p)
            want = _chebyshev_laplacian(g).matrix
            if isinstance(want, np.ndarray) == (storage == "dense"):
                assert_bitwise(rescale_laplacian(build_laplacian(g)).matrix, want)
                done += 1

    def test_training_laplacian_holds_one_dense_matrix(self):
        rng = np.random.default_rng(5)
        n = 1000
        lo, hi = np.triu_indices(n, 1)
        keep = rng.random(lo.size) < 0.55
        keep[(lo == 3) | (hi == 3)] = False  # an isolated node
        g = make_graph(_Edges(lo[keep], hi[keep], rng.uniform(0.1, 1.0, keep.sum()), n))
        del lo, hi, keep
        tracemalloc.start()
        try:
            lap = _chebyshev_laplacian(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(lap.matrix, np.ndarray) and lap.matrix[3].tolist() == [0.0] * n
        assert "adjacency" not in vars(g)
        # One (N, N) float64 array, the adjacency turned into L̃ in place,
        # plus 2 B per edge. The entries are computed a chunk of edges at a
        # time, in temporaries that do not grow with the edges (0.2 MB, 0.8 B
        # per edge here); over whole edge columns they took 24 B per edge.
        assert peak < 8 * n * n + 2 * g.n_edges

    def test_training_laplacian_holds_its_csr_arrays_and_one_order(self):
        rng = np.random.default_rng(6)
        n = 3000
        lo, hi = np.triu_indices(n, 1)
        keep = rng.random(lo.size) < 0.03
        keep[(lo == 3) | (hi == 3)] = False  # an isolated node
        g = make_graph(_Edges(lo[keep], hi[keep], rng.uniform(0.1, 1.0, keep.sum()), n))
        del lo, hi, keep
        tracemalloc.start()
        try:
            lap = _chebyshev_laplacian(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = lap.matrix
        assert isinstance(m, CsrMatrix) and m.indices.dtype == np.int32
        assert m.data.size == 2 * g.n_edges and m.indptr[4] == m.indptr[3]
        kept = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        # The arrays kept, 12 B per entry, plus 16 B per edge: the pattern's
        # stable order of the edges by hi (8 B), and the chunked fill's
        # temporaries, which do not grow with the edges (5 B per edge here).
        # Sorting, gathering and inserting whole columns took 49 B per edge.
        assert peak < kept + 16 * g.n_edges

    def test_csr_entries_that_round_to_zero_are_not_stored(self):
        # Subnormal weights beside unit ones give entries that underflow to
        # zero; L̃ drops them, as SciPy's whole-matrix formula does.
        rng = np.random.default_rng(7)
        a = random_adjacency(rng, 60, p=0.08)
        tiny = np.triu(rng.random(a.shape) < 0.3, 1)
        a[(a != 0.0) & (tiny | tiny.T)] = 5e-324
        g = make_graph(a)
        got = _chebyshev_laplacian(g).matrix
        want = csr_formula_laplacian(sp.csr_array(a), rescaled=True)
        assert isinstance(got, CsrMatrix) and got.data.size < 2 * g.n_edges
        for field in ("data", "indices", "indptr"):
            x, y = getattr(got, field), getattr(want, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field


KERNEL_PROBE = """\
import sys
from chebgcn.graph import _sparsetools
print(_sparsetools().__name__, "scipy.sparse" in sys.modules)
"""


NO_SCIPY_SPARSE_PROBE = """\
import sys
sys.modules["scipy.sparse"] = None  # any import of it raises
import numpy as np
from chebgcn.graph import CsrMatrix, PopulationGraph, build_laplacian, rescale_laplacian
from chebgcn.io import read_edge_list, write_edge_list

def same(a, b):
    a, b = ([m] if isinstance(m, np.ndarray) else m[:3] for m in (a, b))
    return len(a) == len(b) and all(x.dtype == y.dtype and x.shape == y.shape
                                    and x.tobytes() == y.tobytes() for x, y in zip(a, b))

rng = np.random.default_rng(0)
for storage, p in (("csr", 0.05), ("dense", 0.6)):
    n = 60
    upper = np.triu(rng.random((n, n)) < p, 1) * rng.uniform(0.5, 2.0, (n, n))
    upper[:2] = upper[:, :2] = 0.0  # two isolated nodes
    g = PopulationGraph(upper + upper.T, rng.standard_normal((n, 2)), np.arange(n) % 2,
                        np.ones(n, dtype=bool))
    kind = CsrMatrix if storage == "csr" else np.ndarray
    lap = build_laplacian(g)
    again = PopulationGraph(g.adjacency, g.features, g.labels, g.train_mask)
    checks = [isinstance(m, kind) for m in (g.adjacency, lap.matrix, rescale_laplacian(lap).matrix)]
    checks += [same(again.edges, g.edges), same(build_laplacian(g.adjacency).matrix, lap.matrix)]
    write_edge_list(f"{storage}.txt", *g.edges)
    back = read_edge_list(f"{storage}.txt", n)
    checks.append(isinstance(back, CsrMatrix) and np.array_equal(back.toarray(), upper + upper.T))
    print(storage, *checks)
"""


def test_public_builders_need_no_scipy_sparse(tmp_path):
    # build_laplacian, rescale_laplacian, graph.adjacency and read_edge_list
    # give the package's own CSR type, and a graph's adjacency goes back into
    # PopulationGraph and build_laplacian bit for bit, in both storages, with
    # scipy.sparse made unimportable.
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SPARSE_PROBE], cwd=tmp_path,
                          env=package_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "csr" + " True" * 6, "dense" + " True" * 6]


class TestCsrKernel:
    """The training Laplacian's products on a sparse graph: SciPy's kernels."""

    def test_kernels_load_by_file_path_without_scipy_sparse(self):
        # Were the file to move in a SciPy release, the loader would import
        # scipy.sparse instead; this fails then, rather than letting every
        # CSR run pay that import unseen.
        done = subprocess.run([sys.executable, "-c", KERNEL_PROBE], env=package_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["chebgcn._sparsetools", "False"]

    def test_products_are_scipys_bit_for_bit_either_way_loaded(self, monkeypatch):
        g, _ = isolated_graph(np.random.default_rng(9), 200, p=0.08)
        m = _chebyshev_laplacian(g).matrix
        x = np.random.default_rng(1).standard_normal((200, 16))
        signals = (x, np.asfortranarray(x[:, :5]), x[:, :1], x[:, 0])
        want = [(scipy_of(m) @ s).tobytes() for s in signals]
        assert [(m @ s).tobytes() for s in signals] == want
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        _sparsetools.cache_clear()
        try:
            assert _sparsetools() is sp._sparsetools
            assert [(m @ s).tobytes() for s in signals] == want
        finally:
            _sparsetools.cache_clear()
        with pytest.raises(ValueError, match="cannot multiply"):
            m @ x[:199]


class TestChebyshevBasis:
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("n, d", [(30, 1), (30, 3), (200, 16)])
    def test_basis_is_the_stacked_terms_bit_for_bit(self, storage, n, d):
        rng = np.random.default_rng(n + d)
        g, _ = isolated_graph(rng, n, p=0.5 if storage == "dense" else 0.05)
        lap = _chebyshev_laplacian(g)
        assert isinstance(lap.matrix, np.ndarray) == (storage == "dense")
        x = rng.standard_normal((n, d))
        for order in range(11):
            want = np.hstack(chebyshev_apply(lap, x, order))
            got = _chebyshev_basis(lap, x, order)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

