import csv
import io
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

import chebgcn.io
import chebgcn.workers
from chebgcn.graph import PopulationGraph
from chebgcn.io import (
    FileFormatError,
    load_graph,
    read_edge_list,
    read_features_csv,
    read_meta_csv,
    save_graph,
    write_edge_list,
    write_features_csv,
)

from conftest import random_adjacency


def tiny_graph(n=6, seed=0, p=0.5):
    rng = np.random.default_rng(seed)
    adjacency = random_adjacency(rng, n, p=p)
    # irrational-ish weights exercise the repr round trip
    adjacency *= 1.0 + rng.random((1,))[0]
    adjacency = (adjacency + adjacency.T) / 2
    labels = rng.integers(0, 2, size=n)
    train = rng.random(n) < 0.5
    return PopulationGraph(
        adjacency=adjacency,
        features=rng.standard_normal((n, 3)),
        labels=labels,
        train_mask=train,
    )


def edges_of(adjacency):
    """The edge columns of a graph on ``adjacency``."""
    n = adjacency.shape[0]
    return PopulationGraph(adjacency=adjacency, features=np.zeros((n, 1)),
                           labels=np.zeros(n, dtype=np.int64),
                           train_mask=np.ones(n, dtype=bool)).edges


def write_text(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestEdgeList:
    def test_round_trip_is_bitwise(self, tmp_path):
        g = tiny_graph()
        assert not sp.issparse(g.adjacency)
        path = tmp_path / "edges.txt"
        write_edge_list(path, *g.edges)
        back = read_edge_list(path, n_nodes=g.n_nodes)
        npt.assert_array_equal(back.toarray(), np.asarray(g.adjacency))

    def test_round_trip_from_sparse(self, tmp_path):
        g = tiny_graph(n=12, seed=3, p=0.15)
        assert sp.issparse(g.adjacency)
        path = tmp_path / "edges.txt"
        write_edge_list(path, *g.edges)
        back = read_edge_list(path, n_nodes=12)
        npt.assert_array_equal(back.toarray(), g.adjacency.toarray())

    def test_file_holds_sorted_upper_triangle(self, tmp_path):
        adj = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.5], [0.0, 1.5, 0.0]])
        path = tmp_path / "edges.txt"
        write_edge_list(path, *edges_of(adj))
        assert path.read_text() == "0 1 2.0\n1 2 1.5\n"

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# header\n\n0 1 1.0\n\n# tail\n")
        back = read_edge_list(path, n_nodes=2)
        npt.assert_array_equal(back.toarray(), [[0.0, 1.0], [1.0, 0.0]])

    def test_bad_field_count_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        with pytest.raises(FileFormatError, match="expected 'i j w'"):
            read_edge_list(path, n_nodes=2)

    def test_unparsable_weight_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 heavy\n")
        with pytest.raises(FileFormatError):
            read_edge_list(path, n_nodes=2)

    def test_out_of_range_index_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 5 1.0\n")
        with pytest.raises(FileFormatError, match="out of range"):
            read_edge_list(path, n_nodes=3)

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("1 1 1.0\n")
        with pytest.raises(FileFormatError, match="self-loop"):
            read_edge_list(path, n_nodes=3)

    def test_indented_comment_and_whitespace_only_lines_skipped(self, tmp_path):
        path = write_text(tmp_path, "   # indented\n \t \n1\t2   0.5\n")
        npt.assert_array_equal(read_edge_list(path, n_nodes=3).toarray()[1], [0.0, 0.0, 0.5])

    def test_inline_comment_accepted(self, tmp_path):
        path = write_text(tmp_path, "0 1 2.0  # strong tie\n")
        npt.assert_array_equal(read_edge_list(path, n_nodes=2).toarray(), [[0.0, 2.0], [2.0, 0.0]])

    def test_returns_canonical_csr(self, tmp_path):
        path = write_text(tmp_path, "3 1 1.5\n0 2 2.0\n1 0 0.25\n2 3 4.0\n")
        back = read_edge_list(path, n_nodes=4)
        assert isinstance(back, sp.csr_array)
        assert back.has_canonical_format
        assert back.nnz == 8 and np.all(back.data != 0.0)
        # the same buffers as CSR storage of the equivalent dense array
        expected = sp.csr_array(back.toarray())
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(back, attr), getattr(expected, attr)
            assert got.dtype == want.dtype
            npt.assert_array_equal(got, want)

    def test_repeated_pair_last_line_wins(self, tmp_path):
        path = write_text(tmp_path, "0 1 1.0\n1 2 2.0\n0 1 3.0\n")
        back = read_edge_list(path, n_nodes=3).toarray()
        assert back[0, 1] == back[1, 0] == 3.0
        assert back[1, 2] == back[2, 1] == 2.0

    def test_reversed_pair_last_line_wins(self, tmp_path):
        path = write_text(tmp_path, "0 1 1.0\n1 0 4.0\n2 1 5.0\n1 2 6.0\n")
        back = read_edge_list(path, n_nodes=3).toarray()
        assert back[0, 1] == back[1, 0] == 4.0
        assert back[1, 2] == back[2, 1] == 6.0

    def test_zero_weight_line_gives_no_edge(self, tmp_path):
        path = write_text(tmp_path, "0 1 0.0\n1 2 1.0\n1 2 0.0\n0 2 -0.0\n")
        back = read_edge_list(path, n_nodes=3)
        assert back.nnz == 0
        npt.assert_array_equal(back.toarray(), np.zeros((3, 3)))

    def test_zero_weight_lines_do_not_change_storage_choice(self, tmp_path):
        # one real edge among 10 nodes (2% dense) plus a zero line for every other pair
        g = PopulationGraph(
            adjacency=np.zeros((10, 10)), features=np.zeros((10, 1)),
            labels=np.zeros(10, dtype=np.int64),
            train_mask=np.ones(10, dtype=bool),
        )
        write_features_csv(tmp_path / "nodes.csv", g)
        lines = ["0 1 1.0"] + [f"{i} {j} 0.0" for i in range(10) for j in range(i + 1, 10) if j > 1]
        write_text(tmp_path, "\n".join(lines) + "\n")
        back = load_graph(tmp_path / "nodes.csv", tmp_path / "edges.txt")
        assert sp.issparse(back.adjacency)
        assert back.adjacency.nnz == 2

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_file_without_edges_gives_empty_graph(self, tmp_path, text):
        back = read_edge_list(write_text(tmp_path, text), n_nodes=3)
        assert back.shape == (3, 3)
        assert back.nnz == 0

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("0 1", "expected 'i j w', got '0 1'"),
            ("0 1 2.0 3", "expected 'i j w', got '0 1 2.0 3'"),
            ("0 1 heavy", "could not convert string to float: 'heavy'"),
            ("1.0 2 1.0", "invalid literal for int() with base 10: '1.0'"),
            ("0 5 1.0", "node index out of range for 3 nodes"),
            ("-1 2 1.0", "node index out of range for 3 nodes"),
            (f"{2**70} 1 1.0", "node index out of range for 3 nodes"),
            ("1 1 1.0", "self-loops are not allowed"),
            ("0 1 nan", "edge weight must be finite, got nan"),
            ("0 1 -inf", "edge weight must be finite, got -inf"),
            ("0 1 1e400", "edge weight must be finite, got inf"),
            ("0 1 -0.5", "edge weight must be nonnegative, got -0.5"),
            ("0 1_0 1.0", "not a plain int literal: '1_0'"),
        ],
    )
    def test_errors_name_path_and_line(self, tmp_path, bad_line, message):
        path = write_text(tmp_path, f"# comment\n0 2 1.0\n\n{bad_line}\n1 2 1.0\n")
        with pytest.raises(FileFormatError) as info:
            read_edge_list(path, n_nodes=3)
        assert str(info.value) == f"{path}:4: {message}"

    def test_error_names_the_first_bad_line(self, tmp_path):
        path = write_text(tmp_path, "0 1 1.0\n0 7 1.0\n0 1 heavy\n2 2 1.0\n")
        with pytest.raises(FileFormatError, match=r"edges\.txt:2: node index out of range"):
            read_edge_list(path, n_nodes=3)

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "parse"])
    def test_sparse_graph_loads_in_o_nnz_memory(self, tmp_path, sidecar):
        # 20,000 nodes: a dense (N, N) float64 array would take 3.2 GB
        n = 20_000
        rng = np.random.default_rng(0)
        ring = np.arange(n)
        chords = rng.integers(0, n, size=(2, 3 * n))
        chords = chords[:, chords[0] != chords[1]]
        rows = np.concatenate([ring, chords[0]])
        cols = np.concatenate([(ring + 1) % n, chords[1]])
        upper = sp.coo_array((rng.uniform(0.5, 2.0, rows.size), (rows, cols)), shape=(n, n))
        upper = sp.csr_array(upper.maximum(upper.T))
        train = rng.random(n) < 0.5
        g = PopulationGraph(
            adjacency=upper, features=rng.standard_normal((n, 2)),
            labels=rng.integers(0, 2, n), train_mask=train,
        )
        save_graph(g, tmp_path / "nodes.csv", tmp_path / "edges.txt")
        if not sidecar:
            (tmp_path / "edges.txt.cache").unlink()
        tracemalloc.start()
        try:
            back = load_graph(tmp_path / "nodes.csv", tmp_path / "edges.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(back.adjacency, sp.csr_array)
        assert back.adjacency.nnz == g.adjacency.nnz
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestWritersByteIdentity:
    """Both writers' exact bytes, for floats whose ``repr`` is easy to get wrong."""

    AWKWARD = [5e-324, 1e-05, 1e16, 0.1 + 0.2]

    def awkward_graph(self):
        n = 1002
        rows = np.array([0, 2, 999, 1000])
        cols = np.array([1, 1000, 1001, 1001])
        upper = sp.coo_array((self.AWKWARD, (rows, cols)), shape=(n, n)).toarray()
        feats = np.zeros((n, 2))
        feats[0] = [-0.0, 5e-324]
        feats[1] = [0.1 + 0.2, 1e-05]
        feats[1001] = [1e16, -1.5]
        train = np.arange(n) % 2 == 0
        return PopulationGraph(
            adjacency=upper + upper.T, features=feats, labels=np.arange(n) % 3,
            train_mask=train,
        )

    @pytest.mark.parametrize("storage", ["dense", "sparse", "sparse-unsorted"])
    def test_edge_list_bytes(self, tmp_path, storage):
        adjacency = self.awkward_graph().adjacency
        assert sp.issparse(adjacency)
        if storage == "dense":
            adjacency = adjacency.toarray()
        elif storage == "sparse-unsorted":
            # every row's column indices reversed
            rows = np.repeat(np.arange(adjacency.shape[0]), np.diff(adjacency.indptr))
            order = np.lexsort((-adjacency.indices, rows))
            adjacency = sp.csr_array(
                (adjacency.data[order], adjacency.indices[order], adjacency.indptr),
                shape=adjacency.shape,
            )
            assert not adjacency.has_sorted_indices
        write_edge_list(tmp_path / "edges.txt", *edges_of(adjacency))
        assert (tmp_path / "edges.txt").read_bytes() == (
            b"0 1 5e-324\n"
            b"2 1000 1e-05\n"
            b"999 1001 1e+16\n"
            b"1000 1001 0.30000000000000004\n"
        )

    def test_features_bytes(self, tmp_path):
        write_features_csv(tmp_path / "nodes.csv", self.awkward_graph())
        lines = (tmp_path / "nodes.csv").read_bytes().split(b"\r\n")
        assert lines[:4] == [
            b"node,f0,f1,label,split",
            b"0,-0.0,5e-324,0,train",
            b"1,0.30000000000000004,1e-05,1,test",
            b"2,0.0,0.0,2,train",
        ]
        assert lines[-3:] == [b"1000,0.0,0.0,1,train", b"1001,1e+16,-1.5,2,test", b""]

    def test_edge_list_matches_line_by_line_format_across_chunks(self, tmp_path):
        adj = multi_chunk_adjacency()
        write_edge_list(tmp_path / "edges.txt", *edges_of(adj))
        assert (tmp_path / "edges.txt").read_text() == edge_lines_one_by_one(adj)

    def test_features_match_csv_module_across_chunks(self, tmp_path):
        g = multi_chunk_graph(n=500, d=120)
        write_features_csv(tmp_path / "nodes.csv", g)
        assert (tmp_path / "nodes.csv").read_bytes() == features_by_csv_module(g)


def multi_chunk_adjacency(n=3000):
    """A symmetric CSR adjacency whose edge list spans several chunks."""
    rng = np.random.default_rng(1)
    rows, cols = rng.integers(0, n, size=(2, round(0.004 * n * n)))
    upper = sp.coo_array((rng.uniform(0.5, 2.0, rows.size), (rows, cols)), shape=(n, n))
    adj = sp.triu(upper, k=1).tocsr()
    adj = adj + adj.T
    assert adj.nnz // 2 > 8192
    return adj


def multi_chunk_graph(n, d, adjacency=None):
    """A graph whose features CSV spans several chunks."""
    rng = np.random.default_rng(2)
    train = rng.random(n) < 0.5
    return PopulationGraph(
        adjacency=np.zeros((n, n)) if adjacency is None else adjacency,
        features=rng.standard_normal((n, d)) ** 3,
        labels=rng.integers(0, 4, n), train_mask=train,
    )


def edge_lines_one_by_one(adj) -> str:
    coo = sp.triu(adj, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    return "".join(
        f"{i} {j} {float(w)!r}\n"
        for i, j, w in zip(coo.row[order], coo.col[order], coo.data[order])
    )


def features_by_csv_module(g) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["node"] + [f"f{i}" for i in range(g.n_features)] + ["label", "split"])
    for i in range(g.n_nodes):
        split = "train" if g.train_mask[i] else "test"
        writer.writerow([i] + [repr(float(v)) for v in g.features[i]] + [int(g.labels[i]), split])
    return buf.getvalue().encode()


class CountingPool:
    """Stands in for ProcessPoolExecutor: runs each task in this process when
    its result is read, and records the most tasks submitted and not yet read."""

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.outstanding = self.peak = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        self.outstanding += 1
        self.peak = max(self.peak, self.outstanding)
        pool = self

        class Pending:
            def result(self):
                pool.outstanding -= 1
                return fn(task)

            def cancel(self):
                return True

        return Pending()


def failing_edge_lines(chunk):
    if chunk[0][0] > 0:
        raise RuntimeError("formatting failed in a worker")
    return "0 1 1.0\n"


class TestSaveGraphWorkers:
    """``save_graph`` formats large graphs in worker processes, with the
    serial bytes, a bounded number of chunks in flight, and no pool where
    one costs more than it saves or the graph cannot be written."""

    @pytest.fixture
    def big(self):
        # 3000 x 20 feature cells (3 chunks) and about 18,000 edges (3 chunks)
        return multi_chunk_graph(n=3000, d=20, adjacency=multi_chunk_adjacency())

    def test_two_workers_write_the_serial_bytes(self, tmp_path, monkeypatch, big):
        started = []
        pool_class = chebgcn.workers.ProcessPoolExecutor
        monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", 0)
        monkeypatch.setattr("chebgcn.workers.ProcessPoolExecutor",
                            lambda **kw: started.append(kw["max_workers"]) or pool_class(**kw))
        save_graph(big, tmp_path / "nodes.csv", tmp_path / "edges.txt", threads=2)
        assert started == [2]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "edges.txt", "edges.txt.cache", "nodes.csv"]
        # the files get the permissions open() gives a new file
        (tmp_path / "plain").touch()
        for name in ("nodes.csv", "edges.txt.cache"):
            assert (tmp_path / name).stat().st_mode == (tmp_path / "plain").stat().st_mode
        assert (tmp_path / "nodes.csv").read_bytes() == features_by_csv_module(big)
        assert (tmp_path / "edges.txt").read_text() == edge_lines_one_by_one(big.adjacency)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_pooled_write_holds_two_chunks_per_worker(self, tmp_path, monkeypatch, big, threads):
        pools = []
        monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", 0)
        monkeypatch.setattr("chebgcn.io._CHUNK_FIELDS", 3 * 500)
        monkeypatch.setattr("chebgcn.workers.ProcessPoolExecutor",
                            lambda **kw: pools.append(CountingPool(**kw)) or pools[-1])
        save_graph(big, tmp_path / "nodes.csv", tmp_path / "edges.txt", threads=threads)
        assert [p.max_workers for p in pools] == [threads]
        assert pools[0].peak == 2 * threads
        assert (tmp_path / "nodes.csv").read_bytes() == features_by_csv_module(big)
        assert (tmp_path / "edges.txt").read_text() == edge_lines_one_by_one(big.adjacency)

    def test_no_pool_at_one_thread(self, tmp_path, monkeypatch, no_pool, big):
        monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", 0)
        save_graph(big, tmp_path / "nodes.csv", tmp_path / "edges.txt", threads=1)
        assert (tmp_path / "edges.txt").read_text() == edge_lines_one_by_one(big.adjacency)

    def test_no_pool_below_the_size_rule(self, tmp_path, monkeypatch, no_pool, big):
        fields = big.n_nodes * (big.n_features + 3) + 3 * big.n_edges
        monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", fields + 1)
        save_graph(big, tmp_path / "nodes.csv", tmp_path / "edges.txt", threads=2)
        assert (tmp_path / "nodes.csv").read_bytes() == features_by_csv_module(big)

    def test_a_worker_error_reaches_the_caller(self, tmp_path, monkeypatch, big):
        monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", 0)
        monkeypatch.setattr("chebgcn.io._edge_lines", failing_edge_lines)
        with pytest.raises(RuntimeError, match="formatting failed in a worker"):
            save_graph(big, tmp_path / "nodes.csv", tmp_path / "edges.txt", threads=2)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("earlier", [False, True], ids=["empty-dir", "earlier-graph"])
    def test_a_failed_write_leaves_the_directory_as_it_was(self, tmp_path, monkeypatch, big,
                                                            threads, earlier):
        # the second edge chunk fails after features.csv and one edge chunk are written
        if earlier:
            save_graph(tiny_graph(), tmp_path / "nodes.csv", tmp_path / "edges.txt")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == (["edges.txt", "edges.txt.cache", "nodes.csv"] if earlier else [])
        monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", 0)
        monkeypatch.setattr("chebgcn.io._edge_lines", failing_edge_lines)
        with pytest.raises(RuntimeError, match="formatting failed"):
            save_graph(big, tmp_path / "nodes.csv", tmp_path / "edges.txt", threads=threads)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestFeaturesCsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        g = tiny_graph(seed=5)
        path = tmp_path / "nodes.csv"
        write_features_csv(path, g)
        feats, labels, train = read_features_csv(path)
        npt.assert_array_equal(feats, g.features)
        npt.assert_array_equal(labels, g.labels)
        npt.assert_array_equal(train, g.train_mask)

    def test_header_line(self, tmp_path):
        g = tiny_graph(seed=6)
        path = tmp_path / "nodes.csv"
        write_features_csv(path, g)
        assert path.read_text().splitlines()[0] == "node,f0,f1,f2,label,split"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("id,f0,label,split\n0,1.0,0,train\n")
        with pytest.raises(FileFormatError, match="header"):
            read_features_csv(path)

    def test_duplicate_node_rejected(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("node,f0,label,split\n0,1.0,0,train\n0,2.0,1,test\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            read_features_csv(path)

    def test_gap_in_node_ids_rejected(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("node,f0,label,split\n0,1.0,0,train\n2,2.0,1,test\n")
        with pytest.raises(FileFormatError, match="node ids"):
            read_features_csv(path)

    def test_unknown_split_rejected(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("node,f0,label,split\n0,1.0,0,validation\n")
        with pytest.raises(FileFormatError, match="split"):
            read_features_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("")
        with pytest.raises(FileFormatError, match="empty"):
            read_features_csv(path)

    def test_header_only_gives_no_nodes(self, tmp_path):
        path = write_text(tmp_path, "node,f0,f1,label,split\r\n", "nodes.csv")
        feats, labels, train = read_features_csv(path)
        assert feats.shape == (0, 2)
        assert labels.shape == train.shape == (0,)

    def test_rows_in_any_order_and_split_tags_normalized(self, tmp_path):
        path = write_text(
            tmp_path,
            "node,f0,label,split\n2,3.0,1, Test\n\n0,1.0,0,TRAIN\n1,2.0,1,\"train\"\n",
            "nodes.csv",
        )
        feats, labels, train = read_features_csv(path)
        npt.assert_array_equal(feats, [[1.0], [2.0], [3.0]])
        npt.assert_array_equal(labels, [0, 1, 1])
        npt.assert_array_equal(train, [True, True, False])

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("1,2.0,1", "expected 5 fields"),
            ("1,2.0,x,1,test", "could not convert string to float: 'x'"),
            ("1,2.0,3.0,1.5,test", "invalid literal for int() with base 10: '1.5'"),
            ("1,2.0,3.0,1,valid", "split must be train or test"),
            ("0,2.0,3.0,1,test", "duplicate node 0"),
            ("1,2.0,nan,1,test", "feature f1 must be finite, got nan"),
            ("1,-inf,3.0,1,test", "feature f0 must be finite, got -inf"),
            ("9223372036854775808,2.0,3.0,1,test", "node id and label must fit in int64"),
        ],
    )
    def test_errors_name_path_and_line(self, tmp_path, bad_row, message):
        path = write_text(
            tmp_path, f"node,f0,f1,label,split\n0,1.0,1.0,0,train\n\n{bad_row}\n2,1.0,x\n",
            "nodes.csv",
        )
        with pytest.raises(FileFormatError) as info:
            read_features_csv(path)
        assert str(info.value) == f"{path}:4: {message}"


class TestGraphRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        g = tiny_graph(n=10, seed=9)
        save_graph(g, tmp_path / "nodes.csv", tmp_path / "edges.txt")
        back = load_graph(tmp_path / "nodes.csv", tmp_path / "edges.txt")
        assert not sp.issparse(back.adjacency)
        npt.assert_array_equal(back.adjacency, g.adjacency)
        npt.assert_array_equal(back.features, g.features)
        npt.assert_array_equal(back.labels, g.labels)
        npt.assert_array_equal(back.train_mask, g.train_mask)
        npt.assert_array_equal(back.test_mask, g.test_mask)


def parsed_graph(features_path, edges_path):
    """The graph the two text files give, without the sidecar."""
    features, labels, train = read_features_csv(features_path)
    adjacency = read_edge_list(edges_path, n_nodes=features.shape[0])
    return PopulationGraph(adjacency=adjacency, features=features, labels=labels, train_mask=train)


def assert_same_graph(a, b):
    assert sp.issparse(a.adjacency) == sp.issparse(b.adjacency)
    if sp.issparse(a.adjacency):
        for field in ("data", "indices", "indptr"):
            npt.assert_array_equal(getattr(a.adjacency, field), getattr(b.adjacency, field))
    else:
        npt.assert_array_equal(a.adjacency, b.adjacency)
    for field in ("features", "labels", "train_mask", "test_mask"):
        assert getattr(a, field).dtype == getattr(b, field).dtype
        npt.assert_array_equal(getattr(a, field), getattr(b, field))
    for column_a, column_b in zip(a.edges, b.edges):
        assert column_a.dtype == column_b.dtype
        npt.assert_array_equal(column_a, column_b)


def change_one_byte(path, lineno):
    """Raise the first fractional digit on line ``lineno`` by one, mod 10."""
    lines = path.read_bytes().split(b"\n")
    line = bytearray(lines[lineno - 1])
    k = line.index(b".") + 1
    line[k] = ord("0") + (line[k] - ord("0") + 1) % 10
    lines[lineno - 1] = bytes(line)
    path.write_bytes(b"\n".join(lines))


def directory_state(path):
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in path.iterdir()}


class TestSidecar:
    """``save_graph``'s binary sidecar: ``load_graph`` uses it only when it
    matches both text files and itself, and then gives the graph the text gives."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Counts the text parses ``load_graph`` runs."""
        calls = []
        for name in ("read_features_csv", "_read_edge_columns"):
            real = getattr(chebgcn.io, name)
            monkeypatch.setattr(f"chebgcn.io.{name}",
                                lambda *a, _real=real, **kw: calls.append(_real) or _real(*a, **kw))
        return calls

    def save(self, directory, graph):
        directory.mkdir(exist_ok=True)
        save_graph(graph, directory / "nodes.csv", directory / "edges.txt")
        return directory / "nodes.csv", directory / "edges.txt"

    @pytest.mark.parametrize("make", [
        lambda: tiny_graph(n=10, seed=9),
        lambda: multi_chunk_graph(n=3000, d=4, adjacency=multi_chunk_adjacency()),
        # 2 edges on 4 nodes: 4 of 16 entries, dense at exactly the cutoff
        lambda: multi_chunk_graph(n=4, d=2, adjacency=np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2.5], [0, 0, 2.5, 0]])),
    ], ids=["dense", "csr", "at-the-cutoff"])
    def test_a_hit_gives_the_parsed_graph_without_parsing(self, tmp_path, spy, make):
        graph = make()
        paths = self.save(tmp_path, graph)
        hit = load_graph(*paths)
        assert spy == []
        # the storage is built from the sidecar's columns when first read
        assert "adjacency" not in vars(hit)
        assert_same_graph(hit, parsed_graph(*paths))
        assert_same_graph(hit, graph)

    @pytest.mark.parametrize("corrupt", [
        "features-byte", "edges-byte", "other-graph", "missing", "truncated", "header-only",
        "garbage", "pickle", "flipped-array-byte",
    ])
    def test_a_bad_sidecar_means_parse(self, tmp_path, spy, corrupt):
        saved = tiny_graph(n=12, seed=3, p=0.4)
        features, edges = self.save(tmp_path / "graph", saved)
        sidecar = tmp_path / "graph" / "edges.txt.cache"
        whole = sidecar.read_bytes()
        if corrupt == "features-byte":
            change_one_byte(features, 2)
        elif corrupt == "edges-byte":
            change_one_byte(edges, 1)
        elif corrupt == "other-graph":
            self.save(tmp_path / "other", tiny_graph(n=12, seed=4, p=0.4))
            sidecar.write_bytes((tmp_path / "other" / "edges.txt.cache").read_bytes())
        elif corrupt == "missing":
            sidecar.unlink()
        elif corrupt == "truncated":
            sidecar.write_bytes(whole[:len(whole) // 2])
        elif corrupt == "header-only":
            sidecar.write_bytes(whole[:64])
        elif corrupt == "garbage":
            sidecar.write_bytes(np.random.default_rng(0).bytes(len(whole)))
        elif corrupt == "pickle":
            with open(sidecar, "wb") as fh:
                np.save(fh, np.array([{"a": 1}], dtype=object), allow_pickle=True)
        else:
            # one byte of the last array (the edge weights) changed: the text digests still match
            sidecar.write_bytes(whole[:-1] + bytes([whole[-1] ^ 1]))
        before = directory_state(tmp_path / "graph")
        spy.clear()
        back = load_graph(features, edges)
        assert len(spy) == 2
        assert_same_graph(back, parsed_graph(features, edges))
        assert directory_state(tmp_path / "graph") == before
        if corrupt in ("features-byte", "edges-byte"):
            # the text changed, so the graph the stale sidecar holds is not the answer
            with pytest.raises(AssertionError):
                assert_same_graph(back, saved)

    @pytest.mark.parametrize("break_rule", ["unsorted", "repeated", "reversed", "zero-weight"])
    def test_non_canonical_columns_mean_parse(self, tmp_path, spy, break_rule):
        # a sidecar whose digests all match but whose edge columns break a rule
        features, edges = self.save(tmp_path, tiny_graph(n=12, seed=3, p=0.4))
        head, *arrays = self.records(edges)
        lo, hi, w = arrays[3:]
        if break_rule == "unsorted":
            lo, hi, w = lo[::-1], hi[::-1], w[::-1]
        elif break_rule == "repeated":
            lo, hi, w = np.repeat(lo, 2), np.repeat(hi, 2), np.repeat(w, 2)
        elif break_rule == "reversed":
            lo, hi = hi, lo
        else:
            w = np.concatenate([[0.0], w[1:]])
        chebgcn.io._write_sidecar(f"{edges}.cache", head[1:3], (*arrays[:3], lo, hi, w))
        back = load_graph(features, edges)
        assert len(spy) == 2
        assert_same_graph(back, parsed_graph(features, edges))

    @staticmethod
    def records(edges):
        """The head record and the arrays of the sidecar beside ``edges``."""
        with open(f"{edges}.cache", "rb") as fh:
            return [np.lib.format.read_array(fh) for _ in range(1 + chebgcn.io._SIDECAR_ARRAYS)]

    def test_a_bad_text_file_still_names_its_line(self, tmp_path):
        features, edges = self.save(tmp_path, tiny_graph(n=12, seed=3, p=0.4))
        lines = edges.read_text().splitlines(keepends=True)
        lines[1] = "0 1 -0.5\n"
        edges.write_text("".join(lines))
        with pytest.raises(FileFormatError) as info:
            load_graph(features, edges)
        assert str(info.value) == f"{edges}:2: edge weight must be nonnegative, got -0.5"

    def test_a_hit_leaves_the_directory_as_it_was(self, tmp_path, spy):
        features, edges = self.save(tmp_path, tiny_graph())
        before = directory_state(tmp_path)
        load_graph(features, edges)
        assert spy == []
        assert directory_state(tmp_path) == before

    def test_a_sidecar_matches_only_its_own_features_file(self, tmp_path, spy):
        # the same edges beside another features file: the sidecar does not match it
        g = tiny_graph(n=12, seed=3, p=0.4)
        features, edges = self.save(tmp_path, g)
        other = PopulationGraph(adjacency=g.adjacency, features=g.features + 1.0,
                                labels=g.labels, train_mask=g.train_mask)
        write_features_csv(tmp_path / "other.csv", other)
        assert_same_graph(load_graph(tmp_path / "other.csv", edges), other)
        assert len(spy) == 2

    @pytest.mark.parametrize("threads, storage", [
        pytest.param(1, "csr", id="1"), pytest.param(2, "csr", id="2"),
        pytest.param(1, "dense", id="dense-storage"),
    ])
    def test_the_sidecar_bytes_do_not_depend_on_threads_or_runs(self, tmp_path, monkeypatch,
                                                                threads, storage):
        monkeypatch.setattr("chebgcn.io.POOL_MIN_FIELDS", 0)
        g = multi_chunk_graph(n=3000, d=4, adjacency=multi_chunk_adjacency())
        save_graph(g, tmp_path / "a.csv", tmp_path / "a.txt", threads=1)
        if storage == "dense":
            # the same graph with its adjacency stored dense: the writer is storage-blind
            monkeypatch.setattr("chebgcn.graph.SPARSE_DENSITY_CUTOFF", 0.0)
            g = PopulationGraph(adjacency=g.adjacency, features=g.features, labels=g.labels,
                                train_mask=g.train_mask)
            assert isinstance(g.adjacency, np.ndarray)
        save_graph(g, tmp_path / "b.csv", tmp_path / "b.txt", threads=threads)
        for name in ("txt", "txt.cache"):
            assert (tmp_path / f"a.{name}").read_bytes() == (tmp_path / f"b.{name}").read_bytes()


class TestMetaCsv:
    def test_numeric_column(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("node,age\n0,61.5\n1,58.0\n2,70.25\n")
        values, missing = read_meta_csv(path)["age"]
        npt.assert_array_equal(values, [61.5, 58.0, 70.25])
        assert not missing.any()

    def test_missing_tokens(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("node,age\n0,\n1,NA\n2,nan\n3,None\n4,33.0\n")
        values, missing = read_meta_csv(path)["age"]
        npt.assert_array_equal(missing, [True, True, True, True, False])
        npt.assert_array_equal(values, [0.0, 0.0, 0.0, 0.0, 33.0])

    def test_categorical_column_coded_sorted(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("node,site\n0,paris\n1,berlin\n2,paris\n3,aachen\n")
        values, missing = read_meta_csv(path)["site"]
        # sorted distinct: aachen=0, berlin=1, paris=2
        npt.assert_array_equal(values, [2.0, 1.0, 2.0, 0.0])
        assert not missing.any()

    def test_categorical_with_missing(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("node,sex\n0,F\n1,\n2,M\n")
        values, missing = read_meta_csv(path)["sex"]
        npt.assert_array_equal(values, [0.0, 0.0, 1.0])
        npt.assert_array_equal(missing, [False, True, False])

    def test_multiple_columns(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("node,age,sex\n0,60,M\n1,55,F\n")
        out = read_meta_csv(path)
        assert set(out) == {"age", "sex"}
        npt.assert_array_equal(out["age"][0], [60.0, 55.0])
        npt.assert_array_equal(out["sex"][0], [1.0, 0.0])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("node,age\n0,61\n\n1,58\n\n")
        values, missing = read_meta_csv(path)["age"]
        npt.assert_array_equal(values, [61.0, 58.0])
        assert not missing.any()

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("node,x\n2,3.0\n0,1.0\n1,2.0\n")
        values, _ = read_meta_csv(path)["x"]
        npt.assert_array_equal(values, [1.0, 2.0, 3.0])

    def test_duplicate_column_rejected(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("node,age,age\n0,1,2\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            read_meta_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("id,age\n0,1\n")
        with pytest.raises(FileFormatError, match="header"):
            read_meta_csv(path)

    def test_missing_node_id_rejected(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("node,age\n0,1\n3,2\n")
        with pytest.raises(FileFormatError, match="node ids"):
            read_meta_csv(path)

    @pytest.mark.parametrize("text, shown", [("inf", "inf"), ("-inf", "-inf"), ("1e400", "inf")])
    def test_non_finite_numeric_value_rejected_naming_line_and_column(self, tmp_path, text, shown):
        # rows out of node order: the first bad line in the file is named
        path = write_text(tmp_path, f"node,sex,age\n2,M,{text}\n0,F,61\n1,M,-inf\n", "meta.csv")
        with pytest.raises(FileFormatError) as info:
            read_meta_csv(path)
        assert str(info.value) == f"{path}:2: column 'age' must be finite, got {shown}"

    @pytest.mark.parametrize("text", ["1_000", "\u0663", "\uff11"])
    def test_numeric_cell_must_be_a_plain_number(self, tmp_path, text):
        # float() reads each of these, as 1000.0, 3.0 and 1.0
        path = write_text(tmp_path, f"node,age\n1,61\n0,{text}\n", "meta.csv")
        with pytest.raises(FileFormatError) as info:
            read_meta_csv(path)
        assert str(info.value) == f"{path}:3: column 'age' must be a plain number, got {text!r}"

    @pytest.mark.parametrize("text", ["1_0", "\u0661"])
    def test_node_id_must_be_a_plain_int(self, tmp_path, text):
        path = write_text(tmp_path, f"node,age\n0,61\n{text},60\n", "meta.csv")
        with pytest.raises(FileFormatError) as info:
            read_meta_csv(path)
        assert str(info.value) == f"{path}:3: column 'node' must be a plain int, got {text!r}"

    def test_inf_in_categorical_column_is_a_category(self, tmp_path):
        path = write_text(tmp_path, "node,site\n0,inf\n1,paris\n", "meta.csv")
        npt.assert_array_equal(read_meta_csv(path)["site"][0], [0.0, 1.0])


@pytest.mark.parametrize("text, fragment", [
    ("", ": empty file"),
    ("node,age\n0,61\n1,58,extra\n", ":3: expected 2 fields"),
    ("node,age\n0,61\n0,58\n", ":3: duplicate node 0"),
])
def test_meta_csv_input_checks_name_the_line(tmp_path, text, fragment):
    path = write_text(tmp_path, text, "meta.csv")
    with pytest.raises(FileFormatError) as info:
        read_meta_csv(path)
    assert str(info.value) == f"{path}{fragment}"
