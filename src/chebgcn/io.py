"""File formats: whitespace edge lists, node feature CSVs, and meta-data CSVs.

Floats are written with ``repr`` so that a write/read round trip reproduces
the exact same float64 values. Writers format ``_CHUNK_FIELDS`` fields at a
time and write each slice with one call, so the Python strings they hold
stay bounded however large the file. ``save_graph``, which ``simdata`` and
``build-graph`` call with their ``--threads``, formats those slices in
worker processes (``workers.worker_map``) once a graph holds
``POOL_MIN_FIELDS`` fields, below which a pool costs more than it saves.
Each worker holds at most two slices in flight, and the slices are written
in file order by one formatter per file, so the bytes do not depend on the
worker count. Under spawn or forkserver each worker re-imports NumPy and
SciPy first, about 0.5 s on a 2-vCPU VM.

Readers parse whole columns with ``np.loadtxt`` and check them with array
tests. Only when a file is rejected are its lines walked again, to name the
first bad line as ``path:lineno``. Numbers must be plain ASCII literals
(no ``_`` digit separators), integers must fit in int64, and every float must
be finite.

Edge lists (``read_edge_list``) hold one ``i j w`` line per edge:

- ``#`` starts a comment that runs to the end of its line; blank lines are
  skipped.
- ``i`` and ``j`` are distinct node ids in ``[0, n_nodes)``; ``w`` is the
  weight, which must be nonnegative. ``i j`` and ``j i`` name the same
  undirected edge.
- When an edge is listed more than once, its last line wins, and a weight of
  0 removes it.
- The result is a canonical CSR array (sorted indices, no duplicates, no
  explicit zeros): memory grows with the number of edges, not with
  ``n_nodes ** 2``.
"""

import contextlib
import csv
import math
import os
import warnings

import numpy as np
import scipy.sparse as sp

from .graph import PopulationGraph
from .workers import worker_count, worker_map

MISSING_TOKENS = {"", "na", "nan", "none"}

# Fields formatted per write call: 8192 edge-list lines.
_CHUNK_FIELDS = 3 * 8192

# Fields (3 per edge plus the feature CSV's cells) from which save_graph
# formats in worker processes. On a 2-vCPU VM (Python 3.11, forked workers)
# 2 workers took 4.6x the serial time at 21k fields, 1.3x at 200-300k and
# 0.98x at 395k on random 2,000-node graphs with 2 features, and 0.86x at
# 587k; on a 1,000-node, 55%-dense graph with 200 features (1.03M fields)
# they took 0.62x (527 against 844 ms).
POOL_MIN_FIELDS = 2**19

_EDGE_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
_INT64 = np.iinfo(np.int64)


class FileFormatError(ValueError):
    """An input file does not match the expected format."""


def _number(text: str, kind):
    """``kind(text)`` for ``int`` or ``float``, limited to the literals ``np.loadtxt`` parses."""
    value = kind(text)
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain {kind.__name__} literal: {text.strip()!r}")
    return value


def _loadtxt(source, dtype, **kwargs) -> np.ndarray:
    """Parse ``source`` into a 1-D structured array; no data rows give an empty one."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, dtype=dtype, ndmin=1, **kwargs)


def _edge_lines(chunk) -> str:
    """The ``i j w`` lines of one (rows, cols, weights) chunk."""
    rows, cols, vals = chunk
    lines = zip(rows.tolist(), cols.tolist(), vals.tolist())
    return "".join([f"{i} {j} {w!r}\n" for i, j, w in lines])


def write_edge_list(path, adjacency, map_chunks=map) -> None:
    """Write the upper triangle of a symmetric adjacency as ``i j w`` lines,
    sorted by ``i`` and then ``j``; ``map_chunks`` formats the chunks."""
    upper = sp.triu(adjacency, k=1, format="csr").astype(np.float64, copy=False)
    upper.sum_duplicates()
    rows = np.repeat(np.arange(upper.shape[0]), np.diff(upper.indptr))
    cols, vals = upper.indices, upper.data
    step = _CHUNK_FIELDS // 3
    chunks = ((rows[s:s + step], cols[s:s + step], vals[s:s + step])
              for s in range(0, rows.size, step))
    with open(path, "w") as fh:
        fh.writelines(map_chunks(_edge_lines, chunks))


def _edge_list_error(path, n_nodes: int) -> FileFormatError:
    """The error for the first line of a rejected edge list that breaks a rule."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            where = f"{path}:{lineno}"
            if len(fields) != 3:
                return FileFormatError(f"{where}: expected 'i j w', got {line.strip()!r}")
            try:
                i, j, w = _number(fields[0], int), _number(fields[1], int), _number(fields[2], float)
            except ValueError as exc:
                return FileFormatError(f"{where}: {exc}")
            if not (0 <= i < n_nodes and 0 <= j < n_nodes):
                return FileFormatError(f"{where}: node index out of range for {n_nodes} nodes")
            if i == j:
                return FileFormatError(f"{where}: self-loops are not allowed")
            if not math.isfinite(w):
                return FileFormatError(f"{where}: edge weight must be finite, got {w!r}")
            if w < 0.0:
                return FileFormatError(f"{where}: edge weight must be nonnegative, got {w!r}")
    return FileFormatError(f"{path}: not an edge list")


def read_edge_list(path, n_nodes: int) -> sp.csr_array:
    """Read ``i j w`` lines into a symmetric (n_nodes, n_nodes) CSR array.

    See the module docstring for the rules; a file that breaks one raises
    :class:`FileFormatError` naming its first bad line.
    """
    try:
        edges = _loadtxt(path, _EDGE_DTYPE)
    except ValueError:
        raise _edge_list_error(path, n_nodes) from None
    i, j, w = edges["i"], edges["j"], edges["w"]
    ok = (i >= 0) & (i < n_nodes) & (j >= 0) & (j < n_nodes) & (i != j)
    ok &= np.isfinite(w) & (w >= 0.0)
    if not ok.all():
        raise _edge_list_error(path, n_nodes)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # np.unique keeps the first of equal keys, so run it on the lines reversed.
    last = np.unique((lo * n_nodes + hi)[::-1], return_index=True)[1]
    last = i.size - 1 - last
    last = last[w[last] != 0.0]
    index = np.int32 if n_nodes <= np.iinfo(np.int32).max else np.int64
    lo, hi, w = lo[last].astype(index), hi[last].astype(index), w[last]
    # The pairs are sorted, so listing each edge's (hi, lo) entry before its
    # (lo, hi) one leaves every CSR row sorted and spares scipy a sort.
    return sp.csr_array(
        (np.concatenate([w, w]), (np.concatenate([hi, lo]), np.concatenate([lo, hi]))),
        shape=(n_nodes, n_nodes),
    )


def _feature_lines(chunk) -> str:
    """The CSV rows of one (first node, features, labels, splits) chunk."""
    start, feats, labels, splits = chunk
    rows = zip(range(start, start + len(labels)), feats.tolist(), labels.tolist(), splits.tolist())
    return "".join(
        ",".join((str(i), *map(repr, row), str(label), split)) + "\r\n"
        for i, row, label, split in rows
    )


def write_features_csv(path, graph: PopulationGraph, map_chunks=map) -> None:
    """Write node features, labels, and split tags as ``node,f0,...,label,split``,
    where the split is ``train`` for the nodes of ``graph.train_mask`` and
    ``test`` for all others. Lines end in ``\\r\\n``, as the csv module
    writes them. ``map_chunks`` formats the chunks.
    """
    header = ["node"] + [f"f{i}" for i in range(graph.n_features)] + ["label", "split"]
    splits = np.where(graph.train_mask, "train", "test")
    step = max(1, _CHUNK_FIELDS // len(header))
    chunks = ((s, graph.features[s:s + step], graph.labels[s:s + step], splits[s:s + step])
              for s in range(0, graph.n_nodes, step))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map_chunks(_feature_lines, chunks))


def _features_error(path, n_fields: int) -> FileFormatError:
    """The error for the first row of a rejected features CSV that breaks a rule."""
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != n_fields:
                return FileFormatError(f"{where}: expected {n_fields} fields")
            try:
                node = _number(row[0], int)
                feats = [_number(v, float) for v in row[1:-2]]
                label = _number(row[-2], int)
            except ValueError as exc:
                return FileFormatError(f"{where}: {exc}")
            if not (_INT64.min <= node <= _INT64.max and _INT64.min <= label <= _INT64.max):
                return FileFormatError(f"{where}: node id and label must fit in int64")
            if row[-1].strip().lower() not in ("train", "test"):
                return FileFormatError(f"{where}: split must be train or test")
            if node in seen:
                return FileFormatError(f"{where}: duplicate node {node}")
            seen.add(node)
            bad = [c for c, v in enumerate(feats) if not math.isfinite(v)]
            if bad:
                return FileFormatError(
                    f"{where}: feature f{bad[0]} must be finite, got {feats[bad[0]]!r}"
                )
    return FileFormatError(f"{path}: not a features CSV")


def read_features_csv(path):
    """Read a features CSV back into (features, labels, train_mask).

    Rows may come in any order; node ids must cover 0..N-1 exactly once.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise FileFormatError(f"{path}: empty file")
        if len(header) < 3 or header[0] != "node" or header[-2:] != ["label", "split"]:
            raise FileFormatError(
                f"{path}: header must be node,<features...>,label,split, got {header}"
            )
        dtype = np.dtype([
            ("node", np.int64), ("features", np.float64, (len(header) - 3,)),
            ("label", np.int64), ("split", object),
        ])
        try:
            rows = _loadtxt(fh, dtype, delimiter=",", comments=None, quotechar='"')
        except ValueError:
            raise _features_error(path, len(header)) from None
    split = np.char.lower(np.char.strip(rows["split"].astype(str)))
    train = split == "train"
    order = np.argsort(rows["node"], kind="stable")
    nodes = rows["node"][order]
    ok = (
        np.all(train | (split == "test"))
        and np.all(nodes[1:] != nodes[:-1])
        and np.all(np.isfinite(rows["features"]))
    )
    if not ok:
        raise _features_error(path, len(header))
    n = nodes.size
    if not np.array_equal(nodes, np.arange(n)):
        raise FileFormatError(f"{path}: node ids must cover 0..{n - 1} exactly")
    return rows["features"][order], rows["label"][order], train[order]


def _new_file_beside(path) -> str:
    """Create an empty file under a fresh hidden name in ``path``'s directory,
    with the permissions ``open`` gives a new file; returns its name."""
    head, tail = os.path.split(os.fspath(path))
    temp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    return temp


def save_graph(graph: PopulationGraph, features_path, edges_path, threads=None) -> None:
    """Write ``features_path`` (:func:`write_features_csv`) and ``edges_path``
    (:func:`write_edge_list`), formatting their chunks in ``threads`` worker
    processes (None: ``workers.worker_count``'s default) when the graph holds
    at least ``POOL_MIN_FIELDS`` fields, else here.

    Both files are written whole or not at all: each goes to a temporary file
    beside its target, and the two are moved onto their targets, features
    first, once both are complete. If anything fails before that, the
    temporary files are removed and files already at the targets stay as
    they were.
    """
    fields = graph.n_nodes * (graph.n_features + 3) + 3 * graph.n_edges
    workers = 1
    if fields >= POOL_MIN_FIELDS:
        # A chunk holds at most _CHUNK_FIELDS fields: no more workers than chunks.
        workers = min(worker_count(threads), math.ceil(fields / _CHUNK_FIELDS))
    temps = []
    try:
        for path in (features_path, edges_path):
            temps.append(_new_file_beside(path))
        with worker_map(workers) as map_chunks:
            write_features_csv(temps[0], graph, map_chunks)
            write_edge_list(temps[1], graph.adjacency, map_chunks)
        os.replace(temps[0], features_path)
        os.replace(temps[1], edges_path)
    except BaseException:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise


def load_graph(features_path, edges_path) -> PopulationGraph:
    """Assemble a :class:`PopulationGraph` from a features CSV and an edge list."""
    features, labels, train = read_features_csv(features_path)
    adjacency = read_edge_list(edges_path, n_nodes=features.shape[0])
    return PopulationGraph(adjacency=adjacency, features=features, labels=labels, train_mask=train)


def read_meta_csv(path):
    """Read per-node meta-data columns from ``node,<name>,...`` CSV.

    Returns a dict mapping column name to ``(values, missing)`` where
    ``values`` is float64 and ``missing`` is a boolean mask. Empty cells and
    the tokens na/nan/none (any case) count as missing; a missing value is
    stored as 0.0 under the mask. Columns with any non-numeric entry are
    treated as categorical and coded by sorted distinct value, from 0. Node
    ids and the cells of a numeric column must be plain numbers (see the
    module docstring), and numeric cells finite: ``1_000``, ``inf`` or
    ``1e400`` raises :class:`FileFormatError` naming the line and the column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError(f"{path}: empty file") from None
        if len(header) < 2 or header[0] != "node":
            raise FileFormatError(f"{path}: header must be node,<name>[,<name>...]")
        names = header[1:]
        if len(set(names)) != len(names):
            raise FileFormatError(f"{path}: duplicate meta-data column names")
        cells = {}
        linenos = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FileFormatError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                node = _number(row[0], int)
            except ValueError:
                raise FileFormatError(
                    f"{path}:{lineno}: column 'node' must be a plain int, got {row[0]!r}"
                ) from None
            if node in cells:
                raise FileFormatError(f"{path}:{lineno}: duplicate node {node}")
            cells[node] = [v.strip() for v in row[1:]]
            linenos[node] = lineno
    n = len(cells)
    if sorted(cells) != list(range(n)):
        raise FileFormatError(f"{path}: node ids must cover 0..{n - 1} exactly")

    out = {}
    for col, name in enumerate(names):
        raw = [cells[i][col] for i in range(n)]
        missing = np.array([v.lower() in MISSING_TOKENS for v in raw])
        values = np.zeros(n)
        present = [(i, v) for i, v in enumerate(raw) if not missing[i]]
        numeric = True
        for _, v in present:
            try:
                float(v)
            except ValueError:
                numeric = False
                break
        if numeric:
            bad = []
            for i, v in present:
                try:
                    values[i] = value = _number(v, float)
                except ValueError:
                    bad.append((linenos[i], f"must be a plain number, got {v!r}"))
                    continue
                if not math.isfinite(value):
                    bad.append((linenos[i], f"must be finite, got {value!r}"))
            if bad:
                lineno, why = min(bad)
                raise FileFormatError(f"{path}:{lineno}: column {name!r} {why}")
        else:
            codes = {v: c for c, v in enumerate(sorted({v for _, v in present}))}
            for i, v in present:
                values[i] = codes[v]
        out[name] = (values, missing)
    return out
