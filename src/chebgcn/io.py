"""File formats: whitespace edge lists, node feature CSVs, and meta-data CSVs.

Floats are written with ``repr`` so that a write/read round trip reproduces
the exact same float64 values. Writers format ``_CHUNK_FIELDS`` fields at a
time and write each slice with one call. One writer, ``_graph_writer``,
writes every graph: ``save_graph`` runs it on a finished graph (``simdata``
calls it with its ``--threads``), and ``build-graph`` starts it as soon as
the features CSV is parsed, then builds the graph inside it. It formats
the slices in worker processes (``workers.worker_map``) when the files may
hold ``POOL_MIN_FIELDS`` fields, below which a pool costs more than it
saves: ``save_graph`` counts the graph's edges, and ``build-graph``, whose
edges do not exist yet, counts every pair of nodes as one. The pool gets
every slice of the features CSV at once and formats them while the graph
is built, so their strings are held until written; the edge list's slices
follow, at most two per worker in flight, so its strings stay bounded
however large the file. The slices are written in file order by one
formatter per file, so the bytes do not depend on the worker count. Under
spawn or forkserver each worker re-imports NumPy first, about 0.15 s on a
2-vCPU VM. Graphs are written and loaded as edge columns
(``PopulationGraph.edges``), without ``scipy.sparse`` (another 0.2 s), and
training on a loaded graph does not import it either; here only
:func:`read_edge_list`, which returns a ``csr_array``, imports it.

Readers parse whole columns with ``np.loadtxt`` and check them with array
tests. Only when a file is rejected are its lines walked again, to name the
first bad line as ``path:lineno``. Text files are read as UTF-8 after any
byte-order mark, whatever the locale, and a byte that breaks UTF-8 is named
by line and offset. Numbers must be plain ASCII literals (no ``_`` digit
separators), integers must fit in int64, and every float must be finite.

Edge lists (``read_edge_list``) hold one ``i j w`` line per edge:

- ``#`` starts a comment that runs to the end of its line; blank lines are
  skipped.
- ``i`` and ``j`` are distinct node ids in ``[0, n_nodes)``; ``w`` is the
  weight, which must be nonnegative. ``i j`` and ``j i`` name the same
  undirected edge.
- When an edge is listed more than once, its last line wins, and a weight of
  0 removes it.
- The result, canonical edge columns (``graph._Edges``) or the canonical
  CSR array they give, grows with the number of edges, not ``n_nodes ** 2``.

The graph writer also writes a binary sidecar beside the edge list,
``<edges>.cache``, so that ``load_graph`` can skip the text parse. It is a
run of ``.npy`` records: the sha256 of the bytes written to the features CSV
and to the edge list, a sha256 of the arrays that follow, then the arrays
that parsing the two files gives back (features, labels, train mask, and
the graph's edge columns, which the edge list holds in file order).
``load_graph`` uses it only when both files on disk still have those
digests, its own records check out and its edge columns are canonical; a
sidecar that is missing, stale, truncated, unreadable (a ``.npy`` header
NumPy cannot tokenize included) or breaks a rule means the text is parsed,
never an error. Either way the arrays go through :class:`PopulationGraph`,
so a sidecar gives bit for bit the graph the text gives. The text stays the
source of truth: ``load_graph`` never writes, and only the graph writer
writes a sidecar, moved into place after both files.
"""

import contextlib
import csv
import functools
import hashlib
import itertools
import math
import os
import warnings
from tokenize import TokenError

import numpy as np

from .graph import PopulationGraph, _edge_csr, _Edges
from .workers import worker_count, worker_map

MISSING_TOKENS = {"", "na", "nan", "none"}

# Fields formatted per write call: 8192 edge-list lines.
_CHUNK_FIELDS = 3 * 8192

# Fields (3 per edge plus the feature CSV's cells) from which the graph
# writer formats in worker processes. On a 2-vCPU VM (Python 3.11, forked
# workers) 2 workers took 4.6x the serial time at 21k fields, 1.3x at
# 200-300k and 0.98x at 395k on random 2,000-node graphs with 2 features,
# and 0.86x at 587k; on a 1,000-node, 55%-dense graph with 200 features
# (1.03M fields) they took 0.62x (527 against 844 ms).
POOL_MIN_FIELDS = 2**19

_EDGE_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
_INT64 = np.iinfo(np.int64)

# First record of a sidecar: this tag, the two text digests, the payload digest.
_SIDECAR_TAG = "chebgcn graph sidecar 1"
# Arrays a sidecar holds after its first record, in order.
_SIDECAR_ARRAYS = 6


class FileFormatError(ValueError):
    """An input file does not match the expected format."""


def _number(text: str, kind):
    """``kind(text)`` for ``int`` or ``float``, limited to the literals ``np.loadtxt`` parses."""
    value = kind(text)
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain {kind.__name__} literal: {text.strip()!r}")
    return value


def _utf8_fault(path) -> str:
    """``path:line: ...`` naming the first byte of ``path`` that breaks UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f"{path}:{line}: not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start}"
    return f"{path}: not UTF-8 text"


@contextlib.contextmanager
def _open_text(path, **kwargs):
    """``open(path)`` for reading UTF-8 text after any byte-order mark; a
    byte that is not UTF-8 raises :class:`FileFormatError` naming its line."""
    with open(path, encoding="utf-8-sig", **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise FileFormatError(_utf8_fault(path)) from None


def _loadtxt(source, dtype, **kwargs) -> np.ndarray:
    """Parse ``source`` into a 1-D structured array; no data rows give an empty one."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, dtype=dtype, ndmin=1, encoding="utf-8-sig", **kwargs)


def _edge_lines(chunk) -> str:
    """The ``i j w`` lines of one (rows, cols, weights) chunk."""
    rows, cols, vals = chunk
    # One %-format over the whole chunk: 10% faster than an f-string per line.
    fields = [None] * (3 * rows.size)
    fields[0::3], fields[1::3], fields[2::3] = rows.tolist(), cols.tolist(), vals.tolist()
    return ("%d %d %r\n" * rows.size) % tuple(fields)


def _write_text(path, pieces) -> str:
    """Write the ASCII strings ``pieces`` to ``path``; returns the sha256 hex
    digest of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for piece in pieces:
            data = piece.encode("ascii")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def write_edge_list(path, lo, hi, w, map_chunks=map) -> str:
    """Write edge columns, a graph's ``edges``, as ``i j w`` lines, one per
    edge in column order; ``map_chunks`` formats the chunks. Returns the
    sha256 hex digest of the bytes written.
    """
    step = _CHUNK_FIELDS // 3
    chunks = ((lo[s:s + step], hi[s:s + step], w[s:s + step]) for s in range(0, w.size, step))
    return _write_text(path, map_chunks(_edge_lines, chunks))


def _edge_list_error(path, n_nodes: int) -> FileFormatError:
    """The error for the first line of a rejected edge list that breaks a rule."""
    with _open_text(path) as fh:
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


def _read_edge_columns(path, n_nodes: int) -> _Edges:
    """The canonical edge columns (``graph._Edges``) of an edge list; see
    :func:`read_edge_list`."""
    try:
        edges = _loadtxt(path, _EDGE_DTYPE)
    except ValueError:
        raise _edge_list_error(path, n_nodes) from None
    i, j, w = edges["i"], edges["j"], edges["w"]
    ok = (i >= 0) & (i < n_nodes) & (j >= 0) & (j < n_nodes) & (i != j)
    if not (ok & np.isfinite(w) & (w >= 0.0)).all():
        raise _edge_list_error(path, n_nodes)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # np.unique keeps the first of equal keys, so run it on the lines reversed.
    last = np.unique((lo * n_nodes + hi)[::-1], return_index=True)[1]
    last = i.size - 1 - last
    last = last[w[last] != 0.0]
    return _Edges(lo[last], hi[last], w[last], n_nodes)


def read_edge_list(path, n_nodes: int):
    """Read ``i j w`` lines into a symmetric (n_nodes, n_nodes) CSR array.

    See the module docstring for the rules; a file that breaks one raises
    :class:`FileFormatError` naming its first bad line.
    """
    return _edge_csr(*_read_edge_columns(path, n_nodes))


def _feature_lines(chunk) -> str:
    """The CSV rows of one (first node, features, labels, splits) chunk."""
    start, feats, labels, splits = chunk
    rows = zip(range(start, start + len(labels)), feats.tolist(), labels.tolist(), splits.tolist())
    return "".join(
        ",".join((str(i), *map(repr, row), str(label), split)) + "\r\n"
        for i, row, label, split in rows
    )


def _feature_chunks(features, labels, train_mask):
    """The (first node, features, labels, splits) chunks of a features CSV."""
    splits = np.where(train_mask, "train", "test")
    step = max(1, _CHUNK_FIELDS // (features.shape[1] + 3))
    for s in range(0, len(labels), step):
        yield s, features[s:s + step], labels[s:s + step], splits[s:s + step]


def write_features_csv(path, graph: PopulationGraph, map_chunks=map) -> str:
    """Write node features, labels, and split tags as ``node,f0,...,label,split``,
    where the split is ``train`` for the nodes of ``graph.train_mask`` and
    ``test`` for all others. Lines end in ``\\r\\n``, as the csv module
    writes them. ``map_chunks`` formats the chunks. Returns the sha256 hex
    digest of the bytes written.
    """
    header = ["node"] + [f"f{i}" for i in range(graph.n_features)] + ["label", "split"]
    chunks = _feature_chunks(graph.features, graph.labels, graph.train_mask)
    lines = map_chunks(_feature_lines, chunks)
    return _write_text(path, itertools.chain([",".join(header) + "\r\n"], lines))


def _features_error(path, n_fields: int) -> FileFormatError:
    """The error for the first row of a rejected features CSV that breaks a rule."""
    seen = set()
    with _open_text(path, newline="") as fh:
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
    with _open_text(path, newline="") as fh:
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


def _sidecar_path(edges_path) -> str:
    return os.fspath(edges_path) + ".cache"


def _sha256_of_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _sha256_of_arrays(arrays) -> str:
    """A sha256 over each array's dtype, shape and C-ordered bytes."""
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr))
    return digest.hexdigest()


def _write_sidecar(path, text_digests, arrays) -> None:
    """Write the sidecar records (see the module docstring) to ``path``."""
    head = np.array([_SIDECAR_TAG, *text_digests, _sha256_of_arrays(arrays)])
    with open(path, "wb") as fh:
        for arr in (head, *arrays):
            np.lib.format.write_array(fh, arr, allow_pickle=False)


def _read_sidecar(features_path, edges_path):
    """(edge columns, features, labels, train_mask) from the sidecar beside
    ``edges_path``, or None unless it matches both files and itself."""
    try:
        with open(_sidecar_path(edges_path), "rb") as fh:
            head = np.lib.format.read_array(fh, allow_pickle=False).tolist()
            if not (isinstance(head, list) and len(head) == 4 and head[0] == _SIDECAR_TAG):
                return None
            if head[1:3] != [_sha256_of_file(features_path), _sha256_of_file(edges_path)]:
                return None
            arrays = [np.lib.format.read_array(fh, allow_pickle=False)
                      for _ in range(_SIDECAR_ARRAYS)]
    except (OSError, ValueError, EOFError, TokenError):
        return None
    if _sha256_of_arrays(arrays) != head[3]:
        return None
    features, labels, train, lo, hi, w = arrays
    edges = _Edges(lo, hi, w, features.shape[0])
    return (edges, features, labels, train) if edges.canonical() else None


def _format_workers(n_nodes: int, n_features: int, max_edges: int, threads) -> int:
    """Worker processes to format the files of a graph with at most
    ``max_edges`` edges in: ``threads`` (None: ``workers.worker_count``'s
    default) once the files may hold ``POOL_MIN_FIELDS`` fields, else 1."""
    fields = n_nodes * (n_features + 3) + 3 * max_edges
    if fields < POOL_MIN_FIELDS:
        return 1
    # A chunk holds at most _CHUNK_FIELDS fields: no more workers than chunks.
    return min(worker_count(threads), math.ceil(fields / _CHUNK_FIELDS))


@contextlib.contextmanager
def _graph_writer(features, labels, train_mask, max_edges: int, threads):
    """Start formatting the features CSV of ``features``, ``labels`` and
    ``train_mask`` now, in ``_format_workers`` processes where there are
    more than one, and yield ``write(graph, features_path, edges_path)``,
    which writes a graph on those arrays with at most ``max_edges`` edges as
    :func:`save_graph` does. ``write`` may be called once, inside the block.

    Every features chunk goes to the workers at once, so they format while
    the block builds the graph; the edge chunks follow, at most two per
    worker in flight. The workers stop when the block exits; if it raises,
    chunks not yet started are dropped.
    """
    n, d = features.shape
    with worker_map(_format_workers(n, d, max_edges, threads)) as map_chunks:
        rows = map_chunks(_feature_lines, _feature_chunks(features, labels, train_mask), ahead=None)
        yield functools.partial(_write_graph, rows, map_chunks)


def _write_graph(rows, map_chunks, graph, features_path, edges_path) -> None:
    """``save_graph``'s writes, with the features CSV's chunks formatted as
    ``rows`` and the edge list's by ``map_chunks``."""
    targets = (features_path, edges_path, _sidecar_path(edges_path))
    temps = []
    try:
        for path in targets:
            temps.append(_new_file_beside(path))
        # The features chunks were handed to map_chunks when the writer started.
        features_digest = write_features_csv(temps[0], graph, lambda fn, chunks: rows)
        edges_digest = write_edge_list(temps[1], *graph.edges, map_chunks)
        # The arrays the parser returns for the two files just written.
        arrays = (graph.features, graph.labels, graph.train_mask, *graph.edges)
        _write_sidecar(temps[2], (features_digest, edges_digest), arrays)
        for temp, path in zip(temps, targets):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise


def save_graph(graph: PopulationGraph, features_path, edges_path, threads=None) -> None:
    """Write ``features_path`` (:func:`write_features_csv`), ``edges_path``
    (:func:`write_edge_list` of ``graph.edges``) and the sidecar beside it
    (see the module docstring), formatting the text chunks in ``threads``
    worker processes (None: ``workers.worker_count``'s default) when the
    graph holds at least ``POOL_MIN_FIELDS`` fields, else here.

    The files are written whole or not at all: each goes to a temporary file
    beside its target, and they are moved onto their targets, features
    first and the sidecar last, once all three are complete. If anything
    fails before that, the temporary files are removed and files already at
    the targets stay as they were.
    """
    with _graph_writer(graph.features, graph.labels, graph.train_mask, graph.n_edges,
                       threads) as write:
        write(graph, features_path, edges_path)


def load_graph(features_path, edges_path) -> PopulationGraph:
    """Assemble a :class:`PopulationGraph` from a features CSV and an edge
    list, from their sidecar when it matches both (see the module
    docstring), else by parsing them."""
    parts = _read_sidecar(features_path, edges_path)
    if parts is None:
        features, labels, train = read_features_csv(features_path)
        parts = _read_edge_columns(edges_path, features.shape[0]), features, labels, train
    return PopulationGraph(*parts)


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
    with _open_text(path, newline="") as fh:
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
