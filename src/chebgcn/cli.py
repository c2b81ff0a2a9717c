"""Command-line driver.

Subcommands:
    simdata      draw a synthetic dataset and write features.csv / edges.txt
    build-graph  assemble an affinity graph from meta-data and features CSVs
    train        cross-validate one architecture on a dataset
    sweep        grid-sweep filter orders (pairs heatmap or single-k boxplot)
    compare      five-way sequential-vs-inception comparison

Every subcommand takes --config (path or packaged preset name), --seed,
--out, and --threads; flags override CHEBGCN_* environment variables, which
override the config file. train, sweep and compare run their folds in
--threads worker processes, by default one per usable CPU, each with its
BLAS pinned to one thread; simdata and build-graph format large graph files
in as many, and write a binary sidecar beside edges.txt that later loads of
the graph use instead of parsing the text while it matches (see
chebgcn.io); they write edge columns and never build adjacency storage,
and build-graph makes its columns a block of rows at a time, without an
(N, N) matrix. No subcommand imports scipy.sparse: train, sweep and compare
multiply by a CSR Laplacian through SciPy's compiled kernel, loaded by file
path (see chebgcn.graph). build-graph starts its formatting workers
as soon as it has parsed the features CSV, sized by the io pool-size rule
as if every pair of nodes were an edge, and they format features.csv while
it reads the meta-data and builds the affinity; if that fails, the workers
stop and the output directory is left as it was. Output files do not
depend on the count. The effective config is echoed into the output
directory as effective-config.yaml, so any run can be repeated from its
own output.
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .affinity import AffinityError, MetaElement, SimilarityKernel, _build_affinity
from .config import ConfigError
from .experiments import (
    SweepSpec,
    _FoldContext,
    compare_models,
    config_fingerprint,
    heatmap_sweep,
    run_cv,
    single_k_sweep,
    write_boxplot_csv,
    write_compare_csv,
    write_cv_csv,
    write_summary_json,
    write_sweep_csv,
    COMPARE_MODELS,
)
from .graph import GraphInvariantError, PopulationGraph
from .io import (
    FileFormatError,
    _graph_writer,
    load_graph,
    read_features_csv,
    read_meta_csv,
    save_graph,
)
from .simdata import generate
from .workers import WorkerDied


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _require_file(path, field):
    if not path:
        raise ConfigError(f"{field} is required for this command")
    if not Path(path).is_file():
        raise ConfigError(f"{field}: no such file: {path}")


def _dataset(cfg: dict) -> _FoldContext:
    """What the folds read of the dataset to cross-validate, once it is known
    to fill every fold. The graph goes when this returns, and with it its
    edge columns, before the first-module basis is built and the workers
    start: no fold reads them once L̃ exists."""
    ds = cfg["dataset"]
    if ds["source"] == "sim":
        graph = generate(cfgmod.to_sim_config(cfg))
    else:
        _require_file(ds["features"], "dataset.features")
        _require_file(ds["edges"], "dataset.edges")
        graph = load_graph(ds["features"], ds["edges"])
    # Folds are dealt round-robin within each class, so the largest class
    # must hold a node for every fold.
    folds = cfg["experiment"]["folds"]
    largest = int(np.bincount(graph.labels).max())
    if folds > largest:
        raise ConfigError(f"experiment.folds is {folds}, but the largest class of the "
                          f"{graph.n_nodes} nodes has {largest}, so at most {largest} folds fit")
    _check_graph(graph)
    return _FoldContext.of(graph)


def _prepare_out(cfg: dict) -> Path:
    out = Path(cfg["experiment"]["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective-config.yaml").write_text(cfgmod.effective_yaml(cfg))
    return out


def _check_graph(graph: PopulationGraph) -> None:
    if graph.n_edges == 0:
        _warn("graph has no edges; every node is isolated")


def _save_graph(cfg: dict, graph: PopulationGraph, write) -> str:
    """Write features.csv, edges.txt and its sidecar with ``write(graph,
    features_path, edges_path)``; returns the line that reports the text files."""
    out = _prepare_out(cfg)
    write(graph, out / "features.csv", out / "edges.txt")
    _check_graph(graph)
    return (f"wrote {out / 'features.csv'} and {out / 'edges.txt'}: "
            f"{graph.n_nodes} nodes, {graph.n_edges} edges")


def cmd_simdata(cfg: dict) -> int:
    graph = generate(cfgmod.to_sim_config(cfg))
    print(_save_graph(cfg, graph, functools.partial(save_graph,
                                                    threads=cfg["experiment"]["threads"])))
    return 0


def _meta_elements(aff: dict, n_nodes: int) -> list:
    """The meta-data elements ``aff`` selects from its meta CSV."""
    columns = read_meta_csv(aff["meta"])
    names = aff["elements"] if aff["elements"] is not None else list(columns)
    unused = [name for name in aff["betas"] if name not in names]
    if unused:
        raise ConfigError(f"affinity.betas: {unused} name no element in use {names}")
    elements = []
    for name in names:
        if name not in columns:
            raise ConfigError(f"affinity.elements: no column {name!r} in {aff['meta']}")
        values, missing = columns[name]
        if values.shape[0] != n_nodes:
            raise ConfigError(
                f"meta-data covers {values.shape[0]} nodes but features cover {n_nodes}"
            )
        elements.append(MetaElement(
            name=name,
            values=values,
            beta=float(aff["betas"].get(name, 0.0)),
            missing=missing if missing.any() else None,
        ))
    return elements


def cmd_build_graph(cfg: dict) -> int:
    aff = cfg["affinity"]
    _require_file(aff["meta"], "affinity.meta")
    _require_file(aff["features"], "affinity.features")
    features, labels, train = read_features_csv(aff["features"])
    n = features.shape[0]
    # features.csv is formatted while the graph is built. Any two nodes may
    # be an edge, which bounds the fields the writer's pool-size rule counts.
    with _graph_writer(features, labels, train, n * (n - 1) // 2,
                       cfg["experiment"]["threads"]) as write:
        elements = _meta_elements(aff, n)
        kernel = SimilarityKernel(distance=aff["distance"], sigma=aff["sigma"])
        edges, counts = _build_affinity(
            elements, features, kernel, aff["mode"], aff["element"], aff["strict"]
        )
        graph = PopulationGraph(adjacency=edges, features=features, labels=labels,
                                train_mask=train)
        wrote = _save_graph(cfg, graph, write)
    lo, hi, _ = graph.edges
    isolated = np.count_nonzero((np.bincount(lo, minlength=n) == 0)
                                & (np.bincount(hi, minlength=n) == 0))
    # An edgeless graph has had its warning from _save_graph.
    if isolated and graph.n_edges:
        _warn(f"{isolated} nodes are isolated under the current thresholds")
    for el, n_edges in counts:
        print(f"element {el.name}: {n_edges} edges (beta={el.beta})")
    print(f"{wrote} ({aff['mode']} over {len(counts)} elements)")
    return 0


def _finish(command: str, cfg: dict, out: Path, lines, runs: dict, /, **fields) -> int:
    """Write summary.json, print ``lines``, then an error line per named result
    in ``runs`` whose folds all diverged; 1 if any did, else 0."""
    # The fingerprint leaves out experiment.threads and experiment.out, which
    # never change results, so summary.json is the same at any thread count
    # and in any output directory.
    exp = {k: v for k, v in cfg["experiment"].items() if k not in ("threads", "out")}
    write_summary_json(out / "summary.json", {
        "command": command,
        "config_fingerprint": config_fingerprint({**cfg, "experiment": exp}),
        **fields,
    })
    for line in lines:
        print(line)
    failed = [(name, r) for name, r in runs.items() if not r.accuracies]
    for name, r in failed:
        print(f"error: {name}: all {len(r.failed_folds)} folds diverged", file=sys.stderr)
    return 1 if failed else 0


def cmd_train(cfg: dict) -> int:
    data = _dataset(cfg)
    arch = cfgmod.to_arch_spec(cfg)
    width = arch.modules[-1].width
    if not arch.classifier and width < data.n_classes:
        raise ConfigError(f"architecture.classifier is false, so the last module's output "
                          f"width {width} must cover the {data.n_classes} classes")
    train_cfg = cfgmod.to_train_config(cfg)
    result = run_cv(data, arch, train_cfg, threads=cfg["experiment"]["threads"])
    out = _prepare_out(cfg)
    write_cv_csv(out / "cv.csv", result)
    n_ok = len(result.accuracies)
    line = f"accuracy {result.mean_accuracy:.2f} +/- {result.sd_accuracy:.2f} over {n_ok} folds"
    if result.failed_folds:
        line += f" ({len(result.failed_folds)} diverged)"
    return _finish("train", cfg, out, [line], {"train": result}, result=result.to_dict())


def cmd_sweep(cfg: dict) -> int:
    data = _dataset(cfg)
    exp = cfg["experiment"]
    train_cfg = cfgmod.to_train_config(cfg)
    out = _prepare_out(cfg)
    lo, hi = exp["k_range"]
    if exp["sweep_mode"] == "pairs":
        spec = SweepSpec(k_min=lo, k_max=hi, width=exp["width"], train=train_cfg)
        sweep = heatmap_sweep(data, spec, threads=exp["threads"])
        write_sweep_csv(out / "sweep.csv", sweep)
        best = sweep.grid[sweep.best]
        line = (f"swept {len(sweep.grid)} cells; best (k1, k2) = {sweep.best} "
                f"at {best.mean_accuracy:.2f} +/- {best.sd_accuracy:.2f}")
        grid = dict(sorted(sweep.grid.items()))
        return _finish("sweep", cfg, out, [line], {str(cell): r for cell, r in grid.items()},
                       best=list(sweep.best),
                       cells={f"{k1},{k2}": r.to_dict() for (k1, k2), r in grid.items()})
    else:
        results = single_k_sweep(data, lo, hi, exp["width"], train_cfg, threads=exp["threads"])
        write_boxplot_csv(out / "boxplot.csv", results)
        results = dict(sorted(results.items()))
        lines = [f"k = {k:2d}: {r.mean_accuracy:6.2f} +/- {r.sd_accuracy:.2f}"
                 for k, r in results.items()]
        return _finish("sweep", cfg, out, lines, {f"k = {k}": r for k, r in results.items()},
                       cells={str(k): r.to_dict() for k, r in results.items()})


def cmd_compare(cfg: dict) -> int:
    data = _dataset(cfg)
    exp = cfg["experiment"]
    train_cfg = cfgmod.to_train_config(cfg)
    comparison = compare_models(data, exp["k1"], exp["k2"], train_cfg, width=exp["width"],
                               threads=exp["threads"])
    out = _prepare_out(cfg)
    write_compare_csv(out / "compare.csv", comparison)
    lines = []
    for name in COMPARE_MODELS:
        r = comparison.results[name]
        epochs = float(np.mean(r.epochs)) if r.epochs else float("nan")
        lines.append(f"{name:20s} {r.mean_accuracy:6.2f} +/- {r.sd_accuracy:5.2f} "
                     f"(mean epochs {epochs:.1f})")
    for agg, ratio in comparison.convergence_ratios.items():
        lines.append(f"convergence speed-up vs sequential baseline ({agg}): {ratio:.2f}x")
    return _finish("compare", cfg, out, lines,
                   {name: comparison.results[name] for name in COMPARE_MODELS},
                   k1=comparison.k1,
                   k2=comparison.k2,
                   convergence_ratios=comparison.convergence_ratios,
                   models={name: r.to_dict() for name, r in comparison.results.items()})


COMMANDS = {
    "simdata": cmd_simdata,
    "build-graph": cmd_build_graph,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebgcn",
        description="Spectral graph convolution experiments on population graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simdata": "generate a synthetic dataset",
        "build-graph": "build an affinity graph from meta-data and features",
        "train": "cross-validate one architecture",
        "sweep": "sweep filter orders over a grid",
        "compare": "compare sequential baselines against multi-branch modules",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="config file path or packaged preset name")
        p.add_argument("--seed", type=int, help="override experiment.seed")
        p.add_argument("--out", help="override experiment.out")
        p.add_argument("--threads", type=int, help="override experiment.threads")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = cfgmod.resolve_config(
            config=args.config, seed=args.seed, out=args.out, threads=args.threads
        )
        return COMMANDS[args.command](cfg)
    except (ConfigError, FileFormatError, AffinityError, GraphInvariantError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerDied as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # NumPy's message names the size it asked for; a fold worker's
        # MemoryError comes back through the pool's result.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command}: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
