"""Experiment protocols: cross-validated training, grid sweeps, comparisons.

Every run is reproducible from one base seed. Sub-seeds for folds, cells,
and initializations are derived by hashing the base seed together with a
purpose tag, so parallel and serial execution of the same experiment give
byte-identical results.
"""

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .graph import NormalizedLaplacian, _chebyshev_basis, _chebyshev_laplacian
from .nn import (
    ACTIVATIONS,
    AGGREGATORS,
    ChebFilterLayer,
    InceptionModule,
    Network,
    ShapeMismatchError,
    _cross_entropy,
    _loss_targets,
    glorot_uniform,
    make_optimizer,
    network_backward,
    network_forward,
)
from .simdata import stratified_folds
from .workers import worker_count, worker_map


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from a base seed and purpose tags.

    Parts may be ints or strings; the value depends only on them, never on
    process, thread, or iteration order.
    """
    blob = json.dumps(parts, separators=(",", ":")).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


def config_fingerprint(payload) -> str:
    """sha256 hex digest of a canonical JSON rendering of a config payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings shared by all experiment protocols.

    ``early_stop_window = 0`` disables early stopping; otherwise training
    stops once the monitored loss has not improved for that many epochs and
    the best-epoch weights are restored. ``stop_metric`` chooses the monitor:
    "val" carves a stratified validation split out of each fold's training
    nodes, "train" watches the training loss itself.
    """

    epochs: int = 200
    lr: float = 0.2
    optimizer: str = "sgd"
    early_stop_window: int = 0
    stop_metric: str = "val"
    val_fraction: float = 0.1
    dropout: float = 0.0
    weight_decay: float = 0.0
    n_folds: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.early_stop_window < 0:
            raise ValueError("early_stop_window must be >= 0")
        if self.stop_metric not in ("val", "train"):
            raise ValueError(f"unknown stop_metric {self.stop_metric!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.n_folds < 2:
            raise ValueError("n_folds must be at least 2")


@dataclass(frozen=True)
class BranchSpec:
    order: int
    width: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("branch order must be >= 0")
        if self.width < 1:
            raise ValueError("branch width must be >= 1")


@dataclass(frozen=True)
class ModuleSpec:
    branches: tuple
    aggregator: str = "concat"

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a module needs at least one branch")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}")

    @property
    def width(self) -> int:
        """Output width: the branch widths summed under concat, one under maxpool."""
        widths = [b.width for b in self.branches]
        return sum(widths) if self.aggregator == "concat" else widths[0]


@dataclass(frozen=True)
class ArchSpec:
    """Declarative network shape, independent of data dimensions."""

    modules: tuple
    classifier: bool = True
    activation: str = "relu"

    def __post_init__(self):
        if not self.modules:
            raise ValueError("modules must not be empty")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")


def single_layer(order: int, width: int) -> ArchSpec:
    return ArchSpec(modules=(ModuleSpec(branches=(BranchSpec(order, width),)),))


def sequential(orders, width: int) -> ArchSpec:
    """One single-branch module per order, stacked."""
    mods = tuple(ModuleSpec(branches=(BranchSpec(k, width),)) for k in orders)
    return ArchSpec(modules=mods)


def inception(orders, width: int, aggregator: str = "concat") -> ArchSpec:
    """One module with a branch per order."""
    branches = tuple(BranchSpec(k, width) for k in orders)
    return ArchSpec(modules=(ModuleSpec(branches=branches, aggregator=aggregator),))


def build_network(arch: ArchSpec, d_in: int, n_classes: int, rng) -> Network:
    """Instantiate an architecture with Glorot weights and zero biases.

    The rng is consumed in a fixed order (modules, then branches, then the
    classifier), so equal specs and seeds give identical networks. A list of
    Generators gives a fold stack whose fold f is the network rng[f] gives.
    """
    modules = []
    width_in = d_in
    for mspec in arch.modules:
        branches = [
            ChebFilterLayer.create(b.order, width_in, b.width, rng, activation=arch.activation)
            for b in mspec.branches
        ]
        module = InceptionModule(branches=branches, aggregator=mspec.aggregator)
        modules.append(module)
        width_in = module.d_out
    if arch.classifier:
        w = glorot_uniform(rng, width_in, n_classes, (width_in, n_classes))
        b = np.zeros(w.shape[:-2] + (n_classes,))
        return Network(modules=modules, classifier_weight=w, classifier_bias=b)
    return Network(modules=modules)


class EarlyStopper:
    """Track a loss series; stop after `window` epochs without improvement.

    ``update`` returns True when the gap since the best epoch reaches the
    window. A constant series therefore stops after window + 1 updates (the
    first one sets the incumbent best), and a strictly decreasing series
    never stops.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self.epoch = 0
        self.best = np.inf
        self.best_epoch = 0
        self.best_state = None

    def update(self, loss: float, state_fn=None) -> bool:
        self.epoch += 1
        if loss < self.best:
            self.best = loss
            self.best_epoch = self.epoch
            if state_fn is not None:
                self.best_state = state_fn()
        return self.epoch - self.best_epoch >= self.window


def early_stop(losses, window: int):
    """Replay a loss series through the stopping rule.

    Returns (stopped, epochs_used, best_epoch) with 1-based epochs.
    """
    stopper = EarlyStopper(window)
    for epoch, loss in enumerate(losses, start=1):
        if stopper.update(loss):
            return True, epoch, stopper.best_epoch
    return False, len(losses), stopper.best_epoch


def _carve_validation(train_mask, labels, fraction, seed):
    """Stratified validation mask inside a training mask, >= 1 node per class
    when a class has at least 2 training nodes."""
    rng = np.random.default_rng(seed)
    val = np.zeros(train_mask.shape[0], dtype=bool)
    for c in np.flatnonzero(np.bincount(labels[train_mask])):
        idx = np.flatnonzero(train_mask & (labels == c))
        n_val = max(1, int(round(fraction * idx.size)))
        n_val = min(n_val, idx.size - 1)
        if n_val <= 0:
            continue
        rng.shuffle(idx)
        val[idx[:n_val]] = True
    return val


@np.errstate(over="ignore", invalid="ignore")
def train_network(net, lap, x, labels, train_mask, cfg: TrainConfig,
                  input_basis=None, val_mask=None, dropout_rng=None):
    """Train every fold of a stack in place; returns the epochs run per fold.

    A stack of F folds (a single network is ``net.map(lambda p: p[None])``)
    takes (F, N) masks and, with dropout, one Generator per fold. Each
    fold's entry is its epochs, or None if its loss or any gradient went
    non-finite before a step (the optimizers do not check), or its monitored
    loss did. A fold that diverges, or stops early, leaves the stack and the
    others train on, so each fold ends bitwise where training it alone would.
    Each fold leaves once: with early stopping enabled, at its best-epoch
    weights even when the epoch budget runs out first; if it diverged, at the
    weights it held when that was found, which a step that overflowed leaves
    non-finite (a diverged fold feeds no result). Dropout and the monitored
    loss both follow the usual convention: dropout is on for the update pass
    only. Early stopping on ``stop_metric="val"`` needs ``val_mask``, and a
    fold whose ``val_mask`` is empty monitors its training loss.
    ``input_basis`` is the first module's (N, (k + 1) d) basis matrix as
    ``network_forward`` takes it; without it, it is built once here.
    """
    train_mask = np.asarray(train_mask, dtype=bool)
    val_mask = None if val_mask is None else np.asarray(val_mask, dtype=bool)
    _require_stack(net, lap, train_mask=train_mask, val_mask=val_mask)
    if cfg.dropout > 0.0 and dropout_rng is None:
        raise ValueError("dropout needs one random generator per fold")
    if cfg.early_stop_window > 0 and cfg.stop_metric == "val" and val_mask is None:
        raise ValueError('early stopping on stop_metric "val" needs a val_mask')
    if input_basis is None:
        input_basis = _chebyshev_basis(lap, x, net.modules[0].order)
    optimizer = make_optimizer(cfg.optimizer, cfg.lr)
    epochs = [cfg.epochs] * net.folds
    active = np.arange(net.folds)  # stack position -> fold
    stoppers = [None] * net.folds
    n_classes = (net.modules[-1].d_out if net.classifier_weight is None
                 else net.classifier_weight.shape[-1])
    targets, train_counts = _loss_targets(labels, train_mask, n_classes)
    if cfg.early_stop_window > 0:
        stoppers = [EarlyStopper(cfg.early_stop_window) for _ in active]
        monitor_mask = train_mask
        if cfg.stop_metric == "val":
            monitor_mask = np.where(val_mask.any(axis=1)[:, None], val_mask, train_mask)
        _, monitor_counts = _loss_targets(labels, monitor_mask, n_classes)
    work = net

    def leave(going):
        """The one exit: folds where ``going`` holds write their final weights
        into ``net``, the best epoch's unless diverged, and leave the stack."""
        nonlocal work, active, stoppers
        for i in np.flatnonzero(going):
            final = stoppers[i].best_state if stoppers[i] is not None else None
            if final is None or epochs[active[i]] is None:
                final = {name: p[i] for name, p in work.parameters().items()}
            for name, p in net.parameters().items():
                p[active[i]] = final[name]
        work = work.map(lambda p: p[~going])
        optimizer.take(~going)
        active = active[~going]
        stoppers = [s for s, g in zip(stoppers, going) if not g]

    for epoch in range(1, cfg.epochs + 1):
        rngs = [dropout_rng[f] for f in active] if cfg.dropout > 0.0 else None
        scores, tape = network_forward(work, lap, x, input_basis, dropout=cfg.dropout,
                                       dropout_rng=rngs)
        losses, grad = _cross_entropy(scores, train_mask[active], targets, train_counts[active])
        grads = network_backward(tape, grad)
        if cfg.weight_decay > 0.0:
            for name, p in work.parameters().items():
                grads[name] = grads[name] + cfg.weight_decay * p
        finite = np.isfinite(losses)
        for g in grads.values():
            finite &= np.isfinite(g.reshape(active.size, -1)).all(axis=1)
        if not finite.all():
            for f in active[~finite]:
                epochs[f] = None
            leave(~finite)
            grads = {name: g[finite] for name, g in grads.items()}
            if not active.size:
                break
        optimizer.step(work.parameters(), grads)
        if cfg.early_stop_window > 0:
            scores, _ = network_forward(work, lap, x, input_basis)
            monitor_losses, _ = _cross_entropy(scores, monitor_mask[active], targets,
                                               monitor_counts[active])
            going = ~np.isfinite(monitor_losses)
            for i in np.flatnonzero(~going):
                going[i] = stoppers[i].update(monitor_losses[i], state_fn=lambda i=i: {
                    name: p[i].copy() for name, p in work.parameters().items()})
            for i in np.flatnonzero(going):
                epochs[active[i]] = epoch if np.isfinite(monitor_losses[i]) else None
            if going.any():
                leave(going)
                if not active.size:
                    break
    leave(np.ones(active.size, dtype=bool))
    return epochs


def _require_stack(net, lap, **masks) -> None:
    """Reject a network without a fold axis, and masks that are not (F, N)."""
    if net.folds is None:
        raise ValueError("expected a fold stack; pass a single network as "
                         "net.map(lambda p: p[None])")
    for name, mask in masks.items():
        if mask is not None and mask.shape != (net.folds, lap.n_nodes):
            raise ShapeMismatchError(
                f"{name} must be (folds, nodes) = ({net.folds}, {lap.n_nodes}), got {mask.shape}"
            )


def evaluate_accuracy(net, lap, x, labels, mask, input_basis=None):
    """Percent of masked nodes whose argmax score matches the label, one per
    fold of a stack given (F, N) masks. ``input_basis`` is the first module's
    basis matrix, as ``network_forward`` takes it."""
    mask = np.asarray(mask, dtype=bool)
    _require_stack(net, lap, mask=mask)
    if not mask.any(axis=-1).all():
        raise ValueError("mask selects no nodes")
    scores, _ = network_forward(net, lap, x, input_basis)
    hits = scores.argmax(axis=-1) == np.asarray(labels)
    return [100.0 * float(np.mean(h[m])) for h, m in zip(hits, mask)]


def fold_checksum(folds) -> str:
    h = hashlib.sha256()
    for train, test in folds:
        h.update(np.packbits(np.asarray(train, dtype=bool)).tobytes())
        h.update(np.packbits(np.asarray(test, dtype=bool)).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class ExperimentResult:
    """Cross-validation outcome. Diverged folds are excluded from the
    accuracy statistics and listed by index instead."""

    fold_indices: tuple
    accuracies: tuple
    epochs: tuple
    failed_folds: tuple
    mean_accuracy: float
    sd_accuracy: float
    fingerprint: str
    fold_hash: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class _FoldContext:
    """Read-only inputs shared by every fold task of one map: what the folds
    read of a graph (see :meth:`of`), and the first-module basis."""

    lap: NormalizedLaplacian
    x: np.ndarray
    labels: np.ndarray
    n_classes: int
    # _chebyshev_basis(lap, x, k) for the highest first-module order k of any
    # task; _cross_validate builds it once the cells are known.
    basis: np.ndarray = None

    @classmethod
    def of(cls, graph) -> "_FoldContext":
        """The Chebyshev Laplacian L̃, features and labels of ``graph``, or
        ``graph`` itself if it is a context already. No fold reads the
        graph's edge columns, so a caller that drops the graph once this
        exists frees them before the basis is built and the workers start."""
        if isinstance(graph, cls):
            return graph
        return cls(lap=_chebyshev_laplacian(graph), x=graph.features, labels=graph.labels,
                   n_classes=graph.n_classes)


def _run_folds(ctx: _FoldContext, task):
    """Train and test a chunk of one cell's folds as one stack; returns one
    (accuracy, epochs) per fold, or None where it diverged.

    ``task`` is (arch, cfg, chunk), with chunk a tuple of (fold index, train
    mask, test mask). Init, the validation carve and dropout draw from seeds
    derived from ``cfg.seed`` and the fold index only, and each fold of a
    stack trains bitwise as it would alone, so the outcome does not depend on
    the chunk or on where it runs.
    """
    arch, cfg, chunk = task
    indices = [fi for fi, _, _ in chunk]
    rngs = [np.random.default_rng(derive_seed(cfg.seed, "fold", fi)) for fi in indices]
    net = build_network(arch, ctx.x.shape[1], ctx.n_classes, rngs)
    train = np.array([t for _, t, _ in chunk])
    test = np.array([t for _, _, t in chunk])
    val = None
    if cfg.early_stop_window > 0 and cfg.stop_metric == "val":
        val = np.array([_carve_validation(t, ctx.labels, cfg.val_fraction,
                                          derive_seed(cfg.seed, "val", fi))
                        for fi, t, _ in chunk])
        train = train & ~val
    drop_rngs = None
    if cfg.dropout > 0.0:
        drop_rngs = [np.random.default_rng(derive_seed(cfg.seed, "dropout", fi)) for fi in indices]
    epochs = train_network(net, ctx.lap, ctx.x, ctx.labels, train, cfg,
                           input_basis=ctx.basis, val_mask=val, dropout_rng=drop_rngs)
    done = [i for i, ep in enumerate(epochs) if ep is not None]
    outcomes = [None] * len(chunk)
    if done:
        accs = evaluate_accuracy(net.map(lambda p: p[done]), ctx.lap, ctx.x, ctx.labels,
                                 test[done], input_basis=ctx.basis)
        for i, acc in zip(done, accs):
            outcomes[i] = (acc, epochs[i])
    return outcomes


# Set in each pool worker by its initializer: under fork the context is
# inherited, under other start methods it is pickled once per worker.
_worker_context = None


def _set_worker_context(ctx: _FoldContext) -> None:
    global _worker_context
    _worker_context = ctx


def _run_folds_in_worker(task):
    return _run_folds(_worker_context, task)


# Bytes one stack may hold in the Chebyshev basis of a module past the
# first, which grows with the folds: past the 2 MiB L2 cache of the machine
# measured, 10-fold stacks of order-10 modules ran slower than one fold alone.
STACK_BASIS_BYTES = 2 * 2**20


def _stack_size(arch: ArchSpec, n_nodes: int, n_classes: int, n_folds: int, workers: int) -> int:
    """Folds per stack: enough to give each worker one stack per cell, but no
    more than keep a later module's basis within STACK_BASIS_BYTES.

    NumPy runs a product with a dimension of 1 as a matrix-vector kernel
    chosen by the operands' strides, so a width-1 layer or output would
    round differently in a stack than alone; such nets train one fold at a
    time.
    """
    widths = [b.width for m in arch.modules for b in m.branches] + [n_classes]
    if min(widths) < 2:
        return 1
    size = math.ceil(n_folds / workers)
    for prev, mod in zip(arch.modules, arch.modules[1:]):
        fold_bytes = (max(b.order for b in mod.branches) + 1) * n_nodes * prev.width * 8
        size = min(size, max(1, STACK_BASIS_BYTES // fold_bytes))
    return size


def _cross_validate(ctx: _FoldContext, cells, threads) -> list:
    """One ExperimentResult per (arch, cfg, folds) cell, on the graph of
    ``ctx`` (a :meth:`_FoldContext.of`).

    Each cell's folds are cut into chunks of ``_stack_size`` folds, at most
    ceil(folds / threads), and every chunk of every cell is one task of a
    single map that trains it as one fold stack; a pool so balances slow
    cells against fast ones and is never nested. The first-module basis is
    built once, here. ``threads`` None is ``workers.worker_count``'s
    default; the tasks run in min(threads, tasks) worker processes when that
    is above 1, else here.
    """
    for arch, _, _ in cells:
        width = arch.modules[-1].width
        if not arch.classifier and width < ctx.n_classes:
            raise ValueError(f"without a classifier, the last module's output width {width} "
                             f"must cover the {ctx.n_classes} classes")
    threads = worker_count(threads)
    tasks = []
    for arch, cfg, folds in cells:
        indexed = [(fi, train, test) for fi, (train, test) in enumerate(folds)]
        size = _stack_size(arch, ctx.lap.n_nodes, ctx.n_classes, len(indexed), threads)
        tasks += [(arch, cfg, tuple(indexed[i:i + size])) for i in range(0, len(indexed), size)]
    order = max(b.order for arch, _, _ in cells for b in arch.modules[0].branches)
    ctx = replace(ctx, basis=_chebyshev_basis(ctx.lap, ctx.x, order))
    workers = min(threads, len(tasks))
    if workers > 1:
        with worker_map(workers, _set_worker_context, (ctx,)) as pool_map:
            per_task = list(pool_map(_run_folds_in_worker, tasks))
    else:
        per_task = [_run_folds(ctx, task) for task in tasks]
    outcomes = iter([outcome for chunk in per_task for outcome in chunk])
    return [_cv_result(arch, cfg, folds, [next(outcomes) for _ in folds])
            for arch, cfg, folds in cells]


def _cv_result(arch, cfg, folds, outcomes) -> ExperimentResult:
    fold_indices = []
    accuracies = []
    epochs = []
    failed = []
    for fi, outcome in enumerate(outcomes):
        if outcome is None:
            failed.append(fi)
            continue
        fold_indices.append(fi)
        accuracies.append(outcome[0])
        epochs.append(outcome[1])

    accs = np.array(accuracies)
    mean = float(accs.mean()) if accs.size else float("nan")
    sd = float(accs.std(ddof=1)) if accs.size >= 2 else 0.0
    return ExperimentResult(
        fold_indices=tuple(fold_indices),
        accuracies=tuple(accuracies),
        epochs=tuple(epochs),
        failed_folds=tuple(failed),
        mean_accuracy=mean,
        sd_accuracy=sd,
        fingerprint=config_fingerprint({"arch": asdict(arch), "train": asdict(cfg)}),
        fold_hash=fold_checksum(folds),
    )


def _default_folds(labels, cfg: TrainConfig):
    return stratified_folds(labels, cfg.n_folds, derive_seed(cfg.seed, "folds"))


# Each protocol below takes a graph or its _FoldContext. The CLI builds the
# context itself and drops its graph, so the edge columns are freed before
# the basis is built and the workers start; a caller that keeps its graph
# keeps them.


def run_cv(graph, arch: ArchSpec, cfg: TrainConfig, folds=None, threads=None) -> ExperimentResult:
    """Stratified k-fold cross-validation of one architecture on one graph.

    Fold assignment, per-fold initialization, and the validation carve each
    use seeds derived from ``cfg.seed``, so results are a pure function of
    (graph, arch, cfg), whatever ``threads`` is. Pass ``folds`` to pin the
    split across several runs.
    """
    ctx = _FoldContext.of(graph)
    folds = list(_default_folds(ctx.labels, cfg) if folds is None else folds)
    return _cross_validate(ctx, [(arch, cfg, folds)], threads)[0]


@dataclass(frozen=True)
class SweepSpec:
    """Grid sweep over the orders (k1, k2) of a two-layer sequential net."""

    k_min: int = 1
    k_max: int = 6
    width: int = 16
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        if self.k_min < 0 or self.k_max < self.k_min:
            raise ValueError(f"bad order range [{self.k_min}, {self.k_max}]")
        if self.width < 1:
            raise ValueError("width must be >= 1")


@dataclass(frozen=True)
class SweepResult:
    grid: dict  # (k1, k2) -> ExperimentResult
    best: tuple


def heatmap_sweep(graph, spec: SweepSpec, threads=None) -> SweepResult:
    """Cross-validate every (k1, k2) cell of the order grid.

    Each cell derives its own seed from the base seed and its coordinates,
    never from scheduling, so any ``threads`` value produces exactly the
    same result as a serial run.
    """
    ctx = _FoldContext.of(graph)
    cells = {}
    for k1 in range(spec.k_min, spec.k_max + 1):
        for k2 in range(spec.k_min, spec.k_max + 1):
            cfg = replace(spec.train, seed=derive_seed(spec.train.seed, "cell", k1, k2))
            cells[(k1, k2)] = (sequential((k1, k2), spec.width), cfg,
                               _default_folds(ctx.labels, cfg))
    grid = dict(zip(cells, _cross_validate(ctx, list(cells.values()), threads)))

    def rank(cell):
        mean = grid[cell].mean_accuracy
        if not np.isfinite(mean):
            mean = -np.inf
        return (mean, -cell[0], -cell[1])

    best = max(grid, key=rank)
    return SweepResult(grid=grid, best=best)


def single_k_sweep(graph, k_min: int, k_max: int, width: int, cfg: TrainConfig,
                   threads=None) -> dict:
    """One single-filter model per order k; returns {k: ExperimentResult}."""
    if k_min < 0 or k_max < k_min:
        raise ValueError(f"bad order range [{k_min}, {k_max}]")
    ctx = _FoldContext.of(graph)
    cells = []
    for k in range(k_min, k_max + 1):
        cell_cfg = replace(cfg, seed=derive_seed(cfg.seed, "k", k))
        cells.append((single_layer(k, width), cell_cfg, _default_folds(ctx.labels, cell_cfg)))
    return dict(zip(range(k_min, k_max + 1), _cross_validate(ctx, cells, threads)))


COMPARE_MODELS = (
    "sequential-k1k2",
    "sequential-k1k1",
    "sequential-k2k2",
    "inception-concat",
    "inception-maxpool",
)


@dataclass(frozen=True)
class ComparisonResult:
    k1: int
    k2: int
    results: dict  # model name -> ExperimentResult
    convergence_ratios: dict  # aggregator -> baseline epochs / inception epochs


def compare_models(graph, k1: int, k2: int, cfg: TrainConfig, width: int = 16,
                   threads=None) -> ComparisonResult:
    """Fixed five-way comparison on shared folds.

    Two-layer sequential nets with orders (k1, k2), (k1, k1), (k2, k2) are
    baselines; one-module two-branch nets with orders {k1, k2} under each
    aggregator are the candidates. All five see identical folds and the
    same per-fold init streams, so equal architectures give equal numbers.
    """
    ctx = _FoldContext.of(graph)
    folds = _default_folds(ctx.labels, cfg)
    archs = {
        "sequential-k1k2": sequential((k1, k2), width),
        "sequential-k1k1": sequential((k1, k1), width),
        "sequential-k2k2": sequential((k2, k2), width),
        "inception-concat": inception((k1, k2), width, "concat"),
        "inception-maxpool": inception((k1, k2), width, "maxpool"),
    }
    cells = [(arch, cfg, folds) for arch in archs.values()]
    results = dict(zip(archs, _cross_validate(ctx, cells, threads)))

    ratios = {}
    base = results["sequential-k1k2"]
    for agg in ("concat", "maxpool"):
        inc = results[f"inception-{agg}"]
        if base.epochs and inc.epochs:
            ratios[agg] = float(np.mean(base.epochs)) / float(np.mean(inc.epochs))
        else:
            ratios[agg] = float("nan")
    return ComparisonResult(k1=k1, k2=k2, results=results, convergence_ratios=ratios)


def _write_fold_rows(path, key_names, keyed_results) -> None:
    """One (key..., fold, accuracy, epochs) row per successful fold of each
    (key tuple, ExperimentResult) pair, in the order given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*key_names, "fold", "accuracy", "epochs"])
        for key, res in keyed_results:
            for fi, acc, ep in zip(res.fold_indices, res.accuracies, res.epochs):
                writer.writerow([*key, fi, repr(acc), ep])


def write_cv_csv(path, result: ExperimentResult) -> None:
    _write_fold_rows(path, (), [((), result)])


def write_sweep_csv(path, sweep: SweepResult) -> None:
    _write_fold_rows(path, ("k1", "k2"), [(cell, sweep.grid[cell]) for cell in sorted(sweep.grid)])


def write_boxplot_csv(path, results_by_k: dict) -> None:
    _write_fold_rows(path, ("k",), [((k,), results_by_k[k]) for k in sorted(results_by_k)])


def write_compare_csv(path, comparison: ComparisonResult) -> None:
    _write_fold_rows(path, ("model",),
                     [((name,), comparison.results[name]) for name in COMPARE_MODELS])


def write_summary_json(path, payload: dict) -> None:
    """Strict JSON: non-finite floats, such as an all-diverged mean, are null."""
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
