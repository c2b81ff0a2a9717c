import json
import re
from concurrent.futures import Future
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

from chebgcn.experiments import (
    COMPARE_MODELS,
    ArchSpec,
    BranchSpec,
    EarlyStopper,
    ExperimentResult,
    ModuleSpec,
    SweepSpec,
    TrainConfig,
    _carve_validation,
    _run_folds,
    _stack_size,
    build_network,
    compare_models,
    config_fingerprint,
    derive_seed,
    early_stop,
    evaluate_accuracy,
    fold_checksum,
    heatmap_sweep,
    inception,
    run_cv,
    sequential,
    single_k_sweep,
    single_layer,
    train_network,
    write_boxplot_csv,
    write_compare_csv,
    write_cv_csv,
    write_summary_json,
    write_sweep_csv,
)
from chebgcn.graph import (
    NormalizedLaplacian,
    PopulationGraph,
    build_laplacian,
    chebyshev_apply,
    rescale_laplacian,
    _chebyshev_laplacian,
)
from chebgcn.nn import (
    ChebFilterLayer,
    InceptionModule,
    Network,
    ShapeMismatchError,
    _cross_entropy,
    masked_cross_entropy,
    network_backward,
    network_forward,
)
from chebgcn.simdata import SimConfig, generate, stratified_folds
from chebgcn.workers import _openblas, _usable_cpus, worker_map

from conftest import csr_of


def blas_threads(_=None):
    """Threads NumPy's OpenBLAS runs in the calling process."""
    return _openblas().scipy_openblas_get_num_threads64_()


@pytest.fixture(scope="module")
def toy_graph():
    return generate(SimConfig(n_per_class=20, variances=(0.3, 0.3), beta=0.8, seed=42))


def quick_cfg(**kw):
    base = dict(epochs=40, lr=0.2, n_folds=4, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "folds") == derive_seed(0, "folds")

    def test_sensitive_to_every_part(self):
        a = derive_seed(0, "fold", 1)
        assert a != derive_seed(1, "fold", 1)
        assert a != derive_seed(0, "fold", 2)
        assert a != derive_seed(0, "cell", 1)

    def test_order_matters(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)

    def test_fits_in_64_bits(self):
        s = derive_seed(123, "anything")
        assert 0 <= s < 2**64
        np.random.default_rng(s)  # accepted as a seed


class TestConfigFingerprint:
    def test_key_order_is_irrelevant(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})

    def test_values_matter(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 200 and cfg.lr == 0.2 and cfg.n_folds == 10
        assert cfg.early_stop_window == 0 and cfg.dropout == 0.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"epochs": 0},
            {"lr": 0.0},
            {"lr": -1.0},
            {"lr": float("inf")},
            {"optimizer": "lbfgs"},
            {"early_stop_window": -1},
            {"stop_metric": "test"},
            {"val_fraction": 0.0},
            {"val_fraction": 1.0},
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"weight_decay": -0.01},
            {"weight_decay": float("inf")},
            {"weight_decay": float("nan")},
            {"n_folds": 1},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestArchSpecs:
    def test_single_layer(self):
        arch = single_layer(3, 8)
        assert len(arch.modules) == 1
        assert arch.modules[0].branches == (BranchSpec(3, 8),)

    def test_sequential(self):
        arch = sequential((1, 5), 16)
        assert [m.branches[0].order for m in arch.modules] == [1, 5]
        assert all(len(m.branches) == 1 for m in arch.modules)

    def test_inception(self):
        arch = inception((1, 5), 16, "maxpool")
        assert len(arch.modules) == 1
        assert [b.order for b in arch.modules[0].branches] == [1, 5]
        assert arch.modules[0].aggregator == "maxpool"

    def test_bad_branch_rejected(self):
        with pytest.raises(ValueError):
            BranchSpec(-1, 4)
        with pytest.raises(ValueError):
            BranchSpec(2, 0)

    @pytest.mark.parametrize("make, match", [
        (lambda: ModuleSpec(branches=()), "at least one branch"),
        (lambda: ModuleSpec(branches=(BranchSpec(1, 4),), aggregator="sum"), "aggregator"),
        (lambda: ArchSpec(modules=()), "modules"),
        (lambda: ArchSpec(modules=single_layer(1, 4).modules, activation="tanh"), "activation"),
    ], ids=["no-branch", "aggregator", "no-module", "activation"])
    def test_bad_module_or_architecture_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_module_width_sums_branches_under_concat_only(self):
        branches = (BranchSpec(1, 4), BranchSpec(3, 4))
        assert ModuleSpec(branches=branches).width == 8
        assert ModuleSpec(branches=branches, aggregator="maxpool").width == 4
        # a property, so config fingerprints built from asdict do not change
        assert set(asdict(ModuleSpec(branches=branches))) == {"branches", "aggregator"}

    def test_build_network_is_seed_deterministic(self):
        arch = inception((1, 3), 4)
        a = build_network(arch, 2, 2, np.random.default_rng(7))
        b = build_network(arch, 2, 2, np.random.default_rng(7))
        for k, v in a.parameters().items():
            npt.assert_array_equal(v, b.parameters()[k])

    def test_build_network_without_classifier(self):
        net = build_network(ArchSpec(modules=sequential((2,), 3).modules, classifier=False), 2, 2,
                            np.random.default_rng(0))
        assert net.classifier_weight is None


class TestEarlyStopping:
    def test_decreasing_series_never_stops(self):
        stopped, used, best = early_stop([5.0, 4.0, 3.0, 2.0, 1.0], window=2)
        assert (stopped, used, best) == (False, 5, 5)

    def test_constant_series_stops_after_window_plus_one(self):
        for window in (1, 2, 3):
            stopped, used, best = early_stop([1.0] * 10, window=window)
            assert (stopped, used, best) == (True, window + 1, 1)

    def test_plateau_after_improvement(self):
        stopped, used, best = early_stop([3.0, 2.0, 2.0, 2.0], window=2)
        assert (stopped, used, best) == (True, 4, 2)

    def test_late_improvement_resets_the_clock(self):
        stopped, used, best = early_stop([3.0, 3.0, 2.0, 2.0, 2.0, 1.0], window=3)
        assert (stopped, used, best) == (False, 6, 6)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            EarlyStopper(0)

    def test_stopper_snapshots_best_state(self):
        stopper = EarlyStopper(2)
        seen = []
        stopper.update(2.0, state_fn=lambda: "a")
        stopper.update(1.0, state_fn=lambda: "b")
        stopper.update(1.5, state_fn=lambda: "c")
        assert stopper.best_state == "b"
        assert stopper.best_epoch == 2


class TestCarveValidation:
    def test_subset_and_stratified(self):
        labels = np.repeat([0, 1], 20)
        train = np.ones(40, dtype=bool)
        val = _carve_validation(train, labels, 0.2, seed=0)
        assert (val & ~train).sum() == 0
        assert val[labels == 0].sum() == 4
        assert val[labels == 1].sum() == 4

    def test_at_least_one_per_class(self):
        labels = np.repeat([0, 1], 10)
        val = _carve_validation(np.ones(20, dtype=bool), labels, 0.01, seed=0)
        assert val[labels == 0].sum() == 1
        assert val[labels == 1].sum() == 1

    def test_never_swallows_a_whole_class(self):
        labels = np.array([0, 0, 1, 1])
        val = _carve_validation(np.ones(4, dtype=bool), labels, 0.99, seed=0)
        for c in (0, 1):
            assert 0 < val[labels == c].sum() < 2

    def test_class_with_one_training_node_gets_no_validation_node(self):
        labels = np.array([0, 0, 0, 0, 0, 1])
        val = _carve_validation(np.ones(6, dtype=bool), labels, 0.5, seed=0)
        assert val[labels == 0].sum() == 2
        assert not val[labels == 1].any()

    def test_deterministic(self):
        labels = np.repeat([0, 1], 15)
        train = np.ones(30, dtype=bool)
        a = _carve_validation(train, labels, 0.2, seed=5)
        b = _carve_validation(train, labels, 0.2, seed=5)
        npt.assert_array_equal(a, b)


def identity_readout_net(d):
    layer = ChebFilterLayer(theta=np.eye(d)[None, :, :], bias=np.zeros(d), activation="linear")
    return Network(modules=[InceptionModule(branches=[layer])])


def train_alone(net, lap, x, labels, mask, cfg, val_mask=None, dropout_rng=None):
    """Train one network as a one-fold stack; returns its epochs, or None if
    it diverged. The stack's parameters are views of ``net``'s, so ``net``
    ends trained."""
    (epochs,) = train_network(net.map(lambda p: p[None]), lap, x, labels, mask[None], cfg,
                              val_mask=None if val_mask is None else val_mask[None],
                              dropout_rng=[dropout_rng])
    return epochs


def accuracy_alone(net, lap, x, labels, mask):
    (acc,) = evaluate_accuracy(net.map(lambda p: p[None]), lap, x, labels, mask[None])
    return acc


class TestTrainAndEvaluate:
    def test_training_reduces_loss(self, toy_graph):
        lap = rescale_laplacian(build_laplacian(toy_graph))
        x = toy_graph.features
        labels = toy_graph.labels
        mask = np.ones(toy_graph.n_nodes, dtype=bool)
        net = build_network(single_layer(2, 8), 2, 2, np.random.default_rng(0))
        before, _ = masked_cross_entropy(network_forward(net, lap, x)[0], labels, mask)
        ran = train_alone(net, lap, x, labels, mask, quick_cfg())
        after, _ = masked_cross_entropy(network_forward(net, lap, x)[0], labels, mask)
        assert ran == 40
        assert after < before

    def test_training_is_bitwise_repeatable(self, toy_graph):
        lap = rescale_laplacian(build_laplacian(toy_graph))
        x, labels = toy_graph.features, toy_graph.labels
        mask = np.ones(toy_graph.n_nodes, dtype=bool)
        nets = []
        for _ in range(2):
            net = build_network(single_layer(2, 8), 2, 2, np.random.default_rng(3))
            train_alone(net, lap, x, labels, mask, quick_cfg(epochs=15))
            nets.append(net)
        for k, v in nets[0].parameters().items():
            npt.assert_array_equal(v, nets[1].parameters()[k])

    def test_early_stopping_restores_best_weights(self, toy_graph):
        lap = rescale_laplacian(build_laplacian(toy_graph))
        x, labels = toy_graph.features, toy_graph.labels
        mask = np.ones(toy_graph.n_nodes, dtype=bool)
        net = build_network(single_layer(1, 8), 2, 2, np.random.default_rng(1))
        cfg = quick_cfg(epochs=60, lr=2.5, early_stop_window=5, stop_metric="train")
        ran = train_alone(net, lap, x, labels, mask, cfg)
        # the run ends on its best monitored loss: one more eval must match it
        final, _ = masked_cross_entropy(network_forward(net, lap, x)[0], labels, mask)
        stopper = EarlyStopper(5)
        probe = build_network(single_layer(1, 8), 2, 2, np.random.default_rng(1))
        losses = []
        params = probe.parameters()
        from chebgcn.nn import make_optimizer, network_backward

        opt = make_optimizer("sgd", 2.5)
        for _ in range(ran):
            scores, tape = network_forward(probe, lap, x)
            loss, grad = masked_cross_entropy(scores, labels, mask)
            opt.step(params, network_backward(tape, grad))
            scores, _ = network_forward(probe, lap, x)
            losses.append(masked_cross_entropy(scores, labels, mask)[0])
        assert final == min(losses)

    def test_divergent_run_reports_none(self, toy_graph):
        lap = rescale_laplacian(build_laplacian(toy_graph))
        x, labels = toy_graph.features, toy_graph.labels
        mask = np.ones(toy_graph.n_nodes, dtype=bool)
        net = build_network(single_layer(2, 8), 2, 2, np.random.default_rng(0))
        cfg = quick_cfg(epochs=200, lr=1e8, weight_decay=1e8)
        assert train_alone(net, lap, x, labels, mask, cfg) is None

    # the forward and backward passes below run outside train_network, which
    # alone silences overflow
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_finite_loss_with_non_finite_gradient_reports_none(self):
        # node 6 is isolated and outside the mask: its hidden row overflows
        # to inf, the masked loss stays finite, and the classifier weight's
        # gradient picks up nan from inf * 0
        adj = np.zeros((7, 7))
        adj[np.arange(5), np.arange(1, 6)] = adj[np.arange(1, 6), np.arange(5)] = 1.0
        x = np.random.default_rng(0).standard_normal((7, 2))
        x[6] = 1.5e308
        labels = np.arange(7) % 2
        mask = np.arange(7) < 6
        graph = PopulationGraph(adjacency=adj, features=x, labels=labels, train_mask=mask)
        lap = rescale_laplacian(build_laplacian(graph))
        net = build_network(single_layer(1, 4), 2, 2, np.random.default_rng(2))
        scores, tape = network_forward(net, lap, x)
        loss, grad = masked_cross_entropy(scores, labels, mask)
        assert np.isfinite(loss)
        assert not np.isfinite(network_backward(tape, grad)["classifier.weight"]).all()
        # one epoch: the fold must leave before its first step, not when the
        # nan weights make the next loss nan
        assert train_alone(net, lap, x, labels, mask, quick_cfg(epochs=1)) is None
        assert all(np.isfinite(p).all() for p in net.parameters().values())

    @pytest.mark.parametrize("window", [0, 3])
    def test_overflowing_step_leaves_the_fold_at_the_weights_it_diverged_with(self, window):
        # the first step overflows the weights; the fold diverges on the next
        # loss (window 0) or on the monitored loss right after the step
        # (window 3), and leaves with those non-finite weights, not earlier ones
        graph = generate(SimConfig(n_per_class=15, variances=(0.3, 0.3), beta=0.8, seed=1))
        lap = rescale_laplacian(build_laplacian(graph))
        x, labels = graph.features * 10, graph.labels
        mask = np.ones(graph.n_nodes, dtype=bool)
        lr = 1.7e308
        net = build_network(single_layer(2, 4), 2, 2, np.random.default_rng(0))
        expected = build_network(single_layer(2, 4), 2, 2, np.random.default_rng(0))
        scores, tape = network_forward(expected, lap, x)
        grads = network_backward(tape, masked_cross_entropy(scores, labels, mask)[1])
        with np.errstate(over="ignore", invalid="ignore"):
            for name, p in expected.parameters().items():
                p -= lr * grads[name]
        cfg = TrainConfig(epochs=20, lr=lr, stop_metric="train", n_folds=2,
                          early_stop_window=window)
        assert train_alone(net, lap, x, labels, mask, cfg) is None
        params = net.parameters()
        assert sum(int((~np.isfinite(p)).sum()) for p in params.values()) == 17
        for name, p in expected.parameters().items():
            npt.assert_array_equal(params[name], p)

    def test_weight_decay_shrinks_weight_norms(self, toy_graph):
        lap = rescale_laplacian(build_laplacian(toy_graph))
        x, labels = toy_graph.features, toy_graph.labels
        mask = np.ones(toy_graph.n_nodes, dtype=bool)
        norms = {}
        for wd in (0.0, 0.5):
            net = build_network(single_layer(2, 8), 2, 2, np.random.default_rng(4))
            train_alone(net, lap, x, labels, mask, quick_cfg(epochs=30, weight_decay=wd))
            norms[wd] = sum(float(np.abs(v).sum()) for v in net.parameters().values())
        assert norms[0.5] < norms[0.0]

    def test_evaluate_accuracy_counts_argmax_matches(self):
        # identity network: scores are the features themselves
        x = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 4.0], [1.0, 2.0]])
        labels = np.array([0, 1, 1, 1])  # node 2 predicted 0, labelled 1
        net = identity_readout_net(2)
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 1.0
        lap = rescale_laplacian(build_laplacian(adj))
        masks = np.array([[1, 1, 1, 1], [1, 1, 0, 1]], bool)
        assert evaluate_accuracy(net.map(lambda p: np.stack([p, p])), lap, x, labels,
                                 masks) == [75.0, 100.0]

    def test_evaluate_accuracy_needs_nodes(self):
        net = identity_readout_net(2)
        lap = rescale_laplacian(build_laplacian(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="no nodes"):
            accuracy_alone(net, lap, np.zeros((2, 2)), np.zeros(2, int), np.zeros(2, bool))

    def test_single_networks_are_rejected_naming_the_fix(self):
        net = identity_readout_net(2)
        lap = rescale_laplacian(build_laplacian(np.zeros((2, 2))))
        x, labels, mask = np.zeros((2, 2)), np.zeros(2, int), np.ones(2, bool)
        fix = re.escape("net.map(lambda p: p[None])")
        with pytest.raises(ValueError, match=fix):
            train_network(net, lap, x, labels, mask, quick_cfg())
        with pytest.raises(ValueError, match=fix):
            evaluate_accuracy(net, lap, x, labels, mask)

    def test_masks_without_a_fold_axis_are_rejected(self):
        # a one-fold stack scored a node mask as one fold's mask of all nodes
        net = identity_readout_net(2).map(lambda p: p[None])
        lap = rescale_laplacian(build_laplacian(np.zeros((4, 4))))
        x, labels = np.zeros((4, 2)), np.zeros(4, int)
        shape = re.escape("mask must be (folds, nodes) = (1, 4)")
        with pytest.raises(ShapeMismatchError, match=shape):
            evaluate_accuracy(net, lap, x, labels, np.ones(4, bool))
        with pytest.raises(ShapeMismatchError, match="train_mask"):
            train_network(net, lap, x, labels, np.ones(4, bool), quick_cfg())
        with pytest.raises(ShapeMismatchError, match="val_mask"):
            train_network(net, lap, x, labels, np.ones((1, 4), bool), quick_cfg(),
                          val_mask=np.ones(4, bool))

    def test_val_early_stopping_without_a_val_mask_is_rejected(self, monkeypatch):
        def no_epoch(*args, **kwargs):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr("chebgcn.experiments.network_forward", no_epoch)
        net = identity_readout_net(2).map(lambda p: p[None])
        lap = rescale_laplacian(build_laplacian(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="val_mask"):
            train_network(net, lap, np.zeros((2, 2)), np.zeros(2, int), np.ones((1, 2), bool),
                          quick_cfg(early_stop_window=3, stop_metric="val"))

    def test_dropout_without_generators_is_rejected(self):
        net = identity_readout_net(2).map(lambda p: p[None])
        lap = rescale_laplacian(build_laplacian(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="one random generator per fold"):
            train_network(net, lap, np.zeros((2, 2)), np.zeros(2, int), np.ones((1, 2), bool),
                          quick_cfg(dropout=0.5))


class TestFoldChecksum:
    def test_deterministic_and_order_sensitive(self):
        labels = np.repeat([0, 1], 10)
        folds = stratified_folds(labels, 4, seed=0)
        assert fold_checksum(folds) == fold_checksum(folds)
        assert fold_checksum(folds) != fold_checksum(folds[::-1])

    def test_sensitive_to_mask_contents(self):
        labels = np.repeat([0, 1], 10)
        a = stratified_folds(labels, 4, seed=0)
        b = stratified_folds(labels, 4, seed=1)
        assert fold_checksum(a) != fold_checksum(b)


class TestFoldStacks:
    """A stack of folds trains each fold bitwise as training it alone does."""

    # two modules: the first runs off the shared input basis, the second off
    # the stacked one; the first has two branches of unequal order
    ARCH = ArchSpec(modules=(
        ModuleSpec(branches=(BranchSpec(1, 4), BranchSpec(3, 4))),
        ModuleSpec(branches=(BranchSpec(2, 5),)),
    ))
    # one stack, every exit: fold 0 stops early, fold 1's monitored loss goes
    # non-finite after a finite step, fold 2 runs out its budget
    THREE_EXITS = dict(epochs=30, lr=5.0, early_stop_window=20, stop_metric="train",
                       dropout=0.3, weight_decay=1e-3)
    # Final training losses of THREE_EXITS' surviving folds 0 and 2, to 1e-10
    # relative as TestCohortLosses'. A gradient scaled by 1.05 moves them by
    # far more; the two storages differ by about 1e-15.
    THREE_EXITS_LOSSES = [0.23731705268770004, 0.06804006781638663]

    @pytest.mark.parametrize("storage", [csr_of, np.asarray])
    @pytest.mark.parametrize("kw, arch, diverged", [
        (dict(epochs=25), ARCH, ()),
        (dict(epochs=20, lr=0.01, optimizer="adam", weight_decay=1e-3), ARCH, ()),
        (dict(epochs=60, dropout=0.3, early_stop_window=3, stop_metric="val",
              val_fraction=0.2), ARCH, ()),
        (dict(epochs=80, lr=2.5, early_stop_window=4, stop_metric="train"), ARCH, ()),
        # Adam's steps overflow the scores of the middle fold only
        (dict(epochs=30, lr=1e153, optimizer="adam", early_stop_window=5, stop_metric="val",
              val_fraction=0.2, dropout=0.3, weight_decay=1e-3), single_layer(2, 8), (1,)),
        (THREE_EXITS, ARCH, (1,)),
    ])
    def test_each_fold_ends_where_it_would_alone(self, toy_graph, storage, kw, arch, diverged):
        cfg = quick_cfg(**kw)
        lap = rescale_laplacian(build_laplacian(toy_graph))
        lap = NormalizedLaplacian(matrix=storage(lap.toarray()))
        x, labels = toy_graph.features, toy_graph.labels
        train = np.array([t for t, _ in stratified_folds(labels, 3, seed=5)])
        val = None
        if cfg.stop_metric == "val" and cfg.early_stop_window:
            val = np.array([_carve_validation(t, labels, cfg.val_fraction, seed=f)
                            for f, t in enumerate(train)])
            train = train & ~val

        def rngs(base):
            return [np.random.default_rng(base + f) for f in range(len(train))]

        stack = build_network(arch, 2, 2, rngs(140))
        epochs = train_network(stack, lap, x, labels, train, cfg, val_mask=val,
                               dropout_rng=rngs(240))
        assert tuple(f for f, ep in enumerate(epochs) if ep is None) == diverged
        for f in range(len(train)):
            alone = build_network(arch, 2, 2, rngs(140)[f])
            ran = train_alone(alone, lap, x, labels, train[f], cfg,
                              val_mask=None if val is None else val[f],
                              dropout_rng=rngs(240)[f])
            assert ran == epochs[f]
            if ran is None:
                continue
            for name, p in alone.parameters().items():
                npt.assert_array_equal(stack.parameters()[name][f], p, err_msg=name)
            one = stack.map(lambda p: p[[f]])
            assert (evaluate_accuracy(one, lap, x, labels, ~train[[f]])
                    == [accuracy_alone(alone, lap, x, labels, ~train[f])])

    @pytest.mark.parametrize("storage", [csr_of, np.asarray])
    def test_one_stack_takes_every_exit(self, toy_graph, storage, monkeypatch):
        losses = []

        def recording(*args):
            out = _cross_entropy(*args)
            losses.append(out[0])
            return out

        monkeypatch.setattr("chebgcn.experiments._cross_entropy", recording)
        lap = rescale_laplacian(build_laplacian(toy_graph))
        lap = NormalizedLaplacian(matrix=storage(lap.toarray()))
        train = np.array([t for t, _ in stratified_folds(toy_graph.labels, 3, seed=5)])
        stack = build_network(self.ARCH, 2, 2, [np.random.default_rng(140 + f) for f in range(3)])
        epochs = train_network(stack, lap, toy_graph.features, toy_graph.labels, train,
                               quick_cfg(**self.THREE_EXITS),
                               dropout_rng=[np.random.default_rng(240 + f) for f in range(3)])
        assert epochs == [21, None, 30]
        # every epoch takes the training loss, then the monitored one
        assert all(np.isfinite(loss).all() for loss in losses[0::2])
        assert not all(np.isfinite(loss).all() for loss in losses[1::2])
        survivors = stack.map(lambda p: p[[0, 2]])
        final, _ = masked_cross_entropy(network_forward(survivors, lap, toy_graph.features)[0],
                                        toy_graph.labels, train[[0, 2]])
        npt.assert_allclose(final, self.THREE_EXITS_LOSSES, rtol=1e-10)

    @pytest.mark.parametrize("storage", [csr_of, np.asarray])
    @pytest.mark.parametrize("d", [2, 32, 200])
    @pytest.mark.parametrize("arch", [single_layer(3, 8), inception((1, 4), 8)])
    def test_weights_do_not_depend_on_how_far_the_basis_is_cached(self, toy_graph, storage,
                                                                  d, arch):
        # a branch takes a prefix of the cached basis columns, so the row
        # stride of its operand grows with the cached order
        lap = rescale_laplacian(build_laplacian(toy_graph))
        lap = NormalizedLaplacian(matrix=storage(lap.toarray()))
        x = np.random.default_rng(d).standard_normal((toy_graph.n_nodes, d))
        train = np.array([t for t, _ in stratified_folds(toy_graph.labels, 3, seed=5)])
        own = max(b.order for b in arch.modules[0].branches)
        nets = []
        for order in (own, 10):
            net = build_network(arch, d, 2, [np.random.default_rng(140 + f) for f in range(3)])
            epochs = train_network(net, lap, x, toy_graph.labels, train,
                                   quick_cfg(epochs=30, lr=0.05),
                                   input_basis=np.hstack(chebyshev_apply(lap, x, order)))
            assert epochs == [30, 30, 30]
            nets.append(net)
        for name, p in nets[0].parameters().items():
            npt.assert_array_equal(nets[1].parameters()[name], p, err_msg=name)

    def test_uneven_chunks_give_the_serial_result(self, toy_graph):
        # 10 folds over 3 workers are stacks of 4, 4 and 2
        arch = sequential((2, 1), 4)
        assert _stack_size(arch, toy_graph.n_nodes, 2, 10, 3) == 4
        cfg = quick_cfg(epochs=20, n_folds=10, dropout=0.2, early_stop_window=3,
                        stop_metric="val", val_fraction=0.2)
        results = [run_cv(toy_graph, arch, cfg, threads=t) for t in (1, 2, 3, None)]
        assert results[0] == results[1] == results[2] == results[3]

    def test_width_one_nets_and_deep_bases_get_smaller_stacks(self):
        assert _stack_size(sequential((2, 1), 1), 100, 2, 10, 1) == 1
        assert _stack_size(single_layer(2, 4), 100, 1, 10, 1) == 1
        assert _stack_size(single_layer(10, 16), 10_000, 2, 10, 1) == 10
        # order 10 past the first module: 11 * 600 * 16 * 8 bytes per fold
        assert _stack_size(sequential((1, 10), 16), 600, 2, 10, 1) == 2


class TestCohortLosses:
    """A cohort-shaped stack: 5 folds of 300 nodes with d = 200 on a dense
    Laplacian, one order-3 filter, as the benchmark's cohort workload trains
    it. Its final training losses are pinned, so that a change in how an
    epoch is computed shows here, not only in the benchmark's accuracies."""

    # Per-fold final training losses. Roundoff, such as another BLAS build's,
    # moves them by about 1e-16 relative and a gradient scaled by 1.05 by
    # about 1e-1, so 1e-10 tells the two apart.
    PINNED = [0.00935555666394209, 0.011162171979160711, 0.010193596578821658,
              0.009335276405861877, 0.010670163735015701]

    def test_final_training_losses_are_pinned(self):
        rng = np.random.default_rng(2023)
        n, d = 300, 200
        labels = rng.permutation(np.arange(n) % 2)
        x = rng.standard_normal((n, d))
        x[:, :20] += np.where(labels == 1, 0.5, -0.5)[:, None]
        adj = np.triu(rng.random((n, n)) < 0.5, 1).astype(float)
        lap = rescale_laplacian(build_laplacian(adj + adj.T))
        assert isinstance(lap.matrix, np.ndarray)
        train = np.array([t for t, _ in stratified_folds(labels, 5, seed=0)])
        rngs = [np.random.default_rng(f) for f in range(5)]
        stack = build_network(single_layer(3, 16), d, 2, rngs)
        assert train_network(stack, lap, x, labels, train, TrainConfig(epochs=40)) == [40] * 5
        losses, _ = masked_cross_entropy(network_forward(stack, lap, x)[0], labels, train)
        npt.assert_allclose(losses, self.PINNED, rtol=1e-10)


class TestSimLosses:
    """The companion of TestCohortLosses on a CSR Laplacian, at the benchmark's
    cv-deep shapes: 3-fold stacks on the 600-node overlap-compare graph with
    d = 2, order-(1, 10) nets, 30 epochs, through the training path's
    Laplacian and first-module basis. Besides the benchmark's sequential and
    concat nets: a maxpool module, a later module of two branches (their
    input-gradient coefficients add up), and a classifier-free net whose
    later maxpool module gives the scores."""

    # Per-fold final training losses, to 1e-10 relative as TestCohortLosses'.
    PINNED = {
        "sequential": [0.15782292403474368, 0.2097378460440752, 0.22299966193337387],
        "inception": [0.15509996973288362, 0.2115874811584684, 0.2131660874902404],
        "maxpool": [0.15873491449589136, 0.2168719050680594, 0.21172166832316094],
        "two-branch-later": [0.1572123225092275, 0.2089378497810616, 0.21583601169479408],
        "classifier-free": [0.15491818391856133, 0.20665683612814725, 0.22919450084893722],
    }
    ARCHS = {
        "sequential": sequential((1, 10), 16),
        "inception": inception((1, 10), 16),
        "maxpool": inception((1, 10), 16, "maxpool"),
        "two-branch-later": ArchSpec(modules=(
            ModuleSpec(branches=(BranchSpec(1, 16),)),
            ModuleSpec(branches=(BranchSpec(1, 8), BranchSpec(10, 8))),
        )),
        "classifier-free": ArchSpec(modules=(
            ModuleSpec(branches=(BranchSpec(1, 16),)),
            ModuleSpec(branches=(BranchSpec(1, 2), BranchSpec(10, 2)), aggregator="maxpool"),
        ), classifier=False),
    }

    # Inception nets under the other training options: Adam with weight decay
    # and dropout, and early stopping on a validation carve. The stopped folds'
    # best epochs (10 and 18) beat the runner-up by 8.8e-5 and 1.3e-5 relative,
    # far from a tie that roundoff could flip.
    PINNED_ADAM = [0.1445678707912743, 0.22618108869950554, 0.21227166872617068]
    PINNED_EARLY_STOP = ([30, 14, 22],
                         [0.16301968991434734, 0.22577223408549005, 0.22177039614190697])

    # Early stopping on the training loss itself, at a step size where that
    # loss stops improving: fold 0 runs out of budget at its best epoch, 40,
    # and folds 1 and 2 stop at 7 and 16, at their best epochs 4 and 13. Each
    # best epoch beats the runner-up by 1.5e-3, 3.1e-1 and 1.1e-2 relative.
    PINNED_TRAIN_STOP = ([40, 7, 16],
                         [0.13632225373192444, 0.24004219509809713, 0.20276576265056234])

    @staticmethod
    def setup_folds():
        g = generate(SimConfig(variances=(1.0, 1.0), seed=0))
        lap = _chebyshev_laplacian(g)
        assert not isinstance(lap.matrix, np.ndarray)
        train = np.array([t for t, _ in stratified_folds(g.labels, 3, seed=0)])
        return g, lap, train

    @staticmethod
    def final_losses(stack, g, lap, train):
        return masked_cross_entropy(network_forward(stack, lap, g.features)[0], g.labels, train)[0]

    @pytest.mark.parametrize("name, arch", list(ARCHS.items()))
    def test_final_training_losses_are_pinned(self, name, arch):
        g, lap, train = self.setup_folds()
        stack = build_network(arch, 2, 2, [np.random.default_rng(f) for f in range(3)])
        cfg = TrainConfig(epochs=30, lr=0.2)
        assert train_network(stack, lap, g.features, g.labels, train, cfg) == [30] * 3
        npt.assert_allclose(self.final_losses(stack, g, lap, train), self.PINNED[name],
                            rtol=1e-10)

    def test_adam_with_weight_decay_and_dropout_is_pinned(self):
        g, lap, train = self.setup_folds()
        stack = build_network(inception((1, 10), 16), 2, 2,
                              [np.random.default_rng(f) for f in range(3)])
        cfg = TrainConfig(epochs=30, lr=0.01, optimizer="adam", weight_decay=1e-3, dropout=0.3)
        drop = [np.random.default_rng(10 + f) for f in range(3)]
        assert train_network(stack, lap, g.features, g.labels, train, cfg,
                             dropout_rng=drop) == [30] * 3
        npt.assert_allclose(self.final_losses(stack, g, lap, train), self.PINNED_ADAM,
                            rtol=1e-10)

    def test_early_stopping_on_val_is_pinned(self):
        g, lap, train = self.setup_folds()
        val = np.array([_carve_validation(t, g.labels, 0.1, f) for f, t in enumerate(train)])
        train &= ~val
        stack = build_network(inception((1, 10), 16), 2, 2,
                              [np.random.default_rng(f) for f in range(3)])
        cfg = TrainConfig(epochs=30, lr=0.2, early_stop_window=4, stop_metric="val")
        epochs, losses = self.PINNED_EARLY_STOP
        assert train_network(stack, lap, g.features, g.labels, train, cfg,
                             val_mask=val) == epochs
        npt.assert_allclose(self.final_losses(stack, g, lap, train), losses, rtol=1e-10)

    def test_early_stopping_on_train_is_pinned(self):
        g, lap, train = self.setup_folds()
        stack = build_network(inception((1, 10), 16), 2, 2,
                              [np.random.default_rng(f) for f in range(3)])
        cfg = TrainConfig(epochs=40, lr=1.6, early_stop_window=3, stop_metric="train")
        epochs, losses = self.PINNED_TRAIN_STOP
        assert train_network(stack, lap, g.features, g.labels, train, cfg) == epochs
        npt.assert_allclose(self.final_losses(stack, g, lap, train), losses, rtol=1e-10)


class TestRunCv:
    def test_result_shape_and_stats(self, toy_graph):
        res = run_cv(toy_graph, single_layer(2, 8), quick_cfg())
        assert res.fold_indices == (0, 1, 2, 3)
        assert res.failed_folds == ()
        assert len(res.accuracies) == 4
        npt.assert_allclose(res.mean_accuracy, np.mean(res.accuracies), rtol=1e-15)
        npt.assert_allclose(res.sd_accuracy, np.std(res.accuracies, ddof=1), rtol=1e-12)

    def test_bitwise_deterministic(self, toy_graph):
        a = run_cv(toy_graph, inception((1, 3), 6), quick_cfg())
        b = run_cv(toy_graph, inception((1, 3), 6), quick_cfg())
        assert a == b

    def test_seed_changes_folds_and_results(self, toy_graph):
        a = run_cv(toy_graph, single_layer(2, 8), quick_cfg(seed=0))
        b = run_cv(toy_graph, single_layer(2, 8), quick_cfg(seed=1))
        assert a.fold_hash != b.fold_hash
        assert a.fingerprint != b.fingerprint

    def test_learns_separable_data(self, toy_graph):
        res = run_cv(toy_graph, single_layer(2, 8), quick_cfg(epochs=80))
        assert res.mean_accuracy > 90.0

    def test_pinned_folds_are_respected(self, toy_graph):
        folds = stratified_folds(toy_graph.labels, 4, seed=99)
        a = run_cv(toy_graph, single_layer(1, 4), quick_cfg(), folds=folds)
        b = run_cv(toy_graph, single_layer(3, 4), quick_cfg(), folds=folds)
        assert a.fold_hash == b.fold_hash == fold_checksum(folds)

    def test_early_stopping_caps_epochs(self, toy_graph):
        cfg = quick_cfg(epochs=150, early_stop_window=5, stop_metric="val", val_fraction=0.2)
        res = run_cv(toy_graph, single_layer(2, 8), cfg)
        assert all(ep <= 150 for ep in res.epochs)
        assert any(ep < 150 for ep in res.epochs)

    def test_diverged_folds_are_reported_not_raised(self, toy_graph):
        cfg = quick_cfg(epochs=200, lr=1e8, weight_decay=1e8)
        res = run_cv(toy_graph, single_layer(2, 8), cfg)
        assert res.failed_folds == (0, 1, 2, 3)
        assert res.accuracies == ()
        assert np.isnan(res.mean_accuracy)
        assert res.sd_accuracy == 0.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_classifier_free_net_narrower_than_the_classes_is_rejected(self, toy_graph, threads):
        arch = ArchSpec(modules=(ModuleSpec(branches=(BranchSpec(1, 1),)),), classifier=False)
        with pytest.raises(ValueError, match=r"output width 1 must cover the 2 classes"):
            run_cv(toy_graph, arch, quick_cfg(epochs=3, n_folds=3), threads=threads)

    def test_worker_processes_give_the_serial_result(self, toy_graph):
        # At lr 1e153 Adam's steps overflow the scores in fold 0 only.
        cfg = quick_cfg(epochs=30, lr=1e153, optimizer="adam", early_stop_window=5,
                        stop_metric="val", val_fraction=0.2, dropout=0.3, weight_decay=1e-3)
        serial = run_cv(toy_graph, single_layer(2, 8), cfg, threads=1)
        assert serial.failed_folds == (0,)
        assert serial == run_cv(toy_graph, single_layer(2, 8), cfg, threads=2)

    @pytest.mark.skipif(_openblas() is None, reason="NumPy's BLAS cannot be pinned here")
    def test_pool_workers_pin_their_own_blas_only(self):
        caller = blas_threads()
        with worker_map(2) as pool_map:
            assert list(pool_map(blas_threads, range(4))) == [1, 1, 1, 1]
        assert blas_threads() == caller

    def test_the_no_pool_fixture_refuses_a_pool(self, no_pool):
        with pytest.raises(AssertionError, match="no worker pool may start here"):
            with worker_map(2) as pool_map:
                list(pool_map(abs, [-1, 2]))

    def test_to_dict_round_trips_through_json(self, toy_graph):
        res = run_cv(toy_graph, single_layer(1, 4), quick_cfg(epochs=5))
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["accuracies"] == list(res.accuracies)
        assert payload["fold_hash"] == res.fold_hash


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its worker count and runs
    the tasks in this process, without the initializer, so that the caller's
    BLAS is left as it is."""

    def __init__(self, started, max_workers, initializer, initargs):
        started.append(max_workers)
        self.ctx = initargs[-1]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        future = Future()
        future.set_result(_run_folds(self.ctx, task))
        return future


class TestWorkerCount:
    @pytest.mark.parametrize("threads, cpus, pinnable, workers", [
        (None, 4, True, 4),  # one worker per usable CPU
        (None, 1, True, None),  # one CPU: run here
        (None, 4, False, None),  # workers could not pin BLAS: run here
        (3, 1, False, 3),  # an explicit count is kept as it is
        (1, 4, True, None),
        (16, 4, True, 8),  # never more workers than tasks (8 one-fold stacks)
    ])
    def test_threads_resolve_to_workers(self, toy_graph, monkeypatch,
                                        threads, cpus, pinnable, workers):
        started = []
        monkeypatch.setattr("chebgcn.workers._usable_cpus", lambda: cpus)
        monkeypatch.setattr("chebgcn.workers._openblas", lambda: object() if pinnable else None)
        monkeypatch.setattr("chebgcn.workers.ProcessPoolExecutor",
                            lambda **kw: RecordingPool(started, **kw))
        cfg = quick_cfg(epochs=5, n_folds=8)
        res = run_cv(toy_graph, single_layer(2, 8), cfg, threads=threads)
        assert started == ([] if workers is None else [workers])
        monkeypatch.undo()
        assert res == run_cv(toy_graph, single_layer(2, 8), cfg, threads=1)

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert _usable_cpus() == 3

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 7)
        assert _usable_cpus() == 7

    def test_blas_lookup_outside_numpys_libs_finds_nothing(self, monkeypatch, tmp_path):
        (tmp_path / "numpy.libs").mkdir()
        (tmp_path / "numpy.libs" / "libopenblas64_-abc.so").write_bytes(b"")
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert _openblas.__wrapped__() is None


class TestSweeps:
    def test_heatmap_parallel_equals_serial(self, toy_graph):
        spec = SweepSpec(k_min=1, k_max=2, width=4, train=quick_cfg(epochs=10, n_folds=3))
        serial = heatmap_sweep(toy_graph, spec, threads=1)
        parallel = heatmap_sweep(toy_graph, spec, threads=2)
        assert serial.best == parallel.best
        assert set(serial.grid) == set(parallel.grid)
        for cell in serial.grid:
            assert serial.grid[cell] == parallel.grid[cell]

    def test_grid_covers_the_whole_range(self, toy_graph):
        spec = SweepSpec(k_min=1, k_max=3, width=4, train=quick_cfg(epochs=5, n_folds=3))
        sweep = heatmap_sweep(toy_graph, spec)
        assert set(sweep.grid) == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)}

    def test_cells_get_distinct_seeds(self, toy_graph):
        spec = SweepSpec(k_min=1, k_max=2, width=4, train=quick_cfg(epochs=5, n_folds=3))
        sweep = heatmap_sweep(toy_graph, spec)
        hashes = {res.fold_hash for res in sweep.grid.values()}
        assert len(hashes) > 1

    def test_best_prefers_small_orders_on_ties(self, toy_graph):
        # long enough training that every cell reaches 100%: the tie must
        # resolve to the smallest (k1, k2)
        spec = SweepSpec(k_min=1, k_max=2, width=8, train=quick_cfg(epochs=120, n_folds=3))
        sweep = heatmap_sweep(toy_graph, spec)
        means = {cell: res.mean_accuracy for cell, res in sweep.grid.items()}
        if len(set(means.values())) == 1:
            assert sweep.best == (1, 1)
        else:
            best_mean = max(means.values())
            assert means[sweep.best] == best_mean

    def test_single_k_sweep_keys_and_determinism(self, toy_graph):
        cfg = quick_cfg(epochs=10, n_folds=3)
        a = single_k_sweep(toy_graph, 1, 4, 4, cfg)
        b = single_k_sweep(toy_graph, 1, 4, 4, cfg)
        assert list(a) == [1, 2, 3, 4]
        assert a == b

    def test_bad_ranges_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            SweepSpec(k_min=3, k_max=2)
        with pytest.raises(ValueError):
            single_k_sweep(toy_graph, 2, 1, 4, quick_cfg())


class TestCompareModels:
    def test_five_models_on_shared_folds(self, toy_graph):
        comp = compare_models(toy_graph, 1, 3, quick_cfg(epochs=15, n_folds=3), width=4)
        assert set(comp.results) == set(COMPARE_MODELS)
        assert len({r.fold_hash for r in comp.results.values()}) == 1
        assert set(comp.convergence_ratios) == {"concat", "maxpool"}
        for ratio in comp.convergence_ratios.values():
            assert ratio > 0

    def test_a_cell_does_not_depend_on_the_other_cells_of_its_map(self, toy_graph):
        # the map caches the first-module basis to order 4; this cell reads
        # the first two of its terms
        cfg = quick_cfg(epochs=15, n_folds=4)
        comp = compare_models(toy_graph, 1, 4, cfg)
        assert comp.results["sequential-k1k1"] == run_cv(toy_graph, sequential((1, 1), 16), cfg)

    def test_equal_orders_make_equal_baselines(self, toy_graph):
        comp = compare_models(toy_graph, 2, 2, quick_cfg(epochs=10, n_folds=3), width=4)
        a = comp.results["sequential-k1k2"]
        b = comp.results["sequential-k1k1"]
        c = comp.results["sequential-k2k2"]
        assert a.accuracies == b.accuracies == c.accuracies


class TestResultFiles:
    def fake_result(self):
        return ExperimentResult(
            fold_indices=(0, 1),
            accuracies=(87.5, 93.75),
            epochs=(30, 28),
            failed_folds=(),
            mean_accuracy=90.625,
            sd_accuracy=4.419417382415922,
            fingerprint="f" * 64,
            fold_hash="0" * 64,
        )

    def test_cv_csv(self, tmp_path):
        path = tmp_path / "cv.csv"
        write_cv_csv(path, self.fake_result())
        assert path.read_bytes() == b"fold,accuracy,epochs\r\n0,87.5,30\r\n1,93.75,28\r\n"

    def test_sweep_csv_sorted_by_cell(self, tmp_path):
        from chebgcn.experiments import SweepResult

        res = self.fake_result()
        sweep = SweepResult(grid={(2, 1): res, (1, 1): res}, best=(1, 1))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        lines = path.read_text().splitlines()
        assert lines[0] == "k1,k2,fold,accuracy,epochs"
        assert lines[1] == "1,1,0,87.5,30"
        assert lines[3] == "2,1,0,87.5,30"

    def test_boxplot_csv(self, tmp_path):
        path = tmp_path / "box.csv"
        write_boxplot_csv(path, {3: self.fake_result(), 1: self.fake_result()})
        lines = path.read_text().splitlines()
        assert lines[0] == "k,fold,accuracy,epochs"
        assert lines[1].startswith("1,") and lines[3].startswith("3,")

    def test_compare_csv_lists_models_in_fixed_order(self, tmp_path):
        from chebgcn.experiments import ComparisonResult

        res = self.fake_result()
        comp = ComparisonResult(
            k1=1, k2=2,
            results={name: res for name in COMPARE_MODELS},
            convergence_ratios={"concat": 1.5, "maxpool": 1.2},
        )
        path = tmp_path / "compare.csv"
        write_compare_csv(path, comp)
        lines = path.read_text().splitlines()
        models = [line.split(",")[0] for line in lines[1:]]
        assert models == [m for m in COMPARE_MODELS for _ in range(2)]

    def test_accuracy_column_round_trips_exactly(self, tmp_path):
        import csv as csvmod

        path = tmp_path / "cv.csv"
        write_cv_csv(path, self.fake_result())
        with open(path, newline="") as fh:
            rows = list(csvmod.DictReader(fh))
        assert [float(r["accuracy"]) for r in rows] == [87.5, 93.75]

    def test_summary_json(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json(path, {"b": 1, "a": {"x": [1, 2]}})
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"b": 1, "a": {"x": [1, 2]}}
        assert text.index('"a"') < text.index('"b"')


@pytest.mark.parametrize("kw, fragment", [
    (dict(k_min=-1), "bad order range [-1, 6]"),
    (dict(width=0), "width must be >= 1"),
])
def test_input_checks_reject_bad_arguments(kw, fragment):
    with pytest.raises(ValueError) as info:
        SweepSpec(**kw)
    assert fragment in str(info.value)
