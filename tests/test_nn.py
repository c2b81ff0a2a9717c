import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from chebgcn.graph import NormalizedLaplacian, build_laplacian, chebyshev_apply, rescale_laplacian
from chebgcn.nn import (
    Adam,
    ChebFilterLayer,
    GradientDescent,
    InceptionModule,
    Network,
    ShapeMismatchError,
    StaleTapeError,
    _fold_basis,
    _module_backward,
    _module_forward,
    make_optimizer,
    masked_cross_entropy,
    network_backward,
    network_forward,
)

from conftest import dense_cheb_matrices, path_adjacency, random_adjacency


def make_lap(n, seed=0, p=0.4):
    a = random_adjacency(np.random.default_rng(seed), n, p=p)
    return rescale_laplacian(build_laplacian(a))


def inception_forward(module, lt, h):
    """One module's output: the scores of a one-module network without a classifier."""
    scores, _ = network_forward(Network(modules=[module]), lt, h)
    return scores


def gc_forward(layer, lt, h):
    """One filter layer's output: a one-branch module."""
    return inception_forward(InceptionModule(branches=[layer]), lt, h)


def filter_reference(layer, lt, h):
    """sum_r T_r(L) H theta_r + bias, then the activation, in the engine's
    order of operations, so a one-branch module must match it bit for bit."""
    basis = chebyshev_apply(lt, h, layer.order)
    z = basis[0] @ layer.theta[0]
    for r in range(1, layer.order + 1):
        z += basis[r] @ layer.theta[r]
    z += layer.bias
    return np.maximum(z, 0.0) if layer.activation == "relu" else z


def scratch_forward(net, lt_dense, x):
    """From-scratch network evaluation: dense matrices and plain loops."""
    h = np.asarray(x, dtype=np.float64)
    for mod in net.modules:
        outs = []
        for br in mod.branches:
            mats = dense_cheb_matrices(lt_dense, br.order)
            z = np.zeros((h.shape[0], br.d_out))
            for r in range(br.order + 1):
                z += mats[r] @ h @ br.theta[r]
            z += br.bias
            if br.activation == "relu":
                z = np.maximum(z, 0.0)
            outs.append(z)
        if mod.aggregator == "concat":
            h = np.concatenate(outs, axis=1)
        else:
            h = outs[0]
            for o in outs[1:]:
                h = np.maximum(h, o)
    if net.classifier_weight is not None:
        return h @ net.classifier_weight + net.classifier_bias
    return h


class TestGcForward:
    def test_identity_layer_returns_input(self):
        lt = make_lap(5, seed=1)
        h = np.random.default_rng(0).standard_normal((5, 3))
        layer = ChebFilterLayer(
            theta=np.eye(3)[None, :, :], bias=np.zeros(3), activation="linear"
        )
        npt.assert_array_equal(gc_forward(layer, lt, h), h)

    def test_zero_operator_alternation(self):
        # With a zero rescaled Laplacian, T_1 = 0 and T_2 = -I, so the output
        # collapses to H (theta_0 - theta_2 + theta_4). Checked against the
        # dense matrix oracle.
        lt = NormalizedLaplacian(np.zeros((4, 4)))
        rng = np.random.default_rng(3)
        h = rng.standard_normal((4, 2))
        layer = ChebFilterLayer(
            theta=rng.standard_normal((5, 2, 3)), bias=np.zeros(3), activation="linear"
        )
        got = gc_forward(layer, lt, h)
        expected = h @ (layer.theta[0] - layer.theta[2] + layer.theta[4])
        npt.assert_allclose(got, expected, atol=1e-12)
        mats = dense_cheb_matrices(np.zeros((4, 4)), 4)
        oracle = sum(mats[r] @ h @ layer.theta[r] for r in range(5))
        npt.assert_allclose(got, oracle, atol=1e-12)

    def test_relu_zeroes_negative_preactivations(self):
        lt = make_lap(6, seed=2)
        rng = np.random.default_rng(4)
        h = rng.standard_normal((6, 2))
        theta = rng.standard_normal((3, 2, 4))
        linear = ChebFilterLayer(theta=theta, bias=np.full(4, -0.3), activation="linear")
        relu = ChebFilterLayer(theta=theta.copy(), bias=np.full(4, -0.3), activation="relu")
        pre = gc_forward(linear, lt, h)
        post = gc_forward(relu, lt, h)
        assert (pre < 0).any()
        npt.assert_array_equal(post, np.maximum(pre, 0.0))

    def test_shape_mismatch_rejected(self):
        lt = make_lap(4)
        layer = ChebFilterLayer.create(2, 3, 5, np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            gc_forward(layer, lt, np.zeros((4, 2)))


class TestInceptionModule:
    def test_single_branch_equals_gc_forward_either_aggregator(self):
        lt = make_lap(7, seed=5)
        rng = np.random.default_rng(6)
        h = rng.standard_normal((7, 3))
        layer = ChebFilterLayer.create(3, 3, 4, rng)
        for agg in ("concat", "maxpool"):
            mod = InceptionModule(branches=[layer], aggregator=agg)
            npt.assert_array_equal(inception_forward(mod, lt, h), gc_forward(layer, lt, h))
            npt.assert_array_equal(inception_forward(mod, lt, h), filter_reference(layer, lt, h))

    def test_identical_branches_maxpool_equals_one_branch(self):
        lt = make_lap(6, seed=7)
        rng = np.random.default_rng(8)
        h = rng.standard_normal((6, 2))
        layer = ChebFilterLayer.create(2, 2, 5, rng)
        twin = ChebFilterLayer(theta=layer.theta.copy(), bias=layer.bias.copy())
        mod = InceptionModule(branches=[layer, twin], aggregator="maxpool")
        npt.assert_array_equal(inception_forward(mod, lt, h), gc_forward(layer, lt, h))

    def test_concat_width_is_sum_of_branch_widths(self):
        lt = make_lap(20, seed=9, p=0.2)
        rng = np.random.default_rng(10)
        h = rng.standard_normal((20, 2))
        b1 = ChebFilterLayer.create(1, 2, 6, rng)
        b2 = ChebFilterLayer.create(10, 2, 3, rng)
        mod = InceptionModule(branches=[b1, b2], aggregator="concat")
        assert inception_forward(mod, lt, h).shape == (20, 9)
        assert mod.d_out == 9

    def test_maxpool_requires_equal_widths(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ShapeMismatchError):
            InceptionModule(
                branches=[ChebFilterLayer.create(1, 2, 3, rng), ChebFilterLayer.create(2, 2, 4, rng)],
                aggregator="maxpool",
            )

    def test_mismatched_d_in_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ShapeMismatchError):
            InceptionModule(
                branches=[ChebFilterLayer.create(1, 2, 3, rng), ChebFilterLayer.create(1, 3, 3, rng)]
            )


def small_network(rng, d_in=3, n_classes=2, aggregator="concat"):
    mod1 = InceptionModule(
        branches=[ChebFilterLayer.create(2, d_in, 4, rng), ChebFilterLayer.create(0, d_in, 4, rng)],
        aggregator=aggregator,
    )
    width = mod1.d_out
    mod2 = InceptionModule(branches=[ChebFilterLayer.create(1, width, 5, rng)])
    w = rng.standard_normal((5, n_classes)) * 0.5
    return Network(modules=[mod1, mod2], classifier_weight=w, classifier_bias=np.zeros(n_classes))


def multi_branch_network(rng):
    """Two modules of several branches on 3 input features; the second has
    orders {3, 5, 10}."""
    mod1 = InceptionModule(branches=[ChebFilterLayer.create(k, 3, 4, rng) for k in (1, 2)])
    mod2 = InceptionModule(
        branches=[ChebFilterLayer.create(k, mod1.d_out, 4, rng) for k in (3, 5, 10)]
    )
    w = rng.standard_normal((mod2.d_out, 2)) * 0.5
    return Network(modules=[mod1, mod2], classifier_weight=w, classifier_bias=np.zeros(2))


class TestNetworkForward:
    def test_reduces_to_gc_forward_plus_classifier(self):
        lt = make_lap(5, seed=20)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((5, 3))
        layer = ChebFilterLayer.create(2, 3, 4, rng)
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        net = Network(
            modules=[InceptionModule(branches=[layer])],
            classifier_weight=w,
            classifier_bias=b,
        )
        scores, _ = network_forward(net, lt, x)
        npt.assert_array_equal(scores, gc_forward(layer, lt, x) @ w + b)
        npt.assert_array_equal(scores, filter_reference(layer, lt, x) @ w + b)

    def test_forward_is_bitwise_repeatable(self):
        lt = make_lap(9, seed=22)
        rng = np.random.default_rng(23)
        x = rng.standard_normal((9, 3))
        net = small_network(rng)
        s1, _ = network_forward(net, lt, x)
        s2, _ = network_forward(net, lt, x)
        npt.assert_array_equal(s1, s2)

    def test_matches_scratch_oracle(self):
        for seed in (0, 1, 2):
            lt = make_lap(8, seed=seed)
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal((8, 3))
            agg = "maxpool" if seed % 2 else "concat"
            net = small_network(rng, aggregator=agg)
            scores, _ = network_forward(net, lt, x)
            npt.assert_allclose(scores, scratch_forward(net, lt.toarray(), x), atol=1e-10)

    def test_cached_basis_matches_uncached(self):
        lt = make_lap(8, seed=30)
        rng = np.random.default_rng(31)
        x = rng.standard_normal((8, 3))
        net = small_network(rng)
        basis = chebyshev_apply(lt, x, max(br.order for br in net.modules[0].branches))
        s1, _ = network_forward(net, lt, x)
        s2, _ = network_forward(net, lt, x, input_basis=basis)
        npt.assert_array_equal(s1, s2)

    def test_short_cached_basis_rejected_with_both_counts(self):
        lt = make_lap(8, seed=35)
        rng = np.random.default_rng(36)
        x = rng.standard_normal((8, 3))
        net = small_network(rng)  # first module's highest order is 2
        with pytest.raises(ShapeMismatchError, match="has 2 terms.*needs 3"):
            network_forward(net, lt, x, input_basis=chebyshev_apply(lt, x, 1))
        with pytest.raises(ShapeMismatchError, match="has 0 terms.*needs 3"):
            network_forward(net, lt, x, input_basis=[])

    def test_one_basis_per_module(self, monkeypatch):
        calls = []

        def counting_apply(lap, h, order):
            calls.append(order)
            return chebyshev_apply(lap, h, order)

        monkeypatch.setattr("chebgcn.nn.chebyshev_apply", counting_apply)
        lt = make_lap(10, seed=37)
        rng = np.random.default_rng(38)
        x = rng.standard_normal((10, 3))
        net = multi_branch_network(rng)
        network_forward(net, lt, x)
        assert calls == [2, 10]
        calls.clear()
        network_forward(net, lt, x, input_basis=chebyshev_apply(lt, x, 2))
        assert calls == [10]
        # a 3-fold stack on CSR: the module past the first runs one
        # recurrence on the whole stack
        lt_csr = NormalizedLaplacian(matrix=sp.csr_array(lt.toarray()))
        stack = net.map(lambda p: np.stack([p, -p, 0.5 * p]))
        calls.clear()
        network_forward(stack, lt_csr, x)
        assert calls == [2, 10]
        calls.clear()
        network_forward(stack, lt_csr, x, input_basis=chebyshev_apply(lt_csr, x, 2))
        assert calls == [10]

    def test_no_classifier_mode(self):
        lt = make_lap(6, seed=32)
        rng = np.random.default_rng(33)
        x = rng.standard_normal((6, 3))
        layer = ChebFilterLayer.create(1, 3, 2, rng)
        net = Network(modules=[InceptionModule(branches=[layer])])
        scores, _ = network_forward(net, lt, x)
        npt.assert_array_equal(scores, filter_reference(layer, lt, x))

    def test_localization_of_score_rows(self):
        # One module of max order 2: score rows move only within 2 hops.
        a = path_adjacency(7)
        lt = rescale_laplacian(build_laplacian(a))
        rng = np.random.default_rng(34)
        x = rng.standard_normal((7, 3))
        mod = InceptionModule(
            branches=[ChebFilterLayer.create(2, 3, 4, rng), ChebFilterLayer.create(1, 3, 4, rng)],
            aggregator="maxpool",
        )
        w = rng.standard_normal((4, 2))
        net = Network(modules=[mod], classifier_weight=w, classifier_bias=np.zeros(2))
        base, _ = network_forward(net, lt, x)
        x2 = x.copy()
        x2[6] += 5.0  # node 6 is 6 hops from node 0
        moved, _ = network_forward(net, lt, x2)
        npt.assert_array_equal(base[0], moved[0])
        assert not np.array_equal(base[6], moved[6])


class TestMaskedCrossEntropy:
    def test_uniform_scores_give_log_c(self):
        scores = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        loss, _ = masked_cross_entropy(scores, labels, np.ones(4, dtype=bool))
        npt.assert_allclose(loss, math.log(3.0), rtol=1e-15)

    def test_confident_correct_score_drives_loss_to_zero(self):
        scores = np.zeros((2, 2))
        scores[0, 1] = 500.0
        labels = np.array([1, 0])
        mask = np.array([True, False])
        loss, _ = masked_cross_entropy(scores, labels, mask)
        assert 0.0 <= loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(40)
        scores = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        mask = np.array([True, False, True, True, False, True])
        _, grad = masked_cross_entropy(scores, labels, mask)
        h = 1e-6
        for i in range(6):
            for c in range(3):
                up = scores.copy()
                up[i, c] += h
                down = scores.copy()
                down[i, c] -= h
                fd = (
                    masked_cross_entropy(up, labels, mask)[0]
                    - masked_cross_entropy(down, labels, mask)[0]
                ) / (2 * h)
                assert abs(grad[i, c] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_gradient_rows(self):
        rng = np.random.default_rng(41)
        scores = rng.standard_normal((8, 4)) * 3
        labels = rng.integers(0, 4, size=8)
        mask = rng.random(8) < 0.6
        _, grad = masked_cross_entropy(scores, labels, mask)
        npt.assert_array_equal(grad[~mask], 0.0)
        assert np.abs(grad[mask].sum(axis=1)).max() <= 1e-12

    def test_huge_scores_stay_finite(self):
        scores = np.array([[1e308, -1e308], [0.0, 0.0]])
        loss, grad = masked_cross_entropy(scores, np.array([0, 1]), np.ones(2, dtype=bool))
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            masked_cross_entropy(np.zeros((2, 2)), np.zeros(2, dtype=int), np.zeros(2, dtype=bool))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError):
            masked_cross_entropy(np.zeros((2, 2)), np.array([0, 2]), np.ones(2, dtype=bool))


class TestNetworkBackward:
    def test_zero_score_gradient_gives_zero_parameter_gradients(self):
        lt = make_lap(6, seed=50)
        rng = np.random.default_rng(51)
        x = rng.standard_normal((6, 3))
        net = small_network(rng)
        scores, tape = network_forward(net, lt, x)
        grads = network_backward(tape, np.zeros_like(scores))
        for g in grads.values():
            npt.assert_array_equal(g, 0.0)

    def test_k0_linear_layer_is_dense_backprop(self):
        # Order 0, no activation: out = H theta_0 + b, so dtheta_0 = H^T G
        # and dbias = column sums of G.
        lt = make_lap(5, seed=52)
        rng = np.random.default_rng(53)
        x = rng.standard_normal((5, 3))
        layer = ChebFilterLayer(
            theta=rng.standard_normal((1, 3, 4)), bias=np.zeros(4), activation="linear"
        )
        net = Network(modules=[InceptionModule(branches=[layer])])
        _, tape = network_forward(net, lt, x)
        g = rng.standard_normal((5, 4))
        grads = network_backward(tape, g)
        npt.assert_allclose(grads["modules.0.branches.0.theta"][0], x.T @ g, atol=1e-12)
        npt.assert_allclose(grads["modules.0.branches.0.bias"], g.sum(axis=0), atol=1e-12)

    def test_maxpool_backward_is_idempotent(self):
        lt = make_lap(7, seed=54)
        rng = np.random.default_rng(55)
        x = rng.standard_normal((7, 3))
        net = small_network(rng, aggregator="maxpool")
        scores, tape = network_forward(net, lt, x)
        g = rng.standard_normal(scores.shape)
        first = network_backward(tape, g)
        second = network_backward(tape, g)
        assert set(first) == set(second)
        for name in first:
            npt.assert_array_equal(first[name], second[name])

    def test_single_branch_agrees_across_aggregators(self):
        lt = make_lap(6, seed=56)
        rng = np.random.default_rng(57)
        x = rng.standard_normal((6, 2))
        layer = ChebFilterLayer.create(2, 2, 3, rng)
        w = rng.standard_normal((3, 2))
        grads = {}
        for agg in ("concat", "maxpool"):
            twin = ChebFilterLayer(theta=layer.theta.copy(), bias=layer.bias.copy())
            net = Network(
                modules=[InceptionModule(branches=[twin], aggregator=agg)],
                classifier_weight=w.copy(),
                classifier_bias=np.zeros(2),
            )
            scores, tape = network_forward(net, lt, x)
            loss, g = masked_cross_entropy(scores, np.array([0, 1, 0, 1, 0, 1]), np.ones(6, bool))
            grads[agg] = network_backward(tape, g)
        for name in grads["concat"]:
            npt.assert_array_equal(grads["concat"][name], grads["maxpool"][name])

    def test_stale_tape_detected(self):
        lt = make_lap(5, seed=58)
        rng = np.random.default_rng(59)
        x = rng.standard_normal((5, 3))
        net = small_network(rng)
        scores, tape = network_forward(net, lt, x)
        net.modules[1].branches[0].theta = np.zeros((3, 8, 5))  # structural change
        with pytest.raises(StaleTapeError):
            network_backward(tape, np.zeros_like(scores))

    def test_score_gradient_shape_checked(self):
        lt = make_lap(5, seed=60)
        rng = np.random.default_rng(61)
        net = small_network(rng)
        _, tape = network_forward(net, lt, rng.standard_normal((5, 3)))
        with pytest.raises(ShapeMismatchError):
            network_backward(tape, np.zeros((5, 7)))


def reverse_pass(lt, c):
    """Out-of-place reverse pass of the Chebyshev recurrence over
    coefficients c_0..c_k; returns d(loss)/d(input)."""
    c = list(c)
    for r in range(len(c) - 1, 1, -1):
        c[r - 1] = c[r - 1] + 2.0 * (lt.matrix @ c[r])
        c[r - 2] = c[r - 2] - c[r]
    return c[0] + lt.matrix @ c[1] if len(c) > 1 else c[0]


def per_branch_input_gradient(module, lt, mtape, g):
    """The input gradient as the sum of one reverse pass per branch."""
    if module.aggregator == "concat":
        branch_gs = np.split(g, np.cumsum([br.d_out for br in module.branches])[:-1], axis=1)
    else:
        branch_gs = [g * (mtape.winners == si) for si in range(len(module.branches))]
    dh = None
    for br, mask, bg in zip(module.branches, mtape.relu_masks, branch_gs):
        if mask is not None:
            bg = bg * mask
        d = reverse_pass(lt, [bg @ br.theta[r].T for r in range(br.order + 1)])
        dh = d if dh is None else dh + d
    return dh


@pytest.mark.parametrize("storage", [np.asarray, sp.csr_array])
def test_in_place_reverse_recurrence_is_bitwise_the_out_of_place_one(storage):
    rng = np.random.default_rng(3)
    lt = NormalizedLaplacian(matrix=storage(make_lap(12, seed=3).toarray()))
    layer = ChebFilterLayer.create(4, 3, 5, rng)
    module = InceptionModule(branches=[layer])
    g = rng.standard_normal((12, 5))
    _, mtape = _module_forward(module, lt, rng.standard_normal((12, 3)))
    _, dh = _module_backward(module, lt, mtape, g, need_input_grad=True)
    g = g * mtape.relu_masks[0]
    npt.assert_array_equal(dh, reverse_pass(lt, [g @ layer.theta[r].T for r in range(5)]))


@pytest.mark.parametrize("storage", [np.asarray, sp.csr_array])
@pytest.mark.parametrize("aggregator", ["concat", "maxpool"])
def test_one_reverse_pass_matches_the_sum_of_per_branch_passes(storage, aggregator):
    # Summing the branch coefficients before one reverse pass reorders the
    # floating-point sums, so multi-branch modules agree to roundoff; a
    # single branch takes the same operations and agrees bit for bit.
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        lt = NormalizedLaplacian(matrix=storage(make_lap(15, seed=seed).toarray()))
        h = rng.standard_normal((15, 3))
        for orders in ((3, 5, 10), (0, 4), (6,)):
            module = InceptionModule(
                branches=[ChebFilterLayer.create(k, 3, 4, rng) for k in orders],
                aggregator=aggregator,
            )
            for br in module.branches:
                br.bias += 0.1 * rng.standard_normal(4)
            _, mtape = _module_forward(module, lt, h)
            g = rng.standard_normal((15, module.d_out))
            grads, dh = _module_backward(module, lt, mtape, g, need_input_grad=True)
            ref = per_branch_input_gradient(module, lt, mtape, g)
            if len(orders) == 1:
                npt.assert_array_equal(dh, ref)
            else:
                assert np.abs(dh - ref).max() <= 1e-13 * np.abs(ref).max()
            no_input, none = _module_backward(module, lt, mtape, g, need_input_grad=False)
            assert none is None
            for (dt, db), (dt2, db2) in zip(grads, no_input):
                npt.assert_array_equal(dt, dt2)
                npt.assert_array_equal(db, db2)


class CountingMatrix(np.ndarray):
    """A dense matrix that counts its products with ``@``."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(self) @ other


@pytest.mark.parametrize("storage", [sp.csr_array, np.asarray])
@pytest.mark.parametrize("width, folds", [(1, 2), (3, 3), (8, 3), (16, 2)])
def test_fold_basis_gives_each_fold_its_own_basis(storage, width, folds):
    # on OpenBLAS a dense wide product is inexact at some of these widths, so
    # both the whole-stack and the per-fold recurrence run
    lt = make_lap(40, seed=11, p=0.5)
    lt = NormalizedLaplacian(matrix=storage(lt.toarray()))
    h = np.random.default_rng(12).standard_normal((40, folds * width))
    basis = _fold_basis(lt, h, 5, folds)
    for f in range(folds):
        cols = slice(f * width, (f + 1) * width)
        alone = chebyshev_apply(lt, np.ascontiguousarray(h[:, cols]), 5)
        for got, want in zip(basis, alone, strict=True):
            npt.assert_array_equal(got[:, cols], want)


def test_module_after_the_first_runs_its_highest_order_once_each_way(monkeypatch):
    # orders {3, 5, 10} after the first module: one basis up to T_10 forward
    # and one reverse pass of length 10 backward, 10 products each
    rng = np.random.default_rng(7)
    lt = NormalizedLaplacian(matrix=make_lap(12, seed=7).toarray().view(CountingMatrix))
    x = rng.standard_normal((12, 3))
    net = multi_branch_network(rng)
    basis = chebyshev_apply(lt, x, 2)
    monkeypatch.setattr(CountingMatrix, "products", 0)
    scores, tape = network_forward(net, lt, x, input_basis=basis)
    assert CountingMatrix.products == 10
    network_backward(tape, np.ones_like(scores))
    assert CountingMatrix.products == 20


def fold_stack(net, folds):
    """``net`` as a stack of ``folds`` folds, each with its own parameters."""
    if folds is None:
        return net
    return net.map(lambda p: np.stack([p * (-1.5) ** f for f in range(folds)]))


class TestClassifierLayer:
    """The classifier runs as the last module, an order-0 linear filter, and
    must give bitwise what a dense layer on the last hidden state gives."""

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_array])
    @pytest.mark.parametrize("folds", [None, 2, 5])
    def test_forward_and_backward_are_the_dense_layers(self, storage, folds):
        lt = NormalizedLaplacian(matrix=storage(make_lap(12, seed=80).toarray()))
        rng = np.random.default_rng(81)
        x = rng.standard_normal((12, 3))
        net = small_network(rng)
        net.classifier_bias += rng.standard_normal(2)
        net = fold_stack(net, folds)
        body = Network(modules=net.modules)
        hidden, body_tape = network_forward(body, lt, x)
        scores, tape = network_forward(net, lt, x)
        lead = (net.folds or 1,)
        h3 = hidden.reshape(lead + hidden.shape[-2:])
        w3 = net.classifier_weight.reshape(lead + net.classifier_weight.shape[-2:])
        b3 = net.classifier_bias.reshape(lead + (1, -1))
        npt.assert_array_equal(scores, (np.matmul(h3, w3) + b3).reshape(scores.shape))

        g = rng.standard_normal(scores.shape)
        g3 = g.reshape(lead + g.shape[-2:])
        grads = network_backward(tape, g)
        npt.assert_array_equal(grads["classifier.weight"], np.matmul(
            h3.transpose(0, 2, 1), g3).reshape(net.classifier_weight.shape))
        npt.assert_array_equal(grads["classifier.bias"],
                               g3.sum(axis=1).reshape(net.classifier_bias.shape))
        hidden_grad = np.matmul(g3, w3.transpose(0, 2, 1)).reshape(hidden.shape)
        for name, want in network_backward(body_tape, hidden_grad).items():
            npt.assert_array_equal(grads[name], want)

    @pytest.mark.parametrize("classifier", [True, False])
    @pytest.mark.parametrize("folds", [None, 3])
    def test_gradients_are_named_and_shaped_as_the_parameters(self, classifier, folds):
        lt = make_lap(9, seed=82)
        rng = np.random.default_rng(83)
        x = rng.standard_normal((9, 3))
        net = small_network(rng)
        net = fold_stack(net if classifier else Network(modules=net.modules), folds)
        scores, tape = network_forward(net, lt, x)
        grads = network_backward(tape, rng.standard_normal(scores.shape))
        params = net.parameters()
        assert list(grads) == list(params)
        assert [g.shape for g in grads.values()] == [p.shape for p in params.values()]

    @pytest.mark.parametrize("classifier", [True, False])
    def test_dropout_masks_every_module_output_and_not_the_scores(self, classifier):
        lt = make_lap(9, seed=84)
        rng = np.random.default_rng(85)
        x = rng.standard_normal((9, 3))
        net = small_network(rng)
        if not classifier:
            net = Network(modules=net.modules)
        body = Network(modules=net.modules)
        rng_net, rng_body = np.random.default_rng(1), np.random.default_rng(1)
        scores, tape = network_forward(net, lt, x, dropout=0.5, dropout_rng=rng_net)
        hidden, _ = network_forward(body, lt, x, dropout=0.5, dropout_rng=rng_body)
        assert [m.shape for m in tape.dropout_masks] == [(9, mod.d_out) for mod in net.modules]
        # a classifier draws no mask of its own
        assert rng_net.random() == rng_body.random()
        if classifier:
            w, b = net.classifier_weight, net.classifier_bias
            npt.assert_array_equal(scores, np.matmul(hidden[None], w[None])[0] + b)
        else:
            # the last module's output is the scores, and it is dropped out
            dropped = tape.dropout_masks[-1] == 0.0
            assert dropped.any() and (scores[dropped] == 0.0).all()

    def test_order_zero_basis_is_the_input_itself(self, monkeypatch):
        def fail(*args):
            raise AssertionError("an order-0 basis needs no recurrence and no probe")

        monkeypatch.setattr("chebgcn.nn.chebyshev_apply", fail)
        monkeypatch.setattr("chebgcn.nn._wide_is_exact", fail)
        h = np.random.default_rng(86).standard_normal((12, 6))
        (t0,) = _fold_basis(make_lap(12, seed=86), h, 0, 3)
        assert t0 is h


class TestDropout:
    def test_zero_dropout_is_identity(self):
        lt = make_lap(6, seed=70)
        rng = np.random.default_rng(71)
        x = rng.standard_normal((6, 3))
        net = small_network(rng)
        s1, _ = network_forward(net, lt, x)
        s2, _ = network_forward(net, lt, x, dropout=0.0)
        npt.assert_array_equal(s1, s2)

    def test_dropout_zeroes_and_rescales(self):
        lt = make_lap(6, seed=72)
        rng = np.random.default_rng(73)
        x = np.abs(rng.standard_normal((6, 3))) + 0.1
        layer = ChebFilterLayer(
            theta=np.eye(3)[None, :, :], bias=np.zeros(3), activation="linear"
        )
        net = Network(modules=[InceptionModule(branches=[layer])])
        scores, _ = network_forward(
            net, lt, x, dropout=0.5, dropout_rng=np.random.default_rng(0)
        )
        kept = scores != 0.0
        assert kept.any() and (~kept).any()
        npt.assert_allclose(scores[kept], (x * 2.0)[kept], atol=1e-12)

    def test_dropout_needs_rng(self):
        lt = make_lap(4, seed=74)
        rng = np.random.default_rng(75)
        net = small_network(rng)
        with pytest.raises(ValueError):
            network_forward(net, lt, rng.standard_normal((4, 3)), dropout=0.3)


class TestOptimizers:
    def test_zero_gradient_leaves_params(self):
        p = {"w": np.array([1.0, 2.0])}
        GradientDescent(lr=0.5).step(p, {"w": np.zeros(2)})
        npt.assert_array_equal(p["w"], [1.0, 2.0])

    def test_single_step_value(self):
        p = {"w": np.array([1.0])}
        GradientDescent(lr=0.2).step(p, {"w": np.array([1.0])})
        npt.assert_allclose(p["w"], [0.8], rtol=1e-15)

    def test_five_step_quadratic_matches_closed_form(self):
        # For f(w) = w^2 / 2 the gradient is w, so each step multiplies the
        # parameter by (1 - lr); five steps from 1.0 at lr 0.1 give 0.9^5.
        p = {"w": np.array([1.0])}
        opt = GradientDescent(lr=0.1)
        for _ in range(5):
            opt.step(p, {"w": p["w"].copy()})
        npt.assert_allclose(p["w"], [0.9**5], rtol=1e-15)

    def test_updates_are_in_place(self):
        rng = np.random.default_rng(80)
        net = small_network(rng)
        params = net.parameters()
        before = net.modules[0].branches[0].theta
        GradientDescent(lr=0.1).step(params, {k: np.ones_like(v) for k, v in params.items()})
        assert net.modules[0].branches[0].theta is before
        assert (before != before + 0).any() or True  # identity retained, values moved

    @pytest.mark.parametrize("optimizer", [GradientDescent(lr=0.1), Adam(lr=0.1)])
    def test_gradient_shape_must_match_parameter(self, optimizer):
        # (1,) broadcasts onto (2,); without the check it would update silently
        p = {"layer.weight": np.ones(2)}
        with pytest.raises(ShapeMismatchError, match="layer.weight"):
            optimizer.step(p, {"layer.weight": np.ones(1)})
        npt.assert_array_equal(p["layer.weight"], np.ones(2))

    def test_adam_first_step_size(self):
        p = {"w": np.array([1.0])}
        opt = Adam(lr=0.01)
        opt.step(p, {"w": np.array([0.5])})
        # bias-corrected first step is lr * g / (|g| + eps) = lr within eps
        npt.assert_allclose(p["w"], [1.0 - 0.01], atol=1e-8)

    def test_adam_converges_on_quadratic(self):
        p = {"w": np.array([3.0])}
        opt = Adam(lr=0.2)
        for _ in range(200):
            opt.step(p, {"w": p["w"].copy()})
        assert abs(p["w"][0]) < 1e-2



def zero_layer(d_in, d_out, folds=None, **kw):
    """An order-1 filter with zero weights; a stack of ``folds`` if given."""
    lead = () if folds is None else (folds,)
    return ChebFilterLayer(theta=np.zeros(lead + (2, d_in, d_out)),
                           bias=np.zeros(lead + (d_out,)), **kw)


def zero_net(folds=None):
    """A 3 -> 4 module and a 4 -> 2 classifier, on zero weights."""
    lead = () if folds is None else (folds,)
    return Network(modules=[InceptionModule(branches=[zero_layer(3, 4, folds)])],
                   classifier_weight=np.zeros(lead + (4, 2)), classifier_bias=np.zeros(lead + (2,)))


def forward_on_zeros(net, **kw):
    """``network_forward`` on a random 5-node graph with zero 3-feature input."""
    return network_forward(net, make_lap(5), np.zeros((5, 3)), **kw)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: ChebFilterLayer(theta=np.zeros((2, 3)), bias=np.zeros(3)),
     ShapeMismatchError, "theta must be ([F,] order + 1, d_in, d_out)"),
    (lambda: ChebFilterLayer(theta=np.zeros((2, 3, 4)), bias=np.zeros(3)),
     ShapeMismatchError, "bias shape (3,) does not match theta"),
    (lambda: zero_layer(3, 4, activation="tanh"), ValueError, "unknown activation 'tanh'"),
    (lambda: InceptionModule(branches=[]), ValueError, "at least one branch"),
    (lambda: InceptionModule(branches=[zero_layer(3, 4)], aggregator="sum"),
     ValueError, "unknown aggregator 'sum'"),
    (lambda: InceptionModule(branches=[zero_layer(3, 4), zero_layer(3, 4, folds=2)]),
     ShapeMismatchError, "share the fold count"),
    (lambda: Network(modules=[]), ValueError, "at least one module"),
    (lambda: Network(modules=[InceptionModule(branches=[zero_layer(3, 4)]),
                              InceptionModule(branches=[zero_layer(5, 2)])]),
     ShapeMismatchError, "module input width 5 does not match previous output 4"),
    (lambda: Network(modules=[InceptionModule(branches=[zero_layer(3, 4)]),
                              InceptionModule(branches=[zero_layer(4, 2, folds=2)])]),
     ShapeMismatchError, "all modules of a network must share the fold count"),
    (lambda: Network(modules=[InceptionModule(branches=[zero_layer(3, 4)])],
                     classifier_weight=np.zeros((4, 2))),
     ValueError, "weight and bias must be given together"),
    (lambda: Network(modules=[InceptionModule(branches=[zero_layer(3, 4)])],
                     classifier_weight=np.zeros((5, 2)), classifier_bias=np.zeros(2)),
     ShapeMismatchError, "classifier weight must be (4, n_classes)"),
    (lambda: Network(modules=[InceptionModule(branches=[zero_layer(3, 4)])],
                     classifier_weight=np.zeros((4, 2)), classifier_bias=np.zeros(3)),
     ShapeMismatchError, "classifier bias does not match weight columns"),
    (lambda: forward_on_zeros(zero_net(), input_basis=[np.zeros((5, 4)), np.zeros((5, 3))]),
     ShapeMismatchError, "input_basis does not match the given signal"),
    (lambda: forward_on_zeros(zero_net(), dropout=1.0), ValueError, "dropout must be in [0, 1)"),
    (lambda: forward_on_zeros(zero_net(folds=2), dropout=0.5,
                             dropout_rng=[np.random.default_rng(0)]),
     ValueError, "one generator per fold, got 1 for 2"),
    (lambda: masked_cross_entropy(np.zeros(3), np.zeros(3, dtype=int), np.ones(3, dtype=bool)),
     ShapeMismatchError, "scores must be ([F,] N, C)"),
    (lambda: masked_cross_entropy(np.zeros((3, 2)), np.zeros(4, dtype=int),
                                  np.ones(3, dtype=bool)),
     ShapeMismatchError, "labels must be 1-D with one entry per row"),
    (lambda: make_optimizer("rmsprop", 0.1), ValueError, "unknown optimizer 'rmsprop'"),
])
def test_input_checks_reject_bad_arguments(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
