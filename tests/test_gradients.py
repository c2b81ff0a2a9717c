"""Finite-difference validation of the hand-written backward pass.

Every instance draws a random graph, a random stack of filter modules
(mixed orders, both aggregators, with and without a classifier head) and
checks every parameter gradient against central differences.
"""

import numpy as np
import pytest

from chebgcn.graph import build_laplacian, chebyshev_apply, rescale_laplacian
from chebgcn.nn import (
    ChebFilterLayer,
    InceptionModule,
    Network,
    masked_cross_entropy,
    network_backward,
    network_forward,
)

from conftest import random_adjacency

STEP = 1e-6
REL_TOL = 1e-5


def random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 13))
    adjacency = random_adjacency(rng, n, p=0.35)
    lap = rescale_laplacian(build_laplacian(adjacency))
    d_in = int(rng.integers(2, 4))
    x = rng.standard_normal((n, d_in))

    modules = []
    width = d_in
    for _ in range(int(rng.integers(1, 3))):
        n_branches = int(rng.integers(1, 3))
        d_out = int(rng.integers(2, 4))
        branches = []
        for _ in range(n_branches):
            layer = ChebFilterLayer.create(int(rng.integers(0, 7)), width, d_out, rng)
            # Zero-initialised biases can park a ReLU input exactly on its
            # kink (a clamped row from the previous module stays all-zero),
            # where finite differences are meaningless. Nudge off it.
            layer.bias += rng.standard_normal(d_out) * 0.05
            branches.append(layer)
        aggregator = "maxpool" if rng.random() < 0.5 else "concat"
        module = InceptionModule(branches=branches, aggregator=aggregator)
        modules.append(module)
        width = module.d_out

    if rng.random() < 0.8:
        n_classes = int(rng.integers(2, 4))
        net = Network(
            modules=modules,
            classifier_weight=rng.standard_normal((width, n_classes)) * 0.5,
            classifier_bias=rng.standard_normal(n_classes) * 0.1,
        )
    else:
        n_classes = width
        net = Network(modules=modules)

    labels = rng.integers(0, n_classes, size=n)
    mask = rng.random(n) < 0.7
    if not mask.any():
        mask[0] = True
    return net, lap, x, labels, mask


def assert_grads_match_fd(net, loss_fn, analytic):
    params = net.parameters()
    assert set(analytic) == set(params)
    for name, p in params.items():
        numeric = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_n = numeric.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + STEP
            up = loss_fn()
            flat_p[i] = orig - STEP
            down = loss_fn()
            flat_p[i] = orig
            flat_n[i] = (up - down) / (2 * STEP)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(flat_n)), 1e-3)
        worst = np.abs(a - flat_n) / denom
        assert worst.max() <= REL_TOL, (
            f"{name}: worst relative error {worst.max():.3e} at entry {worst.argmax()}"
        )


@pytest.mark.parametrize("seed", range(20))
def test_parameter_gradients_match_finite_differences(seed):
    net, lap, x, labels, mask = random_instance(seed)
    scores, tape = network_forward(net, lap, x)
    loss, g = masked_cross_entropy(scores, labels, mask)
    analytic = network_backward(tape, g)

    def loss_fn():
        s, _ = network_forward(net, lap, x)
        return masked_cross_entropy(s, labels, mask)[0]

    assert_grads_match_fd(net, loss_fn, analytic)


@pytest.mark.parametrize("seed", [3, 11])
def test_gradients_with_dropout_match_finite_differences(seed):
    # Reseeding the dropout stream per call freezes the masks, so the loss is
    # a deterministic function of the parameters and FD applies as usual.
    net, lap, x, labels, mask = random_instance(seed)
    scores, tape = network_forward(
        net, lap, x, dropout=0.4, dropout_rng=np.random.default_rng(12345)
    )
    loss, g = masked_cross_entropy(scores, labels, mask)
    analytic = network_backward(tape, g)

    def loss_fn():
        s, _ = network_forward(
            net, lap, x, dropout=0.4, dropout_rng=np.random.default_rng(12345)
        )
        return masked_cross_entropy(s, labels, mask)[0]

    assert_grads_match_fd(net, loss_fn, analytic)


def test_cached_basis_gradients_match_plain_forward():
    net, lap, x, labels, mask = random_instance(7)
    basis = np.hstack(chebyshev_apply(lap, x, net.modules[0].order))
    s1, t1 = network_forward(net, lap, x)
    s2, t2 = network_forward(net, lap, x, input_basis=basis)
    np.testing.assert_array_equal(s1, s2)
    _, g = masked_cross_entropy(s1, labels, mask)
    g1 = network_backward(t1, g)
    g2 = network_backward(t2, g)
    for name in g1:
        np.testing.assert_array_equal(g1[name], g2[name])
