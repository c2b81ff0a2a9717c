"""Chebyshev filter layers, multi-kernel modules, and exact manual gradients.

A filter layer applies a learned spectral filter of a chosen polynomial
order to a node-feature matrix. A module runs several such filters of
different orders in parallel over the same input and aggregates them by
column concatenation or elementwise max; its branches share one Chebyshev
basis, built up to the highest branch order. A network stacks modules and
ends in an optional per-node dense classifier, which runs as one more
module: a single order-0 linear filter, since T_0(L) = I.

A network may also be a stack of F networks of one shape, one per
cross-validation fold: every parameter then carries a leading fold axis,
and the folds train together. Hidden states are (N, F * width) with each
fold's columns side by side, so the first module's products run as one wide
product off the shared input basis and the Chebyshev recurrence of later
modules runs once for the whole stack wherever its wide products are exact.
Each fold still gets bitwise the values it would get alone; a single network
is the F-less case of the same code.

Gradients are computed in closed form by reverse mode through the same
Chebyshev recurrence the forward pass uses; no numeric differentiation is
involved anywhere in training. The finite-difference comparison lives in
the test suite instead.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import scipy.sparse as sp

from .graph import NormalizedLaplacian, chebyshev_apply

AGGREGATORS = ("concat", "maxpool")
ACTIVATIONS = ("relu", "linear")


class ShapeMismatchError(ValueError):
    """Arrays passed to a layer or loss do not line up."""


class StaleTapeError(RuntimeError):
    """A gradient tape no longer matches the network it was recorded from."""


def glorot_uniform(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Uniform Glorot draw from one Generator, or from each of a list of them
    stacked on a leading fold axis."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if isinstance(rng, np.random.Generator):
        return rng.uniform(-limit, limit, size=shape)
    return np.stack([r.uniform(-limit, limit, size=shape) for r in rng])


def _fold_view(a, folds):
    """(N, F * w) fold-major columns as an (F, N, w) view."""
    return a.reshape(a.shape[0], folds, -1).transpose(1, 0, 2)


# (shape and strides of a, columns of b, folds) -> whether one wide product
# gives every fold the bits of its own product. The answer depends on the
# BLAS build and the shapes only, so one cache serves every caller.
_WIDE_IS_EXACT = {}


def _wide_is_exact(a, cols, folds):
    """Whether ``a @ b`` for any b of ``cols`` columns gives each of its
    ``folds`` column blocks the bits of ``a @ block``.

    BLAS picks its kernel from a product's shape, and its small-matrix
    kernels sum in another order than the blocked ones, so a wide product can
    round differently from a narrow one. A probe on random columns, run once
    per shape, decides. SciPy sums each row of a sparse product in the same
    order at any width.
    """
    if folds == 1 or sp.issparse(a):
        return True
    key = (a.shape, a.strides, cols, folds)
    if key not in _WIDE_IS_EXACT:
        probe = np.random.default_rng(0).standard_normal((a.shape[1], cols))
        _WIDE_IS_EXACT[key] = np.array_equal(a @ probe, _per_fold_matmul(a, probe, folds))
    return _WIDE_IS_EXACT[key]


def _fold_matmul(a, b, folds):
    """``a @ b`` for b of ``folds`` equal column blocks, each block's columns
    bitwise ``a @ block``: one wide product where it is exact, else one
    product per block."""
    return a @ b if _wide_is_exact(a, b.shape[1], folds) else _per_fold_matmul(a, b, folds)


def _per_fold_matmul(a, b, folds):
    w = b.shape[1] // folds
    return np.concatenate(
        [a @ np.ascontiguousarray(b[:, f * w:(f + 1) * w]) for f in range(folds)], axis=1)


def _fold_basis(lap, h, order, folds):
    """chebyshev_apply on a fold stack (N, F * d); each fold's columns are
    bitwise the basis of that fold alone. One recurrence runs on the whole
    stack where its wide products are exact, else one runs per fold. Order 0
    is the input itself, T_0(L) = I."""
    if order == 0:
        return [h]
    if _wide_is_exact(lap.matrix, h.shape[1], folds):
        return chebyshev_apply(lap, h, order)
    w = h.shape[1] // folds
    per_fold = [chebyshev_apply(lap, np.ascontiguousarray(h[:, f * w:(f + 1) * w]), order)
                for f in range(folds)]
    return [np.concatenate(terms, axis=1) for terms in zip(*per_fold)]


@dataclass
class ChebFilterLayer:
    """One spectral filter: theta has shape (order + 1, d_in, d_out).

    Slice r of theta weights the order-r Chebyshev basis signal. The layer
    output is sum_r T_r(L) H theta_r + bias, optionally through ReLU. In a
    fold stack theta is (F, order + 1, d_in, d_out) and bias (F, d_out).
    """

    theta: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.theta.ndim not in (3, 4):
            raise ShapeMismatchError(
                f"theta must be ([F,] order + 1, d_in, d_out), got shape {self.theta.shape}"
            )
        if self.bias.shape != self.theta.shape[:-3] + self.theta.shape[-1:]:
            raise ShapeMismatchError(
                f"bias shape {self.bias.shape} does not match theta {self.theta.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def folds(self):
        """Folds in the stack, or None for a single layer."""
        return self.theta.shape[0] if self.theta.ndim == 4 else None

    @property
    def order(self) -> int:
        return self.theta.shape[-3] - 1

    @property
    def d_in(self) -> int:
        return self.theta.shape[-2]

    @property
    def d_out(self) -> int:
        return self.theta.shape[-1]

    @classmethod
    def create(cls, order, d_in, d_out, rng, activation="relu"):
        """Glorot-initialized layer; the effective fan-in is (order + 1) * d_in.
        A list of Generators gives a fold stack, fold f drawn from rng[f]."""
        theta = glorot_uniform(rng, (order + 1) * d_in, d_out, (order + 1, d_in, d_out))
        return cls(theta=theta, bias=np.zeros(theta.shape[:-3] + (d_out,)), activation=activation)


@dataclass
class InceptionModule:
    """Parallel filter branches over one input, joined by an aggregator.

    "concat" stacks branch outputs along the feature axis; "maxpool" takes
    the elementwise max and therefore requires equal branch widths. Branch
    activations apply before aggregation.
    """

    branches: list
    aggregator: str = "concat"

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a module needs at least one branch")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        d_in = self.branches[0].d_in
        if any(br.d_in != d_in for br in self.branches):
            raise ShapeMismatchError("all branches of a module must share d_in")
        if any(br.folds != self.folds for br in self.branches):
            raise ShapeMismatchError("all branches of a module must share the fold count")
        if self.aggregator == "maxpool":
            d_out = self.branches[0].d_out
            if any(br.d_out != d_out for br in self.branches):
                raise ShapeMismatchError("maxpool aggregation requires equal branch widths")

    @property
    def folds(self):
        return self.branches[0].folds

    @property
    def order(self) -> int:
        """Highest branch order: the module's Chebyshev basis ends at T_order."""
        return max(br.order for br in self.branches)

    @property
    def d_in(self) -> int:
        return self.branches[0].d_in

    @property
    def d_out(self) -> int:
        if self.aggregator == "concat":
            return sum(br.d_out for br in self.branches)
        return self.branches[0].d_out


@dataclass
class _ModuleTape:
    basis: list  # [T_0(L) H, ..., T_K(L) H], K at least the module's highest order
    relu_masks: list  # per branch: where its pre-activation was positive, or None
    winners: np.ndarray | None  # maxpool: branch index that won each output cell


def _wide(theta_r):
    """(F, d, w) weights as one (d, F * w) matrix, fold-major in columns."""
    return theta_r.transpose(1, 0, 2).reshape(theta_r.shape[1], -1)


def _module_forward(module, lap, h, basis=None):
    """Run every branch off one Chebyshev basis; returns (output, tape).

    ``h`` is the (N, d_in) input that every fold shares, or a fold stack
    (N, F * d_in); the output is (N, F * d_out). The basis up to the module's
    highest order holds each lower-order branch's basis as a prefix, so it is
    built once (or taken from ``basis``) and every branch slices it. Off a
    shared basis each order takes one wide product for all folds; off a
    stacked one, one batched product over the folds.
    """
    folds = module.folds or 1
    stacked = h.shape[1] != module.d_in
    if basis is None:
        basis = _fold_basis(lap, h, module.order, folds if stacked else 1)
    outs = []
    relu_masks = []
    for br in module.branches:
        theta = br.theta.reshape((folds,) + br.theta.shape[-3:])
        if stacked:
            z = np.empty((h.shape[0], folds * br.d_out))
            zf = _fold_view(z, folds)
            np.matmul(_fold_view(basis[0], folds), theta[:, 0], out=zf)
            for r in range(1, br.order + 1):
                zf += np.matmul(_fold_view(basis[r], folds), theta[:, r])
        else:
            z = _fold_matmul(basis[0], _wide(theta[:, 0]), folds)
            for r in range(1, br.order + 1):
                z += _fold_matmul(basis[r], _wide(theta[:, r]), folds)
        z += br.bias.reshape(-1)
        mask = None
        if br.activation == "relu":
            mask = z > 0.0
            z = z * mask
        outs.append(z)
        relu_masks.append(mask)
    if module.aggregator == "concat":
        n = h.shape[0]
        out = outs[0] if len(outs) == 1 else np.concatenate(
            [z.reshape(n, folds, -1) for z in outs], axis=2).reshape(n, -1)
        return out, _ModuleTape(basis, relu_masks, winners=None)
    stacked_outs = np.stack(outs)
    # argmax picks the lowest branch index on ties, which keeps the backward
    # routing deterministic and idempotent.
    winners = np.argmax(stacked_outs, axis=0)
    return stacked_outs.max(axis=0), _ModuleTape(basis, relu_masks, winners)


def _module_backward(module, lap, mtape, g, need_input_grad):
    """Per-branch (dtheta, dbias) for a module output gradient ``g``, and the
    input gradient when ``need_input_grad`` (else None).

    Every branch's coefficients c_r = g_branch theta_r^T are summed first, so
    the input gradient takes one reverse pass of the recurrence, as long as
    the module's highest order.
    """
    folds = module.folds or 1
    n = g.shape[0]
    stacked = mtape.basis[0].shape[1] != module.d_in
    if module.aggregator == "concat":
        g3 = g.reshape(n, folds, module.d_out)
        ends = accumulate(br.d_out for br in module.branches)
        branch_gs = [g3[:, :, end - br.d_out:end].reshape(n, -1)
                     for br, end in zip(module.branches, ends)]
    else:
        branch_gs = [g * (mtape.winners == si) for si in range(len(module.branches))]
    grads = []
    c = [None] * (module.order + 1)
    for br, mask, bg in zip(module.branches, mtape.relu_masks, branch_gs):
        if mask is not None:
            bg = bg * mask
        theta = br.theta.reshape((folds,) + br.theta.shape[-3:])
        bg3 = _fold_view(bg, folds)
        dtheta = np.empty_like(theta)
        for r in range(br.order + 1):
            if stacked:
                np.matmul(_fold_view(mtape.basis[r], folds).transpose(0, 2, 1), bg3,
                          out=dtheta[:, r])
            else:
                wide = _fold_matmul(mtape.basis[r].T, bg, folds)
                dtheta[:, r] = _fold_view(wide, folds)
        grads.append((dtheta.reshape(br.theta.shape), bg.sum(axis=0).reshape(br.bias.shape)))
        if need_input_grad:
            for r in range(br.order + 1):
                if c[r] is None:
                    c[r] = np.empty((n, folds * br.d_in))
                    np.matmul(bg3, theta[:, r].transpose(0, 2, 1), out=_fold_view(c[r], folds))
                else:
                    cf = _fold_view(c[r], folds)
                    cf += np.matmul(bg3, theta[:, r].transpose(0, 2, 1))
    if not need_input_grad:
        return grads, None
    # Reverse mode through T_r = 2 L T_{r-1} - T_{r-2}; L is symmetric, so the
    # adjoint of "multiply by L" is again "multiply by L".
    mat = lap.matrix
    for r in range(module.order, 1, -1):
        step = _fold_matmul(mat, c[r], folds)
        step *= 2.0
        c[r - 1] += step
        c[r - 2] -= c[r]
    dh = c[0]
    if module.order >= 1:
        dh += _fold_matmul(mat, c[1], folds)
    return grads, dh


@dataclass
class Network:
    """A stack of modules, optionally followed by a per-node dense classifier.

    The classifier runs as the last layer, an order-0 linear filter whose
    theta and bias view ``classifier_weight`` and ``classifier_bias``. In a
    fold stack every parameter has a leading axis of ``folds`` entries;
    scores are then (F, N, n_classes).
    """

    modules: list
    classifier_weight: np.ndarray | None = None
    classifier_bias: np.ndarray | None = None

    def __post_init__(self):
        if not self.modules:
            raise ValueError("a network needs at least one module")
        for prev, nxt in zip(self.modules, self.modules[1:]):
            if nxt.d_in != prev.d_out:
                raise ShapeMismatchError(
                    f"module input width {nxt.d_in} does not match previous output {prev.d_out}"
                )
        if any(mod.folds != self.folds for mod in self.modules):
            raise ShapeMismatchError("all modules of a network must share the fold count")
        if (self.classifier_weight is None) != (self.classifier_bias is None):
            raise ValueError("classifier weight and bias must be given together")
        if self.classifier_weight is not None:
            self.classifier_weight = np.asarray(self.classifier_weight, dtype=np.float64)
            self.classifier_bias = np.asarray(self.classifier_bias, dtype=np.float64)
            w = self.classifier_weight
            lead = () if self.folds is None else (self.folds,)
            if w.ndim != len(lead) + 2 or w.shape[:-1] != lead + (self.modules[-1].d_out,):
                raise ShapeMismatchError(
                    f"classifier weight must be ({self.modules[-1].d_out}, n_classes) "
                    f"after the fold axis, got {w.shape}"
                )
            if self.classifier_bias.shape != lead + w.shape[-1:]:
                raise ShapeMismatchError("classifier bias does not match weight columns")

    @property
    def folds(self):
        """Folds in the stack, or None for a single network."""
        return self.modules[0].folds

    @property
    def d_in(self) -> int:
        return self.modules[0].d_in

    def parameters(self) -> dict:
        """Live references to every trainable array, keyed by dotted path."""
        out = {}
        for mi, mod in enumerate(self.modules):
            for si, br in enumerate(mod.branches):
                out[f"modules.{mi}.branches.{si}.theta"] = br.theta
                out[f"modules.{mi}.branches.{si}.bias"] = br.bias
        if self.classifier_weight is not None:
            out["classifier.weight"] = self.classifier_weight
            out["classifier.bias"] = self.classifier_bias
        return out

    def map(self, fn) -> "Network":
        """A network of this shape whose every parameter is ``fn`` of this
        one's: ``lambda p: p[None]`` views a network as a one-fold stack,
        ``lambda p: p[idx]`` copies some folds of a stack."""
        modules = [
            InceptionModule(
                branches=[ChebFilterLayer(fn(br.theta), fn(br.bias), br.activation)
                          for br in mod.branches],
                aggregator=mod.aggregator,
            )
            for mod in self.modules
        ]
        if self.classifier_weight is None:
            return Network(modules=modules)
        return Network(modules, fn(self.classifier_weight), fn(self.classifier_bias))

    def fingerprint(self) -> tuple:
        mods = tuple(
            (
                mod.aggregator,
                tuple((br.order, br.d_in, br.d_out, br.activation) for br in mod.branches),
            )
            for mod in self.modules
        )
        clf = None if self.classifier_weight is None else self.classifier_weight.shape
        return (mods, clf, self.folds)


@dataclass
class GradientTape:
    """Intermediate values from one forward pass, for network_backward."""

    net: Network
    net_fingerprint: tuple
    lap: NormalizedLaplacian
    scores_shape: tuple
    layers: list  # net.modules, then the classifier as an order-0 module
    module_tapes: list  # one per layer
    dropout_masks: list  # one per entry of net.modules when dropout was on, else empty


def network_forward(net: Network, lap: NormalizedLaplacian, x, input_basis=None,
                    dropout: float = 0.0, dropout_rng=None):
    """Run the network, or every fold of a stack, on node features x; returns
    (scores, tape).

    ``input_basis`` may hold ``chebyshev_apply(lap, x, k)`` for the same
    (lap, x) pair, with k at least the first module's highest order; it only
    short-circuits the first module's basis build.
    ``dropout`` (training only) zeroes each module-output entry with the
    given probability and rescales the survivors; it needs a Generator, or
    for a stack a list of one Generator per fold, each drawing what its fold
    would draw alone. Module inputs are left alone so the cached basis stays
    valid.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape != (lap.n_nodes, net.d_in):
        raise ShapeMismatchError(
            f"expected input of shape ({lap.n_nodes}, {net.d_in}), got {x.shape}"
        )
    if input_basis is not None:
        need = net.modules[0].order + 1
        if len(input_basis) < need:
            raise ShapeMismatchError(
                f"input_basis has {len(input_basis)} terms, the first module needs {need}"
            )
        if input_basis[0].shape != x.shape:
            raise ShapeMismatchError("input_basis does not match the given signal")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")
    folds = net.folds or 1
    if dropout > 0.0:
        if dropout_rng is None:
            raise ValueError("dropout needs a random generator")
        rngs = [dropout_rng] if net.folds is None else list(dropout_rng)
        if len(rngs) != folds:
            raise ValueError(f"dropout needs one generator per fold, got {len(rngs)} for {folds}")
    n = x.shape[0]
    h = x
    module_tapes = []
    dropout_masks = []
    layers = net.modules
    if net.classifier_weight is not None:
        # T_0(L) = I: the classifier is an order-0 linear filter on views of its arrays
        clf = ChebFilterLayer(net.classifier_weight[..., None, :, :], net.classifier_bias, "linear")
        layers = layers + [InceptionModule([clf])]
    for mi, mod in enumerate(layers):
        basis = input_basis if mi == 0 else None
        h, mtape = _module_forward(mod, lap, h, basis)
        module_tapes.append(mtape)
        if dropout > 0.0 and mi < len(net.modules):
            keep = np.stack([rng.random((n, mod.d_out)) >= dropout for rng in rngs], axis=1)
            mask = keep.reshape(n, -1) / (1.0 - dropout)
            h = h * mask
            dropout_masks.append(mask)
    scores = np.ascontiguousarray(_fold_view(h, folds))
    if net.folds is None:
        scores = scores[0]
    tape = GradientTape(
        net=net,
        net_fingerprint=net.fingerprint(),
        lap=lap,
        scores_shape=scores.shape,
        layers=layers,
        module_tapes=module_tapes,
        dropout_masks=dropout_masks,
    )
    return scores, tape


def network_backward(tape: GradientTape, score_grad) -> dict:
    """Parameter gradients for every network weight, given d(loss)/d(scores).

    The tape may be reused: repeated calls with the same arguments return the
    same gradients. The input-feature matrix receives no gradient (it is
    data, not a parameter).
    """
    net = tape.net
    if net.fingerprint() != tape.net_fingerprint:
        raise StaleTapeError("network structure changed since this tape was recorded")
    g = np.asarray(score_grad, dtype=np.float64)
    if g.shape != tape.scores_shape:
        raise ShapeMismatchError(
            f"score gradient shape {g.shape} does not match scores {tape.scores_shape}"
        )
    folds = net.folds or 1
    g3 = g.reshape((folds,) + g.shape[-2:])
    g = g3.transpose(1, 0, 2).reshape(g3.shape[1], -1)
    layer_grads = []
    for mi, mod in reversed(list(enumerate(tape.layers))):
        if mi < len(tape.dropout_masks):
            g = g * tape.dropout_masks[mi]
        branch_grads, g = _module_backward(mod, tape.lap, tape.module_tapes[mi], g,
                                           need_input_grad=mi > 0)
        layer_grads[:0] = [grad for pair in branch_grads for grad in pair]
    return {name: grad.reshape(p.shape)
            for (name, p), grad in zip(net.parameters().items(), layer_grads, strict=True)}


def masked_cross_entropy(scores, labels, mask):
    """Mean cross-entropy over masked rows; returns (loss, d(loss)/d(scores)).

    Scores (F, N, C) of a fold stack take an (F, N) mask and give one loss
    per fold, each the mean over that fold's own rows, as it would be alone.
    Softmax is computed with the usual max-shift so large scores stay
    finite. Gradient rows outside the mask are exactly zero, and each masked
    row's gradient sums to zero up to roundoff.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    if scores.ndim not in (2, 3):
        raise ShapeMismatchError(f"scores must be ([F,] N, C), got shape {scores.shape}")
    n, n_classes = scores.shape[-2:]
    if labels.shape != (n,) or mask.shape != scores.shape[:-1]:
        raise ShapeMismatchError("labels must be 1-D with one entry per row, and the mask "
                                 "one entry per row of each fold")
    s3 = scores.reshape(-1, n, n_classes)
    m3 = mask.reshape(-1, n)
    counts = m3.sum(axis=1)
    if not counts.all():
        raise ValueError("mask selects no rows; loss is undefined")
    picked = labels[m3.any(axis=0)]
    if picked.min() < 0 or picked.max() >= n_classes:
        raise ValueError("a masked label is outside [0, n_classes)")
    with np.errstate(over="ignore", invalid="ignore"):
        # the shift can land at -inf for extreme score gaps (exp maps that to
        # 0), and already non-finite scores pass through as nan for callers
        # that check the loss
        shifted = s3 - s3.max(axis=2, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    logp = shifted - logz
    # rows outside every mask may carry any label; they get no gradient
    rows, cols = np.arange(n), np.clip(labels, 0, n_classes - 1)
    label_logp = logp[:, rows, cols]
    losses = np.array([-label_logp[f][m].mean() for f, m in enumerate(m3)])
    probs = np.exp(logp)
    probs[:, rows, cols] -= 1.0
    grad = np.where(m3[:, :, None], probs / counts[:, None, None], 0.0)
    if scores.ndim == 2:
        return float(losses[0]), grad[0]
    return losses, grad


def _check_gradient(name, p, g):
    """Shape only: train_network drops folds with non-finite gradients itself."""
    if g.shape != p.shape:
        raise ShapeMismatchError(
            f"gradient shape {g.shape} does not match parameter {name!r} {p.shape}"
        )


class GradientDescent:
    """In-place gradient descent: each parameter moves by -lr times its gradient.

    Updates are elementwise, so the parameters may be fold stacks."""

    def __init__(self, lr: float):
        self.lr = lr

    def take(self, folds) -> None:
        """Keep the state of these folds of a stack only (plain descent has none)."""

    def step(self, params, grads):
        for name, p in params.items():
            g = grads[name]
            _check_gradient(name, p, g)
            p -= self.lr * g


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction; state is keyed by parameter name and, for
    fold stacks, carries the fold axis too."""

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._m = {}
        self._v = {}

    def step(self, params, grads):
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            _check_gradient(name, p, g)
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m = self._m[name]
            v = self._v[name]
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * g * g
            m_hat = m / (1.0 - _ADAM_BETA1**self.t)
            v_hat = v / (1.0 - _ADAM_BETA2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)

    def take(self, folds) -> None:
        """Keep the moments of these folds of a stack only."""
        self._m = {k: v[folds] for k, v in self._m.items()}
        self._v = {k: v[folds] for k, v in self._v.items()}


def make_optimizer(name: str, lr: float):
    if name == "sgd":
        return GradientDescent(lr)
    if name == "adam":
        return Adam(lr)
    raise ValueError(f"unknown optimizer {name!r}")
