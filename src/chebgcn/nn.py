"""Chebyshev filter layers, multi-kernel modules, and exact manual gradients.

A filter layer applies a learned spectral filter of a chosen polynomial
order to a node-feature matrix. A module runs several such filters of
different orders in parallel over the same input and aggregates them by
column concatenation or elementwise max. A network stacks modules and ends
in an optional dense classifier over per-node outputs.

Gradients are computed in closed form by reverse mode through the same
Chebyshev recurrence the forward pass uses; no numeric differentiation is
involved anywhere in training. The finite-difference comparison lives in
the test suite instead.
"""

from dataclasses import dataclass, field

import numpy as np

from .graph import NormalizedLaplacian, chebyshev_apply

AGGREGATORS = ("concat", "maxpool")
ACTIVATIONS = ("relu", "linear")


class ShapeMismatchError(ValueError):
    """Arrays passed to a layer or loss do not line up."""


class StaleTapeError(RuntimeError):
    """A gradient tape no longer matches the network it was recorded from."""


class NonFiniteGradientError(FloatingPointError):
    """A parameter update was attempted with NaN or infinite gradients."""


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class ChebFilterLayer:
    """One spectral filter: theta has shape (order + 1, d_in, d_out).

    Slice r of theta weights the order-r Chebyshev basis signal. The layer
    output is sum_r T_r(L) H theta_r + bias, optionally through ReLU.
    """

    theta: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.theta.ndim != 3:
            raise ShapeMismatchError(
                f"theta must be (order + 1, d_in, d_out), got shape {self.theta.shape}"
            )
        if self.bias.shape != (self.theta.shape[2],):
            raise ShapeMismatchError(
                f"bias shape {self.bias.shape} does not match d_out {self.theta.shape[2]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def order(self) -> int:
        return self.theta.shape[0] - 1

    @property
    def d_in(self) -> int:
        return self.theta.shape[1]

    @property
    def d_out(self) -> int:
        return self.theta.shape[2]

    @classmethod
    def create(cls, order, d_in, d_out, rng, activation="relu"):
        """Glorot-initialized layer; the effective fan-in is (order + 1) * d_in."""
        theta = glorot_uniform(rng, (order + 1) * d_in, d_out, (order + 1, d_in, d_out))
        return cls(theta=theta, bias=np.zeros(d_out), activation=activation)


@dataclass
class _BranchTape:
    basis: list  # [T_0(L) H, ..., T_k(L) H]
    relu_mask: np.ndarray | None


def _filter_forward(layer, lap, h, basis=None):
    if basis is None:
        basis = chebyshev_apply(lap, h, layer.order)
    else:
        if len(basis) < layer.order + 1:
            raise ShapeMismatchError(
                f"cached basis has {len(basis)} terms, layer needs {layer.order + 1}"
            )
        basis = list(basis[: layer.order + 1])
    z = basis[0] @ layer.theta[0]
    for r in range(1, layer.order + 1):
        z += basis[r] @ layer.theta[r]
    z += layer.bias
    if layer.activation == "relu":
        mask = z > 0.0
        return z * mask, _BranchTape(basis=basis, relu_mask=mask)
    return z, _BranchTape(basis=basis, relu_mask=None)


def _filter_backward(layer, lap, btape, g, need_input_grad):
    if layer.activation == "relu":
        g = g * btape.relu_mask
    k = layer.order
    dtheta = np.empty_like(layer.theta)
    for r in range(k + 1):
        dtheta[r] = btape.basis[r].T @ g
    dbias = g.sum(axis=0)
    if not need_input_grad:
        return dtheta, dbias, None
    # Reverse mode through T_r = 2 L T_{r-1} - T_{r-2}; L is symmetric, so the
    # adjoint of "multiply by L" is again "multiply by L".
    c = [g @ layer.theta[r].T for r in range(k + 1)]
    mat = lap.matrix
    for r in range(k, 1, -1):
        step = mat @ c[r]
        step *= 2.0
        c[r - 1] += step
        c[r - 2] -= c[r]
    dh = c[0]
    if k >= 1:
        dh += mat @ c[1]
    return dtheta, dbias, dh


def gc_forward(layer: ChebFilterLayer, lap: NormalizedLaplacian, h) -> np.ndarray:
    """Apply one filter layer to a (n_nodes, d_in) signal."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape != (lap.n_nodes, layer.d_in):
        raise ShapeMismatchError(
            f"expected input of shape ({lap.n_nodes}, {layer.d_in}), got {h.shape}"
        )
    out, _ = _filter_forward(layer, lap, h)
    return out


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
        if self.aggregator == "maxpool":
            d_out = self.branches[0].d_out
            if any(br.d_out != d_out for br in self.branches):
                raise ShapeMismatchError("maxpool aggregation requires equal branch widths")

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
    branch_tapes: list
    winners: np.ndarray | None  # maxpool: branch index that won each output cell


def _module_forward(module, lap, h, basis=None):
    outs = []
    tapes = []
    for br in module.branches:
        o, t = _filter_forward(br, lap, h, basis)
        outs.append(o)
        tapes.append(t)
    if module.aggregator == "concat":
        return np.concatenate(outs, axis=1), _ModuleTape(branch_tapes=tapes, winners=None)
    stacked = np.stack(outs)
    # argmax picks the lowest branch index on ties, which keeps the backward
    # routing deterministic and idempotent.
    winners = np.argmax(stacked, axis=0)
    return stacked.max(axis=0), _ModuleTape(branch_tapes=tapes, winners=winners)


def inception_forward(module: InceptionModule, lap: NormalizedLaplacian, h) -> np.ndarray:
    """Apply one module to a (n_nodes, d_in) signal."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape != (lap.n_nodes, module.d_in):
        raise ShapeMismatchError(
            f"expected input of shape ({lap.n_nodes}, {module.d_in}), got {h.shape}"
        )
    out, _ = _module_forward(module, lap, h)
    return out


@dataclass
class Network:
    """A stack of modules, optionally followed by a per-node dense classifier."""

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
        if (self.classifier_weight is None) != (self.classifier_bias is None):
            raise ValueError("classifier weight and bias must be given together")
        if self.classifier_weight is not None:
            self.classifier_weight = np.asarray(self.classifier_weight, dtype=np.float64)
            self.classifier_bias = np.asarray(self.classifier_bias, dtype=np.float64)
            w = self.classifier_weight
            if w.ndim != 2 or w.shape[0] != self.modules[-1].d_out:
                raise ShapeMismatchError(
                    f"classifier weight must be ({self.modules[-1].d_out}, n_classes), "
                    f"got {w.shape}"
                )
            if self.classifier_bias.shape != (w.shape[1],):
                raise ShapeMismatchError("classifier bias does not match weight columns")

    @property
    def d_in(self) -> int:
        return self.modules[0].d_in

    @property
    def d_out(self) -> int:
        if self.classifier_weight is not None:
            return self.classifier_weight.shape[1]
        return self.modules[-1].d_out

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

    def get_state(self) -> dict:
        return {k: v.copy() for k, v in self.parameters().items()}

    def set_state(self, state: dict) -> None:
        """Copy values into the existing parameter arrays (identity preserved)."""
        params = self.parameters()
        if set(state) != set(params):
            raise KeyError(
                f"state keys {sorted(state)} do not match parameters {sorted(params)}"
            )
        for k, v in params.items():
            np.copyto(v, state[k])

    def fingerprint(self) -> tuple:
        mods = tuple(
            (
                mod.aggregator,
                tuple((br.order, br.d_in, br.d_out, br.activation) for br in mod.branches),
            )
            for mod in self.modules
        )
        clf = None if self.classifier_weight is None else self.classifier_weight.shape
        return (mods, clf)


@dataclass
class GradientTape:
    """Intermediate values from one forward pass, for network_backward."""

    net: Network
    net_fingerprint: tuple
    lap: NormalizedLaplacian
    scores_shape: tuple
    module_tapes: list
    classifier_input: np.ndarray
    dropout_masks: list


def network_forward(net: Network, lap: NormalizedLaplacian, x, input_basis=None,
                    dropout: float = 0.0, dropout_rng=None):
    """Run the network on node features x; returns (scores, tape).

    ``input_basis`` may hold ``chebyshev_apply(lap, x, k)`` for the same
    (lap, x) pair, with k at least the first module's highest order; it only
    short-circuits the first module's basis build.
    ``dropout`` (training only) zeroes each module-output entry with the
    given probability and rescales the survivors; it needs a Generator.
    Module inputs are left alone so the cached basis stays valid.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape != (lap.n_nodes, net.d_in):
        raise ShapeMismatchError(
            f"expected input of shape ({lap.n_nodes}, {net.d_in}), got {x.shape}"
        )
    if input_basis is not None and (
        len(input_basis) == 0 or input_basis[0].shape != x.shape
    ):
        raise ShapeMismatchError("input_basis does not match the given signal")
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")
    if dropout > 0.0 and dropout_rng is None:
        raise ValueError("dropout needs a random generator")
    h = x
    module_tapes = []
    dropout_masks = []
    for mi, mod in enumerate(net.modules):
        basis = input_basis if mi == 0 else None
        h, mtape = _module_forward(mod, lap, h, basis)
        module_tapes.append(mtape)
        if dropout > 0.0:
            keep = dropout_rng.random(h.shape) >= dropout
            mask = keep / (1.0 - dropout)
            h = h * mask
            dropout_masks.append(mask)
        else:
            dropout_masks.append(None)
    classifier_input = h
    if net.classifier_weight is not None:
        scores = h @ net.classifier_weight + net.classifier_bias
    else:
        scores = h
    tape = GradientTape(
        net=net,
        net_fingerprint=net.fingerprint(),
        lap=lap,
        scores_shape=scores.shape,
        module_tapes=module_tapes,
        classifier_input=classifier_input,
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
    grads = {}
    if net.classifier_weight is not None:
        grads["classifier.weight"] = tape.classifier_input.T @ g
        grads["classifier.bias"] = g.sum(axis=0)
        g = g @ net.classifier_weight.T
    for mi in reversed(range(len(net.modules))):
        mod = net.modules[mi]
        mtape = tape.module_tapes[mi]
        if tape.dropout_masks[mi] is not None:
            g = g * tape.dropout_masks[mi]
        if mod.aggregator == "concat":
            splits = np.cumsum([br.d_out for br in mod.branches])[:-1]
            branch_gs = np.split(g, splits, axis=1)
        else:
            branch_gs = [g * (mtape.winners == si) for si in range(len(mod.branches))]
        need_input_grad = mi > 0
        dh = None
        for si, (br, btape, bg) in enumerate(zip(mod.branches, mtape.branch_tapes, branch_gs)):
            dtheta, dbias, dinput = _filter_backward(br, tape.lap, btape, bg, need_input_grad)
            grads[f"modules.{mi}.branches.{si}.theta"] = dtheta
            grads[f"modules.{mi}.branches.{si}.bias"] = dbias
            if need_input_grad:
                dh = dinput if dh is None else dh + dinput
        g = dh
    return grads


def masked_cross_entropy(scores, labels, mask):
    """Mean cross-entropy over masked rows; returns (loss, d(loss)/d(scores)).

    Softmax is computed with the usual max-shift so large scores stay
    finite. Gradient rows outside the mask are exactly zero, and each masked
    row's gradient sums to zero up to roundoff.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    if scores.ndim != 2:
        raise ShapeMismatchError(f"scores must be 2-D, got shape {scores.shape}")
    n = scores.shape[0]
    if labels.shape != (n,) or mask.shape != (n,):
        raise ShapeMismatchError("labels and mask must be 1-D with one entry per row")
    m = int(mask.sum())
    if m == 0:
        raise ValueError("mask selects no rows; loss is undefined")
    picked = labels[mask]
    if picked.min() < 0 or picked.max() >= scores.shape[1]:
        raise ValueError("a masked label is outside [0, n_classes)")
    sub = scores[mask]
    with np.errstate(over="ignore", invalid="ignore"):
        # the shift can land at -inf for extreme score gaps (exp maps that to
        # 0), and already non-finite scores pass through as nan for callers
        # that check the loss
        shifted = sub - sub.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(m)
    loss = float(-logp[rows, picked].mean())
    probs = np.exp(logp)
    probs[rows, picked] -= 1.0
    grad = np.zeros_like(scores)
    grad[mask] = probs / m
    return loss, grad


def _check_gradient(name, p, g):
    if g.shape != p.shape:
        raise ShapeMismatchError(
            f"gradient shape {g.shape} does not match parameter {name!r} {p.shape}"
        )
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")


class GradientDescent:
    """In-place gradient descent: each parameter moves by -lr times its gradient."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params, grads):
        for name, p in params.items():
            g = grads[name]
            _check_gradient(name, p, g)
            p -= self.lr * g


class Adam:
    """Adam with bias correction; state is keyed by parameter name."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(name: str, lr: float):
    if name == "sgd":
        return GradientDescent(lr)
    if name == "adam":
        return Adam(lr)
    raise ValueError(f"unknown optimizer {name!r}")
