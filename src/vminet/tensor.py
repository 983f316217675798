"""Dense float64 tensors with reverse-mode automatic differentiation.

Every op is pure: inputs are never mutated, so tensors can be shared freely
across threads during the forward pass. Graph state lives on the op outputs
themselves (parent links plus a backward closure); ``backward`` performs one
reverse-topological sweep, visiting each node exactly once and accumulating
parent gradients additively. Leaf gradients are rewritten on every call, so
there is no accumulation across calls.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DimensionError

_GRAD_STACK = [True]


@contextlib.contextmanager
def no_grad():
    """Suspend graph recording; forward values are unaffected."""
    _GRAD_STACK.append(False)
    try:
        yield
    finally:
        _GRAD_STACK.pop()


def grad_enabled() -> bool:
    return _GRAD_STACK[-1]


class Tensor:
    """A dense, row-major float64 array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "op", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op: str | None = None
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        backward(self)

    def sum(self):
        return sum_all(self)

    def mean(self):
        return elementwise_mul(sum_all(self), 1.0 / self.data.size)

    def reshape(self, shape):
        return reshape(self, shape)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return elementwise_mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __neg__(self):
        return elementwise_mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        tag = self.name or self.op or "tensor"
        return f"Tensor({tag}, shape={self.shape}, requires_grad={self.requires_grad})"


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents, backward_fn, op: str) -> Tensor:
    out = Tensor(data)
    out.op = op
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the shape it was broadcast from."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def custom_op(data, parents, backward_fn, op: str) -> Tensor:
    """Wrap a hand-fused computation as one graph node.

    ``backward_fn(grad)`` must return one gradient per parent, already shaped
    like that parent's data, or None for parents that do not require one.
    """
    return _result(data, tuple(astensor(p) for p in parents), backward_fn, op)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise DimensionError(f"cannot broadcast shapes {a.shape} and {b.shape}") from exc

    def backward_fn(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), backward_fn, "add")


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    try:
        data = a.data - b.data
    except ValueError as exc:
        raise DimensionError(f"cannot broadcast shapes {a.shape} and {b.shape}") from exc

    def backward_fn(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.data.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), backward_fn, "sub")


def elementwise_mul(a, b) -> Tensor:
    """Hadamard product with numpy broadcasting."""
    a, b = astensor(a), astensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise DimensionError(f"cannot broadcast shapes {a.shape} and {b.shape}") from exc

    def backward_fn(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _result(data, (a, b), backward_fn, "elementwise_mul")


def silu(x) -> Tensor:
    """x * sigmoid(x)."""
    x = astensor(x)
    sig = 1.0 / (1.0 + np.exp(-x.data))
    data = x.data * sig

    def backward_fn(g):
        return (g * (sig * (1.0 + x.data * (1.0 - sig))),)

    return _result(data, (x,), backward_fn, "silu")


# ---------------------------------------------------------------------------
# contractions and reductions


def matmul(a, b) -> Tensor:
    """(..., C) @ (C, D) -> (..., D): the leading axes of ``a`` are flattened
    into the rows of one 2-D product, so a projection of a (B, H, W, C)
    activation is one graph node."""
    a, b = astensor(a), astensor(b)
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    rows = a.data.reshape(-1, b.shape[0])
    data = (rows @ b.data).reshape(a.shape[:-1] + (b.shape[1],))

    def backward_fn(g):
        g = g.reshape(-1, b.shape[1])
        return (
            (g @ b.data.T).reshape(a.data.shape) if a.requires_grad else None,
            rows.T @ g if b.requires_grad else None,
        )

    return _result(data, (a, b), backward_fn, "matmul")


def _check_axis(t: Tensor, axis: int) -> int:
    if not -t.ndim <= axis < t.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {t.shape}")
    return axis % t.ndim


def sum_axis(t, axis: int, keepdims: bool = False) -> Tensor:
    t = astensor(t)
    axis = _check_axis(t, axis)
    data = t.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, t.data.shape),)

    return _result(data, (t,), backward_fn, "sum_axis")


def sum_all(t) -> Tensor:
    t = astensor(t)
    data = t.data.sum()

    def backward_fn(g):
        return (np.broadcast_to(g, t.data.shape),)

    return _result(data, (t,), backward_fn, "sum_all")


def softmax_axis(t, axis: int) -> Tensor:
    """Softmax along one axis, computed with max subtraction for stability."""
    t = astensor(t)
    axis = _check_axis(t, axis)
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _result(s, (t,), backward_fn, "softmax_axis")


def log_softmax_axis(t, axis: int) -> Tensor:
    t = astensor(t)
    axis = _check_axis(t, axis)
    m = t.data.max(axis=axis, keepdims=True)
    shifted = t.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def backward_fn(g):
        return (g - np.exp(data) * g.sum(axis=axis, keepdims=True),)

    return _result(data, (t,), backward_fn, "log_softmax_axis")


# ---------------------------------------------------------------------------
# shape ops


def reshape(t, shape) -> Tensor:
    t = astensor(t)
    try:
        data = t.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {t.shape} into {tuple(shape)}") from exc

    def backward_fn(g):
        return (g.reshape(t.data.shape),)

    return _result(data, (t,), backward_fn, "reshape")


def transpose(t, axes) -> Tensor:
    t = astensor(t)
    axes = tuple(axes)
    data = np.transpose(t.data, axes)
    inverse = tuple(np.argsort(axes))

    def backward_fn(g):
        return (np.transpose(g, inverse),)

    return _result(data, (t,), backward_fn, "transpose")


def take_index(t, index: int, axis: int) -> Tensor:
    """Select a single index along an axis (the axis is removed)."""
    t = astensor(t)
    axis = _check_axis(t, axis)
    if not 0 <= index < t.shape[axis]:
        raise DimensionError(f"index {index} out of range for axis {axis} of shape {t.shape}")
    data = np.take(t.data, index, axis=axis)

    def backward_fn(g):
        gx = np.zeros_like(t.data)
        sel = [slice(None)] * t.ndim
        sel[axis] = index
        gx[tuple(sel)] = g
        return (gx,)

    return _result(data, (t,), backward_fn, "take_index")


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("stack needs at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)
    ax = axis % data.ndim

    def backward_fn(g):
        return tuple(np.take(g, i, axis=ax) for i in range(len(tensors)))

    return _result(data, tuple(tensors), backward_fn, "stack")


# ---------------------------------------------------------------------------
# structured ops


def layer_norm(x, gamma, beta, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Row means and variances are matrix-vector products with a ``1/C``
    vector. The affine, ``dgamma`` and ``dbeta`` work on (W, C) lines of
    ``W * C`` entries with gamma and beta tiled W times, so their inner
    loops are the length of a whole line rather than of C.
    """
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    x, gamma, beta = astensor(x), astensor(gamma), astensor(beta)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise DimensionError(f"layer_norm needs a non-empty channel axis, got shape {x.shape}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match channels ({c},)"
        )
    k = x.shape[-2] if x.ndim > 1 else 1  # channel vectors per line
    avg = np.full(c, 1.0 / c)
    rows = x.data.reshape(-1, c)
    xc = rows - (rows @ avg)[:, None]
    inv = (1.0 / np.sqrt((xc * xc) @ avg + eps))[:, None]
    xhat = xc * inv
    gamma_line = np.tile(gamma.data, k)
    data = xhat.reshape(-1, k * c) * gamma_line
    data += np.tile(beta.data, k)

    def backward_fn(g):
        g_lines = g.reshape(-1, k * c)
        ones = np.ones(g_lines.shape[0])
        dgamma = (ones @ (g_lines * xhat.reshape(-1, k * c))).reshape(k, c).sum(axis=0)
        dbeta = (ones @ g_lines).reshape(k, c).sum(axis=0)
        dxhat = (g_lines * gamma_line).reshape(-1, c)
        dx = inv * (dxhat - (dxhat @ avg)[:, None] - xhat * ((dxhat * xhat) @ avg)[:, None])
        return dx.reshape(x.data.shape), dgamma, dbeta

    return _result(data.reshape(x.data.shape), (x, gamma, beta), backward_fn, "layer_norm")


def _pad_lines(a: np.ndarray, n: int, ph: int, pw: int) -> np.ndarray:
    """(..., H, W, C) zero padded to (N, H + 2ph, (W + 2pw) * C): one row of
    the result is one padded (W, C) line."""
    h, w, c = a.shape[-3:]
    out = np.zeros((n, h + 2 * ph, (w + 2 * pw) * c))
    out[:, ph : ph + h, pw * c : (pw + w) * c] = a.reshape(n, h, w * c)
    return out


def _tap_sum(padded: np.ndarray, taps: np.ndarray, h: int, c: int) -> np.ndarray:
    """sum over taps (a, b) of ``padded[:, a:a+h, b*c : b*c + W*c] * taps[a, b]``,
    accumulated in place in tap order, with one reused temporary."""
    kh, kw, wc = taps.shape
    out = np.multiply(padded[:, :h, :wc], taps[0, 0])
    tmp = np.empty_like(out)
    for a in range(kh):
        for b in range(kw):
            if a or b:
                out += np.multiply(padded[:, a : a + h, b * c : b * c + wc], taps[a, b], out=tmp)
    return out


def depthwise_conv2d(x, kernel) -> Tensor:
    """Per-channel 2-D convolution, stride 1, zero 'same' padding.

    x: (..., H, W, C); kernel: (kh, kw, C) with odd kh, kw.

    The input is padded once and viewed as (N, H + kh - 1, (W + kw - 1) * C)
    rows, and each kernel tap, tiled W times, multiplies a whole (W, C)
    line, so every inner loop is W * C long. The input gradient is the same
    tap sum over the padded output gradient with the kernel mirrored; each
    kernel-tap gradient is a ones-vector product over lines, then a sum over W.
    """
    x, kernel = astensor(x), astensor(kernel)
    if x.ndim < 3:
        raise DimensionError(f"depthwise_conv2d input needs (..., H, W, C), got {x.shape}")
    if kernel.ndim != 3:
        raise DimensionError(f"depthwise kernel needs (kh, kw, C), got {kernel.shape}")
    kh, kw, c = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"depthwise kernel extents must be odd, got ({kh}, {kw})")
    if c != x.shape[-1]:
        raise DimensionError(
            f"channel mismatch: input {x.shape} vs kernel {kernel.shape}"
        )
    h, w = x.shape[-3], x.shape[-2]
    n = math.prod(x.shape[:-3])
    wc = w * c
    taps = np.tile(kernel.data[:, :, None, :], (1, 1, w, 1)).reshape(kh, kw, wc)
    xp = _pad_lines(x.data, n, kh // 2, kw // 2)
    out = _tap_sum(xp, taps, h, c)

    def backward_fn(g):
        dx = dk = None
        if x.requires_grad:
            dx = _tap_sum(_pad_lines(g, n, kh // 2, kw // 2), taps[::-1, ::-1], h, c)
            dx = dx.reshape(x.data.shape)
        if kernel.requires_grad:
            lines = g.reshape(n, h, wc)
            ones = np.ones(n * h)
            tmp = np.empty_like(lines)
            dk = np.empty_like(kernel.data)
            for a in range(kh):
                for b in range(kw):
                    np.multiply(xp[:, a : a + h, b * c : b * c + wc], lines, out=tmp)
                    dk[a, b] = (ones @ tmp.reshape(-1, wc)).reshape(w, c).sum(axis=0)
        return dx, dk

    return _result(out.reshape(x.data.shape), (x, kernel), backward_fn, "depthwise_conv2d")


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate .grad on every reachable requires_grad tensor.

    Gradients are fresh per call: a tensor's .grad is overwritten, never
    accumulated across calls.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g
        if node._backward is None:
            continue
        parent_grads = node._backward(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def find_first_nonfinite(root: Tensor) -> Tensor | None:
    """First tensor (in forward order) whose values are not all finite."""
    for node in _topo_order(root):
        if not np.all(np.isfinite(node.data)):
            return node
    return None


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    h: float
    tol: float
    per_input: list[float] = field(default_factory=list)


def grad_check(f, inputs, h: float = 1e-3, tol: float = 1e-4) -> GradCheckReport:
    """Compare backward() gradients of a scalar function against central
    differences (f(x+h) - f(x-h)) / 2h, elementwise.

    Relative error uses max(|analytic|, |numeric|, 1e-3) in the denominator;
    the floor keeps rounding noise on near-zero entries from dominating.
    """
    if h <= 0:
        raise ConfigError(f"grad_check step must be positive, got {h}")
    probes = [
        Tensor(np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64), requires_grad=True)
        for x in inputs
    ]
    loss = f(*probes)
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ContractError("grad_check function must return a scalar Tensor")
    backward(loss)
    analytic = [
        p.grad if p.grad is not None else np.zeros_like(p.data) for p in probes
    ]
    per_input: list[float] = []
    with no_grad():
        for probe, ana in zip(probes, analytic):
            flat = probe.data.reshape(-1)
            aflat = np.asarray(ana).reshape(-1)
            worst = 0.0
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + h
                fp = float(f(*probes).data.reshape(()))
                flat[i] = saved - h
                fm = float(f(*probes).data.reshape(()))
                flat[i] = saved
                numeric = (fp - fm) / (2.0 * h)
                denom = max(abs(numeric), abs(aflat[i]), 1e-3)
                worst = max(worst, abs(numeric - aflat[i]) / denom)
            per_input.append(worst)
    max_rel = max(per_input) if per_input else 0.0
    return GradCheckReport(passed=max_rel <= tol, max_rel_error=max_rel, h=h, tol=tol, per_input=per_input)
