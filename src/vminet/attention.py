"""Attention kernels.

Baselines: full dot-product attention, separable attention with a single
query column, and a sequential state-space scan. The main kernels are the
gated, masked separable forms, one graph node each with a closed-form
backward: y = M_out ⊙ S(alpha ⊙ M_in ⊙ Q⊙K) + beta ⊙ Q⊙K, where S sums
over all tokens (matrix form, mask inside) or is a prefix sum in token
order (recurrent form, mask outside).

All kernels accept arrays or Tensors and return Tensors; gradients flow when
inputs require them. The kernels here are single-head and work on (L, D)
token matrices, with leading batch dimensions supported where noted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .masks import Mask
from .tensor import Tensor, astensor


@dataclass
class GateVector:
    """Learnable per-token gains: alpha scales context contributions, beta the
    local product term. Shared across feature channels."""

    alpha: Tensor
    beta: Tensor

    def __post_init__(self):
        self.alpha = astensor(self.alpha)
        self.beta = astensor(self.beta)
        if self.alpha.ndim != 1 or self.beta.ndim != 1:
            raise DimensionError(
                f"gates must be 1-D, got alpha {self.alpha.shape}, beta {self.beta.shape}"
            )
        if self.alpha.shape != self.beta.shape:
            raise DimensionError(
                f"gate lengths differ: alpha {self.alpha.shape} vs beta {self.beta.shape}"
            )

    @classmethod
    def initial(cls, L: int, requires_grad: bool = False) -> "GateVector":
        """Default initialization: alpha_i = 1/L (a mean over tokens), beta_i = 1."""
        if L < 1:
            raise ConfigError(f"gate length must be positive, got {L}")
        return cls(
            Tensor(np.full(L, 1.0 / L), requires_grad=requires_grad),
            Tensor(np.ones(L), requires_grad=requires_grad),
        )


@dataclass
class SsmParams:
    """State-space recurrence parameters: state matrix A (D x D), input and
    output vectors B and C (length D)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64).reshape(-1)
        self.C = np.asarray(self.C, dtype=np.float64).reshape(-1)
        d = self.B.shape[0]
        if self.A.shape != (d, d) or self.C.shape != (d,):
            raise DimensionError(
                f"ssm shapes inconsistent: A {self.A.shape}, B {self.B.shape}, C {self.C.shape}"
            )


def ssm_scan_reference(p: SsmParams, x) -> np.ndarray:
    """Sequential reference scan: h_i = A h_{i-1} + B x_i, y_i = C . h_i."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    d = p.B.shape[0]
    h = np.zeros(d)
    y = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        h = p.A @ h + p.B * x[i]
        y[i] = p.C @ h
    return y


# ---------------------------------------------------------------------------
# baselines


def softmax_self_attention(Q, K, V) -> Tensor:
    """Y = softmax(Q K^T) V, softmax over the key axis of each row."""
    Q, K, V = astensor(Q), astensor(K), astensor(V)
    if Q.ndim != 2 or K.ndim != 2 or V.ndim != 2:
        raise DimensionError(
            f"expected 2-D Q, K, V; got {Q.shape}, {K.shape}, {V.shape}"
        )
    if Q.shape != K.shape or K.shape[0] != V.shape[0]:
        raise DimensionError(
            f"attention shape mismatch: Q {Q.shape}, K {K.shape}, V {V.shape}"
        )
    scores = T.matmul(Q, T.transpose(K, (1, 0)))
    attn = T.softmax_axis(scores, axis=1)
    return T.matmul(attn, V)


def separable_self_attention(Q, K, V) -> Tensor:
    """Single-column queries: token weights softmax(Q) pool K into a context
    row, which then gates V elementwise.

    Built literally as softmax -> multiply -> sum -> multiply from the tensor
    primitives, so it matches that composition bitwise.
    """
    Q, K, V = astensor(Q), astensor(K), astensor(V)
    if Q.ndim != 2 or Q.shape[1] != 1:
        raise DimensionError(f"separable attention needs Q of shape (L, 1), got {Q.shape}")
    if K.ndim != 2 or V.shape != K.shape or K.shape[0] != Q.shape[0]:
        raise DimensionError(
            f"attention shape mismatch: Q {Q.shape}, K {K.shape}, V {V.shape}"
        )
    weights = T.softmax_axis(Q, axis=0)
    pooled = T.sum_axis(T.elementwise_mul(weights, K), axis=0)
    return T.elementwise_mul(pooled, V)


# ---------------------------------------------------------------------------
# gated, masked separable forms


def _check_qk_mask(Q: Tensor, K: Tensor, alpha: Tensor, m: Mask) -> None:
    if Q.shape != K.shape:
        raise DimensionError(f"Q and K shapes differ: {Q.shape} vs {K.shape}")
    if Q.ndim < 2:
        raise DimensionError(f"expected (..., L, D) tokens, got {Q.shape}")
    L, D = Q.shape[-2], Q.shape[-1]
    if m.matrix.shape != (L, D):
        raise DimensionError(
            f"mask shape {m.matrix.shape} does not match tokens ({L}, {D})"
        )
    if alpha.shape != (L,):
        raise DimensionError(f"gate length {alpha.shape} does not match L={L}")


def context_vector(Q, K, alpha, m: Mask) -> Tensor:
    """Shared summary row: c[n] = sum_t alpha_t * M[t,n] * Q[t,n] * K[t,n].

    Returns shape (..., 1, D) so it broadcasts over token rows.
    """
    Q, K, alpha = astensor(Q), astensor(K), astensor(alpha)
    _check_qk_mask(Q, K, alpha, m)
    qk = T.elementwise_mul(Q, K)
    masked = T.elementwise_mul(qk, m.matrix)
    weighted = T.elementwise_mul(masked, T.reshape(alpha, (-1, 1)))
    return T.sum_axis(weighted, axis=-2, keepdims=True)


def _gated_sum(Q, K, g: GateVector, m: Mask, op: str, mix, mix_t) -> Tensor:
    """y = mix(alpha, Q⊙K) + beta ⊙ Q⊙K as one graph node, where mix(alpha, x)
    is M_out ⊙ S(alpha ⊙ M_in ⊙ x) and mix_t(grad) = M_in ⊙ Sᵀ(M_out ⊙ grad) is
    its adjoint in x. Both return fresh arrays and hold all that differs
    between the forms: the token sum S and the side the mask sits on."""
    Q, K = astensor(Q), astensor(K)
    alpha, beta = g.alpha, g.beta
    _check_qk_mask(Q, K, alpha, m)
    qk = Q.data * K.data
    data = beta.data[:, None] * qk
    data += mix(alpha.data, qk)
    L, D = qk.shape[-2], qk.shape[-1]

    def backward_fn(grad):
        dmix = mix_t(grad)
        dalpha = dbeta = None
        if alpha.requires_grad:
            dalpha = np.einsum("btn,btn->t", dmix.reshape(-1, L, D), qk.reshape(-1, L, D))
        if beta.requires_grad:
            dbeta = np.einsum("btn,btn->t", grad.reshape(-1, L, D), qk.reshape(-1, L, D))
        dmix *= alpha.data[:, None]
        dqk = beta.data[:, None] * grad
        dqk += dmix
        return (
            dqk * K.data if Q.requires_grad else None,
            dqk * Q.data if K.requires_grad else None,
            dalpha,
            dbeta,
        )

    return T.custom_op(data, (Q, K, alpha, beta), backward_fn, op)


def vmi_sa_matrix(Q, K, g: GateVector, m: Mask) -> Tensor:
    """Matrix form: every row receives the same context vector, plus its own
    beta-scaled local product. Y = expand_L(c) + diag(beta) (Q ⊙ K).

    S is the total over tokens with the mask inside it, computed as one
    einsum pass, so each call makes only two token-sized temporaries and
    timing stays linear in L.
    """
    M = m.matrix
    return _gated_sum(
        Q, K, g, m, "vmi_sa_matrix",
        lambda alpha, qk: np.einsum("t,tn,...tn->...n", alpha, M, qk)[..., None, :],
        lambda grad: M * grad.sum(axis=-2, keepdims=True),
    )


def _prefix_sum(x: np.ndarray) -> np.ndarray:
    """Running sum down the token axis, in token order, written over x: a fresh
    token-sized array per call costs more than the sum itself at large L."""
    return np.cumsum(x, axis=-2, out=x)


def vmi_sa_recurrent(Q, K, g: GateVector, m: Mask) -> Tensor:
    """Recurrent form, h_i = h_{i-1} + alpha_i (Q_i ⊙ K_i) and
    y_i = M_i ⊙ h_i + beta_i (Q_i ⊙ K_i) with h_0 = 0: h is a prefix sum with
    the mask outside it. Its adds run in token order, so the result is
    bitwise equal to a step-by-step evaluation. The adjoint of the prefix sum
    is the suffix sum, a prefix sum over the reversed token axis."""
    M = m.matrix
    return _gated_sum(
        Q, K, g, m, "vmi_sa_recurrent",
        lambda alpha, qk: M * _prefix_sum(alpha[:, None] * qk),
        lambda grad: np.flip(_prefix_sum(np.flip(M * grad, axis=-2)), axis=-2),
    )


# ---------------------------------------------------------------------------
# expansion identities (oracle helpers, exported because they double as
# analysis tools)


def _check_expansion_args(X, W1, W2):
    X = np.asarray(X, dtype=np.float64)
    W1 = np.asarray(W1, dtype=np.float64)
    W2 = np.asarray(W2, dtype=np.float64)
    if X.ndim != 2 or W1.ndim != 2 or W2.ndim != 2:
        raise DimensionError("expansion oracles need 2-D X, W1, W2")
    if W1.shape != W2.shape or X.shape[1] != W1.shape[0]:
        raise DimensionError(
            f"expansion shapes inconsistent: X {X.shape}, W1 {W1.shape}, W2 {W2.shape}"
        )
    return X, W1, W2


def elementwise_expansion_oracle(X, W1, W2, m: int, n: int) -> float:
    """Entry (m, n) of (X W1) ⊙ (X W2), regrouped as C(C+1)/2 quadratic terms

        sum_{i <= j} a_(i,j) X[m,i] X[m,j]

    with a_(i,i) = W1[i,n] W2[i,n] and, for i < j,
    a_(i,j) = W1[i,n] W2[j,n] + W1[j,n] W2[i,n]. Indices are 0-based.
    """
    X, W1, W2 = _check_expansion_args(X, W1, W2)
    L, C = X.shape
    D = W1.shape[1]
    if not (0 <= m < L and 0 <= n < D):
        raise IndexError(f"(m, n)=({m}, {n}) out of range for L={L}, D={D}")
    total = 0.0
    for i in range(C):
        for j in range(i, C):
            if i == j:
                a = W1[i, n] * W2[i, n]
            else:
                a = W1[i, n] * W2[j, n] + W1[j, n] * W2[i, n]
            total += a * X[m, i] * X[m, j]
    return total


def matmul_expansion_oracle(X, W1, W2, m: int, n: int) -> float:
    """Entry (m, n) of (X W1)(X W2)^T written as the explicit triple sum

        sum_t sum_i sum_j W1[i,t] W2[j,t] X[m,i] X[n,j]

    over the expanded feature index t. Indices are 0-based.
    """
    X, W1, W2 = _check_expansion_args(X, W1, W2)
    L, C = X.shape
    D = W1.shape[1]
    if not (0 <= m < L and 0 <= n < L):
        raise IndexError(f"(m, n)=({m}, {n}) out of range for L={L}")
    total = 0.0
    for t in range(D):
        for i in range(C):
            for j in range(C):
                total += W1[i, t] * W2[j, t] * X[m, i] * X[n, j]
    return total


# ---------------------------------------------------------------------------
# numeric rank


def numeric_rank(a, tol: float) -> int:
    """Rank by Gaussian elimination with partial pivoting. A pivot counts as
    zero when its magnitude is <= tol * (largest magnitude of the input)."""
    if tol <= 0:
        raise ConfigError(f"numeric_rank tolerance must be positive, got {tol}")
    m = np.array(a.data if isinstance(a, Tensor) else a, dtype=np.float64, copy=True)
    if m.ndim != 2:
        raise DimensionError(f"numeric_rank needs a 2-D matrix, got shape {m.shape}")
    if m.size == 0:
        return 0
    scale = np.max(np.abs(m))
    if scale == 0.0:
        return 0
    threshold = tol * scale
    rows, cols = m.shape
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot = row + int(np.argmax(np.abs(m[row:, col])))
        if abs(m[pivot, col]) <= threshold:
            continue
        if pivot != row:
            m[[row, pivot]] = m[[pivot, row]]
        factors = m[row + 1 :, col] / m[row, col]
        m[row + 1 :, col:] -= np.outer(factors, m[row, col:])
        row += 1
    return row
