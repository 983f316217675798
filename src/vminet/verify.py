"""Self-check suites behind the ``verify`` CLI command.

Each suite re-derives expected values from scratch (explicit loops, its own
mask predicates) and compares the production kernels against them, so a bug
in either side surfaces as a suite failure. Results are deterministic for a
given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import attention, masks
from .attention import (GateVector, elementwise_expansion_oracle,
                        matmul_expansion_oracle, numeric_rank, vmi_sa_matrix,
                        vmi_sa_recurrent)
from .backbone import VmiSaBlockParams, vmi_sa_block_forward
from .data import synthetic_dataset
from .errors import ConfigError
from .tensor import Tensor, grad_check
from .tensor import depthwise_conv2d, elementwise_mul, layer_norm, log_softmax_axis, \
    matmul, silu, softmax_axis, sum_axis


@dataclass
class SuiteResult:
    name: str
    checks: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _rel_err(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(actual - expected))) / scale


# independent mask predicates (1-based row/col logic, mirrors the stated
# constructions rather than the builder code)


def _expected_mask(kind: str, L: int, D: int) -> np.ndarray:
    m = np.zeros((L, D))
    B = min(L, D)
    for t in range(1, L + 1):
        for n in range(1, D + 1):
            if kind == "none":
                m[t - 1, n - 1] = 1.0
            elif kind == "lower_triangular":
                m[t - 1, n - 1] = 1.0 if n <= t else 0.0
            elif kind == "banded":
                d = -(-(t * D) // L)
                m[t - 1, n - 1] = 1.0 if 0 <= d - n < B // 2 else 0.0
            elif kind == "block_diagonal":
                groups = B // 2
                size = -(-L // groups)
                g = min((t - 1) // size, groups - 1)
                m[t - 1, n - 1] = 1.0 if n in (2 * g + 1, 2 * g + 2) else 0.0
    return m


def _random_case(rng, all_kinds=True):
    L = int(rng.integers(2, 33))
    D = int(rng.integers(2, 17))
    Q = rng.standard_normal((L, D))
    K = rng.standard_normal((L, D))
    alpha = rng.standard_normal(L)
    beta = rng.standard_normal(L)
    kind = str(rng.choice(masks.KINDS)) if all_kinds else "lower_triangular"
    return L, D, Q, K, alpha, beta, kind


def suite_oracle_matrix(seed: int, trials: int) -> SuiteResult:
    """vmi_sa_matrix against a double-loop evaluation of its definition."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    result = SuiteResult("oracle-matrix", trials)
    for trial in range(trials):
        L, D, Q, K, alpha, beta, kind = _random_case(rng)
        m = masks.build_mask(kind, L, D)
        got = vmi_sa_matrix(Q, K, GateVector(alpha, beta), m).data
        expected = np.zeros((L, D))
        for n in range(D):
            c = 0.0
            for t in range(L):
                c += alpha[t] * (m.matrix[t, n] * (Q[t, n] * K[t, n]))
            for t in range(L):
                expected[t, n] = c + beta[t] * (Q[t, n] * K[t, n])
        err = _rel_err(got, expected)
        if err > 1e-10:
            result.failures.append(f"trial {trial} ({kind}, L={L}, D={D}): rel err {err:.3e}")
    return result


def suite_oracle_recurrent(seed: int, trials: int) -> SuiteResult:
    """vmi_sa_recurrent against a bitwise step-loop of the recurrence."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    result = SuiteResult("oracle-recurrent", trials)
    for trial in range(trials):
        L, D, Q, K, alpha, beta, kind = _random_case(rng)
        m = masks.build_mask(kind, L, D)
        got = vmi_sa_recurrent(Q, K, GateVector(alpha, beta), m).data
        h = np.zeros(D)
        expected = np.zeros((L, D))
        for i in range(L):
            for d in range(D):
                h[d] = h[d] + alpha[i] * (Q[i, d] * K[i, d])
                expected[i, d] = m.matrix[i, d] * h[d] + beta[i] * (Q[i, d] * K[i, d])
        if not np.array_equal(got, expected):
            result.failures.append(f"trial {trial} ({kind}, L={L}, D={D}): not bitwise equal")
    return result


def suite_context_identity(seed: int, trials: int) -> SuiteResult:
    """Lower-triangular context vector against the brute-force triple sum over
    the pre-projection features (uses its own t >= n predicate, not the mask
    builder)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    result = SuiteResult("context-identity", trials)
    for trial in range(trials):
        L = int(rng.integers(2, 13))
        C = int(rng.integers(2, 7))
        D = int(rng.integers(2, 9))
        X = rng.standard_normal((L, C))
        W1 = rng.standard_normal((C, D))
        W2 = rng.standard_normal((C, D))
        alpha = rng.standard_normal(L)
        got = attention.context_vector(
            X @ W1, X @ W2, alpha, masks.build_mask("lower_triangular", L, D)
        ).data.reshape(-1)
        expected = np.zeros(D)
        for n in range(1, D + 1):
            acc = 0.0
            for t in range(n, L + 1):
                for i in range(C):
                    for j in range(C):
                        acc += alpha[t - 1] * W1[i, n - 1] * W2[j, n - 1] * X[t - 1, i] * X[t - 1, j]
            expected[n - 1] = acc
        err = _rel_err(got, expected)
        if err > 1e-12:
            result.failures.append(f"trial {trial} (L={L}, C={C}, D={D}): rel err {err:.3e}")
    return result


def suite_expansions(seed: int, trials: int) -> SuiteResult:
    """Both quadratic-form expansion identities against the direct products."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    result = SuiteResult("expansion-identities", trials)
    for trial in range(trials):
        L = int(rng.integers(2, 7))
        C = int(rng.integers(2, 9))
        D = int(rng.integers(2, 7))
        X = rng.standard_normal((L, C))
        W1 = rng.standard_normal((C, D))
        W2 = rng.standard_normal((C, D))
        elem = (X @ W1) * (X @ W2)
        gram = (X @ W1) @ (X @ W2).T
        m = int(rng.integers(0, L))
        n = int(rng.integers(0, D))
        n2 = int(rng.integers(0, L))
        scale = max(np.abs(elem).max(), np.abs(gram).max(), 1e-300)
        e1 = abs(elementwise_expansion_oracle(X, W1, W2, m, n) - elem[m, n]) / scale
        e2 = abs(matmul_expansion_oracle(X, W1, W2, m, n2) - gram[m, n2]) / scale
        if e1 > 1e-12 or e2 > 1e-12:
            result.failures.append(f"trial {trial}: rel errs {e1:.3e}, {e2:.3e}")
    return result


def suite_rank(seed: int, trials: int) -> SuiteResult:
    """Rank bound of the softmax-pooled product and the mask rank-restoration
    property."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    result = SuiteResult("rank", 2 * trials)
    for trial in range(trials):
        L = int(rng.integers(4, 33))
        D = int(rng.integers(2, 17))
        q = rng.standard_normal((L, 1))
        k = rng.standard_normal((L, D))
        s = np.exp(q - q.max())
        s /= s.sum()
        r = numeric_rank(s * k, 1e-10)
        if r > min(L, D):
            result.failures.append(f"trial {trial}: rank {r} > min({L}, {D})")
    for trial in range(trials):
        D = int(rng.integers(2, 17))
        L = int(rng.integers(D + 1, D + 17))
        a = rng.standard_normal((L, D))
        masked = _expected_mask("lower_triangular", L, D) * a
        r = numeric_rank(masked, 1e-10)
        if r != D:
            result.failures.append(f"trial {trial}: masked rank {r} != D={D}")
    return result


def suite_masks(seed: int, trials: int) -> SuiteResult:
    """Every mask family against the predicate loops above."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 6]))
    result = SuiteResult("masks", trials)
    for trial in range(trials):
        kind = masks.KINDS[trial % len(masks.KINDS)]
        L = int(rng.integers(2, 40))
        D = int(rng.integers(2, 24))
        built = masks.build_mask(kind, L, D)
        expected = _expected_mask(kind, L, D)
        if not np.array_equal(built.matrix, expected):
            result.failures.append(f"trial {trial}: {kind} L={L} D={D} mismatch")
        if not built.matrix.any(axis=1).all():
            result.failures.append(f"trial {trial}: {kind} L={L} D={D} has an all-zero row")
    return result


def suite_gradients(seed: int) -> SuiteResult:
    """Central-difference checks for each differentiable op and one full
    attention block."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    result = SuiteResult("gradients", 0)

    def weigher(shape):
        # fixed projection so the loss is scalar but direction-sensitive
        w = Tensor(rng.standard_normal(shape))
        return lambda t: (t * w).sum()

    cases = {
        "matmul": (lambda a, b, lw=weigher((3, 2)): lw(matmul(a, b)),
                   [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]),
        "elementwise_mul": (lambda a, b, lw=weigher((3, 4)): lw(elementwise_mul(a, b)),
                            [rng.standard_normal((3, 4)), rng.standard_normal((1, 4))]),
        "softmax_axis": (lambda t, lw=weigher((3, 5)): lw(softmax_axis(t, 1)),
                         [rng.standard_normal((3, 5))]),
        "log_softmax_axis": (lambda t, lw=weigher((3, 5)): lw(log_softmax_axis(t, 1)),
                             [rng.standard_normal((3, 5))]),
        "sum_axis": (lambda t, lw=weigher((3,)): lw(sum_axis(t, 0)),
                     [rng.standard_normal((4, 3))]),
        "silu": (lambda t, lw=weigher((4, 3)): lw(silu(t)), [rng.standard_normal((4, 3))]),
        "layer_norm": (lambda x, g, b, lw=weigher((2, 4, 5)): lw(layer_norm(x, g, b, 1e-6)),
                       [rng.standard_normal((2, 4, 5)), rng.standard_normal(5),
                        rng.standard_normal(5)]),
        "depthwise_conv2d": (lambda x, k, lw=weigher((4, 4, 3)): lw(depthwise_conv2d(x, k)),
                             [rng.standard_normal((4, 4, 3)), rng.standard_normal((3, 3, 3))]),
    }
    for name, (fn, inputs) in cases.items():
        result.checks += 1
        report = grad_check(fn, inputs)
        if not report.passed:
            result.failures.append(f"{name}: max rel err {report.max_rel_error:.3e}")

    h = w = 3
    c, d = 4, 8
    m = masks.build_mask("lower_triangular", h * w, d)
    target = rng.standard_normal((h, w, c))

    def block_loss(x, dw, gamma, beta, wq, wk, wout, alpha, bvec):
        p = VmiSaBlockParams(dw, gamma, beta, wq, wk, wout, GateVector(alpha, bvec))
        out = vmi_sa_block_forward(x, p, m)
        return (out * Tensor(target)).sum()

    result.checks += 1
    report = grad_check(
        block_loss,
        [rng.standard_normal((h, w, c)), rng.standard_normal((3, 3, c)) * 0.5,
         rng.standard_normal(c), rng.standard_normal(c),
         rng.standard_normal((c, d)) * 0.5, rng.standard_normal((c, d)) * 0.5,
         rng.standard_normal((d, c)) * 0.5, rng.standard_normal(h * w),
         rng.standard_normal(h * w)],
    )
    if not report.passed:
        result.failures.append(f"vmi_sa_block: max rel err {report.max_rel_error:.3e}")
    return result


def suite_determinism(seed: int) -> SuiteResult:
    """Identical seeds must reproduce datasets, masks, and kernel outputs."""
    result = SuiteResult("determinism", 3)
    a = synthetic_dataset(32, 4, seed)
    b = synthetic_dataset(32, 4, seed)
    if not (np.array_equal(a.images, b.images) and np.array_equal(a.labels, b.labels)):
        result.failures.append("synthetic dataset differs across identical seeds")
    rng1 = np.random.default_rng(np.random.SeedSequence([seed, 8]))
    rng2 = np.random.default_rng(np.random.SeedSequence([seed, 8]))
    q1, k1 = rng1.standard_normal((6, 4)), rng1.standard_normal((6, 4))
    q2, k2 = rng2.standard_normal((6, 4)), rng2.standard_normal((6, 4))
    m = masks.build_mask("banded", 6, 4)
    y1 = vmi_sa_matrix(q1, k1, GateVector.initial(6), m).data
    y2 = vmi_sa_matrix(q2, k2, GateVector.initial(6), m).data
    if not np.array_equal(y1, y2):
        result.failures.append("kernel output differs across identical seeds")
    if not np.array_equal(masks.build_mask("block_diagonal", 10, 6).matrix,
                          masks.build_mask("block_diagonal", 10, 6).matrix):
        result.failures.append("mask construction is not reproducible")
    return result


def run_verify_suite(seed: int = 0, trials: int = 200, printer=print) -> list[SuiteResult]:
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    results = [
        suite_oracle_matrix(seed, max(1, trials // 2)),
        suite_oracle_recurrent(seed, max(1, trials // 2)),
        suite_context_identity(seed, max(1, trials // 8)),
        suite_expansions(seed, max(1, trials // 2)),
        suite_rank(seed, trials),
        suite_masks(seed, max(4, trials // 2)),
        suite_gradients(seed),
        suite_determinism(seed),
    ]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}: {r.checks - len(r.failures)}/{r.checks} checks"
        if r.failures:
            line += f"; first failure: {r.failures[0]}"
        printer(line)
    return results
