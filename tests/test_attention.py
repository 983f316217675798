"""Attention kernels against independent oracles: the closed-form scan, the
literal separable composition, both gated masked forms, the quadratic
expansion identities, and the elimination-based rank estimator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vminet.tensor as T
from vminet.attention import (
    GateVector,
    SsmParams,
    context_vector,
    elementwise_expansion_oracle,
    matmul_expansion_oracle,
    numeric_rank,
    separable_self_attention,
    softmax_self_attention,
    ssm_scan_reference,
    vmi_sa_matrix,
    vmi_sa_recurrent,
)
from vminet.errors import ConfigError, DimensionError
from vminet.masks import build_mask, lower_triangular_mask, no_mask
from vminet.tensor import Tensor, backward, grad_check


def rand(rng, *shape):
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# state-space scan


def test_ssm_scan_identity_state_is_weighted_cumsum():
    # A = I, B = C = e0 -> h carries a running sum of x in channel 0
    d = 3
    p = SsmParams(np.eye(d), np.eye(d)[0], np.eye(d)[0])
    x = np.array([1.0, 2.0, -1.0, 0.5])
    assert_allclose(ssm_scan_reference(p, x), np.cumsum(x), rtol=1e-15)


def test_ssm_scan_matches_matrix_power_closed_form():
    rng = np.random.default_rng(40)
    d, n = 4, 7
    p = SsmParams(0.5 * rand(rng, d, d), rand(rng, d), rand(rng, d))
    x = rand(rng, n)
    y = ssm_scan_reference(p, x)
    powers = [np.linalg.matrix_power(p.A, k) for k in range(n)]
    expected = np.array(
        [sum(p.C @ powers[i - j] @ (p.B * x[j]) for j in range(i + 1)) for i in range(n)]
    )
    assert_allclose(y, expected, rtol=1e-10)


def test_ssm_params_validate_shapes():
    with pytest.raises(DimensionError):
        SsmParams(np.eye(3), np.ones(2), np.ones(2))


# ---------------------------------------------------------------------------
# softmax attention baseline


def test_softmax_sa_zero_queries_average_values():
    rng = np.random.default_rng(41)
    V = rand(rng, 5, 3)
    out = softmax_self_attention(np.zeros((5, 2)), rand(rng, 5, 2) * 0.0, V)
    assert_allclose(out.data, np.tile(V.mean(axis=0), (5, 1)), rtol=1e-12)


def test_softmax_sa_matches_row_loop():
    rng = np.random.default_rng(42)
    Q, K, V = rand(rng, 4, 3), rand(rng, 4, 3), rand(rng, 4, 6)
    out = softmax_self_attention(Q, K, V).data
    for i in range(4):
        scores = np.array([Q[i] @ K[j] for j in range(4)])
        w = np.exp(scores - scores.max())
        w /= w.sum()
        assert_allclose(out[i], w @ V, rtol=1e-12)


def test_softmax_sa_shape_contracts():
    with pytest.raises(DimensionError):
        softmax_self_attention(np.zeros((4, 3)), np.zeros((4, 2)), np.zeros((4, 3)))
    with pytest.raises(DimensionError):
        softmax_self_attention(np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# separable attention baseline


def test_separable_sa_is_bitwise_the_stated_composition():
    rng = np.random.default_rng(43)
    Q, K, V = rand(rng, 6, 1), rand(rng, 6, 4), rand(rng, 6, 4)
    out = separable_self_attention(Q, K, V).data
    weights = T.softmax_axis(Tensor(Q), axis=0)
    pooled = T.sum_axis(T.elementwise_mul(weights, Tensor(K)), axis=0)
    composed = T.elementwise_mul(pooled, Tensor(V)).data
    assert np.array_equal(out, composed)


def test_separable_sa_uniform_weights_give_mean_pool():
    rng = np.random.default_rng(44)
    K, V = rand(rng, 5, 3), rand(rng, 5, 3)
    out = separable_self_attention(np.zeros((5, 1)), K, V).data
    assert_allclose(out, K.mean(axis=0) * V, rtol=1e-12)


def test_separable_sa_context_has_rank_one_structure():
    # every output row is the same context row gated by that row of V
    rng = np.random.default_rng(45)
    Q, K = rand(rng, 8, 1), rand(rng, 8, 5)
    out = separable_self_attention(Q, K, np.ones((8, 5))).data
    assert_allclose(out, np.tile(out[0], (8, 1)), rtol=1e-12)


def test_separable_sa_requires_single_query_column():
    with pytest.raises(DimensionError):
        separable_self_attention(np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# gated masked forms


def matrix_oracle(Qa, Ka, alpha, beta, M):
    """Entrywise double loop for the closed-form kernel."""
    L, D = Qa.shape
    c = np.zeros(D)
    for t in range(L):
        for n in range(D):
            c[n] += alpha[t] * M[t, n] * Qa[t, n] * Ka[t, n]
    out = np.empty((L, D))
    for i in range(L):
        out[i] = c + beta[i] * Qa[i] * Ka[i]
    return out


def recurrent_oracle(Qa, Ka, alpha, beta, M):
    """Step-by-step scalar evaluation in the stated association order."""
    L, D = Qa.shape
    h = np.zeros(D)
    out = np.empty((L, D))
    for i in range(L):
        qk = Qa[i] * Ka[i]
        h = h + alpha[i] * qk
        out[i] = M[i] * h + beta[i] * qk
    return out


def random_gates(rng, L):
    return GateVector(Tensor(rand(rng, L)), Tensor(rand(rng, L)))


def test_context_vector_keeps_token_axis():
    rng = np.random.default_rng(46)
    Q, K = rand(rng, 6, 4), rand(rng, 6, 4)
    g = GateVector.initial(6)
    ctx = context_vector(Q, K, g.alpha, no_mask(6, 4))
    assert ctx.shape == (1, 4)
    assert_allclose(ctx.data[0], (Q * K).mean(axis=0), rtol=1e-12)


def test_vmi_sa_matrix_matches_double_loop_oracle():
    rng = np.random.default_rng(47)
    for kind in ("lower_triangular", "banded", "block_diagonal", "none"):
        L, D = int(rng.integers(3, 12)), int(rng.integers(2, 10))
        Q, K = rand(rng, L, D), rand(rng, L, D)
        g = random_gates(rng, L)
        m = build_mask(kind, L, D)
        out = vmi_sa_matrix(Q, K, g, m).data
        expected = matrix_oracle(Q, K, g.alpha.data, g.beta.data, m.matrix)
        assert_allclose(out, expected, atol=1e-10, rtol=0)


def test_vmi_sa_matrix_zero_beta_rows_identical_bitwise():
    rng = np.random.default_rng(48)
    L, D = 7, 5
    Q, K = rand(rng, L, D), rand(rng, L, D)
    g = GateVector(Tensor(rand(rng, L)), Tensor(np.zeros(L)))
    out = vmi_sa_matrix(Q, K, g, lower_triangular_mask(L, D)).data
    for i in range(1, L):
        assert np.array_equal(out[i], out[0])


def test_vmi_sa_matrix_batched_matches_per_sample():
    rng = np.random.default_rng(49)
    Q, K = rand(rng, 3, 6, 4), rand(rng, 3, 6, 4)
    g = random_gates(rng, 6)
    m = build_mask("banded", 6, 4)
    out = vmi_sa_matrix(Q, K, g, m).data
    for b in range(3):
        assert_allclose(out[b], vmi_sa_matrix(Q[b], K[b], g, m).data, rtol=1e-15)


def test_vmi_sa_matrix_is_linear_in_k():
    # no softmax anywhere: doubling K doubles the output exactly
    rng = np.random.default_rng(50)
    Q, K = rand(rng, 5, 3), rand(rng, 5, 3)
    g = random_gates(rng, 5)
    m = build_mask("lower_triangular", 5, 3)
    one = vmi_sa_matrix(Q, K, g, m).data
    two = vmi_sa_matrix(Q, 2.0 * K, g, m).data
    assert_allclose(two, 2.0 * one, rtol=1e-14)


def test_vmi_sa_recurrent_bitwise_equals_step_loop():
    rng = np.random.default_rng(51)
    for kind in ("lower_triangular", "banded", "block_diagonal", "none"):
        L, D = int(rng.integers(3, 10)), int(rng.integers(2, 8))
        Q, K = rand(rng, L, D), rand(rng, L, D)
        g = random_gates(rng, L)
        m = build_mask(kind, L, D)
        out = vmi_sa_recurrent(Q, K, g, m).data
        expected = recurrent_oracle(Q, K, g.alpha.data, g.beta.data, m.matrix)
        assert np.array_equal(out, expected)
        # training runs batched (B, L, D) tokens through the same kernel
        Qb, Kb = rand(rng, 3, L, D), rand(rng, 3, L, D)
        out = vmi_sa_recurrent(Qb, Kb, g, m).data
        for b in range(3):
            expected = recurrent_oracle(Qb[b], Kb[b], g.alpha.data, g.beta.data, m.matrix)
            assert np.array_equal(out[b], expected), (kind, b)


def test_both_forms_are_one_graph_node():
    rng = np.random.default_rng(61)
    L, D = 6, 4
    q, k = Tensor(rand(rng, 2, L, D), requires_grad=True), Tensor(rand(rng, 2, L, D))
    g = random_gates(rng, L)
    for kernel in (vmi_sa_matrix, vmi_sa_recurrent):
        out = kernel(q, k, g, build_mask("banded", L, D))
        assert out.op == kernel.__name__
        assert all(p.op is None for p in out._parents)  # Q, K and the gates are leaves


def test_vmi_sa_recurrent_state_accumulates_only_previous_tokens():
    # with beta = 0 and a lower-triangular mask, row i depends on rows > i not at all
    rng = np.random.default_rng(52)
    L, D = 6, 6
    Q, K = rand(rng, L, D), rand(rng, L, D)
    g = GateVector(Tensor(rand(rng, L)), Tensor(np.zeros(L)))
    m = lower_triangular_mask(L, D)
    base = vmi_sa_recurrent(Q, K, g, m).data
    Q2 = Q.copy()
    Q2[4:] += 100.0
    bumped = vmi_sa_recurrent(Q2, K, g, m).data
    assert np.array_equal(base[:4], bumped[:4])
    assert not np.allclose(base[4:], bumped[4:])


def test_vmi_sa_gradients_flow_and_match_closed_form():
    rng = np.random.default_rng(53)
    L, D = 5, 4
    Qa, Ka = rand(rng, L, D), rand(rng, L, D)
    alpha = rand(rng, L)
    g = GateVector(Tensor(alpha), Tensor(np.zeros(L)))
    m = build_mask("banded", L, D)
    Q = Tensor(Qa, requires_grad=True)
    out = vmi_sa_matrix(Q, Ka, g, m)
    backward(out.sum())
    # beta = 0: y rows all equal c, so d(sum y)/dQ[t,n] = L alpha_t M[t,n] K[t,n]
    expected = L * alpha[:, None] * m.matrix * Ka
    assert_allclose(Q.grad, expected, rtol=1e-12)


def check_all_four_parents(kernel, rng, shape, kind):
    """grad_check one kernel on Q, K, alpha and beta: its backward is hand-written."""
    L, D = shape[-2], shape[-1]
    m = build_mask(kind, L, D)
    w = Tensor(rand(rng, *shape))

    def loss(q, k, a, b):
        return (kernel(q, k, GateVector(a, b), m) * w).sum()

    report = grad_check(loss, [rand(rng, *shape), rand(rng, *shape), rand(rng, L), rand(rng, L)])
    assert report.passed, f"{kernel.__name__}: max rel error {report.max_rel_error:.3e}"


def test_vmi_sa_matrix_full_grad_check():
    # both forms run through the same hand-written backward
    for kernel in (vmi_sa_matrix, vmi_sa_recurrent):
        check_all_four_parents(kernel, np.random.default_rng(58), (5, 4), "block_diagonal")


def test_vmi_sa_matrix_batched_grad_check():
    # both forms run through the same hand-written backward
    for kernel in (vmi_sa_matrix, vmi_sa_recurrent):
        check_all_four_parents(kernel, np.random.default_rng(59), (2, 4, 3), "banded")


def test_kernels_validate_gate_and_mask_shapes():
    rng = np.random.default_rng(54)
    Q, K = rand(rng, 4, 3), rand(rng, 4, 3)
    with pytest.raises(DimensionError):
        vmi_sa_matrix(Q, K, GateVector.initial(5), build_mask("none", 4, 3))
    with pytest.raises(DimensionError):
        vmi_sa_matrix(Q, K, GateVector.initial(4), build_mask("none", 4, 4))
    with pytest.raises(DimensionError):
        vmi_sa_matrix(Q, rand(rng, 4, 4), GateVector.initial(4), build_mask("none", 4, 3))


def test_gate_vector_contracts():
    g = GateVector.initial(8)
    assert_allclose(g.alpha.data, np.full(8, 1.0 / 8.0))
    assert_allclose(g.beta.data, np.ones(8))
    with pytest.raises(ConfigError):
        GateVector.initial(0)
    with pytest.raises(DimensionError):
        GateVector(Tensor(np.zeros((2, 2))), Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        GateVector(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# expansion identities


def test_elementwise_expansion_matches_direct_product():
    rng = np.random.default_rng(55)
    X, W1, W2 = rand(rng, 4, 3), rand(rng, 3, 5), rand(rng, 3, 5)
    direct = (X @ W1) * (X @ W2)
    for m in range(4):
        for n in range(5):
            got = elementwise_expansion_oracle(X, W1, W2, m, n)
            assert abs(got - direct[m, n]) <= 1e-12


def test_matmul_expansion_matches_direct_product():
    rng = np.random.default_rng(56)
    X, W1, W2 = rand(rng, 4, 3), rand(rng, 3, 5), rand(rng, 3, 5)
    direct = (X @ W1) @ (X @ W2).T
    for m in range(4):
        for n in range(4):
            got = matmul_expansion_oracle(X, W1, W2, m, n)
            assert abs(got - direct[m, n]) <= 1e-12


def test_expansion_oracles_validate_indices_and_shapes():
    X, W = np.zeros((3, 2)), np.zeros((2, 4))
    with pytest.raises(IndexError):
        elementwise_expansion_oracle(X, W, W, 3, 0)
    with pytest.raises(IndexError):
        matmul_expansion_oracle(X, W, W, 0, 3)
    with pytest.raises(DimensionError):
        elementwise_expansion_oracle(X, W, np.zeros((2, 3)), 0, 0)
    with pytest.raises(DimensionError):
        matmul_expansion_oracle(np.zeros((3, 3)), W, W, 0, 0)


# ---------------------------------------------------------------------------
# numeric rank


def test_numeric_rank_known_matrices():
    assert numeric_rank(np.eye(5), 1e-10) == 5
    assert numeric_rank(np.zeros((4, 6)), 1e-10) == 0
    rng = np.random.default_rng(57)
    u, v = rand(rng, 6), rand(rng, 4)
    assert numeric_rank(np.outer(u, v), 1e-10) == 1
    a = rand(rng, 5, 3)
    a[:, 2] = a[:, 0] + a[:, 1]
    assert numeric_rank(a, 1e-10) == 2


def test_numeric_rank_tolerance_separates_noise_from_structure():
    rng = np.random.default_rng(58)
    base = np.outer(rand(rng, 8), rand(rng, 8))
    noisy = base + 1e-8 * rand(rng, 8, 8)
    assert numeric_rank(noisy, 1e-6) == 1
    assert numeric_rank(noisy, 1e-12) > 1


def test_numeric_rank_contracts():
    with pytest.raises(ConfigError):
        numeric_rank(np.eye(2), 0.0)
    with pytest.raises(DimensionError):
        numeric_rank(np.zeros(4), 1e-10)
    assert numeric_rank(np.zeros((0, 3)), 1e-10) == 0


def test_separable_context_matrix_rank_capped_by_width():
    # rows of softmax(Q) ⊙ K pooled outputs live in a <= min(L, D) dimensional space
    rng = np.random.default_rng(59)
    L, D = 12, 5
    Q, K, V = rand(rng, L, 1), rand(rng, L, D), rand(rng, L, D)
    out = separable_self_attention(Q, K, V).data
    assert numeric_rank(out, 1e-10) <= min(L, D)


def test_lower_triangular_masking_preserves_full_column_rank():
    rng = np.random.default_rng(60)
    L, D = 12, 5
    a = rand(rng, L, D)
    masked = lower_triangular_mask(L, D).matrix * a
    assert numeric_rank(masked, 1e-10) == D
