"""Tensor ops: forward values against loop oracles, reverse-mode gradients
against central differences, and the documented error contracts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vminet.tensor as T
from vminet.errors import ConfigError, ContractError, DimensionError
from vminet.tensor import Tensor, backward, grad_check, no_grad


def rand(rng, *shape):
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# forward values


def test_add_broadcasts_like_numpy():
    rng = np.random.default_rng(0)
    a, b = rand(rng, 3, 4), rand(rng, 4)
    out = T.add(Tensor(a), Tensor(b))
    assert_allclose(out.data, a + b)


def test_add_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        T.add(Tensor(np.zeros((3, 2))), Tensor(np.zeros((4,))))


def test_sub_and_neg():
    rng = np.random.default_rng(1)
    a, b = rand(rng, 5), rand(rng, 5)
    assert_allclose(T.sub(Tensor(a), Tensor(b)).data, a - b)
    assert_allclose((-Tensor(a)).data, -a)


def test_elementwise_mul_matches_numpy():
    rng = np.random.default_rng(2)
    a, b = rand(rng, 2, 3), rand(rng, 2, 3)
    assert_allclose(T.elementwise_mul(Tensor(a), Tensor(b)).data, a * b)


def test_silu_known_values():
    # silu(0) = 0; silu(x) = x * sigmoid(x)
    x = np.array([-2.0, 0.0, 3.0])
    expected = x / (1.0 + np.exp(-x))
    assert_allclose(T.silu(Tensor(x)).data, expected, rtol=1e-15)
    assert T.silu(Tensor(0.0)).item() == 0.0


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(3)
    a, b = rand(rng, 4, 3), rand(rng, 3, 5)
    expected = np.zeros((4, 5))
    for i in range(4):
        for j in range(5):
            for k in range(3):
                expected[i, j] += a[i, k] * b[k, j]
    assert_allclose(T.matmul(Tensor(a), Tensor(b)).data, expected, rtol=1e-13)


def test_matmul_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_sum_axis_keepdims_and_loop_oracle():
    rng = np.random.default_rng(4)
    x = rand(rng, 3, 4)
    expected = np.array([sum(x[i, j] for i in range(3)) for j in range(4)])
    assert_allclose(T.sum_axis(Tensor(x), axis=0).data, expected, rtol=1e-15)
    kept = T.sum_axis(Tensor(x), axis=-2, keepdims=True)
    assert kept.shape == (1, 4)
    assert_allclose(kept.data[0], expected, rtol=1e-15)


def test_sum_axis_rejects_bad_axis():
    with pytest.raises(DimensionError):
        T.sum_axis(Tensor(np.zeros((2, 2))), axis=2)


def test_softmax_rows_normalize_and_shift_invariance():
    rng = np.random.default_rng(5)
    x = rand(rng, 4, 6)
    s = T.softmax_axis(Tensor(x), axis=-1).data
    assert_allclose(s.sum(axis=-1), np.ones(4), rtol=1e-14)
    shifted = T.softmax_axis(Tensor(x + 1000.0), axis=-1).data
    assert_allclose(shifted, s, rtol=1e-12)
    assert np.all(s > 0)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(6)
    x = rand(rng, 3, 5)
    ls = T.log_softmax_axis(Tensor(x), axis=-1).data
    s = T.softmax_axis(Tensor(x), axis=-1).data
    assert_allclose(ls, np.log(s), rtol=1e-12)


def test_reshape_transpose_round_trip():
    rng = np.random.default_rng(7)
    x = rand(rng, 2, 3, 4)
    r = T.reshape(Tensor(x), (6, 4))
    assert_allclose(r.data, x.reshape(6, 4))
    with pytest.raises(DimensionError):
        T.reshape(Tensor(x), (5, 5))
    tr = T.transpose(Tensor(x), (2, 0, 1))
    assert tr.shape == (4, 2, 3)
    assert_allclose(np.transpose(tr.data, (1, 2, 0)), x)


def test_take_index_and_stack_are_inverse():
    rng = np.random.default_rng(8)
    x = rand(rng, 5, 3)
    rows = [T.take_index(Tensor(x), i, axis=0) for i in range(5)]
    assert rows[2].shape == (3,)
    assert_allclose(rows[2].data, x[2])
    assert_allclose(T.stack(rows, axis=0).data, x)
    with pytest.raises(DimensionError):
        T.take_index(Tensor(x), 5, axis=0)
    with pytest.raises(DimensionError):
        T.stack([])


def test_layer_norm_normalizes_last_axis():
    rng = np.random.default_rng(9)
    for shape in [(4, 6), (6,), (2, 3, 5, 6)]:
        x = rand(rng, *shape)
        out = T.layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6)), eps=1e-12)
        assert out.shape == shape
        assert_allclose(out.data.mean(axis=-1), np.zeros(shape[:-1]), atol=1e-12)
        assert_allclose(out.data.var(axis=-1), np.ones(shape[:-1]), rtol=1e-6)
    # the affine is per channel, whatever the leading shape
    g, b = rand(rng, 6), rand(rng, 6)
    plain = T.layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6))).data
    assert_allclose(T.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data, plain * g + b, rtol=1e-13)


def test_layer_norm_contracts():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0)
    with pytest.raises(DimensionError):
        T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        T.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.ones(0)), Tensor(np.zeros(0)))


def depthwise_oracle(x, kernel):
    """Direct conv-as-loops reference: zero padded, stride 1."""
    h, w, c = x.shape
    kh, kw, _ = kernel.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            for ch in range(c):
                acc = 0.0
                for a in range(kh):
                    for b in range(kw):
                        ii, jj = i + a - ph, j + b - pw
                        if 0 <= ii < h and 0 <= jj < w:
                            acc += x[ii, jj, ch] * kernel[a, b, ch]
                out[i, j, ch] = acc
    return out


def test_depthwise_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(10)
    # (grid, kernel extents): square, larger than the grid, non-square
    for (h, w), (kh, kw) in [((5, 4), (3, 3)), ((2, 2), (5, 5)), ((2, 2), (3, 3)),
                             ((4, 5), (1, 3)), ((4, 5), (5, 3)), ((3, 6), (3, 1))]:
        x = rand(rng, h, w, 3)
        k = rand(rng, kh, kw, 3)
        out = T.depthwise_conv2d(Tensor(x), Tensor(k))
        assert_allclose(out.data, depthwise_oracle(x, k), rtol=1e-13)


def test_depthwise_conv2d_batched_matches_per_sample():
    rng = np.random.default_rng(11)
    x = rand(rng, 2, 4, 4, 2)
    k = rand(rng, 3, 3, 2)
    out = T.depthwise_conv2d(Tensor(x), Tensor(k)).data
    for n in range(2):
        assert_allclose(out[n], depthwise_oracle(x[n], k), rtol=1e-13)
    # two leading dimensions
    x = rand(rng, 2, 3, 4, 5, 2)
    k = rand(rng, 3, 5, 2)
    out = T.depthwise_conv2d(Tensor(x), Tensor(k)).data
    assert out.shape == x.shape
    for i in range(2):
        for j in range(3):
            assert_allclose(out[i, j], depthwise_oracle(x[i, j], k), rtol=1e-13)


def test_depthwise_conv2d_contracts():
    with pytest.raises(ConfigError):
        T.depthwise_conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((2, 2, 2))))
    with pytest.raises(DimensionError):
        T.depthwise_conv2d(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((3, 3, 5))))
    with pytest.raises(DimensionError):
        T.depthwise_conv2d(Tensor(np.zeros((4, 4))), Tensor(np.zeros((3, 3, 4))))


def test_item_requires_single_element():
    with pytest.raises(DimensionError):
        Tensor(np.zeros(3)).item()
    assert Tensor(2.5).item() == 2.5


# ---------------------------------------------------------------------------
# backward pass behavior


def test_backward_requires_scalar_loss():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ContractError):
        backward(T.elementwise_mul(x, 2.0))
    with pytest.raises(ContractError):
        backward("loss")


def test_grads_accumulate_within_one_call():
    # y = x*x + x -> dy/dx = 2x + 1, reached through two paths
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = T.add(T.elementwise_mul(x, x), x)
    backward(y.sum())
    assert_allclose(x.grad, 2.0 * x.data + 1.0, rtol=1e-15)


def test_grad_overwritten_between_calls():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    backward(T.elementwise_mul(x, 3.0).sum())
    backward(T.elementwise_mul(x, 3.0).sum())
    assert_allclose(x.grad, [3.0, 3.0])


def test_shared_subgraph_visited_once():
    # f = (x+x) reused twice; diamond graph must not double count
    x = Tensor(np.array([2.0]), requires_grad=True)
    s = T.add(x, x)
    y = T.add(s, s)
    backward(y.sum())
    assert_allclose(x.grad, [4.0])


def test_no_grad_suspends_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = T.elementwise_mul(x, 2.0)
    assert not y.requires_grad
    assert y._parents == ()


def test_constant_inputs_get_no_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.full(3, 2.0))
    backward(T.elementwise_mul(x, c).sum())
    assert c.grad is None
    assert_allclose(x.grad, c.data)


def test_broadcast_gradient_sums_over_expanded_axes():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones(4), requires_grad=True)
    backward(T.add(a, b).sum())
    assert_allclose(a.grad, np.ones((3, 4)))
    assert_allclose(b.grad, np.full(4, 3.0))


def test_find_first_nonfinite_reports_forward_order():
    x = Tensor(np.array([1e200, 2.0]), requires_grad=True)
    with np.errstate(over="ignore"):
        bad = T.elementwise_mul(x, x)  # overflows to inf
    worse = T.add(bad, 1.0)
    assert T.find_first_nonfinite(worse) is bad
    assert T.find_first_nonfinite(T.elementwise_mul(x, 2.0)) is None


# ---------------------------------------------------------------------------
# gradient checks, one per differentiable op


def check(f, *arrays):
    report = grad_check(f, list(arrays))
    assert report.passed, f"max rel error {report.max_rel_error:.3e}"


def test_grad_add():
    rng = np.random.default_rng(20)
    check(lambda a, b: T.add(a, b).sum(), rand(rng, 3, 4), rand(rng, 4))


def test_grad_sub():
    rng = np.random.default_rng(21)
    check(lambda a, b: T.sub(a, b).sum(), rand(rng, 3), rand(rng, 3))


def test_grad_elementwise_mul():
    rng = np.random.default_rng(22)
    check(lambda a, b: T.elementwise_mul(a, b).sum(), rand(rng, 2, 3), rand(rng, 2, 3))


def test_grad_silu():
    rng = np.random.default_rng(23)
    check(lambda x: T.silu(x).sum(), rand(rng, 7))


def test_grad_matmul():
    rng = np.random.default_rng(24)
    w = rand(rng, 4, 2)
    check(lambda a, b: T.matmul(a, b).sum(), rand(rng, 3, 4), w)


def test_grad_sum_axis():
    rng = np.random.default_rng(25)
    x = rand(rng, 3, 4)
    w = rand(rng, 4)
    check(lambda t: T.elementwise_mul(T.sum_axis(t, axis=0), w).sum(), x)


def test_grad_softmax_axis():
    rng = np.random.default_rng(26)
    w = rand(rng, 3, 5)
    check(lambda t: T.elementwise_mul(T.softmax_axis(t, axis=-1), w).sum(), rand(rng, 3, 5))


def test_grad_log_softmax_axis():
    rng = np.random.default_rng(27)
    w = rand(rng, 2, 6)
    check(lambda t: T.elementwise_mul(T.log_softmax_axis(t, axis=-1), w).sum(), rand(rng, 2, 6))


def test_grad_reshape_transpose():
    rng = np.random.default_rng(28)
    w = rand(rng, 6, 2)
    check(lambda t: T.elementwise_mul(T.reshape(T.transpose(t, (1, 0, 2)), (6, 2)), w).sum(),
          rand(rng, 3, 2, 2))


def test_grad_take_index_stack():
    rng = np.random.default_rng(29)
    w = rand(rng, 2, 4)
    check(
        lambda t: T.elementwise_mul(
            T.stack([T.take_index(t, 2, axis=0), T.take_index(t, 0, axis=0)], axis=0), w
        ).sum(),
        rand(rng, 3, 4),
    )


def test_grad_layer_norm():
    rng = np.random.default_rng(30)
    for shape in [(2, 5), (5,), (2, 3, 2, 5)]:
        x, g, b = rand(rng, *shape), rand(rng, 5), rand(rng, 5)
        w = rand(rng, *shape)
        check(lambda xx, gg, bb: T.elementwise_mul(T.layer_norm(xx, gg, bb), w).sum(), x, g, b)


def test_grad_depthwise_conv2d():
    rng = np.random.default_rng(31)
    x, k = rand(rng, 4, 3, 2), rand(rng, 3, 3, 2)
    w = rand(rng, 4, 3, 2)
    check(lambda xx, kk: T.elementwise_mul(T.depthwise_conv2d(xx, kk), w).sum(), x, k)
    # batched, with a non-square kernel
    x, k = rand(rng, 2, 4, 3, 2), rand(rng, 3, 1, 2)
    w = rand(rng, 2, 4, 3, 2)
    check(lambda xx, kk: T.elementwise_mul(T.depthwise_conv2d(xx, kk), w).sum(), x, k)
    # only the input, then only the kernel, requires a gradient
    check(lambda xx: T.elementwise_mul(T.depthwise_conv2d(xx, Tensor(k)), w).sum(), x)
    check(lambda kk: T.elementwise_mul(T.depthwise_conv2d(Tensor(x), kk), w).sum(), k)


def test_grad_check_flags_wrong_gradient():
    # a deliberately broken gradient must fail the checker
    def broken(x):
        out = T.elementwise_mul(x, x)
        out._backward = lambda g: (g,)  # pretends d(x*x)/dx = 1
        return out.sum()

    report = grad_check(broken, [np.array([1.5, -0.5])])
    assert not report.passed


def test_grad_check_rejects_bad_step_and_nonscalar():
    with pytest.raises(ConfigError):
        grad_check(lambda x: x.sum(), [np.ones(2)], h=0.0)
    with pytest.raises(ContractError):
        grad_check(lambda x: T.elementwise_mul(x, 1.0), [np.ones(2)])
