"""Backbone: config validation, identity-at-init residual blocks, block
composition against a from-scratch oracle, patchify downsampling, parameter
accounting, and build determinism."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import vminet.tensor as T
from vminet.attention import GateVector
from vminet.backbone import (
    STAGE_DEPTHS,
    VARIANTS,
    VMINet,
    VMINetConfig,
    VmiSaBlockParams,
    build_vminet,
    conv_only_block_forward,
    count_params,
    default_mask_schedule,
    downsample,
    patch_conv,
    variant_config,
    vmi_sa_block_forward,
)
from vminet.errors import ConfigError, DimensionError
from vminet.masks import build_mask
from vminet.tensor import Tensor


def rand(rng, *shape):
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# configuration


def test_named_variants_width_and_expansion():
    assert VARIANTS["ti"] == (24, 2)
    assert VARIANTS["xs"] == (48, 2)
    assert VARIANTS["s"] == (48, 4)
    assert VARIANTS["b"] == (96, 2)
    cfg = variant_config("s")
    assert cfg.base_width == 48 and cfg.expansion == 4
    assert cfg.stage_widths() == (48, 96, 192, 384)
    with pytest.raises(ConfigError):
        variant_config("xl")


def test_stage_depths_sum_to_24():
    assert sum(STAGE_DEPTHS) == 24
    with pytest.raises(ConfigError, match="sum"):
        VMINetConfig(base_width=8, expansion=2, stage_depths=(3, 3, 3, 3),
                     input_resolution=(32, 32), stem_patch=2, num_classes=10).validate()


def test_micro_variant_grids():
    cfg = variant_config("micro")
    assert cfg.input_resolution == (32, 32)
    assert cfg.stage_grids() == [(16, 16), (8, 8), (4, 4), (2, 2)]


def test_default_mask_schedule_layout():
    sched = default_mask_schedule()
    assert len(sched) == 24
    assert set(sched[:6]) == {"banded"}
    stage3 = sched[6:21]
    assert stage3[0] == "lower_triangular" and stage3[1] == "banded"
    assert all(k == ("lower_triangular" if i % 2 == 0 else "banded") for i, k in enumerate(stage3))


def test_config_validation_lists_every_problem():
    cfg = VMINetConfig(base_width=0, expansion=0, input_resolution=(30, 30),
                       num_classes=1, stem_patch=2)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    msg = str(err.value)
    for fragment in ("base_width", "expansion", "resolution", "num_classes"):
        assert fragment in msg


def test_config_rejects_unknown_mask_kind():
    cfg = variant_config("micro")
    bad = VMINetConfig(**{**cfg.__dict__, "mask_schedule": "zigzag"})
    with pytest.raises(ConfigError, match="zigzag"):
        bad.validate()


def test_explicit_mask_schedule_must_cover_all_blocks():
    cfg = variant_config("micro")
    bad = VMINetConfig(**{**cfg.__dict__, "mask_schedule": ("banded",) * 23})
    with pytest.raises(ConfigError, match="schedule length"):
        bad.validate()


# ---------------------------------------------------------------------------
# patchify convolutions


def patch_conv_oracle(x, w, bias, p):
    """Direct loop over non-overlapping patches."""
    h, wd, c = x.shape
    out = np.empty((h // p, wd // p, w.shape[1]))
    for i in range(h // p):
        for j in range(wd // p):
            patch = x[i * p : (i + 1) * p, j * p : (j + 1) * p, :].reshape(-1)
            out[i, j] = patch @ w + bias
    return out


def test_patch_conv_matches_window_loop():
    rng = np.random.default_rng(70)
    x = rand(rng, 6, 8, 3)
    from vminet.backbone import PatchConvParams

    params = PatchConvParams(Tensor(rand(rng, 2 * 2 * 3, 5)), Tensor(rand(rng, 5)), 2)
    out = patch_conv(x, params).data
    assert_allclose(out, patch_conv_oracle(x, params.w.data, params.b.data, 2), rtol=1e-12)
    assert_allclose(downsample(x, params).data, out, rtol=0)


def test_patch_conv_contracts():
    from vminet.backbone import PatchConvParams

    params = PatchConvParams(Tensor(np.zeros((12, 5))), Tensor(np.zeros(5)), 2)
    with pytest.raises(ConfigError):
        patch_conv(np.zeros((5, 6, 3)), params)
    bad = PatchConvParams(Tensor(np.zeros((11, 5))), Tensor(np.zeros(5)), 2)
    with pytest.raises(DimensionError):
        patch_conv(np.zeros((6, 6, 3)), bad)


# ---------------------------------------------------------------------------
# blocks


def fresh_vmi_block(rng, h, w, c, k):
    d = k * c
    L = h * w
    return VmiSaBlockParams(
        dw_kernel=Tensor(rand(rng, 3, 3, c) * 0.1),
        norm_gamma=Tensor(np.ones(c)),
        norm_beta=Tensor(np.zeros(c)),
        w_q=Tensor(rand(rng, c, d) * 0.1),
        w_k=Tensor(rand(rng, c, d) * 0.1),
        w_out=Tensor(rand(rng, d, c) * 0.1),
        gates=GateVector(Tensor(rand(rng, L)), Tensor(rand(rng, L))),
    )


def test_vmi_block_with_zero_out_projection_is_identity():
    rng = np.random.default_rng(71)
    p = fresh_vmi_block(rng, 3, 4, 2, 2)
    p.w_out = Tensor(np.zeros((4, 2)))
    x = rand(rng, 3, 4, 2)
    out = vmi_sa_block_forward(x, p, build_mask("banded", 12, 4))
    assert np.array_equal(out.data, x)


def test_conv_only_block_with_zero_reduce_is_identity():
    from vminet.backbone import ConvOnlyBlockParams

    rng = np.random.default_rng(72)
    p = ConvOnlyBlockParams(
        dw_kernel=Tensor(rand(rng, 3, 3, 2)),
        norm_gamma=Tensor(np.ones(2)),
        norm_beta=Tensor(np.zeros(2)),
        w_expand=Tensor(rand(rng, 2, 4)),
        w_reduce=Tensor(np.zeros((4, 2))),
    )
    x = rand(rng, 4, 4, 2)
    assert np.array_equal(conv_only_block_forward(x, p).data, x)


def silu_np(x):
    return x / (1.0 + np.exp(-x))


def vmi_block_oracle(x, p, mask, eps):
    """From-scratch numpy recomputation of the block composition."""
    h, w, c = x.shape
    L, d = h * w, p.w_q.data.shape[1]
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    xn = (x - mu) / np.sqrt(var + eps) * p.norm_gamma.data + p.norm_beta.data
    xp = np.pad(xn, ((1, 1), (1, 1), (0, 0)))
    u = np.zeros_like(xn)
    for a in range(3):
        for b in range(3):
            u += xp[a : a + h, b : b + w, :] * p.dw_kernel.data[a, b]
    tokens = u.reshape(L, c)
    q, k = tokens @ p.w_q.data, tokens @ p.w_k.data
    alpha, beta = p.gates.alpha.data, p.gates.beta.data
    ctx = (alpha[:, None] * mask.matrix * q * k).sum(axis=0)
    attn = ctx[None, :] + beta[:, None] * q * k
    out = (attn @ p.w_out.data).reshape(h, w, c)
    return x + silu_np(out)


def test_vmi_block_matches_numpy_oracle():
    rng = np.random.default_rng(73)
    h, w, c, k = 3, 4, 2, 2
    p = fresh_vmi_block(rng, h, w, c, k)
    m = build_mask("lower_triangular", h * w, k * c)
    x = rand(rng, h, w, c)
    out = vmi_sa_block_forward(x, p, m, eps=1e-6)
    assert_allclose(out.data, vmi_block_oracle(x, p, m, 1e-6), rtol=1e-10, atol=1e-12)


def test_vmi_block_recurrent_path_agrees_with_kernel_choice():
    rng = np.random.default_rng(74)
    p = fresh_vmi_block(rng, 2, 3, 2, 2)
    m = build_mask("none", 6, 4)
    x = rand(rng, 2, 3, 2)
    # with an all-ones mask both kernels compute the same math only at the
    # final token; they are different operators, so outputs must differ
    a = vmi_sa_block_forward(x, p, m, recurrent=False).data
    b = vmi_sa_block_forward(x, p, m, recurrent=True).data
    assert a.shape == b.shape
    assert not np.allclose(a, b)


def test_both_attention_forms_build_graphs_of_one_size():
    # each form is one graph node per block, so the recurrent path adds no
    # per-token nodes to a training step
    x = np.random.default_rng(77).random((2, 32, 32, 3))
    sizes = [
        len(T._topo_order(build_vminet(variant_config("micro", recurrent=r)).forward(x)))
        for r in (False, True)
    ]
    assert sizes[0] == sizes[1]
    # op nodes (tensors with a backward closure) of a micro training loss: each
    # projection is one matmul node, with no reshapes around it
    from vminet.training import cross_entropy_label_smoothing

    y = np.arange(2)
    for kwargs, nodes in (({}, 267), ({"recurrent": True}, 267), ({"conv_only": True}, 171)):
        model = build_vminet(variant_config("micro", **kwargs))
        loss = cross_entropy_label_smoothing(model.forward(x), y)
        assert sum(n._backward is not None for n in T._topo_order(loss)) == nodes, kwargs


def test_vmi_block_rejects_wrong_gate_length():
    rng = np.random.default_rng(75)
    p = fresh_vmi_block(rng, 3, 4, 2, 2)  # gates sized for 12 tokens
    with pytest.raises(ConfigError, match="gates"):
        vmi_sa_block_forward(rand(rng, 4, 4, 2), p, build_mask("banded", 16, 4))


def test_blocks_accept_batched_input():
    from vminet.backbone import ConvOnlyBlockParams

    rng = np.random.default_rng(76)
    p = fresh_vmi_block(rng, 3, 3, 2, 2)
    m = build_mask("banded", 9, 4)
    c = ConvOnlyBlockParams(
        dw_kernel=Tensor(rand(rng, 3, 3, 2) * 0.1),
        norm_gamma=Tensor(np.ones(2)),
        norm_beta=Tensor(np.zeros(2)),
        w_expand=Tensor(rand(rng, 2, 4) * 0.1),
        w_reduce=Tensor(rand(rng, 4, 2) * 0.1),
    )
    for block in (lambda v: vmi_sa_block_forward(v, p, m), lambda v: conv_only_block_forward(v, c)):
        x = rand(rng, 2, 3, 3, 2)
        out = block(x).data
        for i in range(2):
            assert_allclose(out[i], block(x[i]).data, rtol=1e-14)
        # two leading dimensions
        x = rand(rng, 2, 3, 3, 3, 2)
        out = block(x).data
        assert out.shape == x.shape
        for i in range(2):
            for j in range(3):
                assert_allclose(out[i, j], block(x[i, j]).data, rtol=1e-14)


# ---------------------------------------------------------------------------
# assembled model


def test_fresh_model_is_identity_between_stem_and_head():
    cfg = variant_config("micro")
    model = build_vminet(cfg, seed=3)
    rng = np.random.default_rng(77)
    x = rand(rng, 32, 32, 3)
    logits = model.forward(x).data
    # blocks start as identities, so only stem, downsamples, pool, head act
    v = patch_conv(np.asarray(x), model.stem)
    for ds in model.downsamples:
        v = downsample(v, ds)
    h, w, c = v.shape
    pooled = v.data.reshape(h * w, c).mean(axis=0)
    expected = pooled @ model.head_w.data + model.head_b.data
    assert_allclose(logits, expected, rtol=1e-12)


def test_forward_shapes_and_stage_grids():
    cfg = variant_config("micro")
    model = build_vminet(cfg, seed=0)
    rng = np.random.default_rng(78)
    x = rand(rng, 2, 32, 32, 3)
    logits, shapes = model.forward(x, return_stage_shapes=True)
    assert logits.shape == (2, 10)
    assert [s[:2] for s in shapes] == cfg.stage_grids()
    assert [s[2] for s in shapes] == list(cfg.stage_widths())
    single = model.forward(x[0])
    assert single.shape == (10,)
    assert_allclose(single.data, logits.data[0], rtol=1e-12)
    with pytest.raises(DimensionError):
        model.forward(rand(rng, 32, 32, 4))


def param_count_oracle(cfg):
    """Closed-form parameter count for the architecture layout."""
    widths = cfg.stage_widths()
    grids = cfg.stage_grids()
    total = cfg.stem_patch * cfg.stem_patch * 3 * widths[0] + widths[0]
    for s in range(4):
        c, (h, w) = widths[s], grids[s]
        d, L = cfg.expansion * c, h * w
        if cfg.conv_only:
            per_block = 9 * c + 2 * c + 2 * c * d
        else:
            per_block = 9 * c + 2 * c + 3 * c * d + 2 * L
        total += cfg.stage_depths[s] * per_block
        if s < 3:
            total += 4 * widths[s] * widths[s + 1] + widths[s + 1]
    total += widths[3] * cfg.num_classes + cfg.num_classes
    return total


def test_count_params_matches_closed_form():
    for name in ("micro", "ti"):
        cfg = variant_config(name)
        model = build_vminet(cfg, seed=0)
        assert count_params(model) == param_count_oracle(cfg)
    conv_cfg = variant_config("micro", conv_only=True)
    assert count_params(build_vminet(conv_cfg, seed=0)) == param_count_oracle(conv_cfg)


def test_parameter_names_are_unique_and_hierarchical():
    model = build_vminet(variant_config("micro"), seed=0)
    names = [name for name, _ in model.parameters()]
    assert len(names) == len(set(names))
    assert "stem.w" in names and "head.b" in names
    assert "stage0.block0.w_q" in names and "down2.w" in names
    assert sum(1 for n in names if ".dw_kernel" in n) == 24


def test_build_is_deterministic_in_seed():
    cfg = variant_config("micro")
    a = dict(build_vminet(cfg, seed=9).parameters())
    b = dict(build_vminet(cfg, seed=9).parameters())
    c = dict(build_vminet(cfg, seed=10).parameters())
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_trunc_normal_resamples_tails():
    from vminet.backbone import _trunc_normal

    rng = np.random.default_rng(79)
    draws = _trunc_normal(rng, (4000,), std=0.02)
    assert np.abs(draws).max() <= 0.04 + 1e-12
    assert 0.015 < draws.std() < 0.025
