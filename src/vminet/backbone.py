"""Four-stage hierarchical image backbone.

A patchify stem maps the image to stage 1; each later stage halves the grid
with a 2x2 stride-2 convolution and doubles the width. Stage widths are
[C, 2C, 4C, 8C] and the block counts sum to 24. Each block normalizes,
applies a 3x3 depthwise convolution, projects to gate space (D = k*C),
runs the gated masked attention over the flattened token grid, projects
back, and adds the result to the residual stream. Final block projections
start at zero, so a freshly built model is the identity between its stem
and head.

Named variants (width C, expansion k): ti=(24, 2), xs=(48, 2), s=(48, 4),
b=(96, 2), plus a desk-scale "micro"=(8, 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import tensor as T
from .attention import GateVector, vmi_sa_matrix, vmi_sa_recurrent
from .errors import ConfigError, DimensionError
from .masks import KINDS, Mask, build_mask
from .tensor import Tensor

VARIANTS = {
    "ti": (24, 2),
    "xs": (48, 2),
    "s": (48, 4),
    "b": (96, 2),
    "micro": (8, 2),
}

STAGE_DEPTHS = (3, 3, 15, 3)
TOTAL_BLOCKS = 24


@dataclass(frozen=True)
class VMINetConfig:
    base_width: int
    expansion: int
    stage_depths: tuple[int, int, int, int] = STAGE_DEPTHS
    input_resolution: tuple[int, int] = (224, 224)
    num_classes: int = 1000
    stem_patch: int = 4
    mask_schedule: tuple[str, ...] | str = "default"
    conv_only: bool = False
    recurrent: bool = False
    norm_eps: float = 1e-6

    def stage_widths(self) -> tuple[int, int, int, int]:
        c = self.base_width
        return (c, 2 * c, 4 * c, 8 * c)

    def stage_grids(self) -> list[tuple[int, int]]:
        h, w = self.input_resolution
        h, w = h // self.stem_patch, w // self.stem_patch
        grids = []
        for _ in range(4):
            grids.append((h, w))
            h, w = h // 2, w // 2
        return grids

    def resolved_mask_schedule(self) -> tuple[str, ...]:
        total = sum(self.stage_depths)
        if self.mask_schedule == "default":
            return default_mask_schedule(self.stage_depths)
        if isinstance(self.mask_schedule, str):
            return (self.mask_schedule,) * total
        return tuple(self.mask_schedule)

    def validate(self) -> None:
        problems = []
        if self.base_width < 1:
            problems.append(f"base_width must be >= 1, got {self.base_width}")
        if self.expansion < 1:
            problems.append(f"expansion must be >= 1, got {self.expansion}")
        if len(self.stage_depths) != 4 or any(d < 1 for d in self.stage_depths):
            problems.append(f"stage_depths must be 4 positive ints, got {self.stage_depths}")
        elif sum(self.stage_depths) != TOTAL_BLOCKS:
            problems.append(
                f"stage_depths must sum to {TOTAL_BLOCKS}, got {self.stage_depths}"
                f" (sum {sum(self.stage_depths)})"
            )
        if self.num_classes < 2:
            problems.append(f"num_classes must be >= 2, got {self.num_classes}")
        if self.stem_patch < 1:
            problems.append(f"stem_patch must be >= 1, got {self.stem_patch}")
        h, w = self.input_resolution
        if h % (self.stem_patch * 8) or w % (self.stem_patch * 8):
            problems.append(
                f"input resolution {self.input_resolution} must be divisible by"
                f" stem_patch*8 = {self.stem_patch * 8}"
            )
        elif min(h, w) // (self.stem_patch * 8) < 1:
            problems.append(f"input resolution {self.input_resolution} leaves stage 4 empty")
        schedule = self.resolved_mask_schedule()
        if len(self.stage_depths) == 4 and len(schedule) != sum(self.stage_depths):
            problems.append(
                f"mask schedule length {len(schedule)} != total blocks {sum(self.stage_depths)}"
            )
        for kind in schedule:
            if kind not in KINDS:
                problems.append(f"unknown mask kind {kind!r} in schedule")
                break
        if self.norm_eps <= 0:
            problems.append(f"norm_eps must be positive, got {self.norm_eps}")
        if problems:
            raise ConfigError("invalid backbone config: " + "; ".join(problems))


def default_mask_schedule(stage_depths=STAGE_DEPTHS) -> tuple[str, ...]:
    """Banded masks in stages 1-2; stages 3-4 alternate lower-triangular and
    banded so deep blocks mix both positional patterns."""
    schedule: list[str] = []
    for stage, depth in enumerate(stage_depths):
        if stage < 2:
            schedule.extend(["banded"] * depth)
        else:
            for i in range(depth):
                schedule.append("lower_triangular" if i % 2 == 0 else "banded")
    return tuple(schedule)


def variant_config(name: str, **overrides) -> VMINetConfig:
    key = name.lower()
    if key not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; expected one of {sorted(VARIANTS)}")
    width, expansion = VARIANTS[key]
    defaults = dict(base_width=width, expansion=expansion)
    if key == "micro":
        defaults.update(input_resolution=(32, 32), num_classes=10, stem_patch=2)
    defaults.update(overrides)
    cfg = VMINetConfig(**defaults)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# parameters


def _named(params, prefix: str):
    """(name, tensor) for each Tensor field in field order, descending into
    nested dataclasses such as the gates."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, Tensor):
            yield f"{prefix}.{f.name}", value
        elif is_dataclass(value):
            yield from _named(value, f"{prefix}.{f.name}")


@dataclass
class VmiSaBlockParams:
    dw_kernel: Tensor  # (3, 3, C)
    norm_gamma: Tensor  # (C,)
    norm_beta: Tensor  # (C,)
    w_q: Tensor  # (C, D)
    w_k: Tensor  # (C, D)
    w_out: Tensor  # (D, C)
    gates: GateVector  # alpha, beta of length L

    named = _named


@dataclass
class ConvOnlyBlockParams:
    dw_kernel: Tensor  # (3, 3, C)
    norm_gamma: Tensor  # (C,)
    norm_beta: Tensor  # (C,)
    w_expand: Tensor  # (C, D)
    w_reduce: Tensor  # (D, C)

    named = _named


@dataclass
class PatchConvParams:
    w: Tensor  # (patch*patch*C_in, C_out)
    b: Tensor  # (C_out,)
    patch: int

    named = _named


# ---------------------------------------------------------------------------
# forward pieces


def _as_batched(x) -> tuple[Tensor, bool]:
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.ndim == 3:
        return T.reshape(t, (1,) + t.shape), True
    if t.ndim == 4:
        return t, False
    raise DimensionError(f"expected (H, W, C) or (B, H, W, C), got {t.shape}")


def patch_conv(x, params: PatchConvParams) -> Tensor:
    """Non-overlapping patch convolution: kernel size == stride == patch."""
    t, squeeze = _as_batched(x)
    b, h, w, c = t.shape
    p = params.patch
    if h % p or w % p:
        raise ConfigError(f"spatial extents ({h}, {w}) not divisible by patch {p}")
    if params.w.shape[0] != p * p * c:
        raise DimensionError(
            f"patch kernel rows {params.w.shape[0]} != patch*patch*C = {p * p * c}"
        )
    hp, wp = h // p, w // p
    t = T.reshape(t, (b, hp, p, wp, p, c))
    t = T.transpose(t, (0, 1, 3, 2, 4, 5))
    t = T.reshape(t, (b * hp * wp, p * p * c))
    out = T.add(T.matmul(t, params.w), params.b)
    out = T.reshape(out, (b, hp, wp, params.w.shape[1]))
    if squeeze:
        out = T.reshape(out, out.shape[1:])
    return out


def downsample(x, params: PatchConvParams) -> Tensor:
    """2x2 stride-2 full convolution between stages (the stem uses the same
    op with its own patch size)."""
    return patch_conv(x, params)


def _project(tokens: Tensor, w: Tensor) -> Tensor:
    lead = tokens.shape[:-1]
    flat = T.reshape(tokens, (-1, tokens.shape[-1]))
    out = T.matmul(flat, w)
    return T.reshape(out, lead + (w.shape[1],))


def vmi_sa_block_forward(x, p: VmiSaBlockParams, m: Mask, eps: float = 1e-6,
                         recurrent: bool = False) -> Tensor:
    """norm -> depthwise conv -> Q/K projection -> gated masked attention over
    the flattened token grid -> project back -> SiLU -> residual add."""
    t, squeeze = _as_batched(x)
    b, h, w, c = t.shape
    L = h * w
    if p.gates.alpha.shape != (L,):
        raise ConfigError(
            f"block gates sized for L={p.gates.alpha.shape[0]} but grid {h}x{w} has {L} tokens"
        )
    u = T.depthwise_conv2d(T.layer_norm(t, p.norm_gamma, p.norm_beta, eps), p.dw_kernel)
    tokens = T.reshape(u, (b, L, c))
    q = _project(tokens, p.w_q)
    k = _project(tokens, p.w_k)
    attn = (vmi_sa_recurrent if recurrent else vmi_sa_matrix)(q, k, p.gates, m)
    out = _project(attn, p.w_out)
    out = T.reshape(out, (b, h, w, c))
    out = T.add(t, T.silu(out))
    if squeeze:
        out = T.reshape(out, out.shape[1:])
    return out


def conv_only_block_forward(x, p: ConvOnlyBlockParams, eps: float = 1e-6) -> Tensor:
    """Ablation block: the same residual shape with the elementwise-product
    and context machinery removed (depthwise conv -> norm -> pointwise expand
    -> SiLU -> pointwise reduce -> residual)."""
    t, squeeze = _as_batched(x)
    b, h, w, c = t.shape
    u = T.layer_norm(T.depthwise_conv2d(t, p.dw_kernel), p.norm_gamma, p.norm_beta, eps)
    tokens = T.reshape(u, (b, h * w, c))
    e = T.silu(_project(tokens, p.w_expand))
    r = _project(e, p.w_reduce)
    out = T.add(t, T.reshape(r, (b, h, w, c)))
    if squeeze:
        out = T.reshape(out, out.shape[1:])
    return out


# ---------------------------------------------------------------------------
# model


def _trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with samples beyond 2 std redrawn."""
    out = rng.standard_normal(shape)
    while True:
        bad = np.abs(out) > 2.0
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        out[bad] = rng.standard_normal(n_bad)
    return out * std


class VMINet:
    """The assembled backbone: stem, four block stages with downsampling,
    global average pooling, and an affine classifier head."""

    def __init__(self, cfg: VMINetConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x564D]))
        widths = cfg.stage_widths()
        grids = cfg.stage_grids()
        gate_dims = [cfg.expansion * c for c in widths]
        schedule = cfg.resolved_mask_schedule()

        def proj(shape):
            return Tensor(_trunc_normal(rng, shape), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        def ones(shape):
            return Tensor(np.ones(shape), requires_grad=True)

        self.stem = PatchConvParams(
            proj((cfg.stem_patch * cfg.stem_patch * 3, widths[0])),
            zeros((widths[0],)),
            cfg.stem_patch,
        )
        self.downsamples: list[PatchConvParams] = [
            PatchConvParams(proj((4 * widths[i], widths[i + 1])), zeros((widths[i + 1],)), 2)
            for i in range(3)
        ]
        self.stages: list[list] = []
        self.masks: list[list[Mask | None]] = []
        block_index = 0
        for stage in range(4):
            c, d = widths[stage], gate_dims[stage]
            h, w = grids[stage]
            L = h * w
            blocks, masks = [], []
            for _ in range(cfg.stage_depths[stage]):
                if cfg.conv_only:
                    blocks.append(
                        ConvOnlyBlockParams(
                            dw_kernel=proj((3, 3, c)),
                            norm_gamma=ones((c,)),
                            norm_beta=zeros((c,)),
                            w_expand=proj((c, d)),
                            w_reduce=zeros((d, c)),
                        )
                    )
                    masks.append(None)
                else:
                    alpha = Tensor(np.full(L, 1.0 / L), requires_grad=True)
                    beta = Tensor(np.ones(L), requires_grad=True)
                    blocks.append(
                        VmiSaBlockParams(
                            dw_kernel=proj((3, 3, c)),
                            norm_gamma=ones((c,)),
                            norm_beta=zeros((c,)),
                            w_q=proj((c, d)),
                            w_k=proj((c, d)),
                            w_out=zeros((d, c)),
                            gates=GateVector(alpha, beta),
                        )
                    )
                    masks.append(build_mask(schedule[block_index], L, d))
                block_index += 1
            self.stages.append(blocks)
            self.masks.append(masks)
        self.head_w = proj((widths[3], cfg.num_classes))
        self.head_b = zeros((cfg.num_classes,))

    def parameters(self):
        yield from self.stem.named("stem")
        for s, blocks in enumerate(self.stages):
            for i, block in enumerate(blocks):
                yield from block.named(f"stage{s}.block{i}")
            if s < 3:
                yield from self.downsamples[s].named(f"down{s}")
        yield "head.w", self.head_w
        yield "head.b", self.head_b

    def forward(self, x, return_stage_shapes: bool = False):
        t, squeeze = _as_batched(x)
        if t.shape[-1] != 3:
            raise DimensionError(f"expected 3 input channels, got shape {t.shape}")
        v = patch_conv(t, self.stem)
        stage_shapes = []
        for s in range(4):
            for block, m in zip(self.stages[s], self.masks[s]):
                if self.cfg.conv_only:
                    v = conv_only_block_forward(v, block, self.cfg.norm_eps)
                else:
                    v = vmi_sa_block_forward(v, block, m, self.cfg.norm_eps, self.cfg.recurrent)
            stage_shapes.append(v.shape[1:])
            if s < 3:
                v = downsample(v, self.downsamples[s])
        b, h, w, c = v.shape
        pooled = T.elementwise_mul(T.sum_axis(T.reshape(v, (b, h * w, c)), axis=1), 1.0 / (h * w))
        logits = T.add(T.matmul(pooled, self.head_w), self.head_b)
        if squeeze:
            logits = T.reshape(logits, (self.cfg.num_classes,))
        if return_stage_shapes:
            return logits, stage_shapes
        return logits

    def __call__(self, x):
        return self.forward(x)


def build_vminet(cfg: VMINetConfig, seed: int = 0) -> VMINet:
    return VMINet(cfg, seed=seed)


def count_params(model: VMINet) -> int:
    return sum(t.data.size for _, t in model.parameters())
