"""An independent numpy forward of the micro VMINet, for checking outputs.

Written from the formulas of the package README and the backbone docstring,
not from its code, and importing nothing from ``vminet``. It reads the
parameter arrays of a VMIN checkpoint with its own reader.

    stem        2x2 patch convolution, stride 2
    block       u = dwconv3x3(layer_norm(t)); Q = u Wq; K = u Wk (tokens row-major)
                matrix form:    y_t = sum_s alpha_s M_s * Q_s * K_s + beta_t Q_t * K_t
                recurrent form: h_t = h_{t-1} + alpha_t Q_t * K_t
                                y_t = M_t * h_t + beta_t Q_t * K_t
                t + silu(y Wout)
    downsample  2x2 patch convolution, stride 2, between stages
    head        mean over tokens, then an affine map
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np


def read_vmin(path) -> dict[str, np.ndarray]:
    """All records of a VMIN container: b"VMIN", u32 version, u32 count, then
    per record u32 name length, name, u32 rank, u64 extents, f64 payload."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"VMIN":
        raise ValueError(f"{path}: not a VMIN file")
    version, count = struct.unpack_from("<II", raw, 4)
    if version != 1:
        raise ValueError(f"{path}: unknown VMIN version {version}")
    pos, out = 12, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        name = raw[pos + 4 : pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", raw, pos)
        shape = struct.unpack_from(f"<{rank}Q", raw, pos + 4)
        pos += 4 + 8 * rank
        size = int(np.prod(shape, dtype=np.int64))
        out[name] = np.frombuffer(raw, "<f8", size, pos).reshape(shape).astype(np.float64)
        pos += 8 * size
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes")
    return out


class ReferenceModel:
    """Parameters of one checkpoint, with the masks its blocks use."""

    def __init__(self, records: dict[str, np.ndarray]):
        self.p = {k[len("param."):]: v for k, v in records.items() if k.startswith("param.")}
        self.eps = float(records["meta.norm_eps"])
        self.depths = []
        for s in range(4):
            i = 0
            while f"stage{s}.block{i}.w_q" in self.p:
                i += 1
            self.depths.append(i)
        # banded masks in stages 0-1; later stages alternate lower-triangular
        # (even blocks) and banded (odd blocks)
        self.masks = {}
        for s, depth in enumerate(self.depths):
            for i in range(depth):
                prefix = f"stage{s}.block{i}"
                L = self.p[f"{prefix}.gates.alpha"].shape[0]
                D = self.p[f"{prefix}.w_q"].shape[1]
                kind = "lower_triangular" if s >= 2 and i % 2 == 0 else "banded"
                self.masks[prefix] = mask(kind, L, D)

    @classmethod
    def from_checkpoint(cls, path) -> "ReferenceModel":
        return cls(read_vmin(path))

    def forward(self, x: np.ndarray, form: str) -> np.ndarray:
        """Logits for float images ``x`` of shape (B, H, W, 3)."""
        p = self.p
        t = patch_conv(x, p["stem.w"], p["stem.b"])
        for s, depth in enumerate(self.depths):
            for i in range(depth):
                prefix = f"stage{s}.block{i}"
                t = self._block(t, prefix, form)
            if s < 3:
                t = patch_conv(t, p[f"down{s}.w"], p[f"down{s}.b"])
        b, h, w, c = t.shape
        pooled = t.reshape(b, h * w, c).mean(axis=1)
        return pooled @ p["head.w"] + p["head.b"]

    def _block(self, t, prefix, form):
        p = self.p
        b, h, w, c = t.shape
        u = depthwise3x3(layer_norm(t, p[f"{prefix}.norm_gamma"], p[f"{prefix}.norm_beta"],
                                    self.eps), p[f"{prefix}.dw_kernel"])
        tokens = u.reshape(b, h * w, c)
        qk = (tokens @ p[f"{prefix}.w_q"]) * (tokens @ p[f"{prefix}.w_k"])
        alpha = p[f"{prefix}.gates.alpha"][:, None]
        beta = p[f"{prefix}.gates.beta"][:, None]
        m = self.masks[prefix]
        if form == "matrix":
            y = (alpha * m * qk).sum(axis=1, keepdims=True) + beta * qk
        elif form == "recurrent":
            y = m * np.cumsum(alpha * qk, axis=1) + beta * qk
        else:
            raise ValueError(f"unknown attention form {form!r}")
        return t + silu((y @ p[f"{prefix}.w_out"]).reshape(b, h, w, c))


def mask(kind: str, L: int, D: int) -> np.ndarray:
    """1-based: lower-triangular keeps n <= t; banded keeps the band of width
    min(L, D) // 2 trailing d(t) = ceil(t * D / L), i.e. 0 <= d(t) - n < width."""
    t = np.arange(1, L + 1)[:, None]
    n = np.arange(1, D + 1)[None, :]
    if kind == "lower_triangular":
        return (n <= t).astype(np.float64)
    if kind == "banded":
        offset = -(-t * D // L) - n
        return ((offset >= 0) & (offset < min(L, D) // 2)).astype(np.float64)
    raise ValueError(f"mask kind {kind!r} is not used by the micro model")


def patch_conv(x, w, bias):
    """Non-overlapping patch convolution; kernel rows are ordered (dy, dx, c)."""
    c = x.shape[-1]
    p = int(round((w.shape[0] // c) ** 0.5))
    out = bias
    for dy in range(p):
        for dx in range(p):
            rows = w[(dy * p + dx) * c : (dy * p + dx + 1) * c]
            out = out + x[:, dy::p, dx::p, :] @ rows
    return out


def layer_norm(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def depthwise3x3(x, k):
    """Per-channel 3x3 cross-correlation with zero 'same' padding."""
    h, w = x.shape[1], x.shape[2]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    return sum(xp[:, a : a + h, b : b + w, :] * k[a, b] for a in range(3) for b in range(3))


def silu(z):
    return z / (1.0 + np.exp(-z))
