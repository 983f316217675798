"""Desk-scale training harness.

Single-process, CPU, deterministic given the config seed: parameter init,
epoch shuffles, and augmentation draws all derive from (seed, epoch) streams,
so a run resumed from an epoch checkpoint continues the exact curve of an
uninterrupted run. Metrics go to ``<output_dir>/metrics.csv`` with the header
``epoch,step,lr,train_loss,train_acc,val_acc,seconds``; checkpoints use the
VMIN binary tensor container.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import tensor as T
from .backbone import VARIANTS, VMINet, VMINetConfig, build_vminet
from .checkpoint import load_tensors, save_tensors
from .data import Dataset, augment, load_dataset
from .errors import ConfigError, FormatError, NumericsError
from .tensor import Tensor, astensor, backward, find_first_nonfinite, no_grad

METRICS_HEADER = ("epoch", "step", "lr", "train_loss", "train_acc", "val_acc", "seconds")

_MASK_CODES = {"none": 0.0, "lower_triangular": 1.0, "banded": 2.0, "block_diagonal": 3.0}
_MASK_NAMES = {v: k for k, v in _MASK_CODES.items()}


# ---------------------------------------------------------------------------
# config


@dataclass
class TrainConfig:
    data_path: str
    output_dir: str
    val_data_path: str = ""
    variant: str = "micro"
    base_width: int = 0  # 0 means "use the variant's width"
    expansion: int = 0  # 0 means "use the variant's expansion"
    stage_depths: tuple[int, int, int, int] = (3, 3, 15, 3)
    input_size: int = 32
    num_classes: int = 10
    stem_patch: int = 2
    mask_schedule: str = "default"
    conv_only: bool = False
    recurrent: bool = False
    lr_base: float = 3e-3
    weight_decay: float = 0.025
    beta1: float = 0.9
    beta2: float = 0.999
    epochs: int = 10
    warmup_iters: int = 50
    batch_size: int = 64
    label_smoothing: float = 0.1
    augment: bool = True
    seed: int = 0
    checkpoint_every: int = 0
    resume: str = ""
    stop_at_train_acc: float = 0.0

    def validate(self) -> None:
        if not self.data_path:
            raise ConfigError("data_path is required")
        if not self.output_dir:
            raise ConfigError("output_dir is required")
        if self.lr_base < 0:
            raise ConfigError(f"lr_base must be >= 0, got {self.lr_base}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"betas must be in [0, 1), got ({self.beta1}, {self.beta2})")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.warmup_iters < 0:
            raise ConfigError(f"warmup_iters must be >= 0, got {self.warmup_iters}")
        if not 0 <= self.label_smoothing < 1:
            raise ConfigError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_depths(text: str) -> tuple[int, int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"stage_depths needs 4 comma-separated ints, got {text!r}")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


_TYPE_PARSERS = {str: str, int: int, float: float, bool: _parse_bool,
                 tuple[int, int, int, int]: _parse_depths}
_FIELD_PARSERS = {name: _TYPE_PARSERS[tp] for name, tp in get_type_hints(TrainConfig).items()}


def parse_train_config(path) -> TrainConfig:
    """Read a plain-text key=value config. Blank lines and lines starting
    with '#' are ignored; unknown keys are errors."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](value.strip())
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value.strip()!r}") from exc
    missing = [k for k in ("data_path", "output_dir") if k not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    cfg = TrainConfig(**values)  # type: ignore[arg-type]
    cfg.validate()
    return cfg


def model_config(cfg: TrainConfig) -> VMINetConfig:
    if cfg.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {cfg.variant!r}; expected one of {sorted(VARIANTS)}")
    width, expansion = VARIANTS[cfg.variant]
    mcfg = VMINetConfig(
        base_width=cfg.base_width or width,
        expansion=cfg.expansion or expansion,
        stage_depths=tuple(cfg.stage_depths),
        input_resolution=(cfg.input_size, cfg.input_size),
        num_classes=cfg.num_classes,
        stem_patch=cfg.stem_patch,
        mask_schedule=cfg.mask_schedule,
        conv_only=cfg.conv_only,
        recurrent=cfg.recurrent,
    )
    mcfg.validate()
    return mcfg


# ---------------------------------------------------------------------------
# loss and optimizer


def cross_entropy_label_smoothing(logits, targets, eps: float = 0.1) -> Tensor:
    """Mean cross-entropy against (1-eps) one-hot + eps/K uniform targets."""
    if not 0 <= eps < 1:
        raise ConfigError(f"label smoothing must be in [0, 1), got {eps}")
    logits = astensor(logits)
    if logits.ndim != 2:
        raise ConfigError(f"logits must be (batch, classes), got {logits.shape}")
    n, k = logits.shape
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if targets.shape[0] != n:
        raise ConfigError(f"batch mismatch: {n} logits rows vs {targets.shape[0]} targets")
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise ConfigError(f"targets outside [0, {k})")
    q = np.full((n, k), eps / k)
    q[np.arange(n), targets] += 1.0 - eps
    logp = T.log_softmax_axis(logits, axis=1)
    per_sample = T.sum_axis(T.elementwise_mul(logp, Tensor(q)), axis=1)
    return T.elementwise_mul(T.sum_all(per_sample), -1.0 / n)


def cosine_lr(step: int, total_steps: int, warmup_iters: int, lr_base: float) -> float:
    """Linear warmup from 0 to lr_base, then cosine decay to exactly 0 at
    ``total_steps``."""
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    if not 0 <= warmup_iters <= total_steps:
        raise ConfigError(f"warmup_iters {warmup_iters} outside [0, {total_steps}]")
    if step < warmup_iters:
        return lr_base * step / warmup_iters
    span = total_steps - warmup_iters
    progress = (step - warmup_iters) / span if span else 1.0
    return lr_base * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def init_opt_state(params) -> OptState:
    state = OptState()
    for name, p in params:
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def adamw_step(
    params,
    grads: dict[str, np.ndarray],
    state: OptState,
    lr: float,
    wd: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """One AdamW update, in place. Weight decay is decoupled: parameters are
    shrunk by lr*wd*p before the bias-corrected moment step is applied."""
    if eps <= 0:
        raise ConfigError(f"adamw eps must be positive, got {eps}")
    beta1, beta2 = betas
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    for name, p in params:
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        m = state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        v = state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * (g * g)
        p.data = p.data - lr * wd * p.data
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ---------------------------------------------------------------------------
# checkpoints carrying model + optimizer + progress


def save_checkpoint(path, model: VMINet, state: OptState | None = None,
                    epoch: int = 0, step: int = 0) -> None:
    cfg = model.cfg
    blob = {f"param.{name}": p.data for name, p in model.parameters()}
    if state is not None:
        for name in state.m:
            blob[f"adam.m.{name}"] = state.m[name]
            blob[f"adam.v.{name}"] = state.v[name]
        blob["adam.step"] = np.asarray(float(state.step))
    blob["meta.epoch"] = np.asarray(float(epoch))
    blob["meta.step"] = np.asarray(float(step))
    for f in fields(VMINetConfig):
        value = getattr(cfg, f.name)
        if f.name == "mask_schedule":
            value = [_MASK_CODES[k] for k in cfg.resolved_mask_schedule()]
        blob[f"meta.{f.name}"] = np.asarray(value, dtype=np.float64)
    save_tensors(path, blob)


_CONFIG_TYPES = get_type_hints(VMINetConfig)


def _config_value(name: str, a: np.ndarray):
    """A ``meta.<name>`` record as the VMINetConfig field value it encodes."""
    values = a.reshape(-1).tolist()
    if name == "mask_schedule":
        if not set(values) <= _MASK_NAMES.keys():
            raise ValueError(f"unknown mask code in {values}")
        return tuple(_MASK_NAMES[c] for c in values)
    tp = _CONFIG_TYPES[name]
    if get_origin(tp) is tuple:
        if len(values) != len(get_args(tp)):
            raise ValueError(f"expected {len(get_args(tp))} values, got {len(values)}")
        return tuple(int(v) for v in values)
    value = a.reshape(()).item()
    return value if tp is float else tp(int(value))


def _integer(a: np.ndarray) -> int:
    return int(a.reshape(()).item())


def load_checkpoint(path) -> tuple[VMINet, OptState | None, int, int]:
    """Every record must be present and well formed and the config valid;
    anything else is a FormatError that names the record."""
    blob = load_tensors(path)

    def record(name, convert):
        if name not in blob:
            raise FormatError(f"checkpoint {path} is missing record {name!r}")
        try:
            return convert(blob[name])
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"checkpoint {path} record {name!r}: {exc}") from exc

    cfg = VMINetConfig(**{
        f.name: record(f"meta.{f.name}", lambda a: _config_value(f.name, a))
        for f in fields(VMINetConfig)
    })
    try:
        cfg.validate()
    except ConfigError as exc:
        raise FormatError(f"checkpoint {path}: {exc}") from exc
    model = build_vminet(cfg, seed=0)
    state: OptState | None = OptState() if "adam.step" in blob else None
    for name, p in model.parameters():
        def shaped(a, shape=p.data.shape):
            if a.shape != shape:
                raise ValueError(f"has shape {a.shape}, expected {shape}")
            return a

        p.data = record(f"param.{name}", shaped)
        if state is not None:
            state.m[name] = record(f"adam.m.{name}", shaped)
            state.v[name] = record(f"adam.v.{name}", shaped)
    if state is not None:
        state.step = record("adam.step", _integer)
    return model, state, record("meta.epoch", _integer), record("meta.step", _integer)


# ---------------------------------------------------------------------------
# train / eval


@dataclass
class EpochStats:
    epoch: int
    step: int
    lr: float
    train_loss: float
    train_acc: float
    val_acc: float
    seconds: float


@dataclass
class History:
    epochs: list[EpochStats] = field(default_factory=list)
    metrics_path: str = ""
    final_checkpoint: str = ""
    checkpoints: list[str] = field(default_factory=list)

    @property
    def final_val_acc(self) -> float:
        return self.epochs[-1].val_acc if self.epochs else float("nan")


def _to_inputs(images: np.ndarray) -> np.ndarray:
    return images.astype(np.float64) / 255.0 - 0.5


def _check_labels(num_classes: int, *datasets: Dataset | None) -> None:
    for ds in datasets:
        if ds is not None and ds.labels.size and ds.labels.max() >= num_classes:
            raise ConfigError(
                f"dataset has labels up to {ds.labels.max()} but num_classes={num_classes}"
            )


def evaluate(model: VMINet, ds: Dataset, batch_size: int = 256) -> float:
    """Top-1 accuracy, no augmentation, no gradient bookkeeping."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    _check_labels(model.cfg.num_classes, ds)
    correct = 0
    with no_grad():
        for start in range(0, len(ds), batch_size):
            x = _to_inputs(ds.images[start : start + batch_size])
            logits = model.forward(Tensor(x))
            correct += int((np.argmax(logits.data, axis=1) == ds.labels[start : start + batch_size]).sum())
    return correct / len(ds) if len(ds) else float("nan")


def _epoch_rng(seed: int, epoch: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, epoch]))


def _format(value: float) -> str:
    return format(value, ".12g")


def train(cfg: TrainConfig) -> History:
    """Run the full training loop described in the module docstring."""
    cfg.validate()
    train_ds = load_dataset(cfg.data_path)
    val_ds = load_dataset(cfg.val_data_path) if cfg.val_data_path else None
    _check_labels(cfg.num_classes, train_ds, val_ds)

    start_epoch, global_step = 0, 0
    if cfg.resume:
        model, state, start_epoch, global_step = load_checkpoint(cfg.resume)
        if state is None:
            raise FormatError(f"checkpoint {cfg.resume} has no optimizer state; cannot resume")
        if start_epoch >= cfg.epochs:
            raise ConfigError(f"checkpoint {cfg.resume} is at epoch {start_epoch} of {cfg.epochs}")
    else:
        model = build_vminet(model_config(cfg), seed=cfg.seed)
        state = init_opt_state(model.parameters())

    params = list(model.parameters())
    n = len(train_ds)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    if cfg.warmup_iters > total_steps:
        raise ConfigError(f"warmup_iters {cfg.warmup_iters} exceeds the {total_steps} steps")

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    history = History(metrics_path=str(out_dir / "metrics.csv"))
    metrics_file = open(history.metrics_path, "w", newline="")
    writer = csv.writer(metrics_file)
    writer.writerow(METRICS_HEADER)

    try:
        for epoch in range(start_epoch, cfg.epochs):
            tick = time.perf_counter()
            perm = _epoch_rng(cfg.seed, epoch, 0x51).permutation(n)
            aug_rng = _epoch_rng(cfg.seed, epoch, 0xA6)
            loss_sum, correct, seen, last_lr = 0.0, 0, 0, 0.0
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                images = train_ds.images[idx]
                if cfg.augment:
                    images = np.stack([augment(im, aug_rng) for im in images])
                x = Tensor(_to_inputs(images))
                targets = train_ds.labels[idx]
                logits = model.forward(x)
                loss = cross_entropy_label_smoothing(logits, targets, cfg.label_smoothing)
                if not np.isfinite(loss.data):
                    culprit = find_first_nonfinite(loss)
                    where = culprit.op or culprit.name if culprit is not None else "loss"
                    raise NumericsError(
                        f"non-finite loss at step {global_step}; first non-finite tensor: "
                        f"{where} with shape {culprit.shape if culprit is not None else ()}"
                    )
                for _, p in params:
                    p.grad = None
                backward(loss)
                last_lr = cosine_lr(global_step, total_steps, cfg.warmup_iters, cfg.lr_base)
                grads = {name: p.grad for name, p in params if p.grad is not None}
                adamw_step(params, grads, state, last_lr, cfg.weight_decay,
                           (cfg.beta1, cfg.beta2))
                global_step += 1
                batch_n = len(idx)
                loss_sum += loss.item() * batch_n
                correct += int((np.argmax(logits.data, axis=1) == targets).sum())
                seen += batch_n
            train_loss = loss_sum / seen
            train_acc = correct / seen
            val_acc = evaluate(model, val_ds) if val_ds is not None else float("nan")
            seconds = time.perf_counter() - tick
            stats = EpochStats(epoch + 1, global_step, last_lr, train_loss, train_acc,
                               val_acc, seconds)
            history.epochs.append(stats)
            row = astuple(stats)
            writer.writerow([*row[:2], *map(_format, row[2:])])
            metrics_file.flush()
            if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
                ck = out_dir / f"checkpoint_{epoch + 1:04d}.vmin"
                save_checkpoint(ck, model, state, epoch + 1, global_step)
                history.checkpoints.append(str(ck))
            if cfg.stop_at_train_acc and train_acc >= cfg.stop_at_train_acc:
                break
    finally:
        metrics_file.close()

    final = out_dir / "model.vmin"
    save_checkpoint(final, model, state, history.epochs[-1].epoch if history.epochs else 0,
                    global_step)
    history.final_checkpoint = str(final)
    return history
