"""Correctness checks on the program's outputs.

Each check returns ``(passed, detail)``. The tolerances are fixed here: two
float64 forwards that differ only in summation order agree to about 1e-15
relative, and a central difference with step 1e-4 along a unit direction
agrees with the analytic derivative to about 1e-8 or better.
"""

from __future__ import annotations

import math

import numpy as np

LOGITS_TOL = 1e-12  # max |program - reference| / max |reference|
GRAD_TOL = 1e-6  # relative error of the directional derivative
GRAD_STEP = 1e-4
LN_K_TOL = 1e-3  # |fresh loss - ln K|
LABEL_SMOOTHING = 0.1


def to_inputs(images: np.ndarray) -> np.ndarray:
    """uint8 images to the float inputs the trainer feeds its model."""
    return images.astype(np.float64) / 255.0 - 0.5


def logits_match(program: np.ndarray, reference: np.ndarray):
    err = float(np.max(np.abs(program - reference)) / np.max(np.abs(reference)))
    return err <= LOGITS_TOL, f"logits error {err:.3e} (tol {LOGITS_TOL:g})"


def parameters_nonzero(records: dict[str, np.ndarray]):
    zeros = {k: int((v == 0).sum()) for k, v in records.items() if k.startswith("param.")}
    bad = {k: n for k, n in zeros.items() if n}
    return not bad and bool(zeros), f"{len(zeros)} parameter arrays, zero entries in {bad or 'none'}"


def unit_direction(model, rng: np.random.Generator) -> list[np.ndarray]:
    v = [rng.standard_normal(p.data.shape) for _, p in model.parameters()]
    norm = math.sqrt(sum(float((d * d).sum()) for d in v))
    return [d / norm for d in v]


def loss_of(vm, model, x: np.ndarray, labels: np.ndarray):
    """The trainer's loss on one batch, as a graph (gradients enabled)."""
    logits = model.forward(vm.tensor.Tensor(x))
    return vm.training.cross_entropy_label_smoothing(logits, labels, LABEL_SMOOTHING)


def analytic_derivative(vm, model, x, labels, direction) -> float:
    params = [p for _, p in model.parameters()]
    for p in params:
        p.grad = None
    vm.tensor.backward(loss_of(vm, model, x, labels))
    return sum(float((p.grad * d).sum()) for p, d in zip(params, direction) if p.grad is not None)


def numeric_derivative(vm, model, x, labels, direction, h: float = GRAD_STEP) -> float:
    params = [p for _, p in model.parameters()]
    saved = [p.data for p in params]
    losses = []
    try:
        with vm.tensor.no_grad():
            for sign in (1.0, -1.0):
                for p, base, d in zip(params, saved, direction):
                    p.data = base + sign * h * d
                losses.append(loss_of(vm, model, x, labels).item())
    finally:
        for p, base in zip(params, saved):
            p.data = base
    return (losses[0] - losses[1]) / (2.0 * h)


def derivatives_agree(analytic: float, numeric: float):
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
    return err <= GRAD_TOL, (f"directional derivative {analytic:.9e} vs central difference "
                             f"{numeric:.9e}, relative error {err:.2e} (tol {GRAD_TOL:g})")


def loss_near_ln_k(loss: float, k: int):
    err = abs(loss - math.log(k))
    return err <= LN_K_TOL, f"fresh loss {loss:.6f} vs ln {k} = {math.log(k):.6f} (tol {LN_K_TOL:g})"


def loss_decreased(epoch_losses: list[float]):
    return epoch_losses[-1] < epoch_losses[0], (
        f"train loss {epoch_losses[0]:.6f} in the first epoch, {epoch_losses[-1]:.6f} in the last")


def accuracy_matches(accuracy: float, reference_logits: np.ndarray, labels: np.ndarray):
    expected = int((np.argmax(reference_logits, axis=1) == labels).sum()) / labels.size
    return accuracy == expected, f"evaluate accuracy {accuracy:.6f} vs reference {expected:.6f}"
