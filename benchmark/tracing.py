"""In-memory span tracing of vminet, installed from outside the package.

Each wrapper replaces a function on the module (or class) where its caller
looks it up and appends an open event (span name, time) before the call and
a close event after it; ``uninstall`` puts the originals back. Backward
closures are wrapped by the op wrapper that created them, through the output
tensor's ``_backward`` attribute, so no file of the package is edited. Spans
are rebuilt from the event log after the run.

A *unit* is what per-layer metrics are normalised by: a ``training.step``
span (from the step's first augment or forward call inside ``train`` to the
end of its AdamW update), or a ``training.evaluate`` span, per batch.
"""

from __future__ import annotations

import json
import os
import time
from array import array

import numpy as np

# Ops wrapped on ``vminet.tensor``. All are wrapped so that the self time of
# ``backward`` holds only its sort and gradient sums; the first nine are
# reported as per-layer metrics.
REPORTED_OPS = ("depthwise_conv2d", "matmul", "layer_norm", "silu", "add",
                "elementwise_mul", "take_index", "stack", "reshape")
OTHER_OPS = ("sub", "sum_axis", "sum_all", "softmax_axis", "log_softmax_axis", "transpose")
UNIT_SPANS = ("training.step", "training.evaluate")

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self, vminet_modules, stage_grids):
        self.tensor, self.backbone, self.training, self.data = vminet_modules
        self.stage_of_height = {h: s for s, (h, _) in enumerate(stage_grids)}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.events = array("i")  # span name id on open, -1 on close
        self.times = array("q")
        self.in_train = self.in_eval = self.step_open = self.stem_next = False
        self.nodes_per_step: int | None = None
        self.checkpoint_bytes: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> None:
        self.events.append(nid)
        self.times.append(_clock())

    def _close(self) -> None:
        self.events.append(-1)
        self.times.append(_clock())

    def timed(self, name: str, fn):
        nid = self._id(name)
        events, times = self.events, self.times

        def wrapper(*args, **kwargs):
            events.append(nid)
            times.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                events.append(-1)
                times.append(_clock())

        return wrapper

    def _op(self, op: str, fn):
        """Time an op's forward call and the backward closure it returns."""
        return self._with_backward(self.timed(f"tensor.{op}.fwd", fn), self._id(f"tensor.{op}.bwd"))

    def _with_backward(self, fwd, bwd_id: int):
        events, times = self.events, self.times

        def wrapper(*args, **kwargs):
            out = fwd(*args, **kwargs)
            closure = out._backward
            if closure is not None:
                def timed_closure(g):
                    events.append(bwd_id)
                    times.append(_clock())
                    try:
                        return closure(g)
                    finally:
                        events.append(-1)
                        times.append(_clock())
                out._backward = timed_closure
            return out

        return wrapper

    # -- wrappers that also track where a step, the stem or a stage is -----

    def _step_opener(self, fn):
        step_id = self._id("training.step")

        def wrapper(*args, **kwargs):
            if self.in_train and not self.step_open and not self.in_eval:
                self.step_open = True
                self._open(step_id)
            return fn(*args, **kwargs)

        return wrapper

    def _step_closer(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if self.step_open:
                    self.step_open = False
                    self._close()

        return wrapper

    def _flag(self, attr: str, fn):
        def wrapper(*args, **kwargs):
            setattr(self, attr, True)
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, attr, False)

        return wrapper

    def _forward(self, fn):
        forward = self.timed("backbone.forward", fn)

        def wrapper(*args, **kwargs):
            self.stem_next = True
            return forward(*args, **kwargs)

        return wrapper

    def _stem(self, fn):
        """``forward`` calls ``patch_conv`` first for its stem; later calls
        come from ``downsample`` and belong to that span."""
        stem = self.timed("backbone.stem", fn)

        def wrapper(*args, **kwargs):
            if self.stem_next:
                self.stem_next = False
                return stem(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _block(self, fn):
        stage_ids = {h: self._id(f"backbone.stage{s}") for h, s in self.stage_of_height.items()}

        def wrapper(x, *args, **kwargs):
            self._open(stage_ids[x.shape[-3]])
            try:
                return fn(x, *args, **kwargs)
            finally:
                self._close()

        return wrapper

    def _backward(self, fn):
        timed = self.timed("training.backward", fn)

        def wrapper(loss):
            if self.nodes_per_step is None:
                self.nodes_per_step = count_graph_nodes(loss)
            return timed(loss)

        return wrapper

    def _checkpoint_io(self, name: str, fn):
        """Time a checkpoint write or read and note the file's size."""
        timed = self.timed(name, fn)

        def wrapper(path, *args):
            out = timed(path, *args)
            self.checkpoint_bytes.append(os.path.getsize(path))
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrap) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        if self._patches:
            return
        T, B, TR, D = self.tensor, self.backbone, self.training, self.data
        for op in REPORTED_OPS + OTHER_OPS:
            self._patch(T, op, lambda fn, op=op: self._op(op, fn))
        self._patch(B, "vmi_sa_matrix", lambda fn: self._with_backward(
            self.timed("attention.vmi_sa_matrix.fwd", fn), self._id("attention.vmi_sa_matrix.bwd")))
        self._patch(B, "vmi_sa_recurrent", lambda fn: self.timed("attention.vmi_sa_recurrent.fwd", fn))
        self._patch(B, "vmi_sa_block_forward", self._block)
        self._patch(B, "patch_conv", self._stem)
        self._patch(B, "downsample", lambda fn: self.timed("backbone.down", fn))
        self._patch(B.VMINet, "forward", lambda fn: self._step_opener(self._forward(fn)))
        self._patch(TR, "augment", lambda fn: self._step_opener(self.timed("data.augment", fn)))
        self._patch(TR, "cross_entropy_label_smoothing", lambda fn: self.timed("training.loss", fn))
        self._patch(TR, "backward", self._backward)
        self._patch(TR, "adamw_step", lambda fn: self._step_closer(self.timed("training.adamw", fn)))
        self._patch(TR, "train", lambda fn: self._flag("in_train", self.timed("training.train", fn)))
        self._patch(TR, "evaluate", lambda fn: self._flag("in_eval", self.timed("training.evaluate", fn)))
        self._patch(TR, "load_dataset", lambda fn: self.timed("data.load_dataset", fn))
        self._patch(D, "load_dataset", lambda fn: self.timed("data.load_dataset", fn))
        self._patch(TR, "save_tensors", lambda fn: self._checkpoint_io("checkpoint.save", fn))
        self._patch(TR, "load_tensors", lambda fn: self._checkpoint_io("checkpoint.load", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark(self) -> int:
        """Start a new phase: per-unit metrics count events from here on."""
        self.nodes_per_step = None
        return len(self.events)

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Rebuild spans from the event log: name, start, end, parent index
        and the innermost enclosing unit span (itself, for a unit)."""
        n = sum(1 for e in self.events if e >= 0)
        name = np.empty(n, np.int32)
        start = np.empty(n, np.int64)
        end = np.zeros(n, np.int64)
        parent = np.empty(n, np.int32)
        unit = np.empty(n, np.int32)
        is_unit = {self._ids[u] for u in UNIT_SPANS if u in self._ids}
        stack: list[int] = []
        k = 0
        for e, t in zip(self.events, self.times):
            if e < 0:
                end[stack.pop()] = t
                continue
            name[k], start[k] = e, t
            parent[k] = stack[-1] if stack else -1
            unit[k] = k if e in is_unit else (unit[parent[k]] if stack else -1)
            stack.append(k)
            k += 1
        return {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "unit": unit}

    def metrics(self, mark: int, unit_name: str) -> dict[str, float]:
        """Per-layer metrics: per ``unit_name`` unit over the spans opened
        after ``mark``; per call for checkpoint and data set loading."""
        a = self.spans()
        n = a["name"].size
        phase_start = sum(1 for e in self.events[:mark] if e >= 0)
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        in_phase = np.arange(n) >= phase_start

        def named(name):
            return a["name"] == self._ids.get(name, -1)

        def children_named(name, parents):
            return named(name) & np.isin(a["parent"], parents)

        units = np.flatnonzero(named(unit_name) & in_phase)
        in_unit = np.isin(a["unit"], units)
        if unit_name == "training.evaluate":
            per = int(children_named("backbone.forward", units).sum())  # batches
        else:
            per = units.size  # steps
        per = max(per, 1)

        def per_unit_ms(name, values=dur):
            return float(values[named(name) & in_unit].sum()) / per / 1e6

        def per_call(name):
            sel = named(name)
            return float(dur[sel].mean()) if sel.any() else 0.0

        out: dict[str, float] = {"tensor.nodes_per_step": float(self.nodes_per_step or 0)}
        for op in REPORTED_OPS:
            out[f"tensor.{op}.fwd_ms"] = per_unit_ms(f"tensor.{op}.fwd")
            out[f"tensor.{op}.bwd_ms"] = per_unit_ms(f"tensor.{op}.bwd")
        out["tensor.backward_self_ms"] = per_unit_ms("training.backward", self_time)
        for name in ("vmi_sa_matrix.fwd", "vmi_sa_matrix.bwd", "vmi_sa_recurrent.fwd"):
            out[f"attention.{name}_ms"] = per_unit_ms(f"attention.{name}")
        for part in ("stem", "stage0", "stage1", "stage2", "stage3", "down"):
            out[f"backbone.{part}.fwd_ms"] = per_unit_ms(f"backbone.{part}")
        out["backbone.forward_ms"] = per_unit_ms("backbone.forward")
        out["training.loss_ms"] = per_unit_ms("training.loss")
        out["training.backward_ms"] = per_unit_ms("training.backward")
        out["training.adamw_ms"] = per_unit_ms("training.adamw")
        out["training.step_other_ms"] = float(self_time[units].sum()) / per / 1e6
        evals = np.flatnonzero(named("training.evaluate") & in_phase)
        batches = max(int(children_named("backbone.forward", evals).sum()), 1)
        out["training.evaluate_ms"] = float(dur[evals].sum()) / batches / 1e6
        out["data.augment_ms"] = per_unit_ms("data.augment")
        out["data.load_dataset_s"] = per_call("data.load_dataset") / 1e9
        out["checkpoint.save_ms"] = per_call("checkpoint.save") / 1e6
        out["checkpoint.load_ms"] = per_call("checkpoint.load") / 1e6
        out["checkpoint.bytes"] = float(np.mean(self.checkpoint_bytes)) if self.checkpoint_bytes else 0.0
        total = float(dur[units].sum())
        out["trace.coverage_pct"] = 100.0 * (1.0 - float(self_time[units].sum()) / total) if total else 0.0
        return out

    def write(self, path, metrics: dict, environment: dict) -> None:
        """``<path>.npz``: every span; ``<path>.json``: span names, metrics
        and environment."""
        np.savez_compressed(f"{path}.npz", **self.spans())
        with open(f"{path}.json", "w") as fh:
            json.dump({"names": self.names, "metrics": metrics,
                       "environment": environment}, fh, indent=1)


def count_graph_nodes(root) -> int:
    """Op nodes reachable from ``root``: tensors that carry a backward closure."""
    seen = {id(root)}
    todo = [root]
    ops = 0
    while todo:
        node = todo.pop()
        ops += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return ops
