"""Run one benchmark workload of vminet and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: the package is imported from ``src/``.
Each workload is a closed loop with one caller, repeating whole rounds of
the same operations for ``--seconds``. ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` spends half the time untraced
and half traced, and reports the per-layer metrics. The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, before any import

import os

# One BLAS thread, fixed before numpy loads its BLAS; this acts on this
# process only.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import math
import resource
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import reference
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "runs"

EVAL_BATCH = 256
CLASSES = 10
LR_BASE = 1e-2
WARMUP_ITERS = 1
CHECK_SAMPLES = 64  # held-out samples compared with the reference forward
GRAD_SAMPLES = 8


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" evaluates each round's trained model; "eval" the set-up's
    recurrent: bool
    batch: int  # training batch size
    train_n: int  # training samples
    epochs: int
    eval_n: int  # held-out samples per evaluate call
    evals: int  # evaluate calls per round


WORKLOADS = {
    "train_matrix_b64": Workload("train", False, 64, 64, 10, 256, 1),
    "train_recurrent_b16": Workload("train", True, 16, 16, 6, 256, 1),
    # trains a short run in a worker each round; the set-up's run gives the
    # checkpoint that every round evaluates
    "eval_b256": Workload("eval", False, 64, 64, 4, 1024, 2),
}


def import_vminet():
    if not (SRC / "vminet" / "__init__.py").is_file():
        raise SystemExit(f"error: no vminet package under {SRC}; run from the root of a source tree")
    sys.path.insert(0, str(SRC))
    import vminet
    from vminet import backbone, data, errors, tensor, training
    if Path(vminet.__file__).resolve().parent != SRC / "vminet":
        raise SystemExit(f"error: imported vminet from {vminet.__file__}, not from {SRC}")
    return SimpleNamespace(tensor=tensor, backbone=backbone, training=training, data=data,
                           errors=(errors.ConfigError, errors.ContractError,
                                   errors.DimensionError, errors.FormatError,
                                   errors.NumericsError))


def blas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or None."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
    }


class WorkerError(RuntimeError):
    """The training worker rejected a run or ended."""


class Run:
    """The inputs, the program state and the measurements of one run."""

    def __init__(self, vm, wl: Workload, seed: int, out_dir: Path):
        self.vm, self.wl, self.seed = vm, wl, seed
        tr = vm.training
        self.cfg = tr.TrainConfig(
            data_path=f"synthetic:n={wl.train_n},classes={CLASSES},seed={2 * seed}",
            output_dir=str(out_dir / "train"),
            recurrent=wl.recurrent,
            epochs=wl.epochs,
            batch_size=wl.batch,
            warmup_iters=WARMUP_ITERS,
            lr_base=LR_BASE,
            seed=seed,
        )
        self.samples = wl.train_n * wl.epochs
        self.steps = wl.epochs * math.ceil(wl.train_n / wl.batch)
        self.heldout = vm.data.load_dataset(
            f"synthetic:n={wl.eval_n},classes={CLASSES},seed={2 * seed + 1}")
        self.batches = wl.evals * math.ceil(wl.eval_n / EVAL_BATCH)
        self.attempted = self.failed = 0
        self.histories, self.accuracies = [], []
        self.worker = None
        if wl.kind == "train":
            self.fresh = vm.backbone.build_vminet(tr.model_config(self.cfg), seed=seed)
        else:
            # eval_b256 trains in a worker process, so that this process's
            # peak memory is that of loading and evaluating.
            self.worker = subprocess.Popen([sys.executable, str(BENCH_DIR / "train_worker.py")],
                                           stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            try:
                self._train()
                self.model = tr.load_checkpoint(self.checkpoint)[0]
            except BaseException:
                self.close()
                raise

    def close(self) -> None:
        """End the training worker, if any, and wait for it."""
        if self.worker is not None:
            self.worker.stdin.close()
            self.worker.wait()

    def _train(self) -> float:
        if self.worker is None:
            tick = time.perf_counter()
            history = self.vm.training.train(self.cfg)
            seconds = time.perf_counter() - tick
            self.checkpoint = history.final_checkpoint
            losses = [e.train_loss for e in history.epochs]
        else:
            self.worker.stdin.write(json.dumps(asdict(self.cfg)) + "\n")
            self.worker.stdin.flush()
            reply = json.loads(self.worker.stdout.readline() or '{"error": "worker ended"}')
            if "error" in reply:
                raise WorkerError(reply["error"])
            self.checkpoint, losses, seconds = reply["checkpoint"], reply["losses"], reply["seconds"]
        self.histories.append(losses)
        return seconds

    def _evaluate(self) -> float:
        tick = time.perf_counter()
        self.accuracies.append(self.vm.training.evaluate(self.model, self.heldout, EVAL_BATCH))
        return time.perf_counter() - tick

    def round(self) -> dict:
        """One round: ``train``, then ``evaluate`` of the trained model, or
        for eval_b256 of the model loaded in set-up. Returns each call's rate."""
        rates = {"train": [self.samples / self._train()]}
        if self.wl.kind == "train":
            self.model = self.vm.training.load_checkpoint(self.checkpoint)[0]
        rates["eval"] = [self.wl.eval_n / self._evaluate() for _ in range(self.wl.evals)]
        return rates

    def phase(self, seconds: float) -> list[dict]:
        """Whole rounds until ``seconds`` have passed; at least one."""
        ops = self.steps if self.wl.kind == "train" else self.batches
        rounds, tick = [], time.perf_counter()
        while not rounds or time.perf_counter() - tick < seconds:
            self.attempted += ops
            try:
                rounds.append(self.round())
            except (*self.vm.errors, WorkerError):
                self.failed += ops
                rounds.append({})
        return [r for r in rounds if r]

    def checks(self) -> dict:
        vm, wl = self.vm, self.wl
        out = {}
        records = reference.read_vmin(self.checkpoint)
        out["parameters_nonzero"] = checks.parameters_nonzero(records)
        form = "recurrent" if wl.recurrent else "matrix"
        x = checks.to_inputs(self.heldout.images[:CHECK_SAMPLES])
        labels = self.heldout.labels[:CHECK_SAMPLES]
        with vm.tensor.no_grad():
            program = self.model.forward(vm.tensor.Tensor(x)).data
        ref = reference.ReferenceModel(records)
        out["logits_vs_reference"] = checks.logits_match(program, ref.forward(x, form))
        out["rounds_identical"] = (
            all(h == self.histories[0] for h in self.histories)
            and all(a == self.accuracies[0] for a in self.accuracies),
            f"{len(self.histories)} train() results, {len(self.accuracies)} evaluate() results")
        if wl.kind == "train":
            direction = checks.unit_direction(self.model, np.random.default_rng(self.seed))
            xg, yg = x[:GRAD_SAMPLES], labels[:GRAD_SAMPLES]
            out["directional_derivative"] = checks.derivatives_agree(
                checks.analytic_derivative(vm, self.model, xg, yg, direction),
                checks.numeric_derivative(vm, self.model, xg, yg, direction))
            with vm.tensor.no_grad():
                fresh_loss = checks.loss_of(vm, self.fresh, x, labels).item()
            out["fresh_loss_ln_k"] = checks.loss_near_ln_k(fresh_loss, CLASSES)
            out["loss_decreased"] = checks.loss_decreased(self.histories[-1])
        else:
            ref_logits = ref.forward(checks.to_inputs(self.heldout.images), form)
            out["accuracy_vs_reference"] = checks.accuracy_matches(
                self.accuracies[-1], ref_logits, self.heldout.labels)
        return out


def best(rounds: list[dict], key: str) -> float:
    """The highest rate of any call. Other load on a shared host slows
    whole stretches of rounds, by up to a third on a 2-vCPU KVM guest; the
    fastest call is the one it slowed least, and varies least from run to
    run."""
    return max(rate for r in rounds for rate in r[key])


def report(names_units: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in names_units if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names_units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    vm = import_vminet()
    wl = WORKLOADS[args.workload]
    out_dir = RUNS / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = None
    if args.trace:
        grids = vm.backbone.variant_config("micro").stage_grids()
        tracer = tracing.Tracer((vm.tensor, vm.backbone, vm.training, vm.data), grids)
        tracer.install()  # set-up is traced too, for its checkpoint and data set spans
    run = Run(vm, wl, args.seed, out_dir)
    setup_s = time.perf_counter() - _START
    try:
        metrics, values, results = measure(args, spec, wl, run, tracer, setup_s)
    finally:
        run.close()
    env = environment()
    if tracer is not None:
        tracer.write(out_dir / "trace", values, env)
    print(json.dumps({"environment": env}))
    print(json.dumps({"checks": {k: {"passed": bool(ok), "detail": d} for k, (ok, d) in results.items()}}))
    print(json.dumps({
        "correct": all(ok for ok, _ in results.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def measure(args, spec, wl, run, tracer, setup_s):
    """The timed rounds, then the checks: (metrics, raw values, checks)."""
    if tracer is None:
        rounds = run.phase(args.seconds)
        print(json.dumps({"rounds": rounds}))
        values = {
            "setup_s": setup_s,
            "train_samples_per_s": best(rounds, "train"),
            "eval_samples_per_s": best(rounds, "eval"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = report(spec["end_to_end"], values)
    else:
        tracer.uninstall()
        plain = run.phase(args.seconds / 2)
        tracer.install()
        start = tracer.mark()
        traced = run.phase(args.seconds / 2)
        tracer.uninstall()
        values = tracer.metrics(start, "training.step" if wl.kind == "train" else "training.evaluate")
        key = "train" if wl.kind == "train" else "eval"
        values["trace.overhead_pct"] = 100.0 * (best(plain, key) / best(traced, key) - 1.0)
        metrics = report(spec["per_layer"], values)
    return metrics, values, run.checks()


if __name__ == "__main__":
    sys.exit(main())
