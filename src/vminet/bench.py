"""Scaling microbenchmarks for the attention kernels.

For each sequence length the harness prepares inputs outside the timed
region, runs warmup repetitions that are excluded from statistics, then
times ``reps`` calls on the monotonic clock and keeps the median and
interquartile range. A least-squares line through (log L, log median)
summarizes how cost grows with sequence length; its slope comes with a
95% confidence half-width so flat or noisy fits are visible.

BLAS pools are pinned to a single thread while timing, to stabilize
variance: through threadpoolctl when it is importable, otherwise through the
thread-count setter of the OpenBLAS that numpy links. The report records the
effective thread count, or "unpinned" when neither is available.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import numpy.linalg._umath_linalg

from .attention import GateVector, separable_self_attention, softmax_self_attention, \
    vmi_sa_matrix, vmi_sa_recurrent
from .errors import ConfigError, FormatError
from .masks import build_mask
from .tensor import no_grad

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover - depends on environment
    threadpool_limits = None

DEFAULT_LENGTHS = (256, 512, 1024, 2048, 4096)
DEFAULT_DIM = 64
BENCH_HEADER = ("kernel", "L", "D", "median_s", "iqr_s")

# two-sided 95% t critical values by degrees of freedom
_T95 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
        8: 2.306, 9: 2.262, 10: 2.228}


def _inputs(L: int, D: int, rng: np.random.Generator) -> dict:
    return {
        "Q": rng.standard_normal((L, D)),
        "K": rng.standard_normal((L, D)),
        "V": rng.standard_normal((L, D)),
        "q_col": rng.standard_normal((L, 1)),
        "gates": GateVector.initial(L),
        "mask": build_mask("lower_triangular", L, D),
    }


KERNELS = {
    "softmax_sa": lambda inp: softmax_self_attention(inp["Q"], inp["K"], inp["V"]),
    "separable_sa": lambda inp: separable_self_attention(inp["q_col"], inp["K"], inp["V"]),
    "vmi_sa_matrix": lambda inp: vmi_sa_matrix(inp["Q"], inp["K"], inp["gates"], inp["mask"]),
    "vmi_sa_recurrent": lambda inp: vmi_sa_recurrent(inp["Q"], inp["K"], inp["gates"], inp["mask"]),
}


@dataclass
class BenchRow:
    L: int
    median_s: float
    iqr_s: float


@dataclass
class ScalingReport:
    kernel: str
    dim: int
    reps: int
    rows: list[BenchRow] = field(default_factory=list)
    slope: float = float("nan")
    slope_halfwidth: float = float("nan")
    blas_threads: int | str = "unpinned"


def fit_loglog_slope(lengths, medians) -> tuple[float, float]:
    """Least-squares slope of log(median) vs log(L), with a 95% half-width."""
    x = np.log(np.asarray(lengths, dtype=np.float64))
    y = np.log(np.asarray(medians, dtype=np.float64))
    n = x.size
    if n < 2:
        raise ConfigError("slope fit needs at least two lengths")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    if n == 2:
        return slope, float("inf")
    resid = y - (ym + slope * (x - xm))
    se = float(np.sqrt((resid @ resid) / (n - 2) / sxx))
    return slope, _T95.get(n - 2, 1.96) * se


def _openblas_threads():
    """The (getter, setter) of the thread count of the OpenBLAS that numpy
    links, looked up through numpy's linear-algebra extension; None when it
    exports neither the scipy-openblas nor the plain OpenBLAS names."""
    try:
        lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    except OSError:  # pragma: no cover - depends on the numpy build
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None  # pragma: no cover - depends on the numpy build


@contextlib.contextmanager
def _single_threaded():
    """Pin this process's BLAS pool to one thread for the block, and yield
    the effective thread count, or "unpinned" when it cannot be pinned. The
    OpenBLAS fallback restores the earlier count afterwards."""
    if threadpool_limits is not None:
        with threadpool_limits(limits=1):
            yield 1
        return
    blas = _openblas_threads()
    if blas is None:  # pragma: no cover - depends on the numpy build
        yield "unpinned"
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield get()
    finally:
        put(before)


def bench_scaling(
    kernel,
    lengths=DEFAULT_LENGTHS,
    dim: int = DEFAULT_DIM,
    reps: int = 5,
    warmup: int = 3,
    seed: int = 0,
) -> ScalingReport:
    """Time one kernel across sequence lengths.

    ``kernel`` is a registry name or any callable taking the prepared input
    dict (the injectable path used by tests).
    """
    if reps < 5:
        raise ConfigError(f"reps must be >= 5, got {reps}")
    lengths = [int(l) for l in lengths]
    if len(lengths) < 2 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ConfigError(f"lengths must be strictly increasing with >= 2 entries: {lengths}")
    if any(l < 1 for l in lengths) or dim < 1:
        raise ConfigError(f"lengths and dim must be positive, got {lengths}, D={dim}")
    if callable(kernel):
        run, name = kernel, getattr(kernel, "__name__", "custom")
    elif kernel in KERNELS:
        run, name = KERNELS[kernel], kernel
    else:
        raise ConfigError(f"unknown kernel {kernel!r}; expected one of {sorted(KERNELS)}")

    report = ScalingReport(kernel=name, dim=dim, reps=reps)
    rng = np.random.default_rng(np.random.SeedSequence([0xBE, seed]))
    with no_grad(), _single_threaded() as report.blas_threads:
        if warmup > 0:
            # heat allocator arenas at the largest size first, so the first
            # timed lengths are not penalized by cold page faults
            heat = _inputs(lengths[-1], dim, np.random.default_rng(0))
            for _ in range(warmup):
                run(heat)
            del heat
        for L in lengths:
            inputs = _inputs(L, dim, rng)
            for _ in range(warmup):
                run(inputs)
            times = np.empty(reps)
            for r in range(reps):
                t0 = time.perf_counter()
                run(inputs)
                times[r] = time.perf_counter() - t0
            q25, q50, q75 = np.percentile(times, (25, 50, 75))
            report.rows.append(BenchRow(L, float(q50), float(q75 - q25)))
    report.slope, report.slope_halfwidth = fit_loglog_slope(
        [row.L for row in report.rows], [row.median_s for row in report.rows]
    )
    return report


def write_bench_csv(path, report: ScalingReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_HEADER)
        for row in report.rows:
            writer.writerow([report.kernel, row.L, report.dim,
                             format(row.median_s, ".9e"), format(row.iqr_s, ".9e")])


def read_bench_csv(path) -> list[dict]:
    """Round-trip reader for the bench CSV; returns one dict per row."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != BENCH_HEADER:
            raise FormatError(f"bad bench CSV header in {path}: {header}")
        rows = []
        for record in reader:
            if len(record) != len(BENCH_HEADER):
                raise FormatError(f"bad bench CSV row in {path}: {record}")
            rows.append({
                "kernel": record[0],
                "L": int(record[1]),
                "D": int(record[2]),
                "median_s": float(record[3]),
                "iqr_s": float(record[4]),
            })
    return rows
