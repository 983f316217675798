"""Benchmark harness: slope fitting against a closed-form oracle, timing of
injectable stub kernels, CSV round trips, and argument contracts."""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vminet.bench import (
    BENCH_HEADER,
    DEFAULT_DIM,
    DEFAULT_LENGTHS,
    KERNELS,
    bench_scaling,
    fit_loglog_slope,
    read_bench_csv,
    write_bench_csv,
)
from vminet.errors import ConfigError, FormatError


def test_default_grid():
    assert DEFAULT_LENGTHS == (256, 512, 1024, 2048, 4096)
    assert DEFAULT_DIM == 64
    assert set(KERNELS) == {"softmax_sa", "separable_sa", "vmi_sa_matrix", "vmi_sa_recurrent"}


# ---------------------------------------------------------------------------
# slope fit


def test_fit_recovers_exact_power_laws():
    lengths = [64, 128, 256, 512]
    for p in (0.0, 1.0, 2.0):
        medians = [1e-6 * L**p for L in lengths]
        slope, half = fit_loglog_slope(lengths, medians)
        assert_allclose(slope, p, atol=1e-12)
        assert half < 1e-9  # perfect fit leaves no residual


def test_fit_matches_hand_least_squares():
    rng = np.random.default_rng(110)
    lengths = [32, 64, 128, 256, 512]
    medians = [1e-6 * L**1.5 * np.exp(0.05 * rng.standard_normal()) for L in lengths]
    slope, half = fit_loglog_slope(lengths, medians)
    x, y = np.log(lengths), np.log(medians)
    expected = np.polyfit(x, y, 1)[0]
    assert_allclose(slope, expected, rtol=1e-10)
    assert half > 0.0


def test_fit_two_points_has_infinite_halfwidth():
    slope, half = fit_loglog_slope([10, 100], [1e-5, 1e-3])
    assert_allclose(slope, 2.0, atol=1e-12)
    assert half == float("inf")


def test_fit_needs_two_lengths():
    with pytest.raises(ConfigError):
        fit_loglog_slope([8], [1e-6])


# ---------------------------------------------------------------------------
# timing harness on controllable stubs


def test_constant_stub_has_flat_slope():
    report = bench_scaling(lambda inp: None, lengths=(8, 16, 32), reps=5, warmup=1)
    assert report.kernel == "<lambda>"
    assert abs(report.slope) < 1.0  # constant work cannot look superlinear
    assert len(report.rows) == 3
    assert [r.L for r in report.rows] == [8, 16, 32]
    assert all(r.median_s >= 0.0 and r.iqr_s >= 0.0 for r in report.rows)


def test_linear_sleep_stub_recovers_slope_one():
    def sleeper(inp):
        time.sleep(2e-4 * inp["Q"].shape[0])

    report = bench_scaling(sleeper, lengths=(8, 16, 32, 64), reps=5, warmup=0)
    assert 0.8 <= report.slope <= 1.2
    assert report.slope_halfwidth < 0.5


def test_inputs_are_prepared_per_length_outside_timing():
    seen = []

    def spy(inp):
        seen.append((inp["Q"].shape, inp["mask"].matrix.shape, inp["gates"].alpha.shape))

    bench_scaling(spy, lengths=(4, 8), dim=6, reps=5, warmup=1)
    # warmup + reps calls per length, plus the allocator pre-warm at max L
    assert seen.count(((4, 6), (4, 6), (4,))) == 6
    assert seen.count(((8, 6), (8, 6), (8,))) == 7


def test_single_threaded_pins_openblas_and_restores_it(monkeypatch):
    from vminet import bench

    blas = bench._openblas_threads()
    if blas is None:
        pytest.skip("numpy links no OpenBLAS with a thread-count setter")
    get, put = blas
    monkeypatch.setattr(bench, "threadpool_limits", None)  # take the ctypes path
    original = get()
    put(2)
    try:
        with bench._single_threaded() as threads:
            assert threads == 1 and get() == 1
        assert get() == 2
        report = bench_scaling(lambda inp: None, lengths=(8, 16), reps=5, warmup=0)
        assert report.blas_threads == 1 and get() == 2
    finally:
        put(original)


def test_vmi_kernels_are_subquadratic_on_default_grid():
    for kernel in ("vmi_sa_matrix", "vmi_sa_recurrent"):
        report = bench_scaling(kernel, reps=5)
        assert report.slope <= 1.3, f"{kernel} slope {report.slope:.3f}"


def test_registry_names_resolve_and_unknown_rejected():
    report = bench_scaling("separable_sa", lengths=(4, 8), dim=4, reps=5, warmup=1)
    assert report.kernel == "separable_sa"
    with pytest.raises(ConfigError, match="unknown kernel"):
        bench_scaling("fft_attention", lengths=(4, 8), reps=5)


def test_rep_and_length_contracts():
    with pytest.raises(ConfigError, match="reps"):
        bench_scaling("separable_sa", lengths=(4, 8), reps=4)
    with pytest.raises(ConfigError, match="increasing"):
        bench_scaling("separable_sa", lengths=(8, 8), reps=5)
    with pytest.raises(ConfigError, match="increasing"):
        bench_scaling("separable_sa", lengths=(8,), reps=5)
    with pytest.raises(ConfigError, match="positive"):
        bench_scaling("separable_sa", lengths=(4, 8), dim=0, reps=5)


def test_bench_is_deterministic_in_inputs_not_times():
    grabbed = []

    def grab(inp):
        grabbed.append(inp["Q"].copy())

    bench_scaling(grab, lengths=(4, 8), dim=3, reps=5, warmup=0, seed=7)
    first = [g.copy() for g in grabbed]
    grabbed.clear()
    bench_scaling(grab, lengths=(4, 8), dim=3, reps=5, warmup=0, seed=7)
    assert all(np.array_equal(a, b) for a, b in zip(first, grabbed))


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip(tmp_path):
    report = bench_scaling(lambda inp: None, lengths=(8, 16, 32), dim=5, reps=5, warmup=0)
    path = tmp_path / "bench.csv"
    write_bench_csv(path, report)
    rows = read_bench_csv(path)
    assert len(rows) == 3
    for row, src in zip(rows, report.rows):
        assert row["kernel"] == report.kernel
        assert (row["L"], row["D"]) == (src.L, 5)
        assert_allclose(row["median_s"], src.median_s, rtol=1e-8)
        assert_allclose(row["iqr_s"], src.iqr_s, rtol=1e-8)


def test_csv_header_and_row_validation(tmp_path):
    path = tmp_path / "bench.csv"
    path.write_text("kernel,L,D,median\nx,1,2,3\n")
    with pytest.raises(FormatError, match="header"):
        read_bench_csv(path)
    path.write_text(",".join(BENCH_HEADER) + "\nsoftmax_sa,8,4\n")
    with pytest.raises(FormatError, match="row"):
        read_bench_csv(path)
