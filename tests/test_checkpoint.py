"""Checkpoint container: byte layout, bitwise round trips, and the
truncation/corruption error contracts."""

import struct

import numpy as np
import pytest

from vminet.checkpoint import MAGIC, VERSION, load_tensors, save_tensors
from vminet.errors import FormatError


def sample_blob(rng):
    return {
        "w": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(5),
        "scalar": np.asarray(2.5),
        "empty-name-ok": np.zeros((2, 0, 3)),
    }


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(100)
    blob = sample_blob(rng)
    path = tmp_path / "t.vmin"
    save_tensors(path, blob)
    loaded = load_tensors(path)
    assert set(loaded) == set(blob)
    for name in blob:
        assert loaded[name].shape == np.asarray(blob[name]).shape
        assert np.array_equal(
            np.asarray(blob[name], dtype=np.float64).tobytes(), loaded[name].tobytes()
        )


def test_header_layout(tmp_path):
    path = tmp_path / "t.vmin"
    save_tensors(path, {"x": np.arange(3.0)})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    version, count = struct.unpack("<II", raw[4:12])
    assert (version, count) == (VERSION, 1)
    name_len = struct.unpack("<I", raw[12:16])[0]
    assert raw[16 : 16 + name_len] == b"x"
    rank = struct.unpack("<I", raw[17:21])[0]
    assert rank == 1
    (extent,) = struct.unpack("<Q", raw[21:29])
    assert extent == 3
    assert np.frombuffer(raw[29:], dtype="<f8").tolist() == [0.0, 1.0, 2.0]


def test_nan_and_inf_payloads_survive(tmp_path):
    path = tmp_path / "t.vmin"
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324])
    save_tensors(path, {"edge": values})
    loaded = load_tensors(path)["edge"]
    assert loaded.tobytes() == values.tobytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.vmin"
    save_tensors(path, {"x": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        load_tensors(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "t.vmin"
    save_tensors(path, {"x": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version 99"):
        load_tensors(path)


def test_truncation_reports_byte_offset(tmp_path):
    path = tmp_path / "t.vmin"
    save_tensors(path, {"x": np.arange(4.0), "y": np.arange(2.0)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FormatError, match="byte offset"):
        load_tensors(path)


def test_truncated_file_yields_no_partial_result(tmp_path):
    path = tmp_path / "t.vmin"
    save_tensors(path, {"x": np.arange(4.0), "y": np.arange(2.0)})
    raw = path.read_bytes()
    # cut inside the second record: even though "x" is complete, load fails
    path.write_bytes(raw[: len(raw) - 3])
    with pytest.raises(FormatError):
        load_tensors(path)


def test_non_utf8_record_name_reports_byte_offset(tmp_path):
    path = tmp_path / "t.vmin"
    save_tensors(path, {"x": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    name_at = 4 + 4 + 4 + 4  # magic, version, count, name_len
    assert raw[name_at : name_at + 1] == b"x"
    raw[name_at] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"record name at byte offset {name_at} .* not utf-8"):
        load_tensors(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "t.vmin"
    save_tensors(path, {"x": np.zeros(2)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_tensors(path)


def test_empty_container_round_trips(tmp_path):
    path = tmp_path / "t.vmin"
    save_tensors(path, {})
    assert load_tensors(path) == {}
