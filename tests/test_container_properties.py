"""The container's dtype manifest, its manifest checks, and its refusal of damaged files.

The properties draw any single-byte flip and any truncation of a real tensor
file and a real model file, and require a ContainerError subclass: never a
JSON error, a MemoryError or any other exception.
"""

import hashlib
import json
import struct
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrnet.container import (
    ContainerError,
    TruncatedFileError,
    read_container,
    write_container,
)
from cdrnet.featurize import WeekId, load_tensor_dataset, save_tensor_dataset
from cdrnet.modelfile import load_model, save_model
from cdrnet.net import downsized_config, init_params

from oracles import dense_dataset

MAGIC = "TEST/1"


def _write_raw(path, header: dict, payload: bytes) -> None:
    """A container with the given header and payload bytes and a valid checksum."""
    header_bytes = json.dumps(header).encode("utf-8")
    body = (MAGIC + "\n").encode() + struct.pack("<Q", len(header_bytes)) + header_bytes + payload
    path.write_bytes(body + hashlib.sha256(body).digest())


def test_integer_arrays_keep_their_dtype(tmp_path):
    path = tmp_path / "c.bin"
    arrays = {
        "f": np.array([1.5, -2.0]),
        "i": np.array([-3, 2**40], dtype=np.int64),
        "u": np.array([0, 1343, 65535], dtype=np.uint16),
        "f0": np.array(2.5),  # 0-d arrays keep shape ()
        "i0": np.array(-7, dtype=np.int64),
    }
    write_container(path, MAGIC, {}, arrays)
    _, back = read_container(path, MAGIC)
    for name, arr in arrays.items():
        assert (back[name].dtype, back[name].shape) == (arr.dtype, arr.shape)
        np.testing.assert_array_equal(back[name], arr)


def test_float64_arrays_carry_no_dtype_key_and_other_dtypes_are_stored_as_float64(tmp_path):
    """float32 is one of the container's dtypes; >f8 and int32 are not, and are widened."""
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {}, {
        "f": np.zeros(2),
        "f32": np.array([0.5], dtype=np.float32),
        "big": np.array([2.5], dtype=">f8"),
        "i32": np.array([7], dtype=np.int32),
    })
    raw = path.read_bytes()
    start = len(MAGIC) + 1 + 8
    (length,) = struct.unpack_from("<Q", raw, len(MAGIC) + 1)
    manifest = json.loads(raw[start : start + length])["arrays"]
    assert {e["name"]: e.get("dtype") for e in manifest} == {
        "f": None, "f32": "<f4", "big": None, "i32": None,
    }
    _, back = read_container(path, MAGIC)
    assert [back[n].tolist() for n in ("f32", "big", "i32")] == [[0.5], [2.5], [7.0]]
    assert {n: arr.dtype for n, arr in back.items()} == {
        "f": np.float64, "f32": np.float32, "big": np.float64, "i32": np.float64,
    }


@pytest.mark.parametrize("entry, reason", [
    ({"name": "x", "shape": [-1]}, "shape"),
    ({"name": "x", "shape": [1.5]}, "shape"),
    ({"name": "x", "shape": [True]}, "shape"),
    ({"name": "x", "shape": "8"}, "shape"),
    ({"name": "x", "shape": [1], "dtype": "|O"}, "dtype"),
    ({"name": "x", "shape": [1], "dtype": ">f8"}, "dtype"),
    ({"name": 3, "shape": [1]}, "manifest"),
    ("x", "manifest"),
])
def test_malformed_manifest_entry_is_a_container_error(tmp_path, entry, reason):
    path = tmp_path / "c.bin"
    _write_raw(path, {"arrays": [entry]}, bytes(8))
    with pytest.raises(ContainerError, match=reason):
        read_container(path, MAGIC)


@pytest.mark.parametrize("header", [{"arrays": {}}, {}, [1, 2], "x"])
def test_header_without_a_manifest_list_is_a_container_error(tmp_path, header):
    path = tmp_path / "c.bin"
    _write_raw(path, header, b"")
    with pytest.raises(ContainerError, match="manifest"):
        read_container(path, MAGIC)


def test_header_that_is_not_json_is_a_container_error(tmp_path):
    path = tmp_path / "c.bin"
    body = (MAGIC + "\n").encode() + struct.pack("<Q", 4) + b"{\xff]x"
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ContainerError, match="malformed header"):
        read_container(path, MAGIC)


@pytest.mark.parametrize("shape", [[2**40], [2**31, 2**31], [2**62, 4]])
def test_shape_larger_than_the_file_is_refused_before_allocation(tmp_path, shape):
    path = tmp_path / "c.bin"
    _write_raw(path, {"arrays": [{"name": "x", "shape": shape}]}, bytes(64))
    with pytest.raises(TruncatedFileError, match="'x'"):
        read_container(path, MAGIC)


def _tensor_file(path):
    rng = np.random.default_rng(11)
    weeks = rng.poisson(0.2, size=(3, 8, 24, 7)).astype(np.float64)
    week = WeekId(date(2024, 1, 1))
    save_tensor_dataset(path, dense_dataset(["a", "a", "b"], [week] * 3, weeks))
    return load_tensor_dataset


def _model_file(path):
    save_model(path, init_params(downsized_config(), 3))
    return load_model


@pytest.fixture(scope="module")
def damaged(tmp_path_factory):
    """(loader, original bytes, path to overwrite with a damaged copy) per file kind."""
    root = tmp_path_factory.mktemp("damaged")
    files = {}
    for kind, make in (("tensor", _tensor_file), ("model", _model_file)):
        path = root / f"{kind}.bin"
        loader = make(path)
        loader(path)  # the undamaged file loads
        files[kind] = (loader, path.read_bytes(), root / f"{kind}_damaged.bin")
    return files


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["tensor", "model"]), data=st.data())
def test_any_single_byte_flip_is_refused(damaged, kind, data):
    loader, raw, path = damaged[kind]
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    bad = bytearray(raw)
    bad[at] ^= data.draw(st.integers(1, 255), label="flip")
    path.write_bytes(bytes(bad))
    with pytest.raises(ContainerError):
        loader(path)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["tensor", "model"]), data=st.data())
def test_any_truncation_is_refused(damaged, kind, data):
    loader, raw, path = damaged[kind]
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(ContainerError):
        loader(path)
