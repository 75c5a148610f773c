"""Versioned binary container used by the model and tensor-dataset files.

Layout (integers little-endian):

    magic line      ASCII magic + newline, e.g. "CDRNET/1\\n"
    header length   uint64
    header          UTF-8 JSON; carries an "arrays" manifest (name, shape and,
                    unless it is "<f8", dtype)
    payload         the arrays, C order, concatenated in manifest order
    checksum        SHA-256 over every preceding byte

An array's dtype is one of DTYPES: "<f8", "<f4", "<i8", or the unsigned
"|u1", "<u2", "<u4" and "<u8" (numpy's dtype.str for each). A manifest
entry without a "dtype" key is "<f8", so float64 arrays, such as a model's
SVM head and norm stats, carry no dtype key.

The magic line pins the format version; the trailing checksum makes
truncation and bit corruption detectable before any data is handed back.
Writes are byte-deterministic for identical inputs (sorted JSON keys,
fixed array order). Neither direction holds the file in memory: a write
streams each array's buffer into the file and the hash, and a read hashes
the file in fixed-size blocks before it reads each array into its own
preallocated buffer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

_LEN_FIELD = 8
_DIGEST_SIZE = 32
_HASH_BLOCK = 1 << 20

DEFAULT_DTYPE = "<f8"
DTYPES = ("<f8", "<f4", "<i8", "|u1", "<u2", "<u4", "<u8")


class ContainerError(Exception):
    """Base class for container read failures."""


class FormatVersionError(ContainerError):
    """Magic string missing or belonging to a different format version."""


class TruncatedFileError(ContainerError):
    """File ends before the declared header/payload/checksum."""


class ChecksumError(ContainerError):
    """Stored SHA-256 does not match the file contents."""


def write_container(path, magic: str, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write header metadata plus named arrays under the given magic.

    An array whose dtype is in DTYPES is stored as it is; any other array is
    stored as "<f8".
    """
    manifest = []
    payload = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        dtype = arr.dtype.str if arr.dtype.str in DTYPES else DEFAULT_DTYPE
        arr = np.require(arr, dtype, requirements="C")  # keeps a 0-d shape
        entry = {"name": name, "shape": list(arr.shape)}
        if dtype != DEFAULT_DTYPE:
            entry["dtype"] = dtype
        manifest.append(entry)
        payload.append(arr)
    full_header = dict(header)
    full_header["arrays"] = manifest
    header_bytes = json.dumps(full_header, sort_keys=True).encode("utf-8")

    head = magic.encode("ascii") + b"\n" + struct.pack("<Q", len(header_bytes)) + header_bytes
    digest = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for arr in payload:
            if arr.size:  # a zero-size view cannot be cast to bytes
                view = memoryview(arr).cast("B")
                digest.update(view)
                fh.write(view)
        fh.write(digest.digest())


def _array_spec(path, entry) -> tuple[str, tuple[int, ...], np.dtype]:
    """(name, shape, dtype) of one manifest entry; anything malformed is a ContainerError."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ContainerError(f"{path}: malformed arrays manifest entry {entry!r}")
    name = entry["name"]
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise ContainerError(
            f"{path}: array {name} has shape {shape!r}, expected a list of non-negative ints"
        )
    dtype = entry.get("dtype", DEFAULT_DTYPE)
    if dtype not in DTYPES:
        raise ContainerError(
            f"{path}: array {name} has dtype {dtype!r}, expected one of {', '.join(DTYPES)}"
        )
    return name, tuple(shape), np.dtype(dtype)


def read_container(path, magic: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container back; returns (header, arrays by name).

    Raises FormatVersionError for a foreign/old magic, TruncatedFileError
    when declared sizes overrun the file, ChecksumError on corruption, and
    ContainerError for a manifest that does not describe the payload.
    """
    magic_line = magic.encode("ascii") + b"\n"
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(magic_line)) != magic_line:
            raise FormatVersionError(f"{path}: not a {magic} file")
        off = len(magic_line)
        if size < off + _LEN_FIELD + _DIGEST_SIZE:
            raise TruncatedFileError(f"{path}: file too short for header and checksum")
        (header_len,) = struct.unpack("<Q", fh.read(_LEN_FIELD))
        off += _LEN_FIELD
        body_end = size - _DIGEST_SIZE
        if off + header_len > body_end:
            raise TruncatedFileError(f"{path}: truncated header")

        fh.seek(0)
        digest = hashlib.sha256()
        block = bytearray(_HASH_BLOCK)
        view = memoryview(block)
        left = body_end
        while left:
            n = fh.readinto(view[: min(left, _HASH_BLOCK)])
            if not n:
                raise TruncatedFileError(f"{path}: file shrank while being read")
            digest.update(view[:n])
            left -= n
        if digest.digest() != fh.read(_DIGEST_SIZE):
            raise ChecksumError(f"{path}: checksum mismatch (corrupt or truncated file)")

        fh.seek(off)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ContainerError(f"{path}: malformed header: {exc}") from None
        manifest = header.pop("arrays", None) if isinstance(header, dict) else None
        if not isinstance(manifest, list):
            raise ContainerError(f"{path}: header holds no arrays manifest")
        off += header_len
        arrays: dict[str, np.ndarray] = {}
        for entry in manifest:
            name, shape, dtype = _array_spec(path, entry)
            nbytes = math.prod(shape) * dtype.itemsize
            if off + nbytes > body_end:
                raise TruncatedFileError(f"{path}: truncated payload for array {name!r}")
            buf = np.empty(nbytes, dtype=np.uint8)
            if fh.readinto(buf) != nbytes:
                raise TruncatedFileError(f"{path}: file shrank while being read")
            arrays[name] = buf.view(dtype).reshape(shape)
            off += nbytes
    if off != body_end:
        raise ContainerError(f"{path}: {body_end - off} unexpected bytes after payload")
    return header, arrays
