"""Versioned binary model container shared by the neural tagger and the
HMM baseline: magic, format version, JSON header, named float64 tensors.
Containers, and embedding tables, are written through `replacing`, so a
file is replaced whole or not at all.

Layout (all integers little-endian):
  8-byte magic | uint32 version | uint32 header length | header (UTF-8 JSON)
  | uint32 tensor count | per tensor:
      uint32 name length | name (UTF-8) | uint32 ndim | uint64 dims...
      | float64 data (C order)
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

import numpy as np

FORMAT_VERSION = 1


class ContainerError(Exception):
    pass


@contextmanager
def replacing(path: Union[str, Path], mode: str = "wb", **kwargs) -> Iterator[IO]:
    """A file open for writing whose content replaces path when the block
    ends without an exception. It is written as .<name>.<pid>.tmp in
    path's directory, so the os.replace that ends the block is one rename
    within one file system: a kill or an exception partway leaves path's
    old bytes. On an exception the temporary file is removed and the
    exception goes on; a kill leaves it behind. Nothing is fsynced, so
    this guards against a failing process, not a failing machine."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, mode, **kwargs) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_container(
    path: Union[str, Path],
    magic: bytes,
    header: dict,
    tensors: dict[str, np.ndarray],
) -> None:
    """Write a container file in place of path, whole or not at all (see
    replacing)."""
    if len(magic) != 8:
        raise ContainerError("magic must be 8 bytes")
    raw_header = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with replacing(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(raw_header)))
        fh.write(raw_header)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            raw_name = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw_name)))
            fh.write(raw_name)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_container(path: Union[str, Path], magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and tensors of a container file, each tensor read straight
    into its array. A short read, a header that is not a UTF-8 JSON
    object, a tensor name that is not UTF-8, a tensor shape numpy cannot
    make, or bytes after the last tensor raise ContainerError naming the
    offset or the tensor."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def check_left(n: int, what: str) -> None:
            offset = fh.tell()
            if n > size - offset:  # checked before reading: a corrupt length may be huge
                raise ContainerError(
                    f"{path}: truncated {what} at offset {offset}: "
                    f"needs {n} bytes, {size - offset} left"
                )

        def fill(buffer, what: str):
            """buffer, filled with the next len(buffer) bytes of the file;
            the count read is checked too, as the file may shrink after
            fstat."""
            offset = fh.tell()
            got = fh.readinto(buffer)
            if got != len(buffer):
                raise ContainerError(f"{path}: truncated {what} at offset {offset}: read {got} of {len(buffer)} bytes")
            return buffer

        def take(n: int, what: str) -> bytearray:
            check_left(n, what)
            return fill(bytearray(n), what)

        def text(n: int, what: str) -> str:
            offset = fh.tell()
            try:
                return take(n, what).decode("utf-8")
            except UnicodeDecodeError:
                raise ContainerError(f"{path}: {what} at offset {offset} is not UTF-8") from None

        got = fh.read(8)
        if got != magic:
            raise ContainerError(f"{path}: bad magic: expected {magic!r}, got {got!r}")
        version, header_len = struct.unpack("<II", take(8, "version and header length"))
        if version != FORMAT_VERSION:
            raise ContainerError(f"{path}: unsupported format version {version} (expected {FORMAT_VERSION})")
        offset = fh.tell()
        try:
            header = json.loads(text(header_len, "header"))
        except json.JSONDecodeError as exc:
            raise ContainerError(f"{path}: header at offset {offset} is not JSON: {exc}") from None
        if not isinstance(header, dict):
            raise ContainerError(f"{path}: header at offset {offset} is not a JSON object")
        (count,) = struct.unpack("<I", take(4, "tensor count"))
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4, "tensor name length"))
            name = text(name_len, "tensor name")
            (ndim,) = struct.unpack("<I", take(4, f"tensor {name!r} rank"))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, f"tensor {name!r} shape"))
            what = f"tensor {name!r} data"
            check_left(8 * math.prod(shape), what)
            try:
                tensor = np.empty(shape, dtype="<f8")
            except ValueError as exc:  # over 64 dimensions, or a huge one beside a zero one
                raise ContainerError(f"{path}: tensor {name!r} shape {shape} is not an array shape: {exc}") from None
            fill(tensor.reshape(-1).view(np.uint8), what)  # read straight into the array: one copy
            tensors[name] = tensor
        if fh.tell() != size:
            raise ContainerError(
                f"{path}: {size - fh.tell()} trailing bytes after the last tensor at offset {fh.tell()}"
            )
    return header, tensors


def require_keys(mapping, keys: tuple[str, ...], path, where: str = "header") -> dict:
    """mapping itself, once it is a dict holding every key; otherwise
    ContainerError naming the keys it lacks."""
    if not isinstance(mapping, dict):
        raise ContainerError(f"{path}: {where} is not a JSON object")
    missing = [key for key in keys if key not in mapping]
    if missing:
        raise ContainerError(f"{path}: {where} lacks " + ", ".join(repr(key) for key in missing))
    return mapping
