"""Named-tensor weight sets and their files.

:class:`WeightSet` holds a model part's named parameter tensors, validated
against the shapes its config requires.

File layout: magic ``FEB1``, one version byte, a four-byte entry count, then per
entry a name (u16 length + UTF-8 bytes), a dtype code (0 = float32), a rank
byte and u32 dims; after the header come the raw little-endian float32
payloads in header order.  Header order is name-sorted so identical maps
always produce identical files; a name appears at most once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeMismatchError, Tensor

MAGIC = b"FEB1"
VERSION = 1
_DTYPE_F32 = 0


class WeightFormatError(ValueError):
    """A weight file is malformed: bad magic, version, header, or payload size."""


class WeightMismatchError(ShapeMismatchError):
    """Weight names/shapes do not match what the config requires."""


@dataclass
class WeightSet:
    """Named parameter tensors, validated against their required shapes."""

    shapes: dict
    tensors: dict

    def __post_init__(self):
        names, have = set(self.shapes), set(self.tensors)
        if names != have:
            missing, extras = sorted(names - have), sorted(have - names)
            raise WeightMismatchError(
                f"weight names mismatch: missing {missing}, unexpected {extras}")
        for name, shape in self.shapes.items():
            got = tuple(self.tensors[name].shape)
            if got != shape:
                raise WeightMismatchError(
                    f"{name}: expected shape {shape}, got {got}")

    @classmethod
    def from_arrays(cls, shapes, arrays, trainable, group):
        """Float32 parameter tensors attributed to ``group``."""
        tensors = {name: Tensor(np.asarray(arr, dtype=np.float32),
                                requires_grad=trainable, group=group)
                   for name, arr in arrays.items()}
        return cls(shapes=shapes, tensors=tensors)

    def set_trainable(self, trainable):
        for t in self.tensors.values():
            t.requires_grad = bool(trainable)

    def to_arrays(self):
        return {name: t.data for name, t in self.tensors.items()}

    def byte_image(self):
        """Concatenated raw bytes of every tensor, for bit-identity checks."""
        return b"".join(self.tensors[n].data.tobytes() for n in sorted(self.tensors))


def save_tensor_map(arrays, path):
    """Write a ``{name: float array}`` map; returns the byte count written."""
    entries = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f4")
        entries.append((name, arr))
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<B", VERSION)
    blob += struct.pack("<I", len(entries))
    for name, arr in entries:
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<BB", _DTYPE_F32, arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
    for _, arr in entries:
        blob += arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, fmt):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.blob):
            raise WeightFormatError(f"{self.path}: truncated header")
        values = struct.unpack_from(fmt, self.blob, self.pos)
        self.pos += size
        return values


def load_tensor_map(path):
    """Read a weight file back into ``{name: float32 array}``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise WeightFormatError(f"{path}: bad magic {blob[:4]!r}")
    reader = _Reader(blob, path)
    reader.pos = 4
    (version,) = reader.take("<B")
    if version != VERSION:
        raise WeightFormatError(f"{path}: unsupported version {version}")
    (count,) = reader.take("<I")
    headers = {}
    for _ in range(count):
        (name_len,) = reader.take("<H")
        if reader.pos + name_len > len(blob):
            raise WeightFormatError(f"{path}: truncated header")
        raw = blob[reader.pos:reader.pos + name_len]
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise WeightFormatError(
                f"{path}: tensor name {raw!r} is not UTF-8") from None
        if name in headers:
            raise WeightFormatError(f"{path}: repeated tensor name {name!r}")
        reader.pos += name_len
        dtype_code, ndim = reader.take("<BB")
        if dtype_code != _DTYPE_F32:
            raise WeightFormatError(f"{path}: unknown dtype code {dtype_code}")
        headers[name] = reader.take(f"<{ndim}I")
    arrays = {}
    for name, shape in headers.items():
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = n * 4
        if reader.pos + nbytes > len(blob):
            raise WeightFormatError(
                f"{path}: payload for {name!r} shorter than header shape {shape}")
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=reader.pos)
        arrays[name] = arr.reshape(shape).astype(np.float32)
        reader.pos += nbytes
    if reader.pos != len(blob):
        raise WeightFormatError(f"{path}: {len(blob) - reader.pos} trailing bytes")
    return arrays
