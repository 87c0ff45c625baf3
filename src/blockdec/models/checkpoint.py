"""Binary checkpoint format for TinyBlockModel.

Layout, all little-endian:

    magic   4 bytes  b"BDKC"
    version u32      currently 1
    config  9 * i32  vocab_size, d_model, d_hidden, num_heads, num_layers,
                     max_context, sep_token, eos_token (-1 when None),
                     intensity_vocab (0 or 1)
    count   u32      number of parameter arrays
    then per parameter, in sorted name order:
    nlen    u16      name length in bytes
    name    utf-8
    ndim    u8
    dims    ndim*u32
    data    float32 values, C order

Parameters are stored as float32, so `save_checkpoint` refuses a model of
another dtype rather than round its parameters. A malformed file (bad
magic, unknown version, truncation, a repeated name, mismatched names or
shapes) raises CheckpointFormatError without constructing a partial model.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from ..errors import CheckpointFormatError, ConfigurationError
from .neural import ModelConfig, TinyBlockModel

MAGIC = b"BDKC"
VERSION = 1

_CONFIG_FIELDS = (
    "vocab_size",
    "d_model",
    "d_hidden",
    "num_heads",
    "num_layers",
    "max_context",
    "sep_token",
    "eos_token",
    "intensity_vocab",
)


def save_checkpoint(model: TinyBlockModel, path) -> None:
    """Write the model's config and parameters to `path`; a model that is
    not float32 raises ConfigurationError before the file is opened."""
    if model.dtype != np.float32:
        raise ConfigurationError(
            f"a checkpoint stores float32 parameters; this model's are {model.dtype}"
        )
    cfg = model.config
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    for name in _CONFIG_FIELDS:
        value = getattr(cfg, name)
        if name == "eos_token":
            value = -1 if value is None else value
        buf.write(struct.pack("<i", int(value)))
    names = sorted(model.params)
    buf.write(struct.pack("<I", len(names)))
    for name in names:
        arr = np.ascontiguousarray(model.params[name], dtype="<f4")
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            buf.write(struct.pack("<I", dim))
        buf.write(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointFormatError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> TinyBlockModel:
    """Read a checkpoint back into a float32 TinyBlockModel."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    if reader.take(4) != MAGIC:
        raise CheckpointFormatError("not a model checkpoint (bad magic)")
    (version,) = reader.unpack("<I")
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    raw = dict(zip(_CONFIG_FIELDS, reader.unpack(f"<{len(_CONFIG_FIELDS)}i")))
    raw["eos_token"] = None if raw["eos_token"] == -1 else raw["eos_token"]
    raw["intensity_vocab"] = bool(raw["intensity_vocab"])
    try:
        config = ModelConfig(**raw)
    except Exception as exc:
        raise CheckpointFormatError(f"invalid model config in checkpoint: {exc}") from exc
    (count,) = reader.unpack("<I")
    params = {}
    for _ in range(count):
        (nlen,) = reader.unpack("<H")
        try:
            name = reader.take(nlen).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError("corrupt parameter name") from exc
        if name in params:
            raise CheckpointFormatError(f"parameter {name!r} appears more than once")
        (ndim,) = reader.unpack("<B")
        shape = tuple(reader.unpack(f"<{ndim}I")) if ndim else ()
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        data = reader.take(size * 4)
        params[name] = np.frombuffer(data, dtype="<f4").reshape(shape)
    if reader.pos != len(reader.data):
        raise CheckpointFormatError(
            f"{len(reader.data) - reader.pos} trailing bytes after checkpoint payload"
        )
    try:
        return TinyBlockModel(config, params=params)
    except Exception as exc:
        raise CheckpointFormatError(f"checkpoint parameters do not fit config: {exc}") from exc
