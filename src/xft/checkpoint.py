"""Single-file binary checkpoints.

Layout, all integers little-endian:

    magic "XFTC" | u32 version (1) | u64 json length | config JSON (UTF-8)
    u64 tensor count
    per tensor: u64 name length | name UTF-8 | u8 dtype code (0 = float32)
                | u8 rank | u64 dims[rank] | u64 byte offset into data section
    u64 data section length | raw float32 data

The JSON blob carries the model configuration, the MoE configuration when
present, and free-form metadata (phase, seed, shared rate), so a checkpoint
is self-describing. Saves are atomic (temp file + rename) and byte-stable:
identical models and metadata produce identical files.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from xft.model import ModelConfig, Transformer, assemble, config_from_dict
from xft.moe import MoEConfig
from xft.tensor import Tensor

MAGIC = b"XFTC"
VERSION = 1
DTYPE_FLOAT32 = 0


class CheckpointError(Exception):
    pass


def save_checkpoint(model: Transformer, path: str, meta: dict | None = None) -> None:
    params = model.named_parameters()
    moe_cfg = model.moe_cfg.to_dict() if model.is_moe else None
    config = {"model": model.cfg.to_dict(), "moe": moe_cfg, "meta": meta or {}}
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")

    directory = bytearray()
    data = bytearray()
    for name, p in params.items():
        if p.data.dtype != np.float32:
            raise CheckpointError(f"parameter {name!r} is {p.data.dtype}, checkpoints hold float32")
        if not np.isfinite(p.data).all():
            raise CheckpointError(f"parameter {name!r} holds non-finite values")
        raw = np.ascontiguousarray(p.data, dtype="<f4").tobytes()
        encoded = name.encode("utf-8")
        directory += struct.pack("<Q", len(encoded)) + encoded
        directory += struct.pack("<BB", DTYPE_FLOAT32, p.data.ndim)
        directory += struct.pack(f"<{p.data.ndim}Q", *p.data.shape)
        directory += struct.pack("<Q", len(data))
        data += raw

    payload = (
        MAGIC
        + struct.pack("<I", VERSION)
        + struct.pack("<Q", len(blob)) + blob
        + struct.pack("<Q", len(params)) + bytes(directory)
        + struct.pack("<Q", len(data)) + bytes(data)
    )

    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".",
                                   prefix=".ckpt-")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(payload)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise CheckpointError(f"cannot write checkpoint {path!r}: {e}") from e


class _Reader:
    """Sequential reads from an open checkpoint file, bounds-checked against
    its size before any bytes are read."""

    def __init__(self, f, path: str):
        self.f = f
        self.pos = 0
        self.size = os.fstat(f.fileno()).st_size
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > self.size:
            raise CheckpointError(
                f"{self.path!r}: truncated while reading {what} "
                f"(need {n} bytes at offset {self.pos}, file has {self.size})")
        self.pos += n
        return self.f.read(n)

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def _open(path: str):
    try:
        return open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {e}") from e


def _read_config(r: _Reader) -> dict:
    """Magic, version and the JSON config blob at the head of the file."""
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError(f"{r.path!r}: bad magic, not a checkpoint file")
    version = struct.unpack("<I", r.take(4, "version"))[0]
    if version != VERSION:
        raise CheckpointError(f"{r.path!r}: unsupported format version {version}")
    blob = r.take(r.u64("config length"), "config JSON")
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{r.path!r}: malformed config blob: {e}") from e


def read_checkpoint_config(path: str) -> dict:
    """Parse only the embedded JSON config blob; the tensors are not read."""
    with _open(path) as f:
        return _read_config(_Reader(f, path))


def load_checkpoint(path: str) -> Transformer:
    """Reconstruct a dense or MoE model, validating structure throughout."""
    with _open(path) as f:
        r = _Reader(f, path)
        config = _read_config(r)
        try:
            model_cfg = config_from_dict(ModelConfig, config["model"])
            moe_cfg = config_from_dict(MoEConfig, config["moe"]) if config.get("moe") else None
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path!r}: malformed config blob: {e}") from e

        n_tensors = r.u64("tensor count")
        entries: dict[str, tuple[tuple[int, ...], int]] = {}
        for i in range(n_tensors):
            try:
                name = r.take(r.u64("name length"), f"tensor {i} name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"{path!r}: tensor {i} name is not UTF-8: {e}") from e
            dtype_code, rank = struct.unpack("<BB", r.take(2, f"{name} dtype/rank"))
            if dtype_code != DTYPE_FLOAT32:
                raise CheckpointError(f"{path!r}: tensor {name!r} has unknown dtype code {dtype_code}")
            dims = struct.unpack(f"<{rank}Q", r.take(8 * rank, f"{name} dims"))
            offset = r.u64(f"{name} offset")
            if name in entries:
                raise CheckpointError(f"{path!r}: tensor {name!r} appears twice")
            entries[name] = (tuple(int(d) for d in dims), offset)
        data_len = r.u64("data length")
        data = r.take(data_len, "data section")

    spans = []
    for name, (dims, offset) in entries.items():
        nbytes = math.prod(dims) * 4
        if offset + nbytes > data_len:
            raise CheckpointError(
                f"{path!r}: tensor {name!r} spans [{offset}, {offset + nbytes}) "
                f"beyond data section of {data_len} bytes")
        spans.append((offset, offset + nbytes, name))
    spans.sort()
    for (_, end_a, name_a), (start_b, _, name_b) in zip(spans, spans[1:]):
        if start_b < end_a:
            raise CheckpointError(f"{path!r}: tensors {name_a!r} and {name_b!r} overlap")

    def tensor(name: str, shape: tuple[int, ...]) -> Tensor:
        if name not in entries:
            raise CheckpointError(
                f"{path!r}: tensor names do not match the declared architecture "
                f"(missing {name!r})")
        dims, offset = entries.pop(name)
        if dims != shape:
            raise CheckpointError(f"{path!r}: tensor {name!r} has shape {dims}, expected {shape}")
        arr = np.frombuffer(data, dtype="<f4", count=math.prod(dims), offset=offset)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path!r}: tensor {name!r} holds non-finite values")
        return Tensor(arr.reshape(dims).astype(np.float32, copy=True), requires_grad=True)

    model = assemble(model_cfg, moe_cfg, tensor)
    if entries:
        raise CheckpointError(
            f"{path!r}: tensor names do not match the declared architecture "
            f"(unexpected {sorted(entries)[:3]})")
    return model
