"""Single-file binary checkpoints.

Layout, all integers little-endian:

    magic "XFTC" | u32 version (1) | u64 json length | config JSON (UTF-8)
    u64 tensor count
    per tensor: u64 name length | name UTF-8 | u8 dtype code (0 = float32)
                | u8 rank | u64 dims[rank] | u64 byte offset into data section
    u64 data section length | raw float32 data

The JSON blob carries the model configuration, the MoE configuration when
present, and free-form metadata (phase, seed, shared rate), so a checkpoint
is self-describing. The directory lists the model's entries in parameter
order, each tensor starting where the previous one ends; an MoE layer's
stacked experts are stored one entry per expert and weight. A load accepts
that layout and nothing else. Saves are atomic (``atomic_write``) and
byte-stable: identical models and metadata produce identical files.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import sys
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


def _file_entries(model: Transformer):
    """(name, array view) of each of the model's entries in file order: an MoE layer's
    experts one by one, as ``layers.i.moe.experts.e.key``."""
    for name, p in model.named_parameters().items():
        head, stacked, key = name.rpartition(".experts.")
        if not stacked:
            yield name, p.data
        elif key == "w_up":  # the layer's first stacked tensor stands for all four
            stacked = model.blocks[int(head.split(".")[1])].slot.weights.tensors().items()
            yield from ((f"{head}.experts.{e}.{k}", t.data[e]) for e in range(len(p.data))
                        for k, t in stacked)


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """A temp file beside ``path``, open for writing, that replaces ``path`` when the
    block completes; if the block raises, it is removed and ``path`` stays as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".xft-")
    try:
        os.umask(umask := os.umask(0))
        os.fchmod(fd, 0o666 & ~umask)  # the mode open() gives a new file, not mkstemp's 0600
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_checkpoint(model: Transformer, path: str, meta: dict | None = None) -> None:
    entries = list(_file_entries(model))
    moe_cfg = model.moe_cfg.to_dict() if model.is_moe else None
    config = {"model": model.cfg.to_dict(), "moe": moe_cfg, "meta": meta or {}}
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")

    directory, offset = bytearray(), 0
    for name, a in entries:
        if a.dtype != np.float32:
            raise CheckpointError(f"parameter {name!r} is {a.dtype}, checkpoints hold float32")
        if not np.isfinite(a).all():
            raise CheckpointError(f"parameter {name!r} holds non-finite values")
        encoded = name.encode("utf-8")
        directory += struct.pack("<Q", len(encoded)) + encoded
        directory += struct.pack("<BB", DTYPE_FLOAT32, a.ndim)
        directory += struct.pack(f"<{a.ndim}Q", *a.shape)
        directory += struct.pack("<Q", offset)
        offset += a.nbytes

    try:
        with atomic_write(path, "wb") as f:
            f.write(MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(blob)) + blob
                    + struct.pack("<Q", len(entries)) + bytes(directory)
                    + struct.pack("<Q", offset))
            for _, a in entries:  # one tensor at a time: no copy of the whole file
                f.write(np.ascontiguousarray(a, dtype="<f4"))
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

    def take(self, n: int, what: str, name=None, into=None) -> bytes | int:
        """The next n bytes, or read into ``into`` (a buffer of n bytes) and
        their count; ``what`` labels them in the truncation message, its ``{}``
        filled with ``name`` only when that message is raised."""
        if self.pos + n > self.size:
            raise CheckpointError(
                f"{self.path!r}: truncated while reading {what.format(name)} "
                f"(need {n} bytes at offset {self.pos}, file has {self.size})")
        self.pos += n
        return self.f.read(n) if into is None else self.f.readinto(into)

    def u64(self, what: str, name=None) -> int:
        return struct.unpack("<Q", self.take(8, what, name))[0]


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
    """Reconstruct a dense or MoE model from a file laid out as ``save_checkpoint``
    writes it: the declared architecture's entries in file order, back to back.
    Any other layout, a truncation or a non-finite value raises CheckpointError."""
    with _open(path) as f:
        r = _Reader(f, path)
        config = _read_config(r)
        try:
            model_cfg = config_from_dict(ModelConfig, config["model"])
            moe_cfg = config_from_dict(MoEConfig, config["moe"]) if config.get("moe") else None
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path!r}: malformed config blob: {e}") from e
        model = assemble(model_cfg, moe_cfg,
                         lambda name, shape: Tensor(np.empty(shape, np.float32), requires_grad=True))
        expected = list(_file_entries(model))

        n_tensors, offset = r.u64("tensor count"), 0
        # entry by entry before the count is checked, so that a missing entry is named
        for i, (name, out) in enumerate(expected[:n_tensors]):
            try:
                found = r.take(r.u64("name length"), "tensor {} name", i).decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"{path!r}: tensor {i} name is not UTF-8: {e}") from e
            if found != name:
                raise CheckpointError(f"{path!r}: tensor {i} is {found!r}, expected {name!r}")
            dtype_code, rank = struct.unpack("<BB", r.take(2, "{} dtype/rank", name))
            if dtype_code != DTYPE_FLOAT32:
                raise CheckpointError(
                    f"{path!r}: tensor {name!r} has unknown dtype code {dtype_code}")
            dims = struct.unpack(f"<{rank}Q", r.take(8 * rank, "{} dims", name))
            if dims != out.shape:
                raise CheckpointError(
                    f"{path!r}: tensor {name!r} has shape {dims}, expected {out.shape}")
            if (start := r.u64("{} offset", name)) != offset:
                raise CheckpointError(
                    f"{path!r}: tensor {name!r} starts at byte {start} of the data section, "
                    f"expected {offset}: tensors lie back to back, with no gap or overlap")
            offset += out.nbytes
        if n_tensors != len(expected):
            raise CheckpointError(f"{path!r}: the file lists {n_tensors} tensors, "
                                  f"the declared architecture has {len(expected)}")
        if (data_len := r.u64("data length")) != offset:
            raise CheckpointError(
                f"{path!r}: data section of {data_len} bytes, the tensors take {offset}")
        for name, out in expected:  # fill the model's buffers from the file
            if r.take(out.nbytes, "{} data", name, into=out) != out.nbytes:
                raise CheckpointError(f"{path!r}: tensor {name!r} ended early: the file shrank")
            if sys.byteorder == "big":  # the file holds little-endian floats
                out.byteswap(inplace=True)
            if not np.isfinite(out).all():
                raise CheckpointError(f"{path!r}: tensor {name!r} holds non-finite values")
        if r.pos != r.size:
            raise CheckpointError(f"{path!r}: {r.size - r.pos} bytes after the data section")
    return model
