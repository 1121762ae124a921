"""Checkpoint round trips, format validation, and dataset parsing."""

import dataclasses
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_expert_parameters
from xft import tensor as tn
from xft.checkpoint import (
    MAGIC,
    CheckpointError,
    atomic_write,
    load_checkpoint,
    read_checkpoint_config,
    save_checkpoint,
)
from xft.cli import EXIT_IO, cli_dispatch
from xft.dataset import DatasetError, load_instruction_dataset, save_instruction_dataset
from xft.model import ModelConfig, build_dense_model
from xft.moe import MoEConfig, upcycle_dense_to_moe
from xft.train import InstructionExample


def desk_cfg(**overrides) -> ModelConfig:
    base = dict(vocab_size=259, d_model=64, n_layers=2, n_heads=4, d_ff=256, max_seq_len=256)
    base.update(overrides)
    return ModelConfig(**base)


def small_cfg() -> ModelConfig:
    return ModelConfig(vocab_size=31, d_model=16, n_layers=2, n_heads=2, d_ff=20, max_seq_len=16)


class TestCheckpointRoundTrip:
    def test_dense_round_trip_bit_identical(self, tmp_path):
        model = build_dense_model(small_cfg(), seed=4)
        path = str(tmp_path / "dense.xftc")
        save_checkpoint(model, path, meta={"phase": "init", "seed": 4})
        loaded = load_checkpoint(path)
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.data, loaded.named_parameters()[name].data), name
        assert not loaded.is_moe

    def test_moe_round_trip_bit_identical(self, tmp_path):
        moe = upcycle_dense_to_moe(build_dense_model(small_cfg(), seed=4),
                                   MoEConfig(n_experts=4, top_k=3), seed=5)
        path = str(tmp_path / "moe.xftc")
        save_checkpoint(moe, path)
        loaded = load_checkpoint(path)
        assert loaded.is_moe
        assert loaded.blocks[0].slot.cfg == moe.blocks[0].slot.cfg
        for name, p in moe.named_parameters().items():
            assert np.array_equal(p.data, loaded.named_parameters()[name].data), name

    def test_file_bytes_follow_the_layout(self, tmp_path):
        # magic, version, config blob, the tensor directory, then every tensor's
        # little-endian float32 bytes in directory order; an MoE layer's experts
        # are one entry per expert and weight, expert by expert
        moe = upcycle_dense_to_moe(build_dense_model(small_cfg(), seed=4),
                                   MoEConfig(n_experts=4, top_k=3), seed=5)
        for t in moe.named_parameters().values():  # distinct experts
            t.data += np.linspace(-1.0, 1.0, t.size, dtype=np.float32).reshape(t.shape)
        path = tmp_path / "moe.xftc"
        save_checkpoint(moe, str(path), meta={"phase": "upcycled"})
        blob = json.dumps({"model": moe.cfg.to_dict(), "moe": moe.moe_cfg.to_dict(),
                           "meta": {"phase": "upcycled"}},
                          sort_keys=True, separators=(",", ":")).encode("utf-8")
        entries = list(per_expert_parameters(moe))
        assert [name for name, _ in entries[11:16]] == [
            "layers.0.attn.bo", "layers.0.moe.centroids", "layers.0.moe.experts.0.w_up",
            "layers.0.moe.experts.0.b_up", "layers.0.moe.experts.0.w_down"]
        assert entries[17][0] == "layers.0.moe.experts.1.w_up" and entries[17][1].shape == (16, 20)
        assert len(entries) == 2 + 2 * (11 + 4 * 4) + 3
        directory, data = b"", b""
        for name, p in entries:
            directory += struct.pack("<Q", len(name)) + name.encode("utf-8")
            directory += struct.pack(f"<BB{p.ndim}QQ", 0, p.ndim, *p.shape, len(data))
            data += p.data.astype("<f4").tobytes()
        expected = (MAGIC + struct.pack("<IQ", 1, len(blob)) + blob
                    + struct.pack("<Q", len(entries)) + directory
                    + struct.pack("<Q", len(data)) + data)
        assert path.read_bytes() == expected

    # written before the MoE layer stacked its experts (``tests/data``): a tiny
    # upcycled MoE whose experts were perturbed one by one, one weight -0.0
    PINNED_FILE = Path(__file__).parent / "data" / "upcycled_perturbed.xftc"
    PINNED_SHA256 = "ea516d915f78de62dc6831850413de66a0a21c99edc5846554259050278b4d1d"

    def test_file_from_the_per_expert_layout_resaves_byte_identically(self, tmp_path):
        raw = self.PINNED_FILE.read_bytes()
        assert hashlib.sha256(raw).hexdigest() == self.PINNED_SHA256
        model = load_checkpoint(str(self.PINNED_FILE))
        assert model.blocks[1].slot.weights.b_down.data.shape == (3, 4)
        assert np.signbit(model.blocks[1].slot.weights.b_down.data[2, 1])
        path = tmp_path / "again.xftc"
        save_checkpoint(model, str(path), meta=read_checkpoint_config(str(self.PINNED_FILE))["meta"])
        assert path.read_bytes() == raw

    def test_repeated_save_byte_identical(self, tmp_path):
        model = build_dense_model(small_cfg(), seed=7)
        a, b = str(tmp_path / "a.xftc"), str(tmp_path / "b.xftc")
        save_checkpoint(model, a, meta={"phase": "init", "seed": 7})
        save_checkpoint(model, b, meta={"phase": "init", "seed": 7})
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_kind_distinguished_by_config_blob(self, tmp_path):
        dense = build_dense_model(small_cfg(), seed=1)
        moe = upcycle_dense_to_moe(dense, MoEConfig(4, 2), seed=2)
        dp, mp = str(tmp_path / "d.xftc"), str(tmp_path / "m.xftc")
        save_checkpoint(dense, dp)
        save_checkpoint(moe, mp)
        assert read_checkpoint_config(dp)["moe"] is None
        assert read_checkpoint_config(mp)["moe"]["n_experts"] == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite_and_writes_nothing(self, tmp_path, value):
        model = build_dense_model(small_cfg(), seed=4)
        model.blocks[1].attn.bk.data[3] = value
        path = tmp_path / "bad.xftc"
        with pytest.raises(CheckpointError, match="'layers.1.attn.bk' holds non-finite"):
            save_checkpoint(model, str(path))
        assert not path.exists()
        assert not list(tmp_path.iterdir())

    def test_written_files_take_the_mode_open_would_give(self, tmp_path):
        umask = os.umask(0o027)
        try:
            save_checkpoint(build_dense_model(small_cfg(), seed=0), str(tmp_path / "m.xftc"))
            with atomic_write(str(tmp_path / "c.json")) as f:
                f.write("{}\n")
        finally:
            os.umask(umask)
        assert {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()} == {
            "m.xftc": 0o640, "c.json": 0o640}

    def test_meta_round_trip(self, tmp_path):
        path = str(tmp_path / "m.xftc")
        save_checkpoint(build_dense_model(small_cfg(), seed=0), path,
                        meta={"phase": "merged", "shared_rate": 0.75, "seed": 3})
        meta = read_checkpoint_config(path)["meta"]
        assert meta == {"phase": "merged", "shared_rate": 0.75, "seed": 3}

    def test_desk_scale_tensor_count(self, tmp_path):
        # embeddings (2) + per layer: 2 layer-norm + 8 attention + 4 FFN (x2)
        # + final norm (2) + unembedding (1) = 33 named tensors
        model = build_dense_model(desk_cfg(), seed=0)
        assert len(model.named_parameters()) == 33
        path = str(tmp_path / "desk.xftc")
        save_checkpoint(model, path)
        assert len(load_checkpoint(path).named_parameters()) == 33

    def test_desk_scale_moe_tensor_count(self, tmp_path):
        # 33 dense tensors, each layer's 4 FFN tensors replaced by the centroids
        # and 4 stacked expert tensors: 35; the file holds 4 entries per expert
        moe = upcycle_dense_to_moe(build_dense_model(desk_cfg(), seed=0), MoEConfig(), seed=1)
        assert len(moe.named_parameters()) == 35
        assert moe.named_parameters()["layers.1.moe.experts.w_down"].shape == (8, 256, 64)
        path = str(tmp_path / "desk-moe.xftc")
        save_checkpoint(moe, path)
        raw = Path(path).read_bytes()
        (blob_length,) = struct.unpack_from("<Q", raw, 8)
        assert struct.unpack_from("<Q", raw, 16 + blob_length) == (2 + 2 * (2 + 8 + 1 + 4 * 8) + 3,)
        assert len(load_checkpoint(path).named_parameters()) == 35

    def test_cross_load_preserves_init_equivalence(self, tmp_path):
        cfg = small_cfg()
        dense = build_dense_model(cfg, seed=11)
        moe = upcycle_dense_to_moe(dense, MoEConfig(4, 3), seed=12)
        dp, mp = str(tmp_path / "d.xftc"), str(tmp_path / "m.xftc")
        save_checkpoint(dense, dp)
        save_checkpoint(moe, mp)
        dense2, moe2 = load_checkpoint(dp), load_checkpoint(mp)
        rng = np.random.default_rng(0)
        with tn.no_grad():
            for _ in range(5):
                tokens = rng.integers(0, cfg.vocab_size, size=7).tolist()
                diff = np.abs(moe2.logits(tokens).data - dense2.logits(tokens).data).max()
                assert diff < 1e-5


class TestCheckpointValidation:
    def write_valid(self, tmp_path) -> str:
        path = str(tmp_path / "v.xftc")
        save_checkpoint(build_dense_model(small_cfg(), seed=2), path)
        return path

    def test_wrong_magic_rejected(self, tmp_path):
        path = self.write_valid(tmp_path)
        raw = bytearray(Path(path).read_bytes())
        raw[:4] = b"NOPE"
        Path(path).write_bytes(raw)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = self.write_valid(tmp_path)
        raw = bytearray(Path(path).read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        Path(path).write_bytes(raw)
        with pytest.raises(CheckpointError, match="version 9"):
            load_checkpoint(path)

    def test_truncated_data_rejected_with_byte_counts(self, tmp_path):
        path = self.write_valid(tmp_path)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-257])
        with pytest.raises(CheckpointError, match=r"truncated.*bytes"):
            load_checkpoint(path)

    def test_not_a_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "missing.xftc"))

    def test_magic_constant(self):
        assert MAGIC == b"XFTC"

    def test_garbage_config_rejected(self, tmp_path):
        path = str(tmp_path / "g.xftc")
        blob = b'{"malformed": true}'
        payload = MAGIC + struct.pack("<I", 1) + struct.pack("<Q", len(blob)) + blob
        Path(path).write_bytes(payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def checkpoint_bytes(config: dict, entries, data: bytes) -> bytes:
    """An XFTC file from (name, shape, offset) directory entries."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = MAGIC + struct.pack("<I", 1) + struct.pack("<Q", len(blob)) + blob
    out += struct.pack("<Q", len(entries))
    for name, shape, offset in entries:
        encoded = name.encode("utf-8")
        out += struct.pack("<Q", len(encoded)) + encoded + struct.pack("<BB", 0, len(shape))
        out += struct.pack(f"<{len(shape)}Q", *shape) + struct.pack("<Q", offset)
    return out + struct.pack("<Q", len(data)) + data


# (section, field, value of the wrong JSON type): at least one per config field
WRONG_TYPE_CASES = [
    ("moe", "normalization_enabled", "false"),
    ("moe", "normalization_enabled", 0),
    ("moe", "n_experts", 4.7),
    ("moe", "top_k", True),
    ("moe", "router_init_std", "0.02"),
    ("model", "vocab_size", False),
    ("model", "d_model", 8.9),
    ("model", "n_layers", "2"),
    ("model", "n_heads", 2.0),
    ("model", "d_ff", None),
    ("model", "max_seq_len", [48]),
]


class TestCheckpointDirectory:
    """Each structural defect of the tensor directory raises CheckpointError."""

    def parts(self):
        model = upcycle_dense_to_moe(build_dense_model(small_cfg(), seed=3), MoEConfig(4, 3),
                                     seed=4)
        config = {"model": model.cfg.to_dict(), "moe": model.blocks[0].slot.cfg.to_dict(),
                  "meta": {}}
        entries, data = [], b""
        for name, p in per_expert_parameters(model):
            entries.append((name, p.shape, len(data)))
            data += p.data.astype("<f4").tobytes()
        return model, config, entries, data

    def load(self, tmp_path, config, entries, data):
        path = str(tmp_path / "c.xftc")
        Path(path).write_bytes(checkpoint_bytes(config, entries, data))
        return load_checkpoint(path)

    def test_builder_matches_saved_file(self, tmp_path):
        model, config, entries, data = self.parts()
        path = str(tmp_path / "saved.xftc")
        save_checkpoint(model, path)
        assert Path(path).read_bytes() == checkpoint_bytes(config, entries, data)

    def test_duplicate_tensor_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        with pytest.raises(CheckpointError,
                           match="lists 60 tensors, the declared architecture has 59"):
            self.load(tmp_path, config, entries + entries[:1], data)

    def test_overlapping_tensors_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        name, shape, _ = entries[1]
        entries[1] = (name, shape, entries[0][2])
        with pytest.raises(CheckpointError,
                           match="'pos_emb' starts at byte 0 .* expected 1984: .* no gap or overlap"):
            self.load(tmp_path, config, entries, data)

    def test_tensor_beyond_data_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        name, shape, _ = entries[-1]
        entries[-1] = (name, shape, len(data) - 4)
        with pytest.raises(CheckpointError,
                           match=f"{name!r} starts at byte {len(data) - 4} of the data section, "
                                 f"expected {len(data) - 4 * math.prod(shape)}"):
            self.load(tmp_path, config, entries, data)

    def test_missing_tensor_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        with pytest.raises(CheckpointError, match="tensor 49 is 'layers.1.moe.experts.2.w_down', "
                                                  "expected 'layers.1.moe.experts.2.b_up'"):
            self.load(tmp_path, config,
                      [e for e in entries if e[0] != "layers.1.moe.experts.2.b_up"], data)

    def test_swapped_entries_rejected(self, tmp_path):
        """Two valid entries, offsets and all, in each other's place: the file
        order is part of the format."""
        _, config, entries, data = self.parts()
        i = next(i for i, e in enumerate(entries) if e[0] == "layers.0.moe.experts.1.b_up")
        entries[i], entries[i + 1] = entries[i + 1], entries[i]
        with pytest.raises(CheckpointError, match=f"tensor {i} is 'layers.0.moe.experts.1.w_down', "
                                                  "expected 'layers.0.moe.experts.1.b_up'"):
            self.load(tmp_path, config, entries, data)

    def test_gap_before_tensor_rejected(self, tmp_path):
        """Four bytes between two tensors, every later offset moved past them."""
        _, config, entries, data = self.parts()
        i = next(i for i, e in enumerate(entries) if e[0] == "layers.1.attn.wv")
        start = entries[i][2]
        entries[i:] = [(name, shape, offset + 4) for name, shape, offset in entries[i:]]
        with pytest.raises(CheckpointError, match=f"'layers.1.attn.wv' starts at byte {start + 4} "
                                                  f"of the data section, expected {start}"):
            self.load(tmp_path, config, entries, data[:start] + bytes(4) + data[start:])

    def test_bytes_after_data_section_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        path = tmp_path / "c.xftc"
        path.write_bytes(checkpoint_bytes(config, entries, data) + bytes(3))
        with pytest.raises(CheckpointError, match="3 bytes after the data section"):
            load_checkpoint(str(path))

    def test_duplicate_expert_entry_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        dup = next(e for e in entries if e[0] == "layers.0.moe.experts.3.w_down")
        with pytest.raises(CheckpointError,
                           match="lists 60 tensors, the declared architecture has 59"):
            self.load(tmp_path, config, entries + [dup], data)

    def test_misshaped_expert_entry_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        i = next(i for i, e in enumerate(entries) if e[0] == "layers.1.moe.experts.2.w_up")
        entries[i] = (entries[i][0], (20, 16), entries[i][2])
        with pytest.raises(CheckpointError,
                           match=r"'layers.1.moe.experts.2.w_up' has shape \(20, 16\), "
                                 r"expected \(16, 20\)"):
            self.load(tmp_path, config, entries, data)

    def test_non_finite_expert_entry_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        _, _, offset = next(e for e in entries if e[0] == "layers.1.moe.experts.3.b_up")
        bad = np.frombuffer(data, dtype="<f4").copy()
        bad[offset // 4 + 7] = np.nan
        with pytest.raises(CheckpointError, match="'layers.1.moe.experts.3.b_up' holds non-finite"):
            self.load(tmp_path, config, entries, bad.tobytes())

    def test_unexpected_tensor_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        extra = [("layers.0.moe.experts.9.b_up", (4,), len(data))]
        with pytest.raises(CheckpointError,
                           match="lists 60 tensors, the declared architecture has 59"):
            self.load(tmp_path, config, entries + extra, data + bytes(16))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_only_the_written_layout_loads(self, tmp_path_factory, data):
        """The writer's layout loads bit for bit; a swap of two entries, offsets
        and all, or a gap before any entry or after the last is rejected, and
        the message names the first defect in file order."""
        model, config, entries, blob = self.parts()
        path = tmp_path_factory.getbasetemp() / "layout.xftc"
        index = st.integers(0, len(entries) - 1)
        i, j = sorted((data.draw(index, label="swap"), data.draw(index, label="with")))
        gap_at = data.draw(st.integers(0, len(entries)), label="gap before entry")
        gap = data.draw(st.integers(0, 9), label="gap bytes")
        at = entries[gap_at][2] if gap_at < len(entries) else len(blob)
        moved = [(name, shape, offset + gap * (k >= gap_at))
                 for k, (name, shape, offset) in enumerate(entries)]
        moved[i], moved[j] = moved[j], moved[i]
        path.write_bytes(checkpoint_bytes(config, moved, blob[:at] + bytes(gap) + blob[at:]))
        if i != j and (not gap or i <= gap_at):  # the first defect in file order is named
            message = f"tensor {i} is {entries[j][0]!r}, expected {entries[i][0]!r}"
        elif gap and gap_at < len(entries):
            message = f"{entries[gap_at][0]!r} starts at byte {at + gap} of the data section"
        elif gap:
            message = f"data section of {len(blob) + gap} bytes, the tensors take {len(blob)}"
        else:
            loaded = load_checkpoint(str(path))
            for (name, a), (_, b) in zip(per_expert_parameters(model),
                                         per_expert_parameters(loaded), strict=True):
                assert a.data.tobytes() == b.data.tobytes(), name
            return
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(path))
        assert message in str(err.value)

    @pytest.mark.parametrize("section, field, value", WRONG_TYPE_CASES)
    def test_config_field_of_wrong_type_rejected(self, tmp_path, section, field, value):
        _, config, entries, data = self.parts()
        config[section] = dict(config[section], **{field: value})
        with pytest.raises(CheckpointError, match=field):
            self.load(tmp_path, config, entries, data)

    def test_every_config_field_has_a_wrong_type_case(self):
        declared = {(section, f.name) for section, cls in (("model", ModelConfig), ("moe", MoEConfig))
                    for f in dataclasses.fields(cls)}
        assert {(section, field) for section, field, _ in WRONG_TYPE_CASES} == declared

    def test_config_field_of_wrong_type_exits_2(self, tmp_path, capsys):
        _, config, entries, data = self.parts()
        config["moe"] = dict(config["moe"], normalization_enabled="false")
        path = tmp_path / "c.xftc"
        path.write_bytes(checkpoint_bytes(config, entries, data))
        assert cli_dispatch(["generate", "--ckpt", str(path), "--prompt", "hi"]) == EXIT_IO
        assert "normalization_enabled" in capsys.readouterr().err

    def test_dense_config_with_moe_tensors_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        with pytest.raises(CheckpointError, match="tensor 12 is 'layers.0.moe.centroids', "
                                                  "expected 'layers.0.ffn.w_up'"):
            self.load(tmp_path, dict(config, moe=None), entries, data)

    def test_shape_mismatch_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        i = next(i for i, e in enumerate(entries) if e[0] == "layers.0.attn.wq")
        d = config["model"]["d_model"]
        entries[i] = ("layers.0.attn.wq", (d // 2, 2 * d), entries[i][2])
        with pytest.raises(CheckpointError, match=r"'layers.0.attn.wq' has shape \(8, 32\)"):
            self.load(tmp_path, config, entries, data)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        _, config, entries, data = self.parts()
        bad = np.frombuffer(data, dtype="<f4").copy()
        bad[5] = value
        with pytest.raises(CheckpointError, match="'tok_emb' holds non-finite"):
            self.load(tmp_path, config, entries, bad.tobytes())

    def test_non_utf8_name_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        path = tmp_path / "c.xftc"
        raw = checkpoint_bytes(config, entries, data)
        path.write_bytes(raw.replace(b"tok_emb", b"tok\xffemb", 1))
        with pytest.raises(CheckpointError, match="tensor 0 name is not UTF-8"):
            load_checkpoint(str(path))

    def test_unknown_dtype_code_rejected(self, tmp_path):
        _, config, entries, data = self.parts()
        path = tmp_path / "c.xftc"
        raw = checkpoint_bytes(config, entries, data)
        path.write_bytes(raw.replace(b"tok_emb\x00\x02", b"tok_emb\x07\x02", 1))
        with pytest.raises(CheckpointError, match="'tok_emb' has unknown dtype code 7"):
            load_checkpoint(str(path))

    def test_config_read_stops_after_header(self, tmp_path):
        model, config, entries, data = self.parts()
        path = str(tmp_path / "head.xftc")
        save_checkpoint(model, path)
        blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
        head = Path(path).read_bytes()[:16 + len(blob)]
        Path(path).write_bytes(head)
        assert read_checkpoint_config(path) == config
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "moe.xftc"
    cfg = ModelConfig(vocab_size=5, d_model=2, n_layers=1, n_heads=1, d_ff=2, max_seq_len=3)
    save_checkpoint(upcycle_dense_to_moe(build_dense_model(cfg, seed=1), MoEConfig(2, 2),
                                         seed=2), str(path), meta={"phase": "upcycled"})
    return path


class TestCheckpointCorruption:
    """Any truncation or single-bit flip of a checkpoint either loads as a
    model with finite tensors or raises CheckpointError, nothing else."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), flip=st.booleans())
    def test_truncation_or_bit_flip(self, tiny_checkpoint, data, flip):
        raw = bytearray(tiny_checkpoint.read_bytes())
        if flip:
            bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
            raw[bit // 8] ^= 1 << (bit % 8)
        else:
            del raw[data.draw(st.integers(0, len(raw) - 1), label="length"):]
        path = tiny_checkpoint.with_name("corrupt.xftc")
        path.write_bytes(bytes(raw))
        try:
            model = load_checkpoint(str(path))
        except CheckpointError:
            return
        for name, p in model.named_parameters().items():
            assert np.isfinite(p.data).all(), name


class TestDataset:
    def write(self, tmp_path, text: str) -> str:
        path = str(tmp_path / "data.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def test_two_valid_lines_in_order(self, tmp_path):
        path = self.write(tmp_path, '{"instruction": "a", "output": "b"}\n'
                                     '{"instruction": "c", "output": "d"}\n')
        examples = load_instruction_dataset(path)
        assert [ex.instruction for ex in examples] == ["a", "c"]

    def test_missing_output_names_line(self, tmp_path):
        path = self.write(tmp_path, '{"instruction": "a", "output": "b"}\n'
                                     '{"instruction": "x"}\n')
        with pytest.raises(DatasetError, match=":2: missing field 'output'"):
            load_instruction_dataset(path)

    def test_trailing_newline_tolerated(self, tmp_path):
        path = self.write(tmp_path, '{"instruction": "a", "output": "b"}\n\n')
        assert len(load_instruction_dataset(path)) == 1

    def test_invalid_json_names_line(self, tmp_path):
        path = self.write(tmp_path, '{"instruction": "a", "output": "b"}\nnot json\n')
        with pytest.raises(DatasetError, match=":2: invalid JSON"):
            load_instruction_dataset(path)

    def test_unknown_fields_ignored(self, tmp_path):
        path = self.write(tmp_path, '{"instruction": "a", "output": "b", "tag": 3}\n')
        assert load_instruction_dataset(path)[0].output == "b"

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DatasetError, match="no examples"):
            load_instruction_dataset(path)

    def test_blank_field_names_line(self, tmp_path):
        path = self.write(tmp_path, '{"instruction": " ", "output": "b"}\n')
        with pytest.raises(DatasetError, match=":1:"):
            load_instruction_dataset(path)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "rt.jsonl")
        examples = [InstructionExample("ask", "tell"), InstructionExample("q", "a")]
        save_instruction_dataset(examples, path)
        assert load_instruction_dataset(path) == examples
