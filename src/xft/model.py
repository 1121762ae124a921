"""Tiny decoder-only transformer with pluggable feed-forward slots.

Each layer is a pre-norm causal attention sublayer followed by a
feed-forward slot. The slot consumes the attention sublayer's output
directly and supplies its own residual, so a slot can hold either a plain
FFN or an MoE layer without changing the surrounding wiring. The slot kind
is uniform across a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from xft import tensor as tn
from xft.tensor import Tensor


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 256

    def __post_init__(self):
        for field in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive, got {getattr(self, field)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "d_model": self.d_model,
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "d_ff": self.d_ff,
            "max_seq_len": self.max_seq_len,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{k: int(d[k]) for k in (
            "vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len")})


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class AttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


@dataclass
class FFNWeights:
    """One feed-forward (expert) weight set: up-projection, GELU, down-projection."""

    w_up: Tensor    # [d_model, d_ff]
    b_up: Tensor    # [d_ff]
    w_down: Tensor  # [d_ff, d_model]
    b_down: Tensor  # [d_model]

    def tensors(self) -> dict[str, Tensor]:
        return {"w_up": self.w_up, "b_up": self.b_up, "w_down": self.w_down, "b_down": self.b_down}


@dataclass
class Block:
    ln1: LayerNormParams
    attn: AttentionParams
    slot: object  # FFNWeights, or any object with forward(u) -> (Tensor, routing record)


def ffn_forward(u: Tensor, w: FFNWeights, activation: Callable[[Tensor], Tensor] = tn.gelu) -> Tensor:
    """down(act(up(u))) with biases; the caller adds any residual."""
    return activation(u @ w.w_up + w.b_up) @ w.w_down + w.b_down


def _segment_bounds(bounds, n: int) -> np.ndarray:
    """Validated segment offsets 0 = b_0 < b_1 < ... < b_S = n; one segment
    when ``bounds`` is None."""
    if bounds is None:
        return np.array([0, n], dtype=np.intp)
    b = np.asarray(bounds, dtype=np.intp)
    if b.ndim != 1 or b.size < 2 or b[0] != 0 or b[-1] != n or (np.diff(b) <= 0).any():
        raise ValueError(f"segment bounds must rise from 0 to {n}, got {np.asarray(bounds).tolist()}")
    return b


def attention_forward(u: Tensor, block: Block, cfg: ModelConfig, bounds=None) -> Tensor:
    """Pre-norm multi-head causal self-attention, residual included.

    ``u`` holds packed segments split at ``bounds`` (one segment when None).
    A position attends only to earlier-or-equal positions of its own segment;
    masked attention weights are exactly zero, so outputs at position t are
    bit-identical under perturbations of later tokens or of other segments.
    """
    bounds = _segment_bounds(bounds, u.shape[0])
    longest = int(np.diff(bounds).max())
    if longest > cfg.max_seq_len:
        raise ValueError(f"sequence length {longest} exceeds max_seq_len {cfg.max_seq_len}")
    x = tn.layer_norm(u, block.ln1.gain, block.ln1.bias)
    q = x @ block.attn.wq + block.attn.bq
    k = x @ block.attn.wk + block.attn.bk
    v = x @ block.attn.wv + block.attn.bv
    heads = tn.causal_attention(q, k, v, bounds, cfg.n_heads)
    return u + (heads @ block.attn.wo + block.attn.bo)


# Rows per packed forward when scoring a dataset: bounds memory on large inputs.
EVAL_PACK_TOKENS = 512


def pack_sequences(sequences) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate 1-d sequences: (flat [sum T], bounds [B + 1])."""
    lengths = [len(s) for s in sequences]
    bounds = np.concatenate(([0], np.cumsum(lengths))).astype(np.intp)
    return np.concatenate([np.asarray(s) for s in sequences]), bounds


def token_chunks(items, budget: int, length=len):
    """Consecutive runs of ``items`` whose lengths sum to at most ``budget``
    (a single longer item forms its own run)."""
    chunk, total = [], 0
    for item in items:
        n = length(item)
        if chunk and total + n > budget:
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += n
    if chunk:
        yield chunk


class Transformer:
    """Decoder-only transformer; slots hold either FFNWeights or MoE layers."""

    def __init__(self, cfg: ModelConfig, tok_emb: Tensor, pos_emb: Tensor,
                 blocks: list[Block], ln_f: LayerNormParams, unembed: Tensor):
        self.cfg = cfg
        self.tok_emb = tok_emb      # [vocab, d_model]
        self.pos_emb = pos_emb      # [max_seq_len, d_model]
        self.blocks = blocks
        self.ln_f = ln_f
        self.unembed = unembed      # [d_model, vocab]

    @property
    def is_moe(self) -> bool:
        return not isinstance(self.blocks[0].slot, FFNWeights)

    @property
    def moe_cfg(self):
        """The MoE layers' ``MoEConfig``; None for a dense model."""
        return self.blocks[0].slot.cfg if self.is_moe else None

    def _check_tokens(self, tokens, bounds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated (token ids, positions, bounds); positions restart per segment."""
        idx = np.asarray(tokens, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("tokens must be a nonempty 1-d sequence")
        bounds = _segment_bounds(bounds, idx.size)
        lengths = np.diff(bounds)
        if lengths.max() > self.cfg.max_seq_len:
            raise ValueError(
                f"sequence length {lengths.max()} exceeds max_seq_len {self.cfg.max_seq_len}")
        if idx.min() < 0 or idx.max() >= self.cfg.vocab_size:
            raise ValueError(f"token ids must lie in [0, {self.cfg.vocab_size})")
        positions = np.arange(idx.size) - np.repeat(bounds[:-1], lengths)
        return idx, positions, bounds

    def hidden(self, tokens, bounds=None):
        """Final hidden states [T, d_model] and per-layer routing records
        (None for dense layers). ``tokens`` may pack several sequences split
        at ``bounds``; each is processed as if it were alone."""
        idx, positions, bounds = self._check_tokens(tokens, bounds)
        x = tn.gather_rows(self.tok_emb, idx) + tn.gather_rows(self.pos_emb, positions)
        routing = []
        for block in self.blocks:
            u = attention_forward(x, block, self.cfg, bounds)
            if isinstance(block.slot, FFNWeights):
                x = u + ffn_forward(u, block.slot)
                routing.append(None)
            else:
                x, record = block.slot.forward(u)
                routing.append(record)
        return x, routing

    def logits(self, tokens, bounds=None) -> Tensor:
        h, _ = self.hidden(tokens, bounds)
        return tn.layer_norm(h, self.ln_f.gain, self.ln_f.bias) @ self.unembed

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {"tok_emb": self.tok_emb, "pos_emb": self.pos_emb}
        for i, block in enumerate(self.blocks):
            prefix = f"layers.{i}"
            params[f"{prefix}.ln1.gain"] = block.ln1.gain
            params[f"{prefix}.ln1.bias"] = block.ln1.bias
            for name, tensor in vars(block.attn).items():
                params[f"{prefix}.attn.{name}"] = tensor
            if isinstance(block.slot, FFNWeights):
                for name, tensor in block.slot.tensors().items():
                    params[f"{prefix}.ffn.{name}"] = tensor
            else:
                for name, tensor in block.slot.named_tensors():
                    params[f"{prefix}.moe.{name}"] = tensor
        params["ln_f.gain"] = self.ln_f.gain
        params["ln_f.bias"] = self.ln_f.bias
        params["unembed"] = self.unembed
        return params

    def theta_o_names(self) -> list[str]:
        """Names of all parameters outside the feed-forward slots."""
        return [n for n in self.named_parameters()
                if ".ffn." not in n and ".moe." not in n]

    def copy(self, dtype=None, share_data: bool = False, requires_grad: bool | None = None) -> "Transformer":
        """Structural copy. ``share_data`` aliases the underlying buffers
        (used to build frozen views); otherwise buffers are copied."""
        params = self.named_parameters()

        def conv(name: str, shape) -> Tensor:
            t = params[name]
            data = t.data
            if dtype is not None:
                data = data.astype(dtype)
            elif not share_data:
                data = data.copy()
            rg = t.requires_grad if requires_grad is None else requires_grad
            return Tensor(data, requires_grad=rg)

        return assemble(self.cfg, self.moe_cfg, conv)


def assemble(cfg: ModelConfig, moe_cfg, tensor) -> Transformer:
    """The model whose parameter named ``name`` is ``tensor(name, shape)``, with
    names as in ``Transformer.named_parameters``: the one place that nests
    tensors into blocks and slots. Seeded rules draw in request order: per layer
    attention, slot, ln1; then tok_emb, pos_emb, ln_f, unembed."""
    from xft.moe import MoELayer  # xft.moe imports this module

    d, f = cfg.d_model, cfg.d_ff

    def ln(prefix):
        return LayerNormParams(tensor(f"{prefix}.gain", (d,)), tensor(f"{prefix}.bias", (d,)))

    def ffn(prefix):
        return FFNWeights(tensor(f"{prefix}.w_up", (d, f)), tensor(f"{prefix}.b_up", (f,)),
                          tensor(f"{prefix}.w_down", (f, d)), tensor(f"{prefix}.b_down", (d,)))

    blocks = []
    for i in range(cfg.n_layers):
        prefix = f"layers.{i}"
        attn = AttentionParams(**{
            key: tensor(f"{prefix}.attn.{key}", (d, d) if key[0] == "w" else (d,))
            for key in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")})
        if moe_cfg is None:
            slot = ffn(f"{prefix}.ffn")
        else:
            experts = [ffn(f"{prefix}.moe.experts.{e}") for e in range(moe_cfg.n_experts)]
            slot = MoELayer(experts, tensor(f"{prefix}.moe.centroids", (moe_cfg.n_experts, d)),
                            moe_cfg)
        blocks.append(Block(ln(f"{prefix}.ln1"), attn, slot))
    return Transformer(cfg, tensor("tok_emb", (cfg.vocab_size, d)),
                       tensor("pos_emb", (cfg.max_seq_len, d)), blocks, ln("ln_f"),
                       tensor("unembed", (d, cfg.vocab_size)))


def build_dense_model(cfg: ModelConfig, seed: int = 0, init_std: float = 0.08) -> Transformer:
    """Weights drawn from N(0, init_std) under ``seed``; gains 1, biases 0."""
    rng = np.random.default_rng(seed)

    def tensor(name: str, shape) -> Tensor:
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            data = np.ones(shape)
        elif leaf[0] == "b":
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, init_std, size=shape)
        return Tensor(data.astype(np.float32), requires_grad=True)

    return assemble(cfg, None, tensor)


def model_forward_loss(model: Transformer, tokens, loss_mask, bounds=None,
                       per_token: bool = False) -> tuple[Tensor, Tensor]:
    """Masked next-token cross-entropy over one or more packed sequences.

    ``loss_mask`` aligns with ``tokens``: mask[i] = 1 marks token i as a
    prediction target (scored from position i-1 of the same sequence).
    ``bounds`` splits the packed tokens into sequences (one when None). The
    loss is the mean over sequences of each sequence's masked mean, or with
    ``per_token`` the mean over all masked targets. Returns the packed logits
    [sum (T_i - 1), vocab] and the scalar loss.
    """
    tokens = np.asarray(tokens, dtype=np.intp)
    mask = np.asarray(loss_mask, dtype=np.float64)
    if mask.shape != tokens.shape:
        raise ValueError(f"loss_mask length {mask.size} != token length {tokens.size}")
    bounds = _segment_bounds(bounds, tokens.size)
    if (np.diff(bounds) < 2).any():
        raise ValueError("need at least two tokens for next-token loss")
    # inputs drop each sequence's last token, targets its first
    is_input = np.ones(tokens.size, dtype=bool)
    is_input[bounds[1:] - 1] = False
    is_target = np.ones(tokens.size, dtype=bool)
    is_target[bounds[:-1]] = False
    target_mask = mask[is_target]
    in_bounds = bounds - np.arange(bounds.size)
    n_targets = np.add.reduceat(target_mask, in_bounds[:-1])
    if (n_targets == 0).any():
        raise ValueError("loss_mask selects no target positions")
    if per_token:
        weights = target_mask / target_mask.sum()
    else:
        weights = target_mask / np.repeat(n_targets * n_targets.size, np.diff(in_bounds))

    logits = model.logits(tokens[is_input], in_bounds)
    logp = tn.log_softmax(logits, axis=-1)
    picked = tn.take_along_rows(logp, tokens[is_target][:, None])
    loss = -(picked * Tensor(weights[:, None].astype(logits.data.dtype))).sum()
    return logits, loss


def generate_greedy(model: Transformer, prompt, max_new: int) -> list[int]:
    """Append argmax tokens; ties break toward the lower token id."""
    seq = [int(t) for t in prompt]
    if not seq:
        raise ValueError("prompt must be nonempty")
    if len(seq) > model.cfg.max_seq_len:
        raise ValueError(f"prompt length {len(seq)} exceeds max_seq_len {model.cfg.max_seq_len}")
    with tn.no_grad():
        for _ in range(max_new):
            if len(seq) >= model.cfg.max_seq_len:
                break
            logits = model.logits(seq)
            seq.append(int(np.argmax(logits.data[-1])))
    return seq
