"""Tiny decoder-only transformer with pluggable feed-forward slots.

Each layer is a pre-norm causal attention sublayer followed by a
feed-forward slot. The slot consumes the attention sublayer's output
directly and supplies its own residual, so a slot can hold either a plain
FFN or an MoE layer without changing the surrounding wiring. The slot kind
is uniform across a model.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive, got {getattr(self, f.name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_CONFIG_KINDS = {"int": int, "bool": bool, "float": float}


def config_from_dict(cls, d: dict):
    """The config dataclass ``cls`` from ``d``, which holds each field with its
    declared type in JSON terms: an int that is not a bool, a bool, or for
    float any number that is not a bool; anything else is a TypeError."""
    values = {}
    for f in fields(cls):
        kind, value = _CONFIG_KINDS[f.type], d[f.name]
        if (isinstance(value, bool) != (kind is bool)
                or not isinstance(value, (int, float) if kind is float else kind)):
            raise TypeError(f"config field {f.name!r} must be {f.type}, got {value!r}")
        values[f.name] = kind(value)
    return cls(**values)


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
    """Up-projection, GELU, down-projection; an MoE layer's N experts stack on a first axis."""

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
    """down(act(up(u))) with biases, one ``tn.ffn`` node; the caller adds any
    residual. ``activation`` is a single tensor op (see ``tn.ffn``)."""
    return tn.ffn(u, w.w_up, w.b_up, w.w_down, w.b_down, activation)


def _segment_bounds(bounds, n: int) -> np.ndarray:
    """Validated segment offsets 0 = b_0 < b_1 < ... < b_S = n; one segment
    when ``bounds`` is None."""
    if bounds is None:
        return np.array([0, n], dtype=np.intp)
    b = np.asarray(bounds, dtype=np.intp)
    if b.ndim != 1 or b.size < 2 or b[0] != 0 or b[-1] != n or (np.diff(b) <= 0).any():
        raise ValueError(f"segment bounds must rise from 0 to {n}, got {np.asarray(bounds).tolist()}")
    return b


def attention_forward(u: Tensor, block: Block, cfg: ModelConfig, bounds=None,
                      cache=None) -> Tensor:
    """Pre-norm multi-head causal self-attention, residual included.

    ``u`` holds packed segments split at ``bounds`` (one segment when None),
    which ``tn.causal_attention`` checks; ``Transformer.hidden`` checks lengths.
    A position attends only to earlier-or-equal positions of its own segment;
    masked attention weights are exactly zero, so outputs at position t are
    bit-identical under perturbations of later tokens or of other segments.

    ``cache`` is this layer's (keys, values) for decoding: row views of
    positions 0 ... past + n - 1, where the n rows of ``u`` are the last n
    positions of one sequence. Their keys and values are written into the
    last n rows in place, and the queries attend to all of them.
    """
    if bounds is None:
        bounds = (0, u.shape[0])
    past = 0
    if cache is not None:  # one sequence's rows, which carry no graph
        if tn.grad_enabled():
            raise ValueError("a key/value cache is for inference: use it under tn.no_grad()")
        if len(bounds) != 2:
            raise ValueError(f"a key/value cache takes one segment, got {len(bounds) - 1}")
        past = cache[0].shape[0] - u.shape[0]
    x = tn.layer_norm(u, block.ln1.gain, block.ln1.bias)
    q = tn.linear(x, block.attn.wq, block.attn.bq)
    k = tn.linear(x, block.attn.wk, block.attn.bk)
    v = tn.linear(x, block.attn.wv, block.attn.bv)
    if cache is not None:
        keys, values = cache
        keys[past:], values[past:] = k.data, v.data
        k, v = Tensor(keys), Tensor(values)
    heads = tn.causal_attention(q, k, v, bounds, cfg.n_heads)
    return u + tn.linear(heads, block.attn.wo, block.attn.bo)


class KVCache:
    """Keys and values of the positions a model has run so far, for decoding
    one sequence incrementally: per layer, preallocated [max_seq_len, d_model]
    buffers written in place. ``length`` counts the valid rows; a forward
    advances it only after every layer has run, so a call that raises leaves
    the cache as it was."""

    def __init__(self, model: Transformer):
        cfg = model.cfg
        self.length = 0
        self.keys = np.zeros((cfg.n_layers, cfg.max_seq_len, cfg.d_model), model.tok_emb.dtype)
        self.values = np.zeros_like(self.keys)


# Rows per packed forward when scoring a dataset: bounds memory on large inputs.
EVAL_PACK_TOKENS = 512
INIT_STD = 0.08  # standard deviation of every initial weight matrix and embedding


def pack_sequences(sequences) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate 1-d sequences: (flat [sum T], bounds [B + 1])."""
    lengths = [len(s) for s in sequences]
    bounds = np.concatenate(([0], np.cumsum(lengths))).astype(np.intp)
    return np.concatenate([np.asarray(s) for s in sequences]), bounds


def pack_batch(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tokens, loss mask, bounds) of a list of (tokens, mask) examples."""
    tokens, bounds = pack_sequences([tokens for tokens, _ in batch])
    return tokens, np.concatenate([mask for _, mask in batch]), bounds


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

    def _check_tokens(self, tokens, bounds, past: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated (token ids, positions, bounds); positions restart per
        segment, and start at ``past`` for tokens that follow cached ones."""
        idx = np.asarray(tokens, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("tokens must be a nonempty 1-d sequence")
        bounds = _segment_bounds(bounds, idx.size)
        lengths = np.diff(bounds)
        if past + lengths.max() > self.cfg.max_seq_len:
            raise ValueError(f"sequence length {past + lengths.max()} exceeds "
                             f"max_seq_len {self.cfg.max_seq_len}")
        if idx.min() < 0 or idx.max() >= self.cfg.vocab_size:
            raise ValueError(f"token ids must lie in [0, {self.cfg.vocab_size})")
        positions = past + np.arange(idx.size) - np.repeat(bounds[:-1], lengths)
        return idx, positions, bounds

    def hidden(self, tokens, bounds=None, cache: KVCache | None = None, rows=None):
        """Final hidden states [T, d_model] and per-layer routing records
        (None for dense layers). ``tokens`` may pack several sequences split
        at ``bounds``; each is processed as if it were alone.

        With a ``cache`` (under ``tn.no_grad``), ``tokens`` are one sequence
        that continues the ``cache.length`` positions already run: only the
        new rows are computed and routed, their keys and values are appended
        to the cache, and they attend to the cached ones.

        ``rows`` (1-d indices into the T rows) keeps only those rows after the
        last block's attention, so the last slot runs and routes them alone and
        the result is [len(rows), d_model]: no row feeds another after that."""
        past = 0 if cache is None else cache.length
        idx, positions, bounds = self._check_tokens(tokens, bounds, past)
        if rows is not None:
            rows = np.asarray(rows, dtype=np.intp)
            if rows.ndim != 1 or ((rows < 0) | (rows >= idx.size)).any():
                raise ValueError(f"rows must be 1-d indices in [0, {idx.size})")
        x = tn.gather_rows(self.tok_emb, idx) + tn.gather_rows(self.pos_emb, positions)
        routing = []
        for i, block in enumerate(self.blocks):
            kv = None if cache is None else (cache.keys[i, :past + idx.size],
                                             cache.values[i, :past + idx.size])
            u = attention_forward(x, block, self.cfg, bounds, kv)
            if rows is not None and i == len(self.blocks) - 1:
                u = tn.gather_rows(u, rows)
            if isinstance(block.slot, FFNWeights):
                x = u + ffn_forward(u, block.slot)
                routing.append(None)
            else:
                x, record = block.slot.forward(u)
                routing.append(record)
        if cache is not None:
            cache.length = past + idx.size
        return x, routing

    def logits(self, tokens, bounds=None, cache: KVCache | None = None, rows=None) -> Tensor:
        """Next-token logits [T, vocab], or at ``rows`` only (see ``hidden``)."""
        h, _ = self.hidden(tokens, bounds, cache, rows)
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

    def batch_loss(self, batch) -> Tensor:
        """Mean over the (tokens, mask) examples of each one's masked mean loss."""
        return model_forward_loss(self, *pack_batch(batch))[1]

    def copy(self, dtype=None) -> "Transformer":
        """Structural copy with trainable leaves; buffers are copied, or
        converted to ``dtype`` when given."""
        params = self.named_parameters()

        def leaf(name: str, shape) -> Tensor:
            data = params[name].data
            return Tensor(data.copy() if dtype is None else data.astype(dtype), requires_grad=True)

        return assemble(self.cfg, self.moe_cfg, leaf)


def assemble(cfg: ModelConfig, moe_cfg, tensor) -> Transformer:
    """The model whose parameter named ``name`` is ``tensor(name, shape)``, with
    names as in ``Transformer.named_parameters``: the one place that nests
    tensors into blocks and slots. Seeded rules draw in request order: per layer
    attention, slot, ln1; then tok_emb, pos_emb, ln_f, unembed."""
    from xft.moe import MoELayer  # xft.moe imports this module

    d, f = cfg.d_model, cfg.d_ff

    def ln(prefix):
        return LayerNormParams(tensor(f"{prefix}.gain", (d,)), tensor(f"{prefix}.bias", (d,)))

    def ffn(prefix, *n):  # n: the expert count, for stacked expert weights
        shapes = {"w_up": (d, f), "b_up": (f,), "w_down": (f, d), "b_down": (d,)}
        return FFNWeights(*(tensor(f"{prefix}.{k}", (*n, *s)) for k, s in shapes.items()))

    blocks = []
    for i in range(cfg.n_layers):
        prefix = f"layers.{i}"
        attn = AttentionParams(**{
            key: tensor(f"{prefix}.attn.{key}", (d, d) if key[0] == "w" else (d,))
            for key in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")})
        if moe_cfg is None:
            slot = ffn(f"{prefix}.ffn")
        else:
            n = moe_cfg.n_experts
            slot = MoELayer(ffn(f"{prefix}.moe.experts", n),
                            tensor(f"{prefix}.moe.centroids", (n, d)), moe_cfg)
        blocks.append(Block(ln(f"{prefix}.ln1"), attn, slot))
    return Transformer(cfg, tensor("tok_emb", (cfg.vocab_size, d)),
                       tensor("pos_emb", (cfg.max_seq_len, d)), blocks, ln("ln_f"),
                       tensor("unembed", (d, cfg.vocab_size)))


def build_dense_model(cfg: ModelConfig, seed: int = 0) -> Transformer:
    """Weights drawn from N(0, INIT_STD) under ``seed``; gains 1, biases 0."""
    rng = np.random.default_rng(seed)

    def tensor(name: str, shape) -> Tensor:
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            data = np.ones(shape)
        elif leaf[0] == "b":
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, INIT_STD, size=shape)
        return Tensor(data.astype(np.float32), requires_grad=True)

    return assemble(cfg, None, tensor)


def model_forward_loss(model: Transformer, tokens, loss_mask, bounds=None,
                       per_token: bool = False) -> tuple[Tensor, Tensor]:
    """Masked next-token cross-entropy over one or more packed sequences.

    ``loss_mask`` aligns with ``tokens``: mask[i] = 1 marks token i as a
    prediction target (scored from position i-1 of the same sequence).
    ``bounds`` splits the packed tokens into sequences (one when None). The
    loss is the mean over sequences of each sequence's masked mean, or with
    ``per_token`` the mean over all masked targets. Only the scored rows pass
    the last slot and the output head. Returns their logits [n scored, vocab],
    in packed order, and the scalar loss.
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

    rows = np.flatnonzero(target_mask)
    logits = model.logits(tokens[is_input], in_bounds, rows=rows)
    nll = tn.nll(logits, tokens[is_target][rows])
    loss = (nll * Tensor(weights[rows, None].astype(logits.data.dtype))).sum()
    return logits, loss


def generate_greedy(model: Transformer, prompt, max_new: int) -> list[int]:
    """Append argmax tokens; ties break toward the lower token id. The prompt
    runs once, then each step runs only the newest token against a
    ``KVCache``, so a request costs O(n) rows rather than O(n^2); only the
    newest row passes the last slot and the output head."""
    seq = [int(t) for t in prompt]
    if not seq:
        raise ValueError("prompt must be nonempty")
    if max_new < 0:
        raise ValueError(f"max_new must be non-negative, got {max_new}")
    if len(seq) > model.cfg.max_seq_len:
        raise ValueError(f"prompt length {len(seq)} exceeds max_seq_len {model.cfg.max_seq_len}")
    with tn.no_grad():
        cache = KVCache(model)
        new, rows = seq, [len(seq) - 1]  # a one-token step's only row is the newest
        for _ in range(max_new):
            if len(seq) >= model.cfg.max_seq_len:
                break
            logits = model.logits(new, cache=cache, rows=rows)
            seq.append(int(np.argmax(logits.data[-1])))
            new, rows = seq[-1:], None
    return seq
