"""Supervised fine-tuning loop shared by the dense baseline, the upcycled
MoE, and the mixing-coefficient learning phase.

Training is strictly sequential and seeded: the same (model, data, hyper,
seed) produces bit-identical parameters. What gets trained is decided by the
adapter handed to ``sft_train``: a plain transformer trains everything, the
merge-phase adapter exposes only its mixing logits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from xft import tensor as tn
from xft.model import (
    EVAL_PACK_TOKENS,
    Transformer,
    model_forward_loss,
    pack_sequences,
    token_chunks,
)
from xft.tensor import Tensor


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainHyper:
    batch_size: int = 8
    peak_lr: float = 1e-3
    warmup_steps: int = 0
    epochs: int = 1
    seed: int = 0
    weight_decay: float = 0.01
    clip_norm: float = 1.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if self.epochs < 0 or self.warmup_steps < 0:
            raise ValueError("epochs and warmup_steps must be non-negative")


def lr_at_step(step: int, hyper: TrainHyper, total_steps: int) -> float:
    """Linear ramp 0 -> peak over warmup, then linear decay peak -> 0."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if step < hyper.warmup_steps:
        return hyper.peak_lr * step / hyper.warmup_steps
    return hyper.peak_lr * (total_steps - step) / (total_steps - hyper.warmup_steps)


class AdamW:
    """Adaptive-moment update with decoupled weight decay on matrices only."""

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient in {name!r} at update {self.t}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and p.data.ndim >= 2:
                update = update + self.weight_decay * p.data
            p.data -= lr * update


def clip_global_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint 2-norm is at most ``max_norm``."""
    sq = 0.0
    for p in params:
        if p.grad is not None:
            sq += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(sq)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class ByteTokenizer:
    """UTF-8 bytes 0..255 plus BOS/SEP/EOS specials."""

    BOS = 256
    SEP = 257
    EOS = 258
    vocab_size = 259

    def encode(self, text: str) -> list[int]:
        return list(text.encode("utf-8"))

    def decode(self, tokens) -> str:
        return bytes(t for t in tokens if t < 256).decode("utf-8", errors="replace")


@dataclass
class InstructionExample:
    instruction: str
    output: str

    def __post_init__(self):
        if not self.instruction.strip() or not self.output.strip():
            raise ValueError("instruction and output must be nonempty after trimming")


def tokenize_and_mask(ex: InstructionExample, tokenizer: ByteTokenizer,
                      max_seq_len: int):
    """BOS + instruction + SEP + output + EOS with the loss mask on output+EOS.

    Over-length sequences lose instruction tokens from the left first, then
    output tokens from the right; an example whose output is fully truncated
    is skipped (returns None) with a warning.
    """
    instr = tokenizer.encode(ex.instruction)
    out = tokenizer.encode(ex.output)
    overflow = (len(instr) + len(out) + 3) - max_seq_len
    if overflow > 0:
        drop = min(overflow, len(instr))
        instr = instr[drop:]
        overflow -= drop
    if overflow > 0:
        out = out[: len(out) - overflow]
    if not out:
        warnings.warn(f"skipping example with fully truncated output: {ex.instruction[:40]!r}")
        return None
    tokens = [tokenizer.BOS] + instr + [tokenizer.SEP] + out + [tokenizer.EOS]
    mask = [0] * (len(instr) + 2) + [1] * (len(out) + 1)
    return tokens, mask


def pack_batch(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tokens, loss mask, bounds) of a list of (tokens, mask) examples."""
    tokens, bounds = pack_sequences([tokens for tokens, _ in batch])
    return tokens, np.concatenate([mask for _, mask in batch]), bounds


def dataset_loss(model: Transformer, examples: Sequence[InstructionExample],
                 tokenizer: ByteTokenizer | None = None) -> float:
    """Masked next-token loss over a dataset, averaged per scored token."""
    tokenizer = tokenizer or ByteTokenizer()
    encoded = [enc for enc in (tokenize_and_mask(ex, tokenizer, model.cfg.max_seq_len)
                               for ex in examples) if enc is not None]
    total, weight = 0.0, 0.0
    with tn.no_grad():
        for chunk in token_chunks(encoded, EVAL_PACK_TOKENS, length=lambda enc: len(enc[0])):
            tokens, mask, bounds = pack_batch(chunk)
            _, loss = model_forward_loss(model, tokens, mask, bounds, per_token=True)
            n = float(sum(sum(m[1:]) for _, m in chunk))
            total += float(loss.data) * n
            weight += n
    if weight == 0:
        raise ValueError("dataset produced no scoreable tokens")
    return total / weight


class ModelTrainable:
    """Adapter exposing every model parameter to the training loop."""

    def __init__(self, model: Transformer):
        self.model = model

    @property
    def max_seq_len(self) -> int:
        return self.model.cfg.max_seq_len

    def named_parameters(self) -> dict[str, Tensor]:
        return self.model.named_parameters()

    def batch_loss(self, batch) -> Tensor:
        """Mean over the (tokens, mask) examples of each one's masked mean loss."""
        return model_forward_loss(self.model, *pack_batch(batch))[1]


def sft_train(trainable, examples: Sequence[InstructionExample], hyper: TrainHyper,
              tokenizer: ByteTokenizer | None = None,
              post_step: Callable[[int], None] | None = None) -> list[float]:
    """Seeded shuffled mini-batch training; returns the per-step loss curve.

    ``trainable`` is either a Transformer (all parameters trained) or an
    adapter with ``named_parameters``/``batch_loss``. Each step is one graph
    over the whole packed minibatch. Aborts with
    TrainingDiverged on a non-finite loss, leaving no partial output.
    """
    if isinstance(trainable, Transformer):
        trainable = ModelTrainable(trainable)
    tokenizer = tokenizer or ByteTokenizer()
    if not examples:
        raise ValueError("dataset must be nonempty")

    encoded = []
    for ex in examples:
        enc = tokenize_and_mask(ex, tokenizer, trainable.max_seq_len)
        if enc is not None:
            encoded.append(enc)
    if not encoded:
        raise ValueError("no usable examples after tokenization")

    if hyper.epochs == 0:
        return []
    steps_per_epoch = math.ceil(len(encoded) / hyper.batch_size)
    total_steps = hyper.epochs * steps_per_epoch
    if hyper.warmup_steps >= total_steps:
        raise ValueError(f"warmup_steps {hyper.warmup_steps} must be < total steps {total_steps}")

    params = trainable.named_parameters()
    optimizer = AdamW(params, weight_decay=hyper.weight_decay)
    rng = np.random.default_rng(hyper.seed)
    curve: list[float] = []
    step = 0
    for _ in range(hyper.epochs):
        order = rng.permutation(len(encoded))
        for start in range(0, len(encoded), hyper.batch_size):
            batch = [encoded[i] for i in order[start:start + hyper.batch_size]]
            loss = trainable.batch_loss(batch)
            value = float(loss.data)
            if not math.isfinite(value):
                raise TrainingDiverged(f"loss diverged at step {step}: {value}")
            for p in params.values():
                p.grad = None
            tn.backward(loss)
            clip_global_norm(list(params.values()), hyper.clip_norm)
            optimizer.step(lr_at_step(step, hyper, total_steps))
            if post_step is not None:
                post_step(step)
            curve.append(value)
            step += 1
    return curve
