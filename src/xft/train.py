"""Supervised fine-tuning loop shared by the dense baseline, the upcycled
MoE, and the mixing-coefficient learning phase.

Training is strictly sequential and seeded: the same (model, data, hyper,
seed) produces bit-identical parameters. What gets trained is what the
trainable handed to ``sft_train`` names: a transformer trains everything, the
merge phase trains only its mixing logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from xft import tensor as tn
from xft.model import (
    EVAL_PACK_TOKENS,
    Transformer,
    model_forward_loss,
    pack_batch,
    token_chunks,
)
from xft.tensor import Tensor


class TrainingDiverged(RuntimeError):
    pass


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01  # decoupled; AdamW applies it to matrices only
CLIP_NORM = 1.0  # bound on the global gradient norm before each update
MIN_SEQ_LEN = 4  # BOS, SEP, one output token and EOS


@dataclass
class TrainHyper:
    batch_size: int = 8
    peak_lr: float = 1e-3
    warmup_steps: int = 0
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.peak_lr < math.inf:
            raise ValueError(f"peak_lr must be positive and finite, got {self.peak_lr}")
        if self.epochs < 0 or self.warmup_steps < 0:
            raise ValueError("epochs and warmup_steps must be non-negative")


def steps_per_epoch(n_examples: int, batch_size: int) -> int:
    """Optimizer steps in one pass over ``n_examples`` (at least one)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return max(1, math.ceil(n_examples / batch_size))


def lr_at_step(step: int, hyper: TrainHyper, total_steps: int) -> float:
    """Linear ramp 0 -> peak over warmup, then linear decay peak -> 0."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if step < hyper.warmup_steps:
        return hyper.peak_lr * step / hyper.warmup_steps
    return hyper.peak_lr * (total_steps - step) / (total_steps - hyper.warmup_steps)


class AdamW:
    """Adaptive-moment update with decoupled weight decay on matrices only."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient in {name!r} at update {self.t}")
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            if p.data.ndim - (".moe.experts." in name) >= 2:  # stacked: N matrices or N biases
                update = update + WEIGHT_DECAY * p.data
            p.data -= lr * update


def clip_global_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint 2-norm is at most ``max_norm``."""
    sq = 0.0
    for p in params:
        if p.grad is not None:
            g64 = p.grad.astype(np.float64)
            sq += float(np.square(g64, out=g64).sum())
            del g64  # one float64 copy alive at a time
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
    output tokens from the right. ``max_seq_len`` must be at least
    ``MIN_SEQ_LEN``, so that at least one output token survives.
    """
    if max_seq_len < MIN_SEQ_LEN:
        raise ValueError(f"max_seq_len {max_seq_len} leaves no room for an output token; "
                         f"it must be at least {MIN_SEQ_LEN}")
    instr = tokenizer.encode(ex.instruction)
    out = tokenizer.encode(ex.output)
    overflow = (len(instr) + len(out) + 3) - max_seq_len
    if overflow > 0:
        drop = min(overflow, len(instr))
        instr = instr[drop:]
        overflow -= drop
    if overflow > 0:
        out = out[: len(out) - overflow]
    tokens = [tokenizer.BOS] + instr + [tokenizer.SEP] + out + [tokenizer.EOS]
    mask = [0] * (len(instr) + 2) + [1] * (len(out) + 1)
    return tokens, mask


def encode_examples(examples: Sequence[InstructionExample], max_seq_len: int) -> list:
    """``tokenize_and_mask`` of every example under the byte tokenizer."""
    tokenizer = ByteTokenizer()
    return [tokenize_and_mask(ex, tokenizer, max_seq_len) for ex in examples]


def dataset_loss(model: Transformer, examples: Sequence[InstructionExample]) -> float:
    """Masked next-token loss over a dataset, averaged per scored token."""
    encoded = encode_examples(examples, model.cfg.max_seq_len)
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


def sft_train(trainable, examples: Sequence[InstructionExample], hyper: TrainHyper,
              post_step: Callable[[int], None] | None = None) -> list[float]:
    """Seeded shuffled mini-batch training; returns the per-step loss curve.

    ``trainable`` has a ``cfg``, ``named_parameters()`` (what gets trained)
    and ``batch_loss(batch)``: a Transformer trains all its parameters, the
    merge phase's trainable only its mixing logits. Each step is one graph
    over the whole packed minibatch. Aborts with TrainingDiverged on a
    non-finite loss, leaving no partial output.
    """
    if not examples:
        raise ValueError("dataset must be nonempty")

    encoded = encode_examples(examples, trainable.cfg.max_seq_len)

    if hyper.epochs == 0:
        return []
    total_steps = hyper.epochs * steps_per_epoch(len(encoded), hyper.batch_size)
    if hyper.warmup_steps >= total_steps:
        raise ValueError(f"warmup_steps {hyper.warmup_steps} must be < total steps {total_steps}")

    params = trainable.named_parameters()
    optimizer = AdamW(params)
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
            clip_global_norm(list(params.values()), CLIP_NORM)
            optimizer.step(lr_at_step(step, hyper, total_steps))
            if post_step is not None:
                post_step(step)
            curve.append(value)
            step += 1
    return curve
