"""Routing statistics and the two-expert ensembling identity check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xft import tensor as tn
from xft.model import (
    EVAL_PACK_TOKENS,
    ModelConfig,
    Transformer,
    attention_forward,
    build_dense_model,
    build_ffn,
    ffn_forward,
    pack_sequences,
    token_chunks,
)
from xft.moe import MoEConfig, MoELayer
from xft.tensor import Tensor


@dataclass
class ExpertLoadReport:
    """Per-layer share of routing assignments received by each normal expert.

    Counts are normalized per assignment (tokens x (K-1) selections), which
    makes the uniform reference exactly 1/(N-1). The shared expert is
    excluded: it receives every token by construction.
    """

    corpus: str
    n_tokens: int
    n_experts: int
    top_k: int
    counts: np.ndarray  # [n_layers, n_experts - 1] int64

    @property
    def n_layers(self) -> int:
        return self.counts.shape[0]

    @property
    def uniform_reference(self) -> float:
        return 1.0 / (self.n_experts - 1)

    def proportions(self) -> np.ndarray:
        totals = self.counts.sum(axis=1, keepdims=True)
        return self.counts / np.maximum(totals, 1)

    def rows(self) -> list[dict]:
        props = self.proportions()
        return [
            {"layer": layer, "expert": expert + 1,
             "proportion": float(props[layer, expert]),
             "count": int(self.counts[layer, expert])}
            for layer in range(self.n_layers)
            for expert in range(self.n_experts - 1)
        ]

    def to_json_obj(self) -> dict:
        return {
            "corpus": self.corpus,
            "tokens": self.n_tokens,
            "n_experts": self.n_experts,
            "top_k": self.top_k,
            "uniform_reference": self.uniform_reference,
            "rows": self.rows(),
        }

    def render(self, width: int = 50) -> str:
        """Text bar chart with the 1/(N-1) uniform reference marked."""
        props = self.proportions()
        uniform = self.uniform_reference
        scale = width / max(float(props.max()), uniform, 1e-9)
        ruler_pos = int(round(uniform * scale))
        lines = [f"routing assignments on {self.corpus!r} "
                 f"({self.n_tokens} tokens, top {self.top_k} of {self.n_experts})"]
        for layer in range(self.n_layers):
            lines.append(f"layer {layer}  (uniform 1/{self.n_experts - 1} = {uniform:.4f})")
            for expert in range(self.n_experts - 1):
                p = float(props[layer, expert])
                bar = "#" * int(round(p * scale))
                lines.append(f"  expert {expert + 1} |{bar:<{width}}| "
                             f"{p:.4f} ({int(self.counts[layer, expert])})")
            lines.append(f"  uniform  |{' ' * max(ruler_pos - 1, 0)}^")
        return "\n".join(lines)


def expert_load_histogram(model: Transformer, sequences, corpus_label: str = "corpus") -> ExpertLoadReport:
    """Forward the corpus and count each normal expert's selections."""
    if not model.is_moe:
        raise ValueError("expert_load_histogram needs an MoE model")
    sequences = list(sequences)
    if not sequences:
        raise ValueError("corpus must be nonempty")
    cfg: MoEConfig = model.blocks[0].slot.cfg
    counts = np.zeros((len(model.blocks), cfg.n_experts - 1), dtype=np.int64)
    n_tokens = 0
    with tn.no_grad():
        for chunk in token_chunks(sequences, EVAL_PACK_TOKENS):
            tokens, bounds = pack_sequences(chunk)
            _, routing = model.hidden(tokens, bounds)
            n_tokens += tokens.size
            for layer, record in enumerate(routing):
                counts[layer] += np.bincount(record.selected[:, 1:].ravel() - 1,
                                             minlength=cfg.n_experts - 1)
    return ExpertLoadReport(corpus_label, n_tokens, cfg.n_experts, cfg.top_k, counts)


def ensemble_identity_check(alpha: float, seed: int, n_inputs: int = 100,
                            seq_len: int = 8) -> float:
    """Max logit deviation between a constant-gate two-expert model and the
    matching output ensemble.

    The instance is a one-layer transformer whose MoE layer holds two experts
    that are both always selected with fixed gates (1 - alpha, alpha), and
    whose post-MoE path is a bare linear unembedding. The two dense models
    share the attention layer and unembedding but keep one expert each, so
    the MoE logits should equal the gate-weighted sum of their logits.
    """
    cfg = ModelConfig(vocab_size=23, d_model=16, n_layers=1, n_heads=2, d_ff=24,
                      max_seq_len=max(seq_len, 2))
    rng = np.random.default_rng(seed)
    base = build_dense_model(cfg, seed=seed)
    block = base.blocks[0]
    expert_a = block.slot
    expert_b = build_ffn(rng, cfg, std=0.08)
    layer = MoELayer([expert_a, expert_b],
                     Tensor(np.zeros((2, cfg.d_model), dtype=np.float32)),
                     MoEConfig(n_experts=2, top_k=2))
    gates = np.array([1.0 - alpha, alpha], dtype=np.float32)

    worst = 0.0
    with tn.no_grad():
        for _ in range(n_inputs):
            tokens = rng.integers(0, cfg.vocab_size, size=seq_len)
            x = tn.gather_rows(base.tok_emb, tokens) + tn.gather_rows(
                base.pos_emb, np.arange(seq_len))
            u = attention_forward(x, block, cfg)

            h_moe, _ = layer.forward(u, router_override=([0, 1], gates))
            logits_moe = (h_moe @ base.unembed).data

            ensemble = np.zeros_like(logits_moe)
            for gate, expert in zip(gates, layer.experts):
                h = u + ffn_forward(u, expert)
                ensemble += gate * (h @ base.unembed).data
            worst = max(worst, float(np.abs(logits_moe - ensemble).max()))
    return worst
