"""Routing statistics: the per-layer expert-load histogram."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xft import tensor as tn
from xft.model import EVAL_PACK_TOKENS, Transformer, pack_sequences, token_chunks


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
    cfg = model.moe_cfg
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
