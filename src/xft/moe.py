"""Shared-expert MoE layer and the dense-to-MoE upcycling transform.

Expert 0 is the shared expert: it is deterministically selected for every
token and excluded from the router competition (its centroid row is never
scored). The remaining "normal" experts compete through a softmax over
router-centroid dot products. With routing weight normalization enabled, the
selected gates always sum to 1, so an upcycled layer whose experts are
copies of the original FFN reproduces the dense layer's output exactly.

Expert indices are 0-based here; the shared expert is index 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from xft import tensor as tn
from xft.model import FFNWeights, Transformer, assemble
from xft.model import ffn_forward  # noqa: F401  the benchmark's moe.experts span wraps this binding
from xft.tensor import Tensor

SHARED_EXPERT = 0


@dataclass
class MoEConfig:
    n_experts: int = 8
    top_k: int = 6                      # selected experts per token, shared included
    normalization_enabled: bool = True  # False: raw affinity gates (scale mismatch)
    router_init_std: float = 0.02

    def __post_init__(self):
        if self.n_experts < 2:
            raise ValueError(f"n_experts must be >= 2, got {self.n_experts}")
        if not 2 <= self.top_k <= self.n_experts:
            raise ValueError(
                f"top_k must lie in [2, n_experts={self.n_experts}], got {self.top_k}"
            )
        if not 0 < self.router_init_std < math.inf:
            raise ValueError(
                f"router_init_std must be positive and finite, got {self.router_init_std}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class RoutingRecord:
    """One ``MoELayer.forward`` call's routing, as arrays over its T tokens.

    ``selected`` [T, K] and ``gates`` [T, K] list the shared expert first,
    then the normal experts in descending affinity; ``scores`` [T, N-1] holds
    the normal experts' affinities.
    """

    __slots__ = ("selected", "gates", "scores")

    def __init__(self, selected: np.ndarray, gates: np.ndarray, scores: np.ndarray):
        self.selected = selected
        self.gates = gates
        self.scores = scores


class MoELayer:
    """N expert FFNs plus router centroids, replacing one dense FFN slot."""

    def __init__(self, experts: list[FFNWeights], centroids: Tensor, cfg: MoEConfig):
        if len(experts) != cfg.n_experts:
            raise ValueError(f"expected {cfg.n_experts} experts, got {len(experts)}")
        if centroids.shape != (cfg.n_experts, experts[0].w_up.shape[0]):
            raise ValueError(f"centroid shape {centroids.shape} inconsistent with config")
        self.experts = experts
        self.centroids = centroids  # [N, d_model]; row 0 (shared) takes no part in routing
        self.cfg = cfg

    def named_tensors(self):
        yield "centroids", self.centroids
        for i, expert in enumerate(self.experts):
            for name, tensor in expert.tensors().items():
                yield f"experts.{i}.{name}", tensor

    def normal_affinities(self, u: Tensor) -> Tensor:
        """Softmax affinities of the normal experts, [T, N-1], gradient-tracked."""
        normal_centroids = tn.gather_rows(self.centroids, np.arange(1, self.cfg.n_experts))
        return tn.softmax(u @ normal_centroids.transpose())

    def forward(self, u: Tensor):
        """The residual u plus the gated shared and selected experts (one
        ``tn.expert_ffn`` node after the router), and the call's ``RoutingRecord``."""
        scores = self.normal_affinities(u)        # [T, N-1]
        sel = np.argsort(-scores.data, axis=1, kind="stable")[:, :self.cfg.top_k - 1]
        experts = [(e.w_up, e.b_up, e.w_down, e.b_down) for e in self.experts]
        h, gates = tn.expert_ffn(u, scores, sel, experts, self.cfg.normalization_enabled)
        selected = np.concatenate((np.full((u.shape[0], 1), SHARED_EXPERT), sel + 1), axis=1)
        return h, RoutingRecord(selected, gates, scores.data)


def upcycle_dense_to_moe(dense: Transformer, cfg: MoEConfig, seed: int = 0) -> Transformer:
    """Replace every FFN slot with an MoE layer of N identical expert copies.

    All non-slot parameters are copied verbatim; router centroids are drawn
    from N(0, router_init_std) under ``seed``.
    """
    if dense.is_moe:
        raise ValueError("upcycle input must be a dense model")
    rng = np.random.default_rng(seed)
    params = dense.named_parameters()

    def tensor(name: str, shape) -> Tensor:
        if name.endswith(".centroids"):
            data = rng.normal(0.0, cfg.router_init_std, size=shape).astype(np.float32)
        else:  # layers.i.moe.experts.e.k copies layers.i.ffn.k
            layer, expert, key = name.partition(".moe.experts.")
            data = params[f"{layer}.ffn.{key.split('.')[1]}" if expert else name].data.copy()
        return Tensor(data, requires_grad=True)

    return assemble(dense.cfg, cfg, tensor)
