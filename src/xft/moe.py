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
    """N expert FFNs, stacked, plus router centroids, replacing one dense FFN slot."""

    def __init__(self, weights: FFNWeights, centroids: Tensor, cfg: MoEConfig):
        n, (d, f) = cfg.n_experts, weights.w_up.shape[-2:]
        shapes = [t.shape for t in weights.tensors().values()]
        if shapes != [(n, d, f), (n, f), (n, f, d), (n, d)] or centroids.shape != (n, d):
            raise ValueError(f"expert shapes {shapes}, centroids {centroids.shape}: not {n} experts")
        self.weights = weights      # each [N, ...], expert 0 (shared) first
        self.centroids = centroids  # [N, d_model]; row 0 (shared) takes no part in routing
        self.cfg = cfg

    @property
    def experts(self) -> tuple[FFNWeights, ...]:
        """Per-expert views of the stacked weights: writing their data writes the layer's."""
        return tuple(FFNWeights(*(Tensor(t.data[e]) for t in self.weights.tensors().values()))
                     for e in range(self.cfg.n_experts))

    def named_tensors(self):
        yield "centroids", self.centroids
        for name, tensor in self.weights.tensors().items():
            yield f"experts.{name}", tensor

    def normal_affinities(self, u: Tensor) -> Tensor:
        """Softmax affinities of the normal experts, [T, N-1], gradient-tracked."""
        return tn.affinities(u, self.centroids)

    def forward(self, u: Tensor):
        """The residual u plus the gated shared and selected experts (one
        ``tn.expert_ffn`` node after the router), and the call's ``RoutingRecord``."""
        scores = self.normal_affinities(u)        # [T, N-1]
        sel = np.argsort(-scores.data, axis=1, kind="stable")[:, :self.cfg.top_k - 1]
        h, gates = tn.expert_ffn(u, scores, sel, *self.weights.tensors().values(),
                                 self.cfg.normalization_enabled)
        selected = np.concatenate((np.full((u.shape[0], 1), SHARED_EXPERT), sel + 1), axis=1)
        return h, RoutingRecord(selected, gates, scores.data)


def upcycle_dense_to_moe(dense: Transformer, cfg: MoEConfig, seed: int = 0) -> Transformer:
    """Replace every FFN slot with an MoE layer whose N experts copy that FFN.

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
        else:  # layers.i.moe.experts.k repeats layers.i.ffn.k
            data = np.broadcast_to(params[name.replace("moe.experts", "ffn")].data, shape).copy()
        return Tensor(data, requires_grad=True)

    return assemble(dense.cfg, cfg, tensor)
