"""Shared-expert MoE layer and the dense-to-MoE upcycling transform.

Expert 0 is the shared expert: it is deterministically selected for every
token and excluded from the router competition (its affinity is a -inf
sentinel). The remaining "normal" experts compete through a softmax over
router-centroid dot products. With routing weight normalization enabled, the
selected gates always sum to 1, so an upcycled layer whose experts are
copies of the original FFN reproduces the dense layer's output exactly.

Expert indices are 0-based here; the shared expert is index 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from xft import tensor as tn
from xft.model import FFNWeights, Transformer, ffn_forward
from xft.tensor import Tensor

SHARED_EXPERT = 0

DEFAULT_N_EXPERTS = 8
DEFAULT_TOP_K = 6


@dataclass
class MoEConfig:
    n_experts: int = DEFAULT_N_EXPERTS
    top_k: int = DEFAULT_TOP_K          # selected experts per token, shared included
    normalization_enabled: bool = True  # False: raw affinity gates (scale mismatch)
    router_init_std: float = 0.02

    def __post_init__(self):
        if self.n_experts < 2:
            raise ValueError(f"n_experts must be >= 2, got {self.n_experts}")
        if not 2 <= self.top_k <= self.n_experts:
            raise ValueError(
                f"top_k must lie in [2, n_experts={self.n_experts}], got {self.top_k}"
            )
        if self.router_init_std <= 0:
            raise ValueError("router_init_std must be positive")

    def to_dict(self) -> dict:
        return {
            "n_experts": self.n_experts,
            "top_k": self.top_k,
            "normalization_enabled": self.normalization_enabled,
            "router_init_std": self.router_init_std,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MoEConfig":
        return cls(
            n_experts=int(d["n_experts"]),
            top_k=int(d["top_k"]),
            normalization_enabled=bool(d["normalization_enabled"]),
            router_init_std=float(d["router_init_std"]),
        )


@dataclass
class RouterDecision:
    """One token's routing outcome.

    ``scores`` holds the normal experts' affinities (softmax outputs), indexed
    by expert - 1. ``selected`` lists expert indices, shared expert first,
    normal experts in descending affinity; ``gates`` aligns with it.
    """

    scores: np.ndarray | None
    s_max: float
    selected: list[int]
    gates: np.ndarray


class RoutingRecord:
    """One ``MoELayer.forward`` call's routing, as arrays over its T tokens.

    ``selected`` [T, K] and ``gates`` [T, K] list the shared expert first,
    then the normal experts in descending affinity; ``scores`` [T, N-1] holds
    the normal experts' affinities. Indexing, ``len`` and iteration give the
    per-token ``RouterDecision`` view, built only when asked for.
    """

    __slots__ = ("selected", "gates", "scores")

    def __init__(self, selected: np.ndarray, gates: np.ndarray, scores: np.ndarray):
        self.selected = selected
        self.gates = gates
        self.scores = scores

    def __len__(self) -> int:
        return self.selected.shape[0]

    def __getitem__(self, i: int) -> RouterDecision:
        scores = self.scores[i]
        return RouterDecision(scores=scores.copy(), s_max=float(scores.max()),
                              selected=self.selected[i].tolist(), gates=self.gates[i].copy())

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _ranked_indices(scores_row: np.ndarray) -> np.ndarray:
    """Descending-score order; ties resolve toward the lower index."""
    return np.argsort(-scores_row, kind="stable")


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

    def copy(self, conv: Callable[[Tensor], Tensor]) -> "MoELayer":
        experts = [FFNWeights(**{k: conv(v) for k, v in e.tensors().items()}) for e in self.experts]
        return MoELayer(experts, conv(self.centroids), self.cfg)

    def normal_affinities(self, u: Tensor) -> Tensor:
        """Softmax affinities of the normal experts, [T, N-1], gradient-tracked."""
        normal_centroids = tn.gather_rows(self.centroids, np.arange(1, self.cfg.n_experts))
        return tn.softmax(u @ normal_centroids.transpose(), axis=-1)

    def forward(self, u: Tensor, activation: Callable = tn.gelu,
                router_override: tuple[list[int], np.ndarray] | None = None):
        """Weighted sum of the selected experts' outputs plus the residual u,
        and the ``RoutingRecord`` of the call.

        ``router_override`` bypasses the router with fixed (selected experts,
        gates); gates may be [K] (constant across tokens) or [T, K]. That path
        records no routing and returns an empty list in its place.
        """
        t = u.shape[0]
        if router_override is not None:
            selected, gates = router_override
            gates = np.asarray(gates, dtype=u.data.dtype)
            if gates.ndim == 1:
                gates = np.broadcast_to(gates, (t, gates.shape[0]))
            h = u
            for j, e in enumerate(selected):
                col = Tensor(np.ascontiguousarray(gates[:, j:j + 1]))
                h = h + ffn_forward(u, self.experts[e], activation) * col
            return h, []

        r = self.cfg.top_k - 1                    # normal-expert slots per token
        scores = self.normal_affinities(u)        # [T, N-1]
        sd = scores.data
        ranked = np.argsort(-sd, axis=1, kind="stable")
        sel = ranked[:, :r]                       # [T, K-1] normal-expert slots (expert - 1)

        s_max = tn.take_along_rows(scores, ranked[:, :1])      # [T, 1]
        shared_gate = 1.0 - s_max                               # [T, 1]
        picked = tn.take_along_rows(scores, sel)                # [T, K-1]
        if self.cfg.normalization_enabled:
            normal_gates = tn.softmax(picked, axis=-1) * s_max
        else:
            normal_gates = picked  # raw affinities: gate sum is not constrained

        h = u + ffn_forward(u, self.experts[SHARED_EXPERT], activation) * shared_gate

        # Dropless grouped dispatch: sort the T*(K-1) (token, slot) pairs by
        # expert, run each expert once on its contiguous block of rows, and
        # sum each token's gated outputs back in place.
        slots = sel.reshape(-1)
        order = np.argsort(slots, kind="stable")
        counts = np.bincount(slots, minlength=self.cfg.n_experts - 1)
        ends = np.cumsum(counts)
        rows = tn.dispatch_rows(u, order, r)
        gates = tn.dispatch_rows(normal_gates.reshape((t * r, 1)), order, 1)
        outputs = [ffn_forward(tn.slice_rows(rows, lo, hi), self.experts[e + 1], activation)
                   for e, (lo, hi) in enumerate(zip(ends - counts, ends))
                   if hi > lo]
        h = h + tn.combine_rows(tn.concat_rows(outputs) * gates, order, r)

        record = RoutingRecord(
            selected=np.concatenate((np.full((t, 1), SHARED_EXPERT), sel + 1), axis=1),
            gates=np.concatenate((shared_gate.data, normal_gates.data), axis=1),
            scores=sd,
        )
        return h, record


def moe_layer_forward(u: Tensor, layer: MoELayer, activation: Callable = tn.gelu,
                      router_override=None):
    """Functional form of ``MoELayer.forward``."""
    return layer.forward(u, activation=activation, router_override=router_override)


def affinity_scores(u, layer: MoELayer) -> np.ndarray:
    """Per-expert affinities with a -inf sentinel in the shared slot.

    The sentinel keeps the shared expert out of top-k and max; normal experts
    get the softmax of their centroid dot products. Accepts [d] or [T, d].
    """
    arr = u.data if isinstance(u, Tensor) else np.asarray(u, dtype=np.float32)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    with tn.no_grad():
        normal = layer.normal_affinities(Tensor(arr)).data
    out = np.full((arr.shape[0], layer.cfg.n_experts), -np.inf, dtype=normal.dtype)
    out[:, 1:] = normal
    return out[0] if single else out


def route_standard(s: np.ndarray, k: int) -> RouterDecision:
    """Top-k routing with raw softmax gates (no shared expert).

    ``s`` is the plain softmax over all experts; the selected gates are the
    raw scores, so their sum is generally below 1.
    """
    s = np.asarray(s)
    if k > s.shape[0]:
        raise ValueError(f"top_k {k} exceeds expert count {s.shape[0]}")
    ranked = _ranked_indices(s)[:k]
    return RouterDecision(
        scores=s.copy(),
        s_max=float(s[ranked[0]]),
        selected=[int(i) for i in ranked],
        gates=s[ranked].copy(),
    )


def route_shared_normalized(s: np.ndarray, k: int, normalized: bool = True) -> RouterDecision:
    """Shared-expert routing over an affinity vector from ``affinity_scores``.

    The shared expert (slot 0, -inf sentinel) is always selected with gate
    1 - s_max. The top k-1 normal experts get softmax-normalized gates scaled
    by s_max, so all selected gates sum to 1; with ``normalized`` off, the
    raw affinities are used instead and the sum constraint is dropped.
    """
    s = np.asarray(s)
    n = s.shape[0]
    if k < 2:
        raise ValueError("top_k must be at least 2 (shared plus one normal expert)")
    if k - 1 > n - 1:
        raise ValueError(f"top_k-1 = {k - 1} exceeds normal expert count {n - 1}")
    normal = s[1:]
    ranked = _ranked_indices(normal)
    sel = ranked[: k - 1]
    s_max = float(normal[ranked[0]])
    picked = normal[sel].astype(np.float64)
    if normalized:
        e = np.exp(picked - picked.max())
        normal_gates = (e / e.sum()) * s_max
    else:
        normal_gates = picked
    return RouterDecision(
        scores=normal.copy(),
        s_max=s_max,
        selected=[SHARED_EXPERT] + [int(i) + 1 for i in sel],
        gates=np.concatenate(([1.0 - s_max], normal_gates)),
    )


def upcycle_dense_to_moe(dense: Transformer, cfg: MoEConfig, seed: int = 0) -> Transformer:
    """Replace every FFN slot with an MoE layer of N identical expert copies.

    All non-slot parameters are copied verbatim; router centroids are drawn
    from N(0, router_init_std) under ``seed``.
    """
    if dense.is_moe:
        raise ValueError("upcycle input must be a dense model")
    rng = np.random.default_rng(seed)
    d_model = dense.cfg.d_model

    out = dense.copy()
    for block in out.blocks:
        ffn: FFNWeights = block.slot
        experts = [
            FFNWeights(**{k: Tensor(v.data.copy(), requires_grad=True)
                          for k, v in ffn.tensors().items()})
            for _ in range(cfg.n_experts)
        ]
        centroids = Tensor(
            rng.normal(0.0, cfg.router_init_std, size=(cfg.n_experts, d_model)).astype(np.float32),
            requires_grad=True,
        )
        block.slot = MoELayer(experts, centroids, cfg)
    return out
