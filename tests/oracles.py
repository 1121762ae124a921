"""Per-token reference routers: the oracles ``MoELayer.forward`` is checked
against. The system itself routes whole batches as arrays and never calls these."""

from dataclasses import dataclass

import numpy as np

from xft import tensor as tn
from xft.moe import SHARED_EXPERT, MoELayer
from xft.tensor import Tensor


@dataclass
class RouterDecision:
    """One token's routing outcome, as returned by the reference routers.

    ``scores`` holds the normal experts' affinities (softmax outputs), indexed
    by expert - 1. ``selected`` lists expert indices, shared expert first,
    normal experts in descending affinity; ``gates`` aligns with it.
    """

    scores: np.ndarray | None
    s_max: float
    selected: list[int]
    gates: np.ndarray


def _ranked_indices(scores_row: np.ndarray) -> np.ndarray:
    """Descending-score order; ties resolve toward the lower index."""
    return np.argsort(-scores_row, kind="stable")


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
