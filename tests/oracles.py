"""Reference paths the fast ones are checked against: per-token routers for
``MoELayer.forward``, which routes whole batches as arrays, uncached greedy
decoding for ``generate_greedy``, which runs each new token against a
key/value cache, the composed expressions that ``tn.linear``, ``tn.ffn`` and
``tn.expert_ffn`` compute as one node each, with the bias add and row ops
they are built from, the ``reshape`` and ``identity`` ops the tests use, and
GELU as whole-array expressions, which ``tn.gelu`` evaluates in place. The
system itself never calls these."""

import math
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


def generate_uncached(model, prompt, max_new: int) -> list[int]:
    """Greedy decoding that reruns ``model.logits`` on the whole prefix for
    every new token; ties break toward the lower token id."""
    seq = [int(t) for t in prompt]
    with tn.no_grad():
        for _ in range(max_new):
            if len(seq) >= model.cfg.max_seq_len:
                break
            seq.append(int(np.argmax(model.logits(seq).data[-1])))
    return seq


def add_bias(a, b):
    """a + b for a matrix a and a bias b along its last axis."""
    if b.ndim != 1 or a.shape[-1] != b.shape[0]:
        raise ValueError(f"add_bias shape mismatch: {a.shape} + {b.shape}")
    return tn._make(a.data + b.data, (a, b),
                    lambda g: (g, tn._sum_to_last_axis(g) if b.requires_grad else None))


def reshape(a, shape):
    """``a`` with its elements in row-major order laid out as ``shape``."""
    return tn._make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def identity(a):
    """Identity activation, a stand-in for GELU as ``tn.ffn``'s activation."""
    return tn._make(a.data.copy(), (a,), lambda g: (g,))


def linear_composed(x, w, b):
    """``tn.linear`` as two nodes: matmul, then bias add."""
    return add_bias(x @ w, b)


def ffn_composed(u, w_up, b_up, w_down, b_down, activation):
    """``tn.ffn`` as five nodes: matmul, bias add, activation, matmul, bias add."""
    return add_bias(activation(add_bias(u @ w_up, b_up)) @ w_down, b_down)


def slice_rows(a, start: int, stop: int):
    """Rows ``start:stop`` of a matrix."""
    if a.ndim != 2:
        raise ValueError(f"slice_rows expects a matrix, got shape {a.shape}")

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return (ga,)

    return tn._make(a.data[start:stop], (a,), bw)


def concat_rows(parts):
    parts = tuple(parts)
    if not parts or any(p.ndim != 2 for p in parts):
        raise ValueError("concat_rows expects a nonempty sequence of matrices")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def bw(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return tn._make(np.concatenate([p.data for p in parts], axis=0), parts, bw)


def _check_slots(a, order: np.ndarray, n_slots: int, op: str) -> None:
    if a.ndim != 2 or order.shape != (n_slots,):
        raise ValueError(f"{op} shape mismatch: {a.shape} with order {order.shape}")


def dispatch_rows(a, order, group: int):
    """out[i] = a[order[i] // group] for a permutation ``order`` of the
    a.shape[0] * group slots, slot j of row r being r * group + j. The
    backward pass is ``combine_rows``."""
    order = np.asarray(order, dtype=np.intp)
    _check_slots(a, order, a.shape[0] * group, "dispatch_rows")
    return tn._make(a.data[order // group], (a,), lambda g: (tn._slot_sum(g, order, group),))


def combine_rows(a, order, group: int):
    """Adjoint of ``dispatch_rows``: out[r] = sum over j of the slot row that
    ``order`` moved r * group + j to. [R * group, d] -> [R, d]."""
    order = np.asarray(order, dtype=np.intp)
    _check_slots(a, order, a.shape[0], "combine_rows")
    return tn._make(tn._slot_sum(a.data, order, group), (a,), lambda g: (g[order // group],))


def expert_ffn_composed(u, gates, sel, experts):
    """``tn.expert_ffn`` as composed nodes: the rows and the gates dispatched
    in expert order, one slice and one ``tn.ffn`` per non-empty expert, their
    concatenation, the gate product and the combine."""
    t, k = sel.shape
    slots = sel.reshape(-1)
    order = np.argsort(slots, kind="stable")
    counts = np.bincount(slots, minlength=len(experts))
    ends = np.cumsum(counts)
    rows = dispatch_rows(u, order, k)
    gate_rows = dispatch_rows(reshape(gates, (t * k, 1)), order, 1)
    outputs = [tn.ffn(slice_rows(rows, lo, hi), *experts[e], tn.gelu)
               for e, (lo, hi) in enumerate(zip(ends - counts, ends)) if hi > lo]
    return combine_rows(concat_rows(outputs) * gate_rows, order, k)


def gelu_expressions(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximation GELU and its derivative at x, one expression each."""
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(c * (x + a * x * x * x))
    y = 0.5 * x * (1.0 + t)
    dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (c * (1.0 + 3.0 * a * x * x))
    return y, dy
